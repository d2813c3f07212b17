"""Model config files: a JSON document naming a registry family.

Schema: {"name": str, "params": dict, "truncation_hint": int}.  The
registry derives the dimensions and rate bounds from the parameters;
``truncation_hint`` supplies the default truncation level for
certification.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .model import Linearization, ModelSpec
from .registry import registry_get

__all__ = ["LoadedModel", "load_model_config", "config_hash"]

_REQUIRED = ("name", "params", "truncation_hint")


@dataclass(frozen=True)
class LoadedModel:
    name: str
    spec: ModelSpec
    lin: Linearization
    truncation_hint: int
    config_hash: str


def config_hash(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def load_model_config(path: str) -> LoadedModel:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be an object")
    missing = [k for k in _REQUIRED if k not in doc]
    if missing:
        raise ValueError(f"{path}: missing keys {missing}")
    if not isinstance(doc["params"], dict):
        raise ValueError(f"{path}: params must be an object")
    spec, lin = registry_get(doc["name"], doc["params"])
    hint = int(doc["truncation_hint"])
    if hint < 2:
        raise ValueError(f"{path}: truncation_hint must be >= 2")
    return LoadedModel(
        name=str(doc["name"]),
        spec=spec,
        lin=lin,
        truncation_hint=hint,
        config_hash=config_hash(raw),
    )
