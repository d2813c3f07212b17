"""Input documents: model configs and triplet generator files.

A model config names a registry family: {"name": str, "params": dict,
"truncation_hint": int}.  The registry derives the dimensions and rate
bounds from the parameters; ``truncation_hint`` supplies the default
truncation level of ``stationary`` (the certificates of every loadable
model have exact laws, which no level changes).  A triplet generator file
is {"name": str (optional), "triplets": [{"i": .., "j": .., "rate": ..},
..]}; its default truncation level is 30.  Both are read by
:func:`_read_document`, and every refusal of a document names its file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .chain import SparseGenerator, _integer
from .model import Linearization, ModelSpec
from .registry import registry_get

__all__ = ["LoadedGenerator", "LoadedModel", "load_generator", "load_model_config",
           "config_hash"]

_REQUIRED = ("name", "params", "truncation_hint")


@dataclass(frozen=True)
class LoadedModel:
    name: str
    spec: ModelSpec
    lin: Linearization
    truncation_hint: int
    config_hash: str

    @property
    def qhat(self) -> SparseGenerator:
        return self.lin.qhat


@dataclass(frozen=True)
class LoadedGenerator:
    name: str
    qhat: SparseGenerator
    config_hash: str
    truncation_hint: int = 30


def config_hash(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _read_document(path: str) -> tuple:
    """The JSON object in the file at ``path`` and the SHA-256 hash of the
    file's bytes; a file that is not UTF-8 JSON, or whose top level is not
    an object, is refused with its path."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be an object")
    return doc, config_hash(raw)


def load_model_config(path: str) -> LoadedModel:
    doc, digest = _read_document(path)
    missing = [k for k in _REQUIRED if k not in doc]
    if missing:
        raise ValueError(f"{path}: missing keys {missing}")
    if not isinstance(doc["params"], dict):
        raise ValueError(f"{path}: params must be an object")
    spec, lin = registry_get(doc["name"], doc["params"])
    try:  # int() would floor 30.9 and read true as 1
        hint = _integer("truncation_hint", doc["truncation_hint"], 2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return LoadedModel(str(doc["name"]), spec, lin, hint, digest)


def load_generator(path: str) -> LoadedGenerator:
    """The triplet generator in the file at ``path``; a refusal of
    :meth:`~switchsde.chain.SparseGenerator.from_triplets` is raised with
    the path too."""
    doc, digest = _read_document(path)
    if not isinstance(doc.get("triplets"), list):
        raise ValueError(f"{path}: 'triplets' must be a list of objects with keys i, j and rate")
    for k, e in enumerate(doc["triplets"]):
        e = e if isinstance(e, dict) else {}
        bad = [key for key in ("i", "j", "rate") if not isinstance(e.get(key), (int, float, str))]
        if bad:
            raise ValueError(f"{path}: triplets[{k}] needs a number at each of the keys {bad}")
    entries = [(e["i"], e["j"], e["rate"]) for e in doc["triplets"]]
    try:
        qhat = SparseGenerator.from_triplets(entries, name=doc.get("name", "triplets"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return LoadedGenerator(qhat.name, qhat, digest)
