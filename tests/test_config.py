import json
from pathlib import Path

import pytest

from switchsde.config import config_hash, load_model_config

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def base_doc(**overrides):
    doc = {
        "name": "switched_ou",
        "params": {"theta": 1.0, "mu": 0.0, "sigma": 0.5, "c": 1.0, "delay": 1.0},
        "truncation_hint": 30,
    }
    doc.update(overrides)
    return doc


@pytest.mark.parametrize(
    "name",
    ["switched_ou", "controlled_scalar", "fluid_queue", "predator_prey", "linear_2d"],
)
def test_shipped_configs_load(name):
    loaded = load_model_config(str(CONFIG_DIR / f"{name}.json"))
    assert loaded.name == name
    assert loaded.truncation_hint >= 2
    assert len(loaded.config_hash) == 64
    assert loaded.spec.rate_bound > 0


def test_hash_is_content_addressed(tmp_path):
    p1 = write_config(tmp_path, base_doc(), "a.json")
    p2 = write_config(tmp_path, base_doc(), "b.json")
    p3 = write_config(tmp_path, base_doc(truncation_hint=31), "c.json")
    assert load_model_config(p1).config_hash == load_model_config(p2).config_hash
    assert load_model_config(p1).config_hash != load_model_config(p3).config_hash
    assert config_hash(b"x") != config_hash(b"y")


def test_missing_keys_rejected(tmp_path):
    for key in ("name", "params", "truncation_hint"):
        doc = base_doc()
        del doc[key]
        with pytest.raises(ValueError, match="missing keys"):
            load_model_config(write_config(tmp_path, doc))


def test_derived_values_are_not_config_keys(tmp_path):
    # the registry derives the dimensions and the rate bound; a config that
    # still carries them loads the same model, whatever they say
    plain = load_model_config(write_config(tmp_path, base_doc(), "a.json"))
    stale = base_doc(dim=2, brownian_dim=3, rate_bound=1.0)
    loaded = load_model_config(write_config(tmp_path, stale, "b.json"))
    assert (loaded.spec.dim, loaded.spec.brownian_dim) == (plain.spec.dim, plain.spec.brownian_dim)
    assert loaded.spec.rate_bound == plain.spec.rate_bound == 6.0
    for path in CONFIG_DIR.glob("*.json"):
        assert set(json.loads(path.read_text())) == {"name", "params", "truncation_hint"}


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_model_config(str(path))


def test_truncation_hint_floor(tmp_path):
    with pytest.raises(ValueError):
        load_model_config(write_config(tmp_path, base_doc(truncation_hint=1)))


@pytest.mark.parametrize("hint", [30.9, 30.0, True, "30"])
def test_truncation_hint_must_be_an_integer(tmp_path, hint):
    # int() once read 30.9 as 30, and true as 1, refused as "must be >= 2"
    path = write_config(tmp_path, base_doc(truncation_hint=hint))
    want = f"{path}: truncation_hint must be an integer >= 2, got {hint!r}"
    with pytest.raises(ValueError) as err:
        load_model_config(path)
    assert str(err.value) == want


def test_params_must_be_mapping(tmp_path):
    with pytest.raises(ValueError):
        load_model_config(write_config(tmp_path, base_doc(params=[1, 2])))
