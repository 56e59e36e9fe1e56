import math

import numpy as np
import pytest

from copysum.checkpoint import load_checkpoint, save_checkpoint
from copysum.errors import ContractError


def test_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(3)
    arrays = {
        "layer0.weight": rng.normal(size=(4, 7)) * math.pi,
        "layer0.bias": np.array([1.0 / 3.0, 2.0 / 3.0]),
        "scalar": np.float64(0.1),
    }
    path = tmp_path / "model.bin"
    save_checkpoint(path, arrays, metadata={"schema_version": 1, "note": "x"})
    loaded, meta = load_checkpoint(path)
    assert meta == {"schema_version": 1, "note": "x"}
    assert list(loaded) == list(arrays)
    for name, values in arrays.items():
        assert loaded[name].dtype == np.float64
        assert loaded[name].shape == np.shape(values)
        assert np.array_equal(loaded[name], values)  # bit-exact


def test_rejects_foreign_files(tmp_path):
    path = tmp_path / "not_a_checkpoint.bin"
    path.write_bytes(b"PK\x03\x04 something else entirely")
    with pytest.raises(ContractError):
        load_checkpoint(path)


def test_rejects_wrong_version(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, {"w": np.array([1.0])})
    raw = bytearray(path.read_bytes())
    raw[4] = 99  # bump the version field
    path.write_bytes(bytes(raw))
    with pytest.raises(ContractError):
        load_checkpoint(path)


def test_every_truncation_is_a_contract_error(tmp_path):
    rng = np.random.default_rng(4)
    arrays = {"w": rng.normal(size=(3, 2)), "b": np.array([0.5])}
    path = tmp_path / "model.bin"
    save_checkpoint(path, arrays, metadata={"model_config": {"note": "é"}})
    raw = path.read_bytes()
    cut = tmp_path / "cut.bin"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(ContractError, match="cut.bin"):
            load_checkpoint(cut)
