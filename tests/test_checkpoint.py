import math

import numpy as np
import pytest

from copysum.autodiff import Parameter
from copysum.checkpoint import load_checkpoint, save_checkpoint
from copysum.errors import ContractError


def test_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(3)
    params = [
        Parameter(rng.normal(size=(4, 7)) * math.pi, name="layer0.weight"),
        Parameter(np.array([1.0 / 3.0, 2.0 / 3.0]), name="layer0.bias", decay_exempt=True),
        Parameter(np.float64(0.1), name="scalar"),
    ]
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, metadata={"schema_version": 1, "note": "x"})
    loaded, meta = load_checkpoint(path)
    assert meta == {"schema_version": 1, "note": "x"}
    assert set(loaded) == {"layer0.weight", "layer0.bias", "scalar"}
    for p in params:
        got = loaded[p.name]
        assert got.data.shape == p.data.shape
        assert np.array_equal(got.data, p.data)  # bit-exact
        assert got.decay_exempt == p.decay_exempt


def test_rejects_foreign_files(tmp_path):
    path = tmp_path / "not_a_checkpoint.bin"
    path.write_bytes(b"PK\x03\x04 something else entirely")
    with pytest.raises(ContractError):
        load_checkpoint(path)


def test_rejects_wrong_version(tmp_path):
    path = tmp_path / "model.bin"
    save_checkpoint(path, [Parameter([1.0], name="w")])
    raw = bytearray(path.read_bytes())
    raw[4] = 99  # bump the version field
    path.write_bytes(bytes(raw))
    with pytest.raises(ContractError):
        load_checkpoint(path)


def test_every_truncation_is_a_contract_error(tmp_path):
    rng = np.random.default_rng(4)
    params = [Parameter(rng.normal(size=(3, 2)), name="w"), Parameter([0.5], name="b")]
    path = tmp_path / "model.bin"
    save_checkpoint(path, params, metadata={"model_config": {"note": "é"}})
    raw = path.read_bytes()
    cut = tmp_path / "cut.bin"
    for size in range(len(raw)):
        cut.write_bytes(raw[:size])
        with pytest.raises(ContractError, match="cut.bin"):
            load_checkpoint(cut)
