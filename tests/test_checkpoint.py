import os

import numpy as np
import pytest

from structvi import checkpoint
from structvi.errors import ParseError


def sample_payload(rng):
    return {
        "weights": rng.standard_normal((3, 4)),
        "bias": rng.standard_normal(5),
        "scalar": np.array(2.5),
        "cube": rng.standard_normal((2, 2, 2)),
    }


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = sample_payload(rng)
    meta = {"kind": "latent-gmm", "seed": "17", "note": "unit test"}
    path = tmp_path / "run.ckpt"
    checkpoint.save(path, arrays, meta)
    back, meta_back = checkpoint.load(path)
    assert meta_back == meta
    assert set(back) == set(arrays)
    for name, a in arrays.items():
        assert back[name].shape == np.asarray(a).shape
        assert back[name].tobytes() == np.asarray(a, dtype="<f8").tobytes()


def test_save_is_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(1)
    arrays = sample_payload(rng)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    checkpoint.save(p1, arrays, {"x": "1"})
    checkpoint.save(p2, arrays, {"x": "1"})
    assert p1.read_bytes() == p2.read_bytes()


def test_overwrite_is_atomic_no_temp_left(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "run.ckpt"
    checkpoint.save(path, sample_payload(rng), {})
    checkpoint.save(path, sample_payload(rng), {"v": "2"})
    _, meta = checkpoint.load(path)
    assert meta == {"v": "2"}
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".ckpt-")]
    assert leftovers == []


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ParseError, match="not a checkpoint"):
        checkpoint.load(path)


def test_truncation_rejected(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "run.ckpt"
    checkpoint.save(path, sample_payload(rng), {"kind": "x"})
    raw = path.read_bytes()
    clipped = tmp_path / "clipped.ckpt"
    clipped.write_bytes(raw[: len(raw) - 9])
    with pytest.raises(ParseError, match="truncated"):
        checkpoint.load(clipped)


def test_trailing_bytes_rejected(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "run.ckpt"
    checkpoint.save(path, sample_payload(rng), {})
    padded = tmp_path / "padded.ckpt"
    padded.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ParseError, match="trailing"):
        checkpoint.load(padded)


def test_non_utf8_string_rejected(tmp_path):
    path = tmp_path / "run.ckpt"
    checkpoint.save(path, {"a": np.zeros(2)}, {"note": "abc"})
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b"abc", b"a\xffc"))
    with pytest.raises(ParseError, match="UTF-8"):
        checkpoint.load(path)


def test_wrong_version_rejected(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "run.ckpt"
    checkpoint.save(path, {"a": rng.standard_normal(2)}, {})
    raw = bytearray(path.read_bytes())
    raw[8:12] = (99).to_bytes(4, "little")
    bad = tmp_path / "vers.ckpt"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match="version"):
        checkpoint.load(bad)


def test_empty_and_scalar_payloads(tmp_path):
    path = tmp_path / "empty.ckpt"
    checkpoint.save(path, {}, {"only": "meta"})
    arrays, meta = checkpoint.load(path)
    assert arrays == {} and meta == {"only": "meta"}
    path2 = tmp_path / "scalar.ckpt"
    checkpoint.save(path2, {"s": np.array(1.25)}, {})
    back, _ = checkpoint.load(path2)
    assert back["s"].shape == () and float(back["s"]) == 1.25
