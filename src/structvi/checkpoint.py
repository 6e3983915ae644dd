"""Versioned binary checkpoints with atomic writes.

A checkpoint is a magic string, a format version, a string metadata table,
an array layout table, and then the raw payload: every array stored as
little-endian float64 in table order.  Writes go to a temporary file in the
destination directory and are renamed into place, so a crash mid-write never
leaves a truncated checkpoint behind.  Round trips are bit-exact.
"""

import os
import struct
import tempfile

import numpy as np

from .errors import ParseError

MAGIC = b"STVICKPT"
VERSION = 1


def _pack_str(s):
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _read_exact(fh, n, path):
    raw = fh.read(n)
    if len(raw) != n:
        raise ParseError(f"{path}: truncated checkpoint")
    return raw


def _read_u32(fh, path):
    return struct.unpack("<I", _read_exact(fh, 4, path))[0]


def _read_str(fh, path):
    n = _read_u32(fh, path)
    try:
        return _read_exact(fh, n, path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: a checkpoint string is not UTF-8: {exc}") from None


def save(path, arrays, meta=None):
    """Write arrays (name -> ndarray) and string metadata atomically."""
    meta = {} if meta is None else meta
    arrays = {name: np.asarray(a, dtype="<f8") for name, a in arrays.items()}
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    blob += struct.pack("<I", len(meta))
    for key in sorted(meta):
        blob += _pack_str(key)
        blob += _pack_str(str(meta[key]))
    blob += struct.pack("<I", len(arrays))
    names = sorted(arrays)
    for name in names:
        a = arrays[name]
        blob += _pack_str(name)
        blob += struct.pack("<I", a.ndim)
        blob += struct.pack(f"<{a.ndim}Q" if a.ndim else "<0Q", *a.shape)
    for name in names:
        blob += arrays[name].tobytes(order="C")

    out_dir = os.path.dirname(os.path.abspath(path))
    os.makedirs(out_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".ckpt-", dir=out_dir)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(bytes(blob))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load(path):
    """Read a checkpoint back as (arrays, meta)."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from None
    with fh:
        if _read_exact(fh, len(MAGIC), path) != MAGIC:
            raise ParseError(f"{path}: not a checkpoint file")
        version = _read_u32(fh, path)
        if version != VERSION:
            raise ParseError(f"{path}: unsupported checkpoint version {version}")
        meta = {}
        for _ in range(_read_u32(fh, path)):
            key = _read_str(fh, path)
            meta[key] = _read_str(fh, path)
        table = []
        for _ in range(_read_u32(fh, path)):
            name = _read_str(fh, path)
            ndim = _read_u32(fh, path)
            shape = struct.unpack(
                f"<{ndim}Q", _read_exact(fh, 8 * ndim, path)
            )
            table.append((name, shape))
        arrays = {}
        for name, shape in table:
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            raw = _read_exact(fh, 8 * count, path)
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        if fh.read(1):
            raise ParseError(f"{path}: trailing bytes after payload")
    return arrays, meta
