"""Dataset generation, ingestion, and splitting.

Two synthetic generators (a spiraled-arms point cloud and bouncing-dot image
sequences), a delimited-text loader and writer, outlier injection, and a
deterministic train/validation/test split.  Standardization always uses
training-split statistics so held-out rows never leak into the transform.
"""

import dataclasses
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import linalg
from .errors import ContractError, InvalidParameterError, ParseError


@dataclass
class Dataset:
    rows: np.ndarray                       # (n, d)
    labels: Optional[np.ndarray] = None    # (n,) ints
    seq_len: Optional[int] = None          # frames per sequence, rows contiguous
    train_idx: Optional[np.ndarray] = None
    val_idx: Optional[np.ndarray] = None
    test_idx: Optional[np.ndarray] = None
    outlier_flags: Optional[np.ndarray] = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        if np.any(~np.isfinite(self.rows)):
            raise ContractError("dataset rows contain non-finite values")
        if self.seq_len is not None and self.seq_len < 1:
            raise ContractError(f"seq_len must be at least 1, got {self.seq_len}")
        if self.seq_len is not None and self.rows.shape[0] % self.seq_len != 0:
            raise ContractError("row count is not a multiple of seq_len")

    @property
    def n_rows(self):
        return self.rows.shape[0]

    @property
    def dim(self):
        return self.rows.shape[1]

    @property
    def n_seqs(self):
        if self.seq_len is None:
            raise ContractError("dataset has no sequence structure")
        return self.n_rows // self.seq_len

    def sequences(self):
        """Rows viewed as (n_seq, seq_len, d)."""
        return self.rows.reshape(self.n_seqs, self.seq_len, self.dim)


def pinwheel(
    n_per_arm=1000, arms=5, radial_std=0.3, tangential_std=0.05, rate=0.25, seed=0
):
    """Gaussian arms spiraled by an angle that grows with radius."""
    if arms < 1:
        raise InvalidParameterError("need at least one arm")
    if n_per_arm < 0:
        raise InvalidParameterError(f"n_per_arm must be nonnegative, got {n_per_arm}")
    linalg.check_sizes((arms,), (n_per_arm * arms, 2))
    rng = np.random.default_rng(seed)
    n = n_per_arm * arms
    base = 2 * np.pi * np.arange(arms) / arms
    labels = np.repeat(np.arange(arms), n_per_arm)
    feats = rng.standard_normal((n, 2)) * np.array([radial_std, tangential_std])
    feats[:, 0] += 1.0
    angles = base[labels] + rate * np.exp(feats[:, 0])
    c, s = np.cos(angles), np.sin(angles)
    rows = np.stack(
        [c * feats[:, 0] - s * feats[:, 1], s * feats[:, 0] + c * feats[:, 1]], axis=1
    )
    prov = {
        "generator": "pinwheel",
        "seed": str(seed),
        "n_per_arm": str(n_per_arm),
        "arms": str(arms),
        "radial_std": str(radial_std),
        "tangential_std": str(tangential_std),
        "rate": str(rate),
    }
    return Dataset(rows=rows, labels=labels, provenance=prov)


def bounce_positions(p0, velocity, t, length):
    """Position of a point bouncing on [0, length] after t constant-rate steps.

    Closed-form triangle fold of the unreflected path; exact for any speed.
    """
    u = np.abs(np.asarray(p0 + velocity * np.asarray(t, dtype=float)))
    m = np.mod(u, 2.0 * length)
    return np.where(m <= length, m, 2.0 * length - m)


def dot_sequences(n_seq, t_len, width_d, dot_std=1.0, speed=1.0, seed=0, noise_std=0.0):
    """Sequences of 1-D images of a Gaussian dot bouncing across the frame.

    Noiseless frames are normalized bumps, so the pixel columns satisfy an
    exact sum constraint; noise_std > 0 adds iid sensor noise, which keeps
    full-covariance baselines away from that singular limit.
    """
    if t_len < 2:
        raise InvalidParameterError("sequences need at least two frames")
    if width_d < 2:
        raise InvalidParameterError("frames need at least two pixels for the dot to move")
    if n_seq < 0:
        raise InvalidParameterError(f"n_seq must be nonnegative, got {n_seq}")
    if not 0.0 <= noise_std < np.inf:
        raise InvalidParameterError(f"noise_std must be finite and nonnegative, got {noise_std}")
    linalg.check_sizes((n_seq, t_len, width_d))
    rng = np.random.default_rng(seed)
    length = float(width_d - 1)
    grid = np.arange(width_d, dtype=float)
    frames = np.empty((n_seq, t_len, width_d))
    steps = np.arange(t_len)
    for i in range(n_seq):
        p0 = rng.uniform(0.0, length)
        vel = speed * (1.0 if rng.random() < 0.5 else -1.0)
        pos = bounce_positions(p0, vel, steps, length)
        bump = np.exp(-0.5 * ((grid[None, :] - pos[:, None]) / dot_std) ** 2)
        frames[i] = bump / bump.sum(axis=1, keepdims=True)
    if noise_std > 0:
        frames += noise_std * rng.standard_normal(frames.shape)
    prov = {
        "generator": "dot_sequences",
        "seed": str(seed),
        "n_seq": str(n_seq),
        "t_len": str(t_len),
        "width_d": str(width_d),
        "dot_std": str(dot_std),
        "speed": str(speed),
        "noise_std": str(noise_std),
    }
    return Dataset(
        rows=frames.reshape(n_seq * t_len, width_d), seq_len=t_len, provenance=prov
    )


def _cells(text):
    """A line's fields: comma-separated if it has a comma, else
    whitespace-separated."""
    return [c for c in text.split("," if "," in text else None) if c != ""]


def _parse_line(text, lineno, path):
    try:
        return [float(c) for c in _cells(text)]
    except ValueError as exc:
        raise ParseError(f"{path}: line {lineno}: {exc}") from None


def load_delimited(path, has_labels=False, label_column=None):
    """Read a rectangular numeric table; a leading non-numeric line is a header.

    ``has_labels=None`` takes labels exactly when the first line's last
    field, split as its data lines are, is ``label``.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
        lines = raw.decode("utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    if has_labels is None:
        has_labels = bool(lines) and [c.strip() for c in _cells(lines[0])[-1:]] == ["label"]
    rows = []
    width = None
    for lineno, text in enumerate(lines, start=1):
        if not text.strip():
            continue
        if lineno == 1:
            try:
                rows.append(_parse_line(text, lineno, path))
            except ParseError:
                continue  # header line
        else:
            rows.append(_parse_line(text, lineno, path))
        if width is None:
            width = len(rows[-1])
        elif len(rows[-1]) != width:
            raise ParseError(
                f"{path}: line {lineno}: expected {width} fields, got {len(rows[-1])}"
            )
    if not rows:
        raise ParseError(f"{path}: no data rows")
    table = np.asarray(rows, dtype=float)
    labels = None
    if has_labels:
        if label_column is None:
            label_column = table.shape[1] - 1
        labels = np.rint(table[:, label_column]).astype(int)
        table = np.delete(table, label_column, axis=1)
    prov = {
        "source": str(path),
        "sha256": hashlib.sha256(raw).hexdigest(),
    }
    return Dataset(rows=table, labels=labels, provenance=prov)


def write_table(path, header, rows):
    """A header line of names, then each row's values as space-joined
    ``repr(float(v))``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(header) + "\n")
        for row in rows:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def export(ds, path):
    """Write rows (and labels) as whitespace-delimited text plus a provenance file."""
    path = Path(path)
    header = [f"x{j}" for j in range(ds.dim)]
    cols = [ds.rows]
    if ds.labels is not None:
        header.append("label")
        cols.append(ds.labels[:, None].astype(float))
    write_table(path, header, np.hstack(cols))
    with Path(str(path) + ".prov").open("w") as fh:
        for key, val in ds.provenance.items():
            fh.write(f"{key}={val}\n")


def split(ds, train_frac=0.7, seed=0):
    """Deterministic shuffle into train and halved validation/test parts.

    Sequence datasets are split by whole sequences so no sequence straddles
    a boundary.
    """
    rng = np.random.default_rng(seed)
    if ds.seq_len is None:
        perm = rng.permutation(ds.n_rows)
        expand = lambda ids: ids
    else:
        perm = rng.permutation(ds.n_seqs)
        t = ds.seq_len
        expand = lambda ids: (ids[:, None] * t + np.arange(t)).ravel()
    n_train = int(train_frac * perm.size)
    n_val = (perm.size - n_train) // 2
    return dataclasses.replace(
        ds,
        train_idx=expand(perm[:n_train]),
        val_idx=expand(perm[n_train : n_train + n_val]),
        test_idx=expand(perm[n_train + n_val :]),
    )


def standardize(ds):
    """Zero-mean unit-variance transform fitted on the training rows only.

    Returns (dataset, mean, scale) so the transform can be reported or undone.
    """
    if ds.train_idx is None:
        raise ContractError("standardize needs split indices; call split first")
    if len(ds.train_idx) == 0:
        raise ContractError("the training split has no rows; raise the training fraction")
    train = ds.rows[ds.train_idx]
    mean = train.mean(axis=0)
    scale = train.std(axis=0)
    scale = np.where(scale < 1e-12, 1.0, scale)
    out = dataclasses.replace(ds, rows=(ds.rows - mean) / scale)
    out.provenance = dict(ds.provenance, standardized="true")
    return out, mean, scale


def inject_outliers(ds, fraction, outlier_std, seed, indices=None):
    """Replace a fraction of rows with isotropic wide-Gaussian draws.

    ``indices`` restricts the candidate pool (e.g. to the training split);
    the replaced count is floor(fraction * pool size).
    """
    if not 0.0 <= fraction < 1.0:
        raise InvalidParameterError("fraction must lie in [0, 1)")
    if not 0.0 <= outlier_std < np.inf:
        raise InvalidParameterError(f"outlier_std must be finite and nonnegative, got {outlier_std}")
    rng = np.random.default_rng(seed)
    pool = np.arange(ds.n_rows) if indices is None else np.asarray(indices)
    count = int(fraction * pool.size)
    chosen = rng.choice(pool, size=count, replace=False)
    rows = ds.rows.copy()
    rows[chosen] = outlier_std * rng.standard_normal((count, ds.dim))
    flags = np.zeros(ds.n_rows, dtype=bool)
    flags[chosen] = True
    out = dataclasses.replace(ds, rows=rows, outlier_flags=flags)
    out.provenance = dict(
        ds.provenance, outlier_fraction=str(fraction), outlier_std=str(outlier_std)
    )
    return out
