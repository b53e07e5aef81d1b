"""Finite linear function classes (sieve bases) and dataset plumbing.

A SieveBasis maps an (m, d) array of points to an (m, K) matrix of basis
evaluations.  All estimators consume bases only through `evaluate`,
`empirical_gram` and `empirical_norm`, so the families here (tensor
polynomials, integer-frequency trigonometric functions, piecewise
indicators, additive per-coordinate dictionaries, arbitrary fixed
dictionaries) are interchangeable.

Datasets are immutable (x, z, y, extras) bundles with CSV round-trip;
the CSV parser reports non-numeric cells by line and column name.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "SieveBasis",
    "Dataset",
    "polynomial_basis",
    "trigonometric_basis",
    "piecewise_basis",
    "custom_basis",
    "additive_basis",
    "normalize_basis",
    "empirical_gram",
    "empirical_norm",
    "save_dataset_csv",
    "load_dataset_csv",
]

_KINDS = ("polynomial", "trigonometric", "piecewise", "custom")


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SieveBasis:
    """A fixed dictionary of K uniformly bounded functions on R^input_dim."""

    kind: str
    input_dim: int
    n_funcs: int
    normalization: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.n_funcs < 1:
            raise ValueError("a basis needs at least one function")
        if self.input_dim < 1:
            raise ValueError("input_dim must be at least 1")
        norm = _freeze(self.normalization)
        if norm.shape != (self.n_funcs,) or not np.all(np.isfinite(norm)):
            raise ValueError("normalization must be a finite length-K vector")
        object.__setattr__(self, "normalization", norm)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate all K functions at each row of `points`, scaled."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            if self.input_dim != 1:
                raise ValueError(
                    f"1-d points given but basis expects input_dim={self.input_dim}"
                )
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[1] != self.input_dim:
            raise ValueError(
                f"points must be (m, {self.input_dim}), got shape {pts.shape}"
            )
        raw = _raw_eval(self, pts)
        out = raw * self.normalization
        if not np.all(np.isfinite(out)):
            raise ValueError("basis evaluation produced non-finite values")
        return out


def _raw_eval(basis: SieveBasis, pts: np.ndarray) -> np.ndarray:
    m = pts.shape[0]
    p = basis.params
    if basis.kind == "polynomial":
        expo = np.asarray(p["exponents"], dtype=np.float64)  # (K, d)
        out = np.ones((m, basis.n_funcs))
        for j in range(basis.input_dim):
            col = pts[:, j]
            for k in range(basis.n_funcs):
                e = expo[k, j]
                if e:
                    out[:, k] *= col**e
        return out
    if basis.kind == "trigonometric":
        x = pts[:, 0]
        out = np.empty((m, basis.n_funcs))
        out[:, 0] = 1.0
        for k in range(1, basis.n_funcs):
            freq = (k + 1) // 2
            out[:, k] = np.sin(freq * x) if k % 2 == 1 else np.cos(freq * x)
        return out
    if basis.kind == "piecewise":
        lo, hi = p["lo"], p["hi"]
        x = np.clip(pts[:, 0], lo, hi)
        edges = np.linspace(lo, hi, basis.n_funcs + 1)
        idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, basis.n_funcs - 1)
        out = np.zeros((m, basis.n_funcs))
        out[np.arange(m), idx] = 1.0
        return out
    # custom: either a structured additive spec or a tuple of callables
    if "additive" in p:
        return _additive_eval(p["additive"], pts)
    funcs = p["funcs"]
    out = np.empty((m, basis.n_funcs))
    for k, f in enumerate(funcs):
        out[:, k] = np.asarray(f(pts), dtype=np.float64).reshape(m)
    return out


def _additive_eval(spec: tuple, pts: np.ndarray) -> np.ndarray:
    powers, treat_col, interact_cols = spec
    m, d = pts.shape
    cols = [np.ones(m)]
    if treat_col is not None:
        cols.append(pts[:, treat_col])
    for j in range(d):
        if j == treat_col:
            continue
        for e in powers:
            cols.append(pts[:, j] ** e)
    for j in interact_cols:
        cols.append(pts[:, treat_col] * pts[:, j])
    return np.column_stack(cols)


def polynomial_basis(input_dim: int, degree: int) -> SieveBasis:
    """All monomials of total degree <= degree, ordered by (degree, lex)."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    expo = sorted(
        (e for e in itertools.product(range(degree + 1), repeat=input_dim)
         if sum(e) <= degree),
        key=lambda e: (sum(e), e),
    )
    k = len(expo)
    return SieveBasis(
        "polynomial", input_dim, k, np.ones(k), {"exponents": tuple(expo)}
    )


def trigonometric_basis(n_funcs: int, scale: float = np.sqrt(2.0)) -> SieveBasis:
    """1-d Fourier dictionary [1, sin x, cos x, sin 2x, cos 2x, ...].

    With scale = sqrt(2) the functions are orthonormal in L2 of the
    uniform distribution on [-pi, pi].
    """
    norm = np.full(n_funcs, scale)
    norm[0] = 1.0
    return SieveBasis("trigonometric", 1, n_funcs, norm)


def piecewise_basis(n_bins: int, lo: float, hi: float) -> SieveBasis:
    """Indicators of n_bins equal-width bins on [lo, hi]; outside points clip."""
    if not (hi > lo):
        raise ValueError("need hi > lo")
    return SieveBasis("piecewise", 1, n_bins, np.ones(n_bins), {"lo": lo, "hi": hi})


def custom_basis(funcs, input_dim: int) -> SieveBasis:
    """Fixed dictionary of vectorized callables, each (m, d) -> (m,)."""
    funcs = tuple(funcs)
    return SieveBasis("custom", input_dim, len(funcs), np.ones(len(funcs)),
                      {"funcs": funcs})


def additive_basis(
    input_dim: int,
    powers: int | tuple[int, ...] = 2,
    treat_col: int | None = None,
    interact_cols: tuple[int, ...] = (),
) -> SieveBasis:
    """Intercept + per-coordinate power functions, optionally with a binary
    treatment column entering linearly plus chosen linear interactions.

    `powers` is either a max degree (meaning 1..degree) or an explicit
    tuple of exponents per coordinate.  Keeps K small on wide feature
    spaces where a tensor basis would blow up.
    """
    if isinstance(powers, int):
        if powers < 1:
            raise ValueError("degree must be at least 1")
        powers = tuple(range(1, powers + 1))
    powers = tuple(int(e) for e in powers)
    if not powers or min(powers) < 1:
        raise ValueError("powers must be positive integers")
    if treat_col is None and interact_cols:
        raise ValueError("interactions require a treatment column")
    k = 1 + (1 if treat_col is not None else 0)
    k += (input_dim - (1 if treat_col is not None else 0)) * len(powers)
    k += len(interact_cols)
    return SieveBasis(
        "custom", input_dim, k, np.ones(k),
        {"additive": (powers, treat_col, tuple(interact_cols))},
    )


def normalize_basis(basis: SieveBasis, sample: np.ndarray) -> SieveBasis:
    """Rescale each function to unit empirical second moment on `sample`.

    Near-degenerate functions (RMS below 1e-12) keep their current scale
    so the basis never produces infinities.
    """
    vals = basis.evaluate(sample)
    rms = np.sqrt(np.mean(vals**2, axis=0))
    scale = np.where(rms > 1e-12, 1.0 / np.maximum(rms, 1e-12), 1.0)
    return SieveBasis(
        basis.kind, basis.input_dim, basis.n_funcs,
        basis.normalization * scale, basis.params,
    )


@dataclass(frozen=True)
class Dataset:
    """i.i.d. records: X features, Z features, outcome y, optional extras."""

    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    w_extra: dict | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        z = np.asarray(self.z, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, None]
        if z.ndim == 1:
            z = z[:, None]
        if x.ndim != 2 or z.ndim != 2 or y.ndim != 1:
            raise ValueError("x and z must be 2-d, y 1-d")
        n = x.shape[0]
        if n < 2:
            raise ValueError("a dataset needs at least 2 records")
        if z.shape[0] != n or y.shape[0] != n:
            raise ValueError(
                f"row mismatch: x has {n}, z has {z.shape[0]}, y has {y.shape[0]}"
            )
        for name, arr in (("x", x), ("z", z), ("y", y)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains NaN or Inf")
        extras = None
        if self.w_extra is not None:
            extras = {}
            for key, val in self.w_extra.items():
                arr = np.asarray(val, dtype=np.float64)
                if arr.shape[0] != n:
                    raise ValueError(f"extra column {key!r} has wrong row count")
                extras[key] = _freeze(arr)
        object.__setattr__(self, "x", _freeze(x))
        object.__setattr__(self, "z", _freeze(z))
        object.__setattr__(self, "y", _freeze(y))
        object.__setattr__(self, "w_extra", extras)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def take(self, indices: np.ndarray) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        extras = None
        if self.w_extra is not None:
            extras = {k: v[idx] for k, v in self.w_extra.items()}
        return Dataset(self.x[idx], self.z[idx], self.y[idx], extras)


def empirical_gram(m: np.ndarray) -> np.ndarray:
    """(1/n) M^T M, symmetrized so the output is exactly symmetric."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1:
        raise ValueError("need a nonempty 2-d matrix")
    g = m.T @ m / m.shape[0]
    return (g + g.T) / 2.0


def empirical_norm(coeffs: np.ndarray, gram: np.ndarray) -> float:
    """sqrt(c^T G c) with a guard against slightly negative quadratic forms."""
    c = np.asarray(coeffs, dtype=np.float64)
    q = float(c @ gram @ c)
    if q < -1e-12:
        raise ValueError(f"quadratic form is negative ({q}); gram is not PSD")
    return float(np.sqrt(max(q, 0.0)))


# -- CSV round trip ------------------------------------------------------------

def save_dataset_csv(data: Dataset, path: str | Path) -> None:
    """Header: x_0.., z_0.., y, then extra columns (key or key_i)."""
    header = [f"x_{j}" for j in range(data.x.shape[1])]
    header += [f"z_{j}" for j in range(data.z.shape[1])]
    header.append("y")
    blocks = [data.x, data.z, data.y[:, None]]
    if data.w_extra:
        for key in sorted(data.w_extra):
            arr = data.w_extra[key]
            if arr.ndim == 1:
                header.append(key)
                blocks.append(arr[:, None])
            else:
                header += [f"{key}_{j}" for j in range(arr.shape[1])]
                blocks.append(arr)
    table = np.hstack(blocks)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in table:
            writer.writerow([repr(float(v)) for v in row])


def load_dataset_csv(path: str | Path) -> Dataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {line_no} has {len(row)} cells, expected {len(header)}"
                )
            parsed = []
            for col_name, cell in zip(header, row):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: non-numeric value {cell!r} at line {line_no}, "
                        f"column {col_name!r}"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    table = np.asarray(rows, dtype=np.float64)
    cols = {name: table[:, j] for j, name in enumerate(header)}
    x_names = sorted((n for n in header if n.startswith("x_")),
                     key=lambda s: int(s.split("_")[1]))
    z_names = sorted((n for n in header if n.startswith("z_")),
                     key=lambda s: int(s.split("_")[1]))
    if not x_names or not z_names or "y" not in cols:
        raise ValueError(f"{path}: header must contain x_*, z_* and y columns")
    x = np.column_stack([cols[n] for n in x_names])
    z = np.column_stack([cols[n] for n in z_names])
    y = cols["y"]
    extra_names = [n for n in header if n not in x_names + z_names + ["y"]]
    extras: dict[str, np.ndarray] = {}
    grouped: dict[str, list[str]] = {}
    for name in extra_names:
        stem, _, suffix = name.rpartition("_")
        if stem and suffix.isdigit():
            grouped.setdefault(stem, []).append(name)
        else:
            extras[name] = cols[name]
    for stem, names in grouped.items():
        names.sort(key=lambda s: int(s.rpartition("_")[2]))
        extras[stem] = np.column_stack([cols[n] for n in names])
    return Dataset(x, z, y, extras or None)
