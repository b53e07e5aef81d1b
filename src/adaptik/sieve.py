"""Finite linear function classes (sieve bases) and dataset plumbing.

A SieveBasis maps an (m, d) array of points to a column-major (m, K)
matrix of basis evaluations.  Estimators consume a fold through its
`stacked_gram`, the second moments of [values | y] from one SYRK, so
the families here (tensor polynomials,
integer-frequency trigonometric functions, additive per-coordinate
dictionaries, arbitrary fixed dictionaries) are interchangeable.  The
Fourier dictionary makes two libm passes for any K: sin x and cos x,
then each higher frequency by angle addition from the one below
(sin fx = sin (f-1)x cos x + cos (f-1)x sin x, likewise cos fx), which
adds rounding below 4 K eps (tested for |x| <= 1e3).

Datasets are immutable (x, z, y, extras) bundles that can be written to
CSV.
"""

from __future__ import annotations

import csv
import functools
import itertools
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

__all__ = [
    "SieveBasis",
    "Dataset",
    "polynomial_basis",
    "trigonometric_basis",
    "custom_basis",
    "additive_basis",
    "normalize_basis",
    "empirical_gram",
    "stacked_gram",
    "scale_gram",
    "save_dataset_csv",
]

_KINDS = ("polynomial", "trigonometric", "custom")


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
        if norm.shape != (self.n_funcs,) or not np.isfinite(norm).all():
            raise ValueError("normalization must be a finite length-K vector")
        object.__setattr__(self, "normalization", norm)
        # x * 1.0 == x bit for bit, so evaluate skips a unit normalization
        object.__setattr__(self, "_unit", bool((norm == 1.0).all()))

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate all K functions at each row of `points`, scaled, as the
        column-major (m, K) transpose of a (K, m) buffer, row by function."""
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
        vals = _raw_eval(self, pts)
        if not self._unit:
            vals *= self.normalization[:, None]
        if not np.isfinite(vals).all():
            raise ValueError("basis evaluation produced non-finite values")
        return vals.T

    def unscaled(self) -> "SieveBasis":
        """The same functions with unit normalization, built once."""
        return self._unscaled

    @functools.cached_property
    def _unscaled(self) -> "SieveBasis":
        return replace(self, normalization=np.ones(self.n_funcs))


def _raw_eval(basis: SieveBasis, pts: np.ndarray) -> np.ndarray:
    """The (K, m) values of the basis functions before normalization."""
    m = pts.shape[0]
    p = basis.params
    if basis.kind == "polynomial":
        expo = np.asarray(p["exponents"], dtype=np.float64)  # (K, d)
        out = np.ones((basis.n_funcs, m))
        for j in range(basis.input_dim):
            col = pts[:, j]
            for k in range(basis.n_funcs):
                e = expo[k, j]
                if e:
                    out[k] *= col**e
        return out
    if basis.kind == "trigonometric":
        # rows 2f - 1, 2f hold sin fx, cos fx; f > 1 by angle addition
        out, tmp = np.empty((basis.n_funcs, m)), np.empty(m)
        out[0] = 1.0
        if basis.n_funcs > 1:
            np.sin(pts[:, 0], out=out[1])
        if basis.n_funcs > 2:
            np.cos(pts[:, 0], out=out[2])
        for k in range(3, basis.n_funcs, 2):
            sin0, cos0 = out[k - 2], out[k - 1]
            np.multiply(sin0, out[2], out=out[k])
            out[k] += np.multiply(cos0, out[1], out=tmp)
            if k + 1 < basis.n_funcs:
                np.multiply(cos0, out[2], out=out[k + 1])
                out[k + 1] -= np.multiply(sin0, out[1], out=tmp)
        return out
    # custom: either a structured additive spec or a tuple of callables
    if "additive" in p:
        return _additive_eval(p["additive"], pts)
    funcs = p["funcs"]
    out = np.empty((basis.n_funcs, m))
    for k, f in enumerate(funcs):
        out[k] = np.asarray(f(pts), dtype=np.float64).reshape(m)
    return out


def _additive_eval(spec: tuple, pts: np.ndarray) -> np.ndarray:
    # powers by repeated multiplication: a float power costs ~40x more
    powers, treat_col, interact_cols = spec
    m, d = pts.shape
    coords = np.ascontiguousarray(pts.T)
    n_plain = d - (treat_col is not None)
    out = np.empty((1 + (treat_col is not None) + n_plain * len(powers)
                    + len(interact_cols), m))
    out[0] = 1.0
    k = 1
    if treat_col is not None:
        out[k] = coords[treat_col]
        k += 1
    pw = np.empty((max(powers), m))  # pw[e - 1] = x ** e
    for j in range(d):
        if j == treat_col:
            continue
        pw[0] = coords[j]
        for e in range(1, len(pw)):
            np.multiply(pw[e - 1], coords[j], out=pw[e])
        for e in powers:
            out[k] = pw[e - 1]
            k += 1
    for j in interact_cols:
        np.multiply(coords[treat_col], coords[j], out=out[k])
        k += 1
    return out


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
    # empty for n_funcs < 1, which SieveBasis rejects like every kind
    norm = np.where(np.arange(n_funcs) > 0, scale, 1.0)
    return SieveBasis("trigonometric", 1, n_funcs, norm)


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


def normalize_basis(basis: SieveBasis, second_moments: np.ndarray) -> SieveBasis:
    """Rescale each function to unit second moment, given those of its
    current values on a sample (the diagonal of their Gram).  Functions
    with RMS at most 1e-12 keep their scale, so nothing becomes infinite."""
    rms = np.sqrt(second_moments)
    scale = np.where(rms > 1e-12, 1.0 / np.maximum(rms, 1e-12), 1.0)
    return replace(basis, normalization=basis.normalization * scale)


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
            if not np.isfinite(arr).all():
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

    def take(self, indices) -> "Dataset":
        """The records at a 1-d integer array of indices, at least 2; rows
        of a checked dataset are not checked again."""
        idx = np.asarray(indices)
        if idx.size < 2 or idx.ndim != 1 or idx.dtype.kind not in "iu":
            raise ValueError("take needs a 1-d array of at least 2 integers, "
                             f"got {idx.dtype} of shape {idx.shape}")
        out = object.__new__(Dataset)
        for name in ("x", "z", "y"):
            object.__setattr__(out, name, _freeze(getattr(self, name)[idx]))
        object.__setattr__(out, "w_extra", None if self.w_extra is None else
                           {k: _freeze(v[idx]) for k, v in self.w_extra.items()})
        return out


def empirical_gram(m: np.ndarray) -> np.ndarray:
    """(1/n) M^T M, symmetrized so the output is exactly symmetric."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1:
        raise ValueError("need a nonempty 2-d matrix")
    g = m.T @ m / m.shape[0]
    return (g + g.T) / 2.0


def stacked_gram(values, y: np.ndarray, bases) -> np.ndarray:
    """The empirical Gram of [bases' values | y] from their unscaled values
    (any iterable; a generator holds one block at a time), copied into
    adjacent columns of one column-major buffer: one SYRK for all of it."""
    buf = np.empty((len(y), sum(b.n_funcs for b in bases) + 1), order="F")
    values, k = iter(values), 0
    for basis in bases:
        buf[:, k:k + basis.n_funcs] = next(values)
        k += basis.n_funcs
    buf[:, k] = y
    return scale_gram(empirical_gram(buf), bases)


def scale_gram(gram: np.ndarray, bases) -> np.ndarray:
    """D gram D, D = diag(normalizations of bases, 1): the normalizations
    enter every stacked Gram this way, also when they are computed from
    the Gram itself, so the result does not depend on when they were."""
    d = np.concatenate([b.normalization for b in bases] + [np.ones(1)])
    return gram * np.outer(d, d)


# -- CSV output ------------------------------------------------------------

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
