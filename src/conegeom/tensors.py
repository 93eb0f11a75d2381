"""Symmetric intersection tensors and derivatives of their volume polynomial.

An :class:`IntersectionTensor` is a fully symmetric degree-``n`` multilinear
form on ``R^N``, stored sparsely on sorted multi-indices.  It induces the
homogeneous volume polynomial ``Vol(t) = c(t, ..., t) / n!`` whose positivity
region carries the Hessian metric built in :mod:`conegeom.metric`.  This
module evaluates the tensor against tangent vectors and base points and
produces the exact partial-derivative arrays of ``Vol`` up to order four.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "IntersectionTensor",
    "ConePoint",
    "TangentVector",
    "contract",
    "volume",
    "vol_derivatives",
]


def _distinct_permutations(index: tuple[int, ...]) -> list[tuple[int, ...]]:
    # n <= 4 in practice, so the brute-force set is at most 24 tuples.
    return sorted(set(itertools.permutations(index)))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class IntersectionTensor:
    """Fully symmetric degree-``n`` multilinear form on ``R^N``.

    Parameters
    ----------
    n : int
        Degree of the form (complex dimension of the underlying geometry).
    N : int
        Dimension of the vector space the form acts on.
    entries : dict
        Mapping from sorted index tuples of length ``n`` (0-based, entries in
        ``range(N)``) to the real component value at that index.  Unsorted
        index tuples are rejected rather than symmetrized, so data errors
        surface early.  Components not listed are zero.
    """

    n: int
    N: int
    entries: dict[tuple[int, ...], float]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"degree n must be an integer >= 1, got {self.n!r}")
        if not isinstance(self.N, int) or self.N < 1:
            raise ValueError(f"rank N must be an integer >= 1, got {self.N!r}")
        clean = {}
        for idx, val in self.entries.items():
            idx = tuple(int(i) for i in idx)
            if len(idx) != self.n:
                raise ValueError(f"index {idx} does not have length n = {self.n}")
            if any(i < 0 or i >= self.N for i in idx):
                raise ValueError(f"index {idx} out of range for N = {self.N}")
            if list(idx) != sorted(idx):
                raise ValueError(f"index {idx} is not sorted; entries must use canonical sorted indices")
            val = float(val)
            if not math.isfinite(val):
                raise ValueError(f"entry {idx} has non-finite value {val!r}")
            if val != 0.0:
                clean[idx] = val
        if not clean:
            raise ValueError("tensor must have at least one nonzero entry")
        object.__setattr__(self, "entries", clean)

    def value(self, index) -> float:
        """Component of the symmetric form at an arbitrary (unsorted) index."""
        return self.entries.get(tuple(sorted(int(i) for i in index)), 0.0)

    def max_abs_entry(self) -> float:
        return max(abs(v) for v in self.entries.values())

    def __hash__(self):
        return hash((self.n, self.N, tuple(sorted(self.entries.items()))))


@dataclass(frozen=True)
class ConePoint:
    """A point of the ambient coordinate space, with an optional caller
    assertion that it lies in the geometric cone of interest.

    The library cannot decide cone membership from the tensor alone; it only
    verifies the necessary conditions it can check (positive volume, and a
    positive-definite metric when ``claimed_kahler`` is set).
    """

    t: np.ndarray
    claimed_kahler: bool = False

    def __post_init__(self):
        t = _readonly(np.atleast_1d(self.t))
        if t.ndim != 1:
            raise ValueError("cone point coordinates must be a vector")
        if not np.all(np.isfinite(t)):
            raise ValueError("cone point coordinates must be finite")
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class TangentVector:
    """A tangent direction in coordinates."""

    u: np.ndarray

    def __post_init__(self):
        u = _readonly(np.atleast_1d(self.u))
        if u.ndim != 1:
            raise ValueError("tangent vector must be a vector")
        if not np.all(np.isfinite(u)):
            raise ValueError("tangent vector entries must be finite")
        object.__setattr__(self, "u", u)


def as_point(p, claimed_kahler: bool = False) -> ConePoint:
    """Coerce an array-like or ConePoint to a ConePoint."""
    if isinstance(p, ConePoint):
        return p
    return ConePoint(np.asarray(p, dtype=float), claimed_kahler)


def as_vector(v) -> TangentVector:
    """Coerce an array-like or TangentVector to a TangentVector."""
    if isinstance(v, TangentVector):
        return v
    return TangentVector(np.asarray(v, dtype=float))


def _check_dim(c: IntersectionTensor, x: np.ndarray, what: str):
    if x.shape != (c.N,):
        raise DimensionMismatch(f"{what} has shape {x.shape}, expected ({c.N},)")


def contract(c: IntersectionTensor, vs, point) -> float:
    """Evaluate ``P_k(v_1, ..., v_k; t) = c(v_1, ..., v_k, t, ..., t) / (n-k)!``.

    The remaining ``n - k`` slots are filled with the base point ``t``.  With
    ``k = 0`` this is the volume polynomial itself; ``k = 1`` and ``k = 2``
    are the pairings entering the metric.

    Parameters
    ----------
    c : IntersectionTensor
    vs : sequence of tangent vectors (length ``k <= n``)
    point : base point ``t``

    Returns
    -------
    float
    """
    t = as_point(point).t
    _check_dim(c, t, "base point")
    vecs = [as_vector(v).u for v in vs]
    k = len(vecs)
    if k > c.n:
        raise DimensionMismatch(f"cannot contract {k} vectors into a degree-{c.n} form")
    for v in vecs:
        _check_dim(c, v, "tangent vector")
    xs = vecs + [t] * (c.n - k)
    total = 0.0
    for idx, val in c.entries.items():
        s = 0.0
        for perm in _distinct_permutations(idx):
            prod = 1.0
            for slot, i in enumerate(perm):
                prod *= xs[slot][i]
            s += prod
        total += val * s
    return total / math.factorial(c.n - k)


def volume(c: IntersectionTensor, point) -> float:
    """Volume polynomial ``Vol(t) = c(t, ..., t) / n!``, homogeneous of degree n."""
    return contract(c, [], point)


def _contract_once(entries: dict[tuple[int, ...], float], t: np.ndarray) -> dict[tuple[int, ...], float]:
    # One slot of the symmetric form paired with t; input and output are both
    # canonical sorted-index component maps.
    out: dict[tuple[int, ...], float] = {}
    for idx, val in entries.items():
        for x in set(idx):
            pos = idx.index(x)
            reduced = idx[:pos] + idx[pos + 1:]
            out[reduced] = out.get(reduced, 0.0) + val * t[x]
    return out


def _densify(entries: dict[tuple[int, ...], float], rank: int, N: int, scale: float) -> np.ndarray:
    a = np.zeros((N,) * rank)
    for idx, val in entries.items():
        for perm in _distinct_permutations(idx):
            a[perm] = val * scale
    return a


def vol_derivatives(c: IntersectionTensor, point, order: int):
    """Exact partial derivatives of the volume polynomial at ``t``.

    Returns the tuple ``(V_1, ..., V_order)`` where ``V_k`` is the fully
    symmetric array of order-``k`` partials of ``Vol``.  Derivatives of order
    greater than the degree ``n`` are identically zero and returned as zero
    arrays.

    Parameters
    ----------
    c : IntersectionTensor
    point : base point
    order : int in 1..4
    """
    if order not in (1, 2, 3, 4):
        raise ValueError(f"order must be in 1..4, got {order!r}")
    t = as_point(point).t
    _check_dim(c, t, "base point")
    arrays = []
    entries = c.entries
    # Contract the base point into the form until rank n - k remains, then
    # read off V_k = c(e_{i_1}, ..., e_{i_k}, t^{n-k}) / (n-k)!.
    reduced = {c.n: entries}
    cur = entries
    for r in range(c.n - 1, -1, -1):
        cur = _contract_once(cur, t)
        reduced[r] = cur
    for k in range(1, order + 1):
        if k > c.n:
            arrays.append(np.zeros((c.N,) * k))
        else:
            arrays.append(_densify(reduced[k], k, c.N, 1.0 / math.factorial(c.n - k)))
    return tuple(arrays)

