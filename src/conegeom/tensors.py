"""Symmetric intersection tensors and derivatives of their volume polynomial.

An :class:`IntersectionTensor` is a fully symmetric degree-``n`` multilinear
form on ``R^N``, given by its entries on sorted multi-indices and expanded
once, at construction, into a read-only dense array of all ``N^n``
components: entries at their sorted indices, then an insertion-sort network
of adjacent-axis compare-exchanges run backwards over the array, in
``O(n^2 N^n)``, gives each index the value of its sorted form.  It induces
the homogeneous volume polynomial
``Vol(t) = c(t, ..., t) / n!`` whose positivity region carries the Hessian
metric built in :mod:`conegeom.metric`.  Every evaluation here contracts that
array with vectors: the tensor against tangent vectors and base points, and
the exact partial-derivative arrays of ``Vol`` up to order four.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

# Largest dense array, in entries (80 MB of floats), a tensor may expand to.
MAX_DENSE_ENTRIES = 10**7


def _finite_vector(x, what: str) -> np.ndarray:
    # The input check of ConePoint and TangentVector; returns a read-only copy.
    a = np.array(np.atleast_1d(x), dtype=float)
    if a.ndim != 1:
        raise ValueError(f"{what} must be a vector")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} must be finite")
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

    The read-only array ``dense`` of all ``N^n`` components is built once
    from ``entries``; tensors with more than ``MAX_DENSE_ENTRIES`` are refused.
    """

    n: int
    N: int
    entries: dict[tuple[int, ...], float]
    dense: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"degree n must be an integer >= 1, got {self.n!r}")
        if not isinstance(self.N, int) or self.N < 1:
            raise ValueError(f"rank N must be an integer >= 1, got {self.N!r}")
        if self.N**self.n > MAX_DENSE_ENTRIES:
            raise ValueError(f"dense array of {self.N**self.n:,} entries exceeds the limit of {MAX_DENSE_ENTRIES:,}")
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
        # Each exchange, in reverse order, swaps two axes where out of order.
        dense = np.zeros((self.N,) * self.n)
        dense[tuple(np.array(list(clean), dtype=np.intp).T)] = list(clean.values())
        grid = np.indices(dense.shape, sparse=True)
        network = [(j - 1, j) for i in range(1, self.n) for j in range(i, 0, -1)]
        for p, q in reversed(network):
            dense = np.where(grid[p] > grid[q], dense.swapaxes(p, q), dense)
        dense.setflags(write=False)
        object.__setattr__(self, "dense", dense)

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
        object.__setattr__(self, "t", _finite_vector(self.t, "cone point coordinates"))


@dataclass(frozen=True)
class TangentVector:
    """A tangent direction in coordinates."""

    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", _finite_vector(self.u, "tangent vector"))


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


def _check_dim(N: int, x: np.ndarray, what: str):
    if x.shape != (N,):
        raise DimensionMismatch(f"{what} has shape {x.shape}, expected ({N},)")


def _coords(c: IntersectionTensor, point) -> np.ndarray:
    """Validated base-point coordinates, as the public functions take them."""
    t = as_point(point).t
    _check_dim(c.N, t, "base point")
    return t


def _tangent(N: int, u, what: str = "tangent vector") -> np.ndarray:
    """Validated coordinates of a tangent vector in ``R^N``, as the public functions take them."""
    uvec = as_vector(u).u
    _check_dim(N, uvec, what)
    return uvec


def _jet(c: IntersectionTensor, t: np.ndarray, order: int):
    """``(Vol, V_1, ..., V_order)`` at coordinates ``t`` already checked.

    ``V_k = c(., ..., ., t, ..., t) / (n-k)!`` is the dense array with
    ``n - k`` slots paired with ``t``; ``V_k`` for ``k > n`` is zero.
    """
    partial = [c.dense]
    for _ in range(c.n):
        partial.append(partial[-1] @ t)
    jet = [float(partial[c.n]) / math.factorial(c.n)]
    for k in range(1, order + 1):
        if k > c.n:
            jet.append(np.zeros((c.N,) * k))
        else:
            jet.append(partial[c.n - k] / math.factorial(c.n - k))
    return tuple(jet)


def contract(c: IntersectionTensor, vs, point) -> float:
    """Evaluate ``P_k(v_1, ..., v_k; t) = c(v_1, ..., v_k, t, ..., t) / (n-k)!``.

    The remaining ``n - k`` slots are filled with the base point ``t``.  With
    ``k = 0`` this is the volume polynomial itself; ``k = 1`` and ``k = 2``
    are the pairings entering the metric.  The dense array is contracted with
    ``t`` first, then with the vectors.

    Parameters
    ----------
    c : IntersectionTensor
    vs : sequence of tangent vectors (length ``k <= n``)
    point : base point ``t``

    Returns
    -------
    float
    """
    t = _coords(c, point)
    vecs = [_tangent(c.N, v) for v in vs]
    k = len(vecs)
    if k > c.n:
        raise DimensionMismatch(f"cannot contract {k} vectors into a degree-{c.n} form")
    a = c.dense
    for x in [t] * (c.n - k) + vecs[::-1]:
        a = a @ x
    return float(a) / math.factorial(c.n - k)


def volume(c: IntersectionTensor, point) -> float:
    """Volume polynomial ``Vol(t) = c(t, ..., t) / n!``, homogeneous of degree n."""
    return _jet(c, _coords(c, point), 0)[0]


def vol_derivatives(c: IntersectionTensor, point, order: int):
    """Exact partial derivatives of the volume polynomial at ``t``.

    Returns the tuple ``(V_1, ..., V_order)`` where ``V_k`` is the fully
    symmetric array of order-``k`` partials of ``Vol``: the dense tensor with
    its other ``n - k`` slots paired with ``t``, divided by ``(n-k)!``.
    Derivatives of order greater than the degree ``n`` are identically zero
    and returned as zero arrays.

    Parameters
    ----------
    c : IntersectionTensor
    point : base point
    order : int in 1..4
    """
    if order not in (1, 2, 3, 4):
        raise ValueError(f"order must be in 1..4, got {order!r}")
    return _jet(c, _coords(c, point), order)[1:]
