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

Points and tangent vectors are plain arrays.  Each public function in the
package checks each one once, at entry, with :func:`_vector`, and passes the
checked arrays inward; inner loops never check again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "IntersectionTensor",
    "contract",
    "volume",
    "vol_derivatives",
]

# Largest dense array, in entries (80 MB of floats), a tensor may expand to.
MAX_DENSE_ENTRIES = 10**7


def _vector(N: int, x, what: str) -> np.ndarray:
    """``x`` as a new finite real float array of shape ``(N,)``: the one input
    check of every point and tangent vector at the public functions.

    Raises ``ValueError`` unless ``x`` is a vector of real numbers, all finite
    (a complex array is refused whatever its imaginary part), and
    :class:`DimensionMismatch` unless its length is ``N``.  A scalar is a
    vector of length one.
    """
    try:
        a = np.atleast_1d(np.asarray(x))
        a = None if a.dtype.kind == "c" else a.astype(float)
    except (TypeError, ValueError):
        a = None
    if a is None or a.ndim != 1:
        raise ValueError(f"{what} must be a vector of real numbers")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what} must be finite")
    if a.shape != (N,):
        raise DimensionMismatch(f"{what} has shape {a.shape}, expected ({N},)")
    return a


def _freeze(obj, *names):
    # Store read-only float copies of the named array fields of a frozen
    # dataclass (None stays None), so that a caller's own array stays writeable.
    for name in names:
        if getattr(obj, name) is not None:
            a = np.array(getattr(obj, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(obj, name, a)


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
            idx = self._index(idx)
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

    def _index(self, index) -> tuple[int, ...]:
        # The index as a tuple of ints; ValueError unless it has length n and entries in range(N).
        idx = tuple(int(i) for i in index)
        if len(idx) != self.n:
            raise ValueError(f"index {idx} does not have length n = {self.n}")
        if any(i < 0 or i >= self.N for i in idx):
            raise ValueError(f"index {idx} out of range for N = {self.N}")
        return idx

    def value(self, index) -> float:
        """Component of the symmetric form at an arbitrary (unsorted) index."""
        return self.entries.get(tuple(sorted(self._index(index))), 0.0)

    def max_abs_entry(self) -> float:
        return max(abs(v) for v in self.entries.values())

    def __hash__(self):
        return hash((self.n, self.N, tuple(sorted(self.entries.items()))))


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
    t = _vector(c.N, point, "base point")
    vecs = [_vector(c.N, v, "tangent vector") for v in vs]
    k = len(vecs)
    if k > c.n:
        raise DimensionMismatch(f"cannot contract {k} vectors into a degree-{c.n} form")
    a = c.dense
    for x in [t] * (c.n - k) + vecs[::-1]:
        a = a @ x
    return float(a) / math.factorial(c.n - k)


def volume(c: IntersectionTensor, point) -> float:
    """Volume polynomial ``Vol(t) = c(t, ..., t) / n!``, homogeneous of degree n."""
    return _jet(c, _vector(c.N, point, "base point"), 0)[0]


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
    return _jet(c, _vector(c.N, point, "base point"), order)[1:]
