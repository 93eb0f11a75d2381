"""Independent reference computations for the benchmark's correctness checks.

Everything here works from the public fields of an ``IntersectionTensor``
(``n``, ``N`` and the sorted-index ``entries``) with plain dense numpy, so it
shares no code path with the library it checks.  Curvature uses the
Hessian-metric identity (Duistermaat 2001, Totaro 2004)

    R[a, b, k, l] = 1/4 g^pq (F_akp F_blq - F_alp F_bkq),

which needs only the third potential derivative and the inverse metric; the
library assembles curvature by a different route.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


class DenseTensor:
    """Dense symmetric array of a tensor and the potential jet at a point."""

    def __init__(self, c):
        self.n, self.N = c.n, c.N
        a = np.zeros((c.N,) * c.n)
        for idx, val in c.entries.items():
            for perm in set(itertools.permutations(idx)):
                a[perm] = val
        self.a = a

    def vol_jet(self, t, order):
        """``(Vol, V_1, ..., V_order)``: ``V_k = c(., ..., ., t^(n-k)) / (n-k)!``."""
        t = np.asarray(t, dtype=float)
        out = [None] * (self.n + 1)
        cur = self.a
        out[self.n] = cur
        for r in range(self.n - 1, -1, -1):
            cur = cur @ t
            out[r] = cur
        res = [float(out[0]) / math.factorial(self.n)]
        for k in range(1, order + 1):
            res.append(out[k] / math.factorial(self.n - k) if k <= self.n else np.zeros((self.N,) * k))
        return res

    def volume(self, t):
        return self.vol_jet(t, 0)[0]

    def vol_condition(self, t):
        """Condition number of evaluating ``Vol`` at ``t``: the sum of the
        absolute values of its terms over the absolute value of their sum.
        It grows as ``t`` nears the zero set of ``Vol``."""
        cur = np.abs(self.a)
        for _ in range(self.n):
            cur = cur @ np.abs(t)
        return float(cur) / abs(math.factorial(self.n) * self.volume(t))

    def metric(self, t):
        """``(Vol, g)`` with ``g = -Hess log Vol``."""
        vol, v1, v2 = self.vol_jet(t, 2)
        g = np.outer(v1, v1) / vol**2 - v2 / vol
        return vol, 0.5 * (g + g.T)

    def is_positive_definite(self, t):
        vol, g = self.metric(t)
        return vol > 0 and float(np.linalg.eigvalsh(g)[0]) > 1e-10 * float(np.trace(g)) / self.N

    def potential_third(self, t):
        vol, v1, v2, v3 = self.vol_jet(t, 3)
        sym = np.einsum("ij,k->ijk", v2, v1)
        sym = sym + sym.transpose(0, 2, 1) + sym.transpose(2, 1, 0)
        return -(v3 / vol - sym / vol**2 + 2.0 * np.einsum("i,j,k->ijk", v1, v1, v1) / vol**3)

    def sectional(self, t, u, v):
        """Sectional curvature of span{u, v} from the Hessian-metric identity."""
        _, g = self.metric(t)
        f3 = self.potential_third(t)
        g_inv = np.linalg.inv(g)
        fuv = f3 @ v @ u
        fuu = f3 @ u @ u
        fvv = f3 @ v @ v
        gram = float(u @ g @ u) * float(v @ g @ v) - float(u @ g @ v) ** 2
        return float(fuv @ g_inv @ fuv - fuu @ g_inv @ fvv) / (4.0 * gram)

    def path_length(self, points):
        """Length of a polygon, with the same 8-point Gauss-Legendre rule per
        segment that the library documents."""
        total = 0.0
        for a, b in zip(points[:-1], points[1:]):
            d = b - a
            for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
                _, g = self.metric(a + 0.5 * (node + 1.0) * d)
                total += 0.5 * weight * math.sqrt(float(d @ g @ d))
        return total
