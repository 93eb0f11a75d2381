import itertools
import math

import numpy as np
import pytest

from conegeom import load_fixture
from conegeom.errors import DimensionMismatch
from conegeom.tensors import IntersectionTensor, contract, vol_derivatives, volume

from conftest import ALL_FIXTURES

BLOWUP = IntersectionTensor(n=2, N=2, entries={(0, 0): 1.0, (1, 1): -1.0})
CUBIC = IntersectionTensor(n=3, N=1, entries={(0, 0, 0): 6.0})


def sparse_contract(c, vs, t):
    """Reference ``c(v_1, ..., v_k, t, ..., t) / (n-k)!`` straight from the
    sorted-index entries: each entry is spread over its distinct orderings."""
    xs = [np.asarray(v, dtype=float) for v in vs]
    xs += [np.asarray(t, dtype=float)] * (c.n - len(xs))
    total = 0.0
    for idx, val in c.entries.items():
        for perm in set(itertools.permutations(idx)):
            total += val * math.prod(x[i] for x, i in zip(xs, perm))
    return total / math.factorial(c.n - len(vs))


def dense_random_tensor(n, N, seed):
    rng = np.random.default_rng(seed)
    indices = itertools.combinations_with_replacement(range(N), n)
    return IntersectionTensor(n=n, N=N, entries={idx: rng.normal() for idx in indices})


def _kernel_cases():
    for name in ALL_FIXTURES:
        yield pytest.param(lambda name=name: load_fixture(name).tensor, id=name)
    yield pytest.param(lambda: dense_random_tensor(3, 6, seed=36), id="dense_3_6")
    yield pytest.param(lambda: dense_random_tensor(4, 5, seed=45), id="dense_4_5")


@pytest.mark.parametrize("make", _kernel_cases())
def test_dense_kernel_matches_sparse_reference(make):
    c = make()
    abs_c = IntersectionTensor(c.n, c.N, {k: abs(v) for k, v in c.entries.items()})

    def close(value, vs, t):
        # Relative to the same contraction of |c| with |vs| and |t|, the
        # scale of the rounding error of any summation order.
        scale = sparse_contract(abs_c, [np.abs(v) for v in vs], np.abs(t))
        return abs(value - sparse_contract(c, vs, t)) <= 1e-12 * scale

    rng = np.random.default_rng(c.N * 10 + c.n)
    eye = np.eye(c.N)
    for _ in range(3):
        t = rng.normal(size=c.N) + 1.0
        assert close(volume(c, t), [], t)
        for k in range(c.n + 1):
            vs = [rng.normal(size=c.N) for _ in range(k)]
            assert close(contract(c, vs, t), vs, t)
        jet = vol_derivatives(c, t, 4)
        for order in range(1, 4):
            lower = vol_derivatives(c, t, order)
            assert len(lower) == order
            assert all(np.array_equal(a, b) for a, b in zip(lower, jet))
        for k, vk in enumerate(jet, start=1):
            assert vk.shape == (c.N,) * k
            if k > c.n:
                assert np.all(vk == 0.0)
                continue
            for perm in itertools.permutations(range(k)):
                assert np.array_equal(vk, vk.transpose(perm))
            for idx in itertools.combinations_with_replacement(range(c.N), k):
                assert close(vk[idx], [eye[i] for i in idx], t), (k, idx)


class TestConstruction:
    def test_rejects_unsorted_index(self):
        with pytest.raises(ValueError, match="not sorted"):
            IntersectionTensor(n=2, N=2, entries={(1, 0): 1.0})

    def test_rejects_empty_tensor(self):
        with pytest.raises(ValueError, match="nonzero"):
            IntersectionTensor(n=2, N=2, entries={(0, 0): 0.0})

    def test_rejects_bad_arity_and_range(self):
        with pytest.raises(ValueError):
            IntersectionTensor(n=2, N=2, entries={(0, 0, 0): 1.0})
        with pytest.raises(ValueError):
            IntersectionTensor(n=2, N=2, entries={(0, 5): 1.0})

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            IntersectionTensor(n=1, N=1, entries={(0,): float("nan")})

    def test_equal_entries_give_equal_tensors(self):
        a = IntersectionTensor(n=3, N=3, entries={(0, 1, 2): 2.5, (0, 0, 0): -1.0})
        b = IntersectionTensor(n=3, N=3, entries={(0, 0, 0): -1.0, (0, 1, 2): 2.5})
        assert a == b
        assert hash(a) == hash(b)
        assert a != IntersectionTensor(n=3, N=3, entries={(0, 1, 2): 2.5})

    def test_dense_array_is_symmetric_and_read_only(self):
        c = IntersectionTensor(n=3, N=3, entries={(0, 1, 2): 2.5, (0, 0, 1): 0.5})
        assert c.dense[2, 0, 1] == 2.5
        assert c.dense[1, 0, 0] == 0.5
        assert c.dense[1, 1, 0] == 0.0
        with pytest.raises(ValueError):
            c.dense[0, 0, 0] = 1.0

    def test_refuses_oversized_dense_array(self):
        with pytest.raises(ValueError, match="12,960,000"):
            IntersectionTensor(4, 60, {(0, 0, 0, 0): 1.0})

    def test_accepts_largest_benchmark_sizes(self):
        for n, N in ((3, 20), (4, 8)):
            c = dense_random_tensor(n, N, seed=n * N)
            assert c.dense.shape == (N,) * n

    def test_high_degree_build_matches_value_lookup(self):
        # The sorting-network build is O(n^2 N^n); one pass per permutation
        # of the 12 axes would take minutes here.
        c = IntersectionTensor(n=12, N=2, entries={(0,) * 12: 1.5, (0,) * 5 + (1,) * 7: -2.0, (1,) * 12: 0.25})
        for idx in itertools.product(range(2), repeat=12):
            assert c.dense[idx] == c.value(idx)

    def test_value_lookup_symmetric(self):
        c = IntersectionTensor(n=3, N=3, entries={(0, 1, 2): 2.5})
        assert c.value((2, 0, 1)) == 2.5
        assert c.value((0, 0, 1)) == 0.0

    def test_value_refuses_malformed_index(self):
        c = IntersectionTensor(n=2, N=2, entries={(0, 0): 1.0})
        with pytest.raises(ValueError, match="length"):
            c.value((0,))
        with pytest.raises(ValueError, match="out of range"):
            c.value((0, 5))


class TestContract:
    def test_blowup_mixed_plane_vanishes(self):
        # c(H, E) = 0 regardless of the base point.
        assert contract(BLOWUP, [[1, 0], [0, 1]], [2.0, 1.0]) == 0.0
        assert contract(BLOWUP, [[1, 0], [0, 1]], [5.0, -3.0]) == 0.0

    def test_blowup_diagonal(self):
        assert contract(BLOWUP, [[1, 0], [1, 0]], [2.0, 1.0]) == 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        c = IntersectionTensor(
            n=3, N=3, entries={(0, 1, 2): 1.0, (0, 0, 0): 0.6, (1, 1, 2): -0.4}
        )
        vs = [rng.normal(size=3) for _ in range(3)]
        t = np.array([1.0, 1.2, 0.9])
        base = contract(c, vs, t)
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            assert contract(c, [vs[i] for i in perm], t) == pytest.approx(base, abs=1e-14)

    def test_multilinearity(self):
        rng = np.random.default_rng(3)
        t = np.array([1.5, 0.7])
        for _ in range(20):
            u, w, v = (rng.normal(size=2) for _ in range(3))
            a, b = rng.normal(size=2)
            lhs = contract(BLOWUP, [a * u + b * w, v], t)
            rhs = a * contract(BLOWUP, [u, v], t) + b * contract(BLOWUP, [w, v], t)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_too_many_vectors(self):
        with pytest.raises(DimensionMismatch):
            contract(BLOWUP, [[1, 0]] * 3, [2.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            contract(BLOWUP, [[1, 0, 0]], [2.0, 1.0])
        with pytest.raises(DimensionMismatch):
            volume(BLOWUP, [1.0, 2.0, 3.0])


class TestVectorCheck:
    """Every point and tangent vector passes the one check ``tensors._vector``."""

    @pytest.mark.parametrize(
        "point", [np.array([2 + 1j, 1.0]), [2 + 1j, 1.0], np.array([2.0, 1.0], dtype=complex)]
    )
    def test_complex_point_rejected(self, point):
        # A complex array used to be truncated to its real part, with only a
        # ComplexWarning; a complex list raised TypeError.
        with pytest.raises(ValueError, match="real numbers"):
            volume(BLOWUP, point)

    def test_complex_tangent_rejected(self):
        with pytest.raises(ValueError, match="real numbers"):
            contract(BLOWUP, [np.array([1.0, 1j])], [2.0, 1.0])

    @pytest.mark.parametrize("x", [[[2.0, 1.0]], [{"x": 1}], "ab", [[1.0], [1.0, 2.0]], [None, 1.0]])
    def test_not_a_vector_of_numbers(self, x):
        with pytest.raises(ValueError):
            volume(BLOWUP, x)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            volume(BLOWUP, [2.0, bad])
        with pytest.raises(ValueError, match="finite"):
            contract(BLOWUP, [[bad, 0.0]], [2.0, 1.0])

    def test_scalar_is_a_vector_of_length_one(self):
        assert volume(CUBIC, 2.0) == volume(CUBIC, [2.0]) == 8.0


class TestVolume:
    def test_normalized_cubic(self):
        assert volume(CUBIC, [1.0]) == 1.0

    def test_blowup_value(self):
        assert volume(BLOWUP, [2.0, 1.0]) == 1.5

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            t = rng.uniform(0.5, 2.0, size=2)
            s = rng.uniform(0.1, 3.0)
            assert volume(BLOWUP, s * t) == pytest.approx(s**2 * volume(BLOWUP, t), rel=1e-13)
        assert volume(CUBIC, [2.0]) == pytest.approx(2**3 * volume(CUBIC, [1.0]))


class TestVolDerivatives:
    def test_cubic_jet(self):
        v1, v2, v3, v4 = vol_derivatives(CUBIC, [1.0], 4)
        assert v1[0] == 3.0
        assert v2[0, 0] == 6.0
        assert v3[0, 0, 0] == 6.0
        assert v4[0, 0, 0, 0] == 0.0

    def test_order_validation(self):
        with pytest.raises(ValueError):
            vol_derivatives(CUBIC, [1.0], 0)
        with pytest.raises(ValueError):
            vol_derivatives(CUBIC, [1.0], 5)

    def test_euler_identity(self):
        rng = np.random.default_rng(7)
        c = IntersectionTensor(
            n=3, N=3, entries={(0, 1, 2): 1.0, (0, 0, 0): 0.6, (0, 1, 1): 0.2}
        )
        for _ in range(10):
            t = rng.uniform(0.5, 2.0, size=3)
            (v1,) = vol_derivatives(c, t, 1)
            assert float(t @ v1) == pytest.approx(c.n * volume(c, t), rel=1e-13)

    def test_above_degree_is_zero(self):
        v1, v2, v3 = vol_derivatives(BLOWUP, [2.0, 1.0], 3)
        assert np.all(v3 == 0.0)

    def test_symmetry(self):
        c = IntersectionTensor(
            n=3, N=3, entries={(0, 1, 2): 1.0, (0, 0, 1): 0.3, (1, 2, 2): -0.2}
        )
        _, v2, v3 = vol_derivatives(c, [1.0, 1.1, 0.9], 3)
        assert np.allclose(v2, v2.T)
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            assert np.allclose(v3, np.transpose(v3, perm))

    def test_matches_finite_differences(self):
        c = IntersectionTensor(
            n=3, N=3, entries={(0, 1, 2): 1.0, (0, 0, 0): 0.6, (0, 1, 1): 0.2}
        )
        rng = np.random.default_rng(13)
        h = 1e-3
        eye = np.eye(3)
        for _ in range(5):
            t = rng.uniform(0.8, 1.5, size=3)
            v1, v2 = vol_derivatives(c, t, 2)
            for i in range(3):
                fd = (volume(c, t + h * eye[i]) - volume(c, t - h * eye[i])) / (2 * h)
                assert fd == pytest.approx(v1[i], rel=1e-6)
                for j in range(3):
                    fd2 = (
                        volume(c, t + h * (eye[i] + eye[j]))
                        - volume(c, t + h * (eye[i] - eye[j]))
                        - volume(c, t - h * (eye[i] - eye[j]))
                        + volume(c, t - h * (eye[i] + eye[j]))
                    ) / (4 * h**2)
                    assert fd2 == pytest.approx(v2[i, j], rel=1e-6, abs=1e-8)

    def test_p0_is_volume(self):
        t = [2.0, 1.0]
        assert contract(BLOWUP, [], t) == volume(BLOWUP, t)

    def test_first_derivative_is_p1_of_basis(self):
        t = np.array([2.0, 1.0])
        (v1,) = vol_derivatives(BLOWUP, t, 1)
        for i, e in enumerate(np.eye(2)):
            assert v1[i] == pytest.approx(contract(BLOWUP, [e], t), abs=1e-14)
