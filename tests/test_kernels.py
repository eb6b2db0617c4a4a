"""Exact symmetry, accuracy and stack independence of the stacked contraction
kernels."""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylprior import kernels


def random_case(seed, q, m, p=1):
    """Weights (p, q) and scores (p, q, m) for a stack of p points."""
    rng = np.random.default_rng(seed)
    return rng.random((p, q)), rng.standard_normal((p, q, m))


def looped_triple(w, s):
    """The per-node direct sum of w[n] s[n] (x) s[n] (x) s[n], one node at a time."""
    return sum(w[n] * np.multiply.outer(np.multiply.outer(s[n], s[n]), s[n])
               for n in range(len(w)))


@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 200), m=st.integers(1, 7),
       p=st.integers(1, 4))
@settings(max_examples=50, deadline=None)
def test_symmetric_and_match_direct_sum(seed, q, m, p):
    ws, ss = random_case(seed, q, m, p)
    gs = kernels.pair_contract_stack(ws, ss)
    ts = kernels.triple_contract_stack(ws, ss)
    for w, s, g, t in zip(ws, ss, gs, ts):
        assert np.array_equal(g, g.T)
        for perm in permutations(range(3)):
            assert np.array_equal(t, np.transpose(t, perm))
        # per-node sums; the tolerance is 1e-12 of the summed magnitudes
        pair = sum(w[n] * np.multiply.outer(s[n], s[n]) for n in range(q))
        triple = looped_triple(w, s)
        size = np.max(np.abs(s), axis=1)
        np.testing.assert_allclose(g, pair, rtol=0, atol=1e-12 * (w @ size ** 2))
        np.testing.assert_allclose(t, triple, rtol=0, atol=1e-12 * (w @ size ** 3))


def test_triple_matches_looped_reference():
    # the shapes the workloads contract: (q, m) = (1024, 5) for gaussian_mv:2,
    # (64, 2) for gaussian1d, (512, 9) for gaussian_mv:3 with 8 nodes per
    # dimension, (57, 1) for a discrete support; BLAS sums in its own order,
    # so the tolerance is 1e-12 of the summed magnitudes
    for seed, (q, m) in enumerate([(1024, 5), (64, 2), (512, 9), (57, 1)]):
        w, s = random_case(seed, q, m, p=3)
        t = kernels.triple_contract_stack(w, s)
        for k in range(3):
            for perm in permutations(range(3)):
                assert np.array_equal(t[k], np.transpose(t[k], perm))
            size = np.max(np.abs(s[k]), axis=1)
            np.testing.assert_allclose(t[k], looped_triple(w[k], s[k]), rtol=0,
                                       atol=1e-12 * (w[k] @ size ** 3))


# The case id is the name of the module that held the NumPy kernel before it
# moved into `kernels`; it is kept so the case is reported as it always was.
@pytest.mark.parametrize("impl", [kernels], ids=["weylprior._contract_py"])
def test_exact_symmetry(impl):
    w, s = random_case(3, 500, 5, p=2)
    g = impl.pair_contract_stack(w, s)
    assert np.array_equal(g, np.transpose(g, (0, 2, 1)))
    t = impl.triple_contract_stack(w, s)
    for perm in ((0, 1, 3, 2), (0, 2, 1, 3), (0, 3, 2, 1)):
        assert np.array_equal(t, np.transpose(t, perm))


def test_pair_matches_direct_sum():
    w, s = random_case(0, 64, 3)
    expected = sum(w[0, n] * np.outer(s[0, n], s[0, n]) for n in range(64))
    np.testing.assert_allclose(kernels.pair_contract_stack(w, s)[0], expected,
                               rtol=1e-12)


# The name is kept so each case is reported as it always was; nothing pads a
# support with zero-weight nodes any more (see ``numerics.sample_nodes``), so
# only the stack half of the test remains.
@pytest.mark.parametrize("q,m", [(64, 2), (1024, 5), (57, 1), (200, 7), (5, 3)])
def test_stack_independent_and_padding_invariant(q, m):
    # a point's tensors are bitwise the same alone and in any stack
    w, s = random_case(q * m, q, m, p=6)
    g = kernels.pair_contract_stack(w, s)
    t = kernels.triple_contract_stack(w, s)
    assert g.flags.c_contiguous and t.flags.c_contiguous
    for k in range(6):
        one = slice(k, k + 1)
        assert np.array_equal(kernels.pair_contract_stack(w[one], s[one])[0], g[k])
        assert np.array_equal(kernels.triple_contract_stack(w[one], s[one])[0], t[k])


@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 2000), m=st.integers(1, 9),
       p=st.integers(2, 5), data=st.data())
@settings(max_examples=60, deadline=None)
def test_point_bitwise_equal_alone_and_in_any_stack(seed, q, m, p, data):
    w, s = random_case(seed, q, m, p)
    # any sub-stack, in any order, with repeats
    rows = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=2 * p))
    g = kernels.pair_contract_stack(w[rows], s[rows])
    t = kernels.triple_contract_stack(w[rows], s[rows])
    for a, k in enumerate(rows):
        one = slice(k, k + 1)
        assert np.array_equal(g[a], kernels.pair_contract_stack(w[one], s[one])[0])
        assert np.array_equal(t[a], kernels.triple_contract_stack(w[one], s[one])[0])


def random_metric_inverse(seed, p, m):
    """Symmetric positive-definite (p, m, m) matrices standing in for g^-1."""
    a = np.random.default_rng(seed + 1).standard_normal((p, m, m))
    return a @ np.swapaxes(a, 1, 2) + np.eye(m)


def looped_trace(w, s, a):
    """The per-node direct sum of w[n] s[n] (s[n]^T a s[n]), one node at a time."""
    return sum(w[n] * s[n] * (s[n] @ a @ s[n]) for n in range(len(w)))


def test_trace_matches_looped_reference():
    # the workload shapes of test_triple_matches_looped_reference; the
    # tolerance is 1e-12 of the summed magnitudes sum_n w |s| (|s|^T |a| |s|)
    for seed, (q, m) in enumerate([(1024, 5), (64, 2), (512, 9), (57, 1)]):
        w, s = random_case(seed, q, m, p=3)
        a = random_metric_inverse(seed, 3, m)
        t = kernels.trace_contract_stack(w, s, a)
        assert t.shape == (3, m) and t.flags.c_contiguous
        for k in range(3):
            size = np.abs(s[k]) * np.einsum("ni,ij,nj->n", np.abs(s[k]), np.abs(a[k]),
                                            np.abs(s[k]))[:, None]
            err = np.abs(t[k] - looped_trace(w[k], s[k], a[k]))
            assert np.all(err <= 1e-12 * (w[k] @ size)), err / (w[k] @ size)


@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 2000), m=st.integers(1, 9),
       p=st.integers(2, 5), data=st.data())
@settings(max_examples=60, deadline=None)
def test_trace_point_bitwise_equal_alone_and_in_any_stack(seed, q, m, p, data):
    w, s = random_case(seed, q, m, p)
    a = random_metric_inverse(seed % 1000, p, m)
    # any sub-stack, in any order, with repeats
    rows = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=2 * p))
    t = kernels.trace_contract_stack(w[rows], s[rows], a[rows])
    for b, k in enumerate(rows):
        one = slice(k, k + 1)
        assert np.array_equal(t[b], kernels.trace_contract_stack(w[one], s[one],
                                                                 a[one])[0])


def test_backend_name_reported():
    assert kernels.backend_name() == "python"
