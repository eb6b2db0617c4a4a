"""Exact symmetry and accuracy of the contraction kernels."""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylprior import kernels


def random_case(seed, q, m):
    rng = np.random.default_rng(seed)
    return rng.random(q), rng.standard_normal((q, m))


def looped_triple(w, s):
    """The earlier NumPy kernel, kept verbatim as the bit-level reference."""
    t = np.einsum("n,ni,nj,nk->ijk", w, s, s, s)
    m = t.shape[0]
    out = np.empty_like(t)
    for i in range(m):
        for j in range(i, m):
            for k in range(j, m):
                v = (t[i, j, k] + t[i, k, j] + t[j, i, k]
                     + t[j, k, i] + t[k, i, j] + t[k, j, i]) / 6.0
                out[i, j, k] = out[i, k, j] = v
                out[j, i, k] = out[j, k, i] = v
                out[k, i, j] = out[k, j, i] = v
    return out


@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 200), m=st.integers(1, 7))
@settings(max_examples=50, deadline=None)
def test_symmetric_and_match_direct_sum(seed, q, m):
    w, s = random_case(seed, q, m)
    g = kernels.pair_contract(w, s)
    t = kernels.triple_contract(w, s)
    assert np.array_equal(g, g.T)
    for perm in permutations(range(3)):
        assert np.array_equal(t, np.transpose(t, perm))
    # per-node sums; the tolerance is 1e-12 of the summed magnitudes
    pair = sum(w[n] * np.multiply.outer(s[n], s[n]) for n in range(q))
    triple = sum(w[n] * np.multiply.outer(np.multiply.outer(s[n], s[n]), s[n])
                 for n in range(q))
    size = np.max(np.abs(s), axis=1)
    np.testing.assert_allclose(g, pair, rtol=0, atol=1e-12 * (w @ size ** 2))
    np.testing.assert_allclose(t, triple, rtol=0, atol=1e-12 * (w @ size ** 3))


def test_triple_matches_looped_reference():
    for seed, (q, m) in enumerate([(64, 2), (1024, 5), (57, 1), (200, 7), (5, 3)]):
        w, s = random_case(seed, q, m)
        assert np.array_equal(kernels.triple_contract(w, s), looped_triple(w, s))


# The case id is the name of the module that held the NumPy kernel before it
# moved into `kernels`; it is kept so the case is reported as it always was.
@pytest.mark.parametrize("impl", [kernels], ids=["weylprior._contract_py"])
def test_exact_symmetry(impl):
    w, s = random_case(3, 500, 5)
    g = impl.pair_contract(w, s)
    assert np.array_equal(g, g.T)
    t = impl.triple_contract(w, s)
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        assert np.array_equal(t, np.transpose(t, perm))


def test_pair_matches_direct_sum():
    w, s = random_case(0, 64, 3)
    expected = sum(w[n] * np.outer(s[n], s[n]) for n in range(64))
    np.testing.assert_allclose(kernels.pair_contract(w, s), expected, rtol=1e-12)


def test_backend_name_reported():
    assert kernels.backend_name() == "python"
