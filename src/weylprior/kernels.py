"""Weighted contraction kernels behind the Fisher metric, the cubic tensor
and its trace.

Given per-node weights w (P, q) and per-node score vectors s (P, q, m) for a
stack of P points:

    pair_contract_stack:   G[p, i, j]    = sum_n w[p, n] s[p, n, i] s[p, n, j]
    triple_contract_stack: T[p, i, j, k] = sum_n w[p, n] s[p, n, i] s[p, n, j] s[p, n, k]
    trace_contract_stack:  t[p, i]       = sum_n w[p, n] s[p, n, i] (s[p, n]^T A[p] s[p, n])

All three are batched matrix products over the node axis: with ws = w s, G
is ws^T s (m, q) @ (q, m) and T is ws^T (s s^T) (m, q) @ (q, m*m), one BLAS
call per point.  With A = g^-1, t is the trace C_ijk g^jk of the cubic
tensor, taken node by node from the quadratic forms s^T g^-1 s (one
(q, m) @ (m, m) product, an elementwise product and its row sums as a
(q, m) @ (m,) product) and one (1, q) @ (q, m) product, so it costs about
2 q m^2 per point against q m^3 for T.  G and T are symmetrised so that
every permutation of an index tuple holds the same bit pattern.  A point's
result does not depend on the other points of its stack; it does depend on
q, so a stack's points share one node count (discrete supports are not
padded, see ``numerics.sample_nodes``).  Results are C-ordered.
"""

from functools import lru_cache

import numpy as np


def backend_name():
    """Always "python": the NumPy kernels below are the only implementation.

    Kept because the benchmark records it in every run's configuration and
    groups runs by it.
    """
    return "python"


def pair_contract_stack(w, s):
    """G[p,i,j] = sum_n w[p,n] s[p,n,i] s[p,n,j], exactly symmetric."""
    g = np.swapaxes(w[..., None] * s, 1, 2) @ s
    return 0.5 * (g + np.swapaxes(g, 1, 2))


@lru_cache(maxsize=16)
def _mirror_indices(m):
    """Flat indices of the six permutations (i,j,k), (i,k,j), (j,i,k), (j,k,i),
    (k,i,j), (k,j,i) of every sorted triple i <= j <= k, shape (6, T), and
    for every slot of an (m, m, m) array the position of its sorted triple."""
    tri = [(i, j, k) for i in range(m) for j in range(i, m) for k in range(j, m)]
    perms = np.array([[a * m * m + b * m + c
                       for a, b, c in ((i, j, k), (i, k, j), (j, i, k),
                                       (j, k, i), (k, i, j), (k, j, i))]
                      for i, j, k in tri]).T
    slot = np.empty(m ** 3, dtype=np.intp)
    slot[perms] = np.arange(len(tri))
    return perms, slot


def triple_contract_stack(w, s):
    """T[p,i,j,k] = sum_n w[p,n] s[p,n,i] s[p,n,j] s[p,n,k], exactly symmetric."""
    p, q, m = s.shape
    ss = (s[..., :, None] * s[..., None, :]).reshape(p, q, m * m)
    t = np.swapaxes(w[..., None] * s, 1, 2) @ ss              # (P, m, m*m)
    perms, slot = _mirror_indices(m)
    # average the six slots of each sorted triple, summed in a fixed order, and
    # mirror the mean back, so the six symmetric slots hold the same bit pattern
    a = np.take(t.reshape(p, -1), perms, axis=1)
    v = a[:, 0] + a[:, 1]
    for k in range(2, 6):
        v += a[:, k]
    v /= 6.0
    return np.take(v, slot, axis=1).reshape(p, m, m, m)


def trace_contract_stack(w, s, a):
    """t[p,i] = sum_n w[p,n] s[p,n,i] (s[p,n]^T a[p] s[p,n]); with a = g^-1 this
    is C_ijk g^jk without building C."""
    # the row sums of (s a) * s as a product with ones: np.sum over a short
    # last axis costs twice as much
    qf = ((s @ a) * s) @ np.ones(s.shape[-1])                  # (P, q)
    return ((w * qf)[:, None, :] @ s)[:, 0]
