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
2 q m^2 per point against q m^3 for T.  G is symmetrised as (G + G^T) / 2,
and T takes every slot from the slot of its sorted index triple, so every
permutation of an index tuple holds the same bit pattern.  A point's
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
def _sorted_slot(m):
    """For every slot (a, b, c) of an (m, m, m) array, the flat index of the
    slot of its sorted triple i <= j <= k."""
    abc = np.sort(np.indices((m, m, m)).reshape(3, -1), axis=0)
    return (abc[0] * m + abc[1]) * m + abc[2]


def triple_contract_stack(w, s):
    """T[p,i,j,k] = sum_n w[p,n] s[p,n,i] s[p,n,j] s[p,n,k], exactly symmetric."""
    p, q, m = s.shape
    ss = (s[..., :, None] * s[..., None, :]).reshape(p, q, m * m)
    t = np.swapaxes(w[..., None] * s, 1, 2) @ ss              # (P, m, m*m)
    # every permutation of an index triple reads its sorted triple's slot
    return np.take(t.reshape(p, -1), _sorted_slot(m), axis=1).reshape(p, m, m, m)


def trace_contract_stack(w, s, a):
    """t[p,i] = sum_n w[p,n] s[p,n,i] (s[p,n]^T a[p] s[p,n]); with a = g^-1 this
    is C_ijk g^jk without building C."""
    # the row sums of (s a) * s as a product with ones: np.sum over a short
    # last axis costs twice as much
    qf = ((s @ a) * s) @ np.ones(s.shape[-1])                  # (P, q)
    return ((w * qf)[:, None, :] @ s)[:, 0]
