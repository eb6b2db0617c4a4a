"""Weighted contraction kernels behind the Fisher metric and the cubic tensor.

Given per-node weights w (q,) and per-node score vectors s (q, m):

    pair_contract:   G[i, j]    = sum_n w[n] s[n, i] s[n, j]
    triple_contract: T[i, j, k] = sum_n w[n] s[n, i] s[n, j] s[n, k]

einsum does the accumulation; both results are then symmetrised so that
every permutation of an index tuple holds the same bit pattern.
"""

import numpy as np


def backend_name():
    """Always "python": the NumPy kernels below are the only implementation.

    Kept because the benchmark records it in every run's configuration and
    groups runs by it.
    """
    return "python"


def pair_contract(w, s):
    """G[i,j] = sum_n w[n] s[n,i] s[n,j], exactly symmetric."""
    g = np.einsum("n,ni,nj->ij", w, s, s)
    return 0.5 * (g + g.T)


def triple_contract(w, s):
    """T[i,j,k] = sum_n w[n] s[n,i] s[n,j] s[n,k], exactly symmetric."""
    t = np.einsum("n,ni,nj,nk->ijk", w, s, s, s)
    m = t.shape[0]
    out = np.empty_like(t)
    a = t.tolist()      # Python floats: the same IEEE doubles, cheaper to index
    # average over the sorted triangle i <= j <= k and mirror, so the six
    # symmetric slots hold the same bit pattern
    for i in range(m):
        for j in range(i, m):
            for k in range(j, m):
                v = (a[i][j][k] + a[i][k][j] + a[j][i][k]
                     + a[j][k][i] + a[k][i][j] + a[k][j][i]) / 6.0
                out[i, j, k] = out[i, k, j] = v
                out[j, i, k] = out[j, k, i] = v
                out[k, i, j] = out[k, j, i] = v
    return out
