"""Fisher metric, cubic (Amari-Chentsov) tensor and its trace over stacks of
points.

All are quadrature expectations of products of score components.  Every
public function takes one point (m,) or a stack of points (P, m).  The
points of a stack are grouped by node count (one group for a continuous
model, one per support width for a discrete stack of more than one point,
since nothing pads a support), each group is split into chunks whose
largest temporary stays under CHUNK_BYTES, and each chunk builds sample
nodes, scores, the metric contraction and the metric's Cholesky factor,
plus one of two more: the cubic tensor C, or its trace C_ijk g^jk =
E[s_i (s^T g^-1 s)], with g^-1 from the chunk's factor, which never builds
C.  All are batched matrix products in a few NumPy calls.  The kernels
return exactly symmetric arrays, which are checked here over the whole
stack (metric finite and positive-definite, cubic tensor or trace finite);
a failed check names the first offending point in stack order.  A chunk
whose metrics do not all factor is factored one metric at a time, so only
the metrics that do not factor get NaN factors (and a NaN trace), and the
stack's SPD check names the first of them.  A metric's factor is kept, and
g^-1 and sqrt(det g) are taken from it.  Chart-native tensors are obtained
by pushing the reference-chart scores through the chart Jacobian before
contraction, so no separate transformation step is needed.  A single point
is evaluated as a one-row stack, so its values are bitwise those it gets in
any stack.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import NotSPDError
from .numerics import nodes_per_point, sample_nodes

# bound on one chunk's largest temporary, the score products s s^T that the
# cubic contraction multiplies by: q * m * m doubles per point.  The trace
# contraction's largest temporary is only q * m, but it keeps these chunks:
# chunks sized for it (12 rows of gaussian_mv:2 at 1024 nodes instead of 2)
# gave bitwise-equal values and made weyl-field-mv2 rounds slower on a
# 2-vCPU host, in each of 4 interleaved runs (0.077-0.092 s against
# 0.088-0.112 s) and in-process (a Weyl and a Jeffreys field, median 60 ms
# against 77-80 ms)
CHUNK_BYTES = 1 << 19


@dataclass(frozen=True)
class MetricTensor:
    """g at one point (m, m) or at a stack (P, m, m)."""

    g: np.ndarray
    chol: np.ndarray        # lower Cholesky factor, from the SPD check


def _chunk_rows(q, m):
    """Points per chunk, so that q * m * m doubles per point fit CHUNK_BYTES."""
    return max(1, CHUNK_BYTES // (8 * q * m * m))


def _name(thetas, ok):
    return np.asarray(thetas, dtype=float)[np.argmin(ok)].tolist()


def _factor(g):
    """Cholesky factors of one chunk's metrics (P, m, m); a chunk that does
    not factor is factored one metric at a time, and a metric that does not
    factor gets NaN (``_require_spd`` then names it)."""
    try:
        return np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        if len(g) == 1:
            return np.full(g.shape, np.nan)
        return np.concatenate([_factor(g[k:k + 1]) for k in range(len(g))])


def _require_spd(g, chol, thetas):
    """NotSPDError naming the first point whose metric is non-finite or not
    positive-definite, if there is one; ``chol`` holds the metrics' factors,
    NaN for a metric that did not factor."""
    # a non-finite entry of g either fails its factorisation or reaches the
    # factor (which reads the lower triangle, and the kernels mirror g
    # exactly), so finite factors vouch for g too
    if np.isfinite(chol).all():
        return
    factored = np.isfinite(chol).all(axis=(1, 2))
    theta = _name(thetas, factored)
    if not np.isfinite(g[np.argmin(factored)]).all():
        raise NotSPDError(f"non-finite Fisher metric at theta={theta}")
    raise NotSPDError(
        f"Fisher metric is not positive-definite at theta={theta} "
        f"(quadrature or domain misconfiguration)")


def _require_finite(c, thetas, what):
    finite = np.isfinite(c).all(axis=tuple(range(1, c.ndim)))
    if not finite.all():
        raise NotSPDError(f"non-finite {what} at theta={_name(thetas, finite)}")


def _inverse(chol):
    """g^{-1} = L^{-T} L^{-1} from the Cholesky factor L, exactly symmetric."""
    inv_l = np.linalg.inv(chol)
    inv = np.swapaxes(inv_l, -1, -2) @ inv_l
    return 0.5 * (inv + np.swapaxes(inv, -1, -2))


def _contract(model, ch, thetas, theta_ref, quad, extra, width):
    """Unchecked metric, its Cholesky factor (``_factor``) and, by ``extra``,
    the cubic tensor ("cubic"), its trace ("trace", NaN from NaN factors) or
    nothing (None), of points that share one node count (``width`` nodes for
    a discrete model)."""
    x, w = sample_nodes(model, theta_ref, quad, width)
    # the score of a point whose image is tiny but representable overflows
    # (a Poisson rate below about 1e-307 divides the counts); its inf or NaN
    # reaches the stack checks, which name the point
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = model.score_ref(x, theta_ref)
        if ch.name != model.reference:
            s = s @ ch.jacobian(thetas)
        g = kernels.pair_contract_stack(w, s)
        chol = _factor(g)
        if extra == "cubic":
            return g, chol, kernels.triple_contract_stack(w, s)
        if extra == "trace":
            return g, chol, kernels.trace_contract_stack(w, s, _inverse(chol))
        return g, chol, None


def _groups(q, p):
    """(indices, node count) of each group of the stack's points that share
    one node count: all points for a continuous model (``q`` an int), one
    group per support width for a discrete stack (``q`` (P,))."""
    if np.ndim(q) == 0:
        return [(np.arange(p), q)]
    if p == 1:
        return [(np.arange(1), int(q[0]))]
    widths, group = np.unique(q, return_inverse=True)
    return [(np.flatnonzero(group == k), int(n)) for k, n in enumerate(widths)]


_EXTRA_NAME = {"cubic": "cubic tensor", "trace": "trace of the cubic tensor"}


def _evaluate(model, ch, thetas, quad, extra):
    """Metric, Cholesky factor and ``extra`` arrays of a stack of points
    interior to the chart ``ch``; a failed check names the first offending
    point in stack order."""
    theta_ref = ch.to_reference(thetas)
    p, m = thetas.shape
    groups = _groups(nodes_per_point(model, theta_ref, quad), p)
    if len(groups) == 1 and 0 < p <= _chunk_rows(groups[0][1], m):
        g, chol, c = _contract(model, ch, thetas, theta_ref, quad, extra,
                               groups[0][1])
    else:
        g, chol = np.empty((p, m, m)), np.empty((p, m, m))
        c = None if extra is None else np.empty(
            (p, m, m, m) if extra == "cubic" else (p, m))
        for idx, q in groups:
            rows = _chunk_rows(q, m)
            for a in range(0, len(idx), rows):
                part = idx[a:a + rows]
                g[part], chol[part], c_part = _contract(
                    model, ch, thetas[part], theta_ref[part], quad, extra, q)
                if extra is not None:
                    c[part] = c_part
    _require_spd(g, chol, thetas)
    if extra is not None:
        _require_finite(c, thetas, _EXTRA_NAME[extra])
    return g, chol, c


def _tensors(model, theta, chart, quad, extra="cubic"):
    """(MetricTensor, X) at one point (m,) or a stack (P, m), where X is C
    (``extra`` "cubic"), C_ijk g^jk ("trace") or None."""
    theta = np.asarray(theta, dtype=float)
    ch = model.require_interior(theta, chart)
    g, chol, c = _evaluate(model, ch, theta if theta.ndim == 2 else theta[None],
                           quad, extra)
    if theta.ndim == 1:
        g, chol, c = g[0], chol[0], None if c is None else c[0]
    return MetricTensor(g, chol), c


def fisher_metric(model, theta, chart=None, quad=None):
    """g_ij = E[ (d_i l)(d_j l) ], SPD-checked."""
    return _tensors(model, theta, chart, quad, None)[0]


def amari_chentsov(model, theta, chart=None, quad=None):
    """The array C_ijk = E[ (d_i l)(d_j l)(d_k l) ], (m, m, m) or (P, m, m, m),
    checked to be finite; the metric from the same nodes is SPD-checked too."""
    return _tensors(model, theta, chart, quad)[1]


def metric_and_cubic(model, theta, chart=None, quad=None):
    """(MetricTensor, C) from one shared set of quadrature nodes, checked as in
    ``fisher_metric`` and ``amari_chentsov``."""
    return _tensors(model, theta, chart, quad)


def cubic_trace(model, theta, chart=None, quad=None):
    """The trace C_ijk g^jk = E[ (d_i l) (dl)^T g^-1 (dl) ], (m,) or (P, m),
    without building C; checked to be finite, and the metric from the same
    nodes is SPD-checked."""
    return _tensors(model, theta, chart, quad, "trace")[1]


def inverse_metric(metric: MetricTensor):
    """g^{-1} = L^{-T} L^{-1} from the Cholesky factor L, exactly symmetric;
    works on one metric or a stack."""
    return _inverse(metric.chol)


def sqrt_det_metric(metric: MetricTensor):
    """sqrt(det g) as the product of the Cholesky diagonal (stable for small
    determinants); a float for one metric, an array (P,) for a stack."""
    d = metric.chol.diagonal(axis1=-2, axis2=-1).prod(axis=-1)
    return float(d) if np.ndim(d) == 0 else d
