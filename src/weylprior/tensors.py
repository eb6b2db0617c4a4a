"""Fisher metric and cubic (Amari-Chentsov) tensor over stacks of points.

Both are quadrature expectations of products of score components.  Every
public function takes one point (m,) or a stack of points (P, m), splits a
stack into chunks whose largest temporary stays under CHUNK_BYTES, and for
each chunk builds sample nodes, scores and both contractions in a few NumPy
calls.  The kernels return exactly symmetric arrays, which are
checked here (metric finite and positive-definite, cubic tensor finite);
a failed check names the offending point.  The Cholesky factor of the SPD
check is kept, and g^-1 and sqrt(det g) are taken from it.  Chart-native
tensors are obtained by pushing the reference-chart scores through the
chart Jacobian before contraction, so no separate transformation step is
needed.  A single point is evaluated as a one-row stack, so its values are
bitwise those it gets in any stack.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import NotSPDError
from .numerics import default_quadrature, nodes_per_point, sample_nodes

# bound on one chunk's score-product footprint, q * m * m doubles per point
CHUNK_BYTES = 1 << 19


@dataclass(frozen=True)
class MetricTensor:
    """g at one point (m, m) or at a stack (P, m, m)."""

    g: np.ndarray
    chol: np.ndarray        # lower Cholesky factor, from the SPD check


def _chunk_rows(model, theta_ref, quad):
    """Points per chunk, so that q * m * m doubles per point fit CHUNK_BYTES."""
    q = nodes_per_point(model, theta_ref, quad)
    return max(1, CHUNK_BYTES // (8 * q * model.dim * model.dim))


def _name(thetas, ok):
    return np.asarray(thetas, dtype=float)[np.argmin(ok)].tolist()


def _require_spd(g, thetas):
    """Cholesky factors of the metrics g (P, m, m); NotSPDError names the
    first point whose metric is non-finite or not positive-definite."""
    # the Cholesky factorisation lets a NaN on the diagonal through
    if not np.isfinite(g).all():
        finite = np.isfinite(g).all(axis=(1, 2))
        raise NotSPDError(f"non-finite Fisher metric at theta={_name(thetas, finite)}")
    try:
        return np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        pass
    spd = np.ones(len(g), dtype=bool)
    for k, gk in enumerate(g):
        try:
            np.linalg.cholesky(gk)
        except np.linalg.LinAlgError:
            spd[k] = False
            break
    raise NotSPDError(
        f"Fisher metric is not positive-definite at theta={_name(thetas, spd)} "
        f"(quadrature or domain misconfiguration)")


def _require_finite(c, thetas):
    if not np.isfinite(c).all():
        finite = np.isfinite(c).all(axis=(1, 2, 3))
        raise NotSPDError(f"non-finite cubic tensor at theta={_name(thetas, finite)}")


def _chunk(model, ch, thetas, theta_ref, quad, cubic):
    """Checked metric, its Cholesky factor and cubic tensor for one chunk."""
    x, w = sample_nodes(model, theta_ref, quad)
    s = model.score_ref(x, theta_ref)
    if ch.name != model.reference:
        s = s @ ch.jacobian(thetas)
    g = kernels.pair_contract_stack(w, s)
    chol = _require_spd(g, thetas)
    c = None
    if cubic:
        c = kernels.triple_contract_stack(w, s)
        _require_finite(c, thetas)
    return g, chol, c


def _evaluate(model, ch, thetas, quad, cubic):
    """Metric, Cholesky factor and cubic tensor arrays of a stack of points
    interior to the chart ``ch``."""
    if quad is None and model.sample_space.kind == "continuous":
        quad = default_quadrature(model)
    theta_ref = ch.to_reference(thetas)
    p, m = len(thetas), model.dim
    rows = _chunk_rows(model, theta_ref, quad) if p > 1 else 1
    if 0 < p <= rows:
        return _chunk(model, ch, thetas, theta_ref, quad, cubic)
    g, chol = np.empty((p, m, m)), np.empty((p, m, m))
    c = np.empty((p, m, m, m)) if cubic else None
    for a in range(0, p, rows):
        part = slice(a, a + rows)
        g[part], chol[part], c_part = _chunk(model, ch, thetas[part],
                                             theta_ref[part], quad, cubic)
        if cubic:
            c[part] = c_part
    return g, chol, c


def _tensors(model, theta, chart, quad, cubic=True):
    """(MetricTensor, C) at one point (m,) or a stack (P, m); C is None unless
    ``cubic``."""
    theta = np.asarray(theta, dtype=float)
    ch = model.require_interior(theta, chart)
    g, chol, c = _evaluate(model, ch, theta if theta.ndim == 2 else theta[None],
                           quad, cubic)
    if theta.ndim == 1:
        g, chol, c = g[0], chol[0], None if c is None else c[0]
    return MetricTensor(g, chol), c


def fisher_metric(model, theta, chart=None, quad=None):
    """g_ij = E[ (d_i l)(d_j l) ], SPD-checked."""
    return _tensors(model, theta, chart, quad, cubic=False)[0]


def amari_chentsov(model, theta, chart=None, quad=None):
    """The array C_ijk = E[ (d_i l)(d_j l)(d_k l) ], (m, m, m) or (P, m, m, m),
    checked to be finite; the metric from the same nodes is SPD-checked too."""
    return _tensors(model, theta, chart, quad)[1]


def metric_and_cubic(model, theta, chart=None, quad=None):
    """(MetricTensor, C) from one shared set of quadrature nodes, checked as in
    ``fisher_metric`` and ``amari_chentsov``."""
    return _tensors(model, theta, chart, quad)


def inverse_metric(metric: MetricTensor):
    """g^{-1} = L^{-T} L^{-1} from the Cholesky factor L, exactly symmetric;
    works on one metric or a stack."""
    inv_l = np.linalg.inv(metric.chol)
    inv = np.swapaxes(inv_l, -1, -2) @ inv_l
    return 0.5 * (inv + np.swapaxes(inv, -1, -2))


def sqrt_det_metric(metric: MetricTensor):
    """sqrt(det g) as the product of the Cholesky diagonal (stable for small
    determinants); a float for one metric, an array (P,) for a stack."""
    d = metric.chol.diagonal(axis1=-2, axis2=-1).prod(axis=-1)
    return float(d) if np.ndim(d) == 0 else d
