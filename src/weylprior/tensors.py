"""Pointwise Fisher metric and cubic (Amari-Chentsov) tensor.

Both are quadrature expectations of products of score components; the
kernels return exactly symmetric arrays, which are checked here (metric
finite and positive-definite, cubic tensor finite).  Chart-native tensors
are obtained by pushing the reference-chart scores through the chart
Jacobian before contraction, so no separate transformation step is needed.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import NotSPDError
from .models import ModelSpec
from .numerics import QuadratureSpec, sample_nodes


@dataclass(frozen=True)
class MetricTensor:
    at: np.ndarray
    g: np.ndarray
    chart: str


@dataclass(frozen=True)
class CubicTensor:
    at: np.ndarray
    C: np.ndarray
    chart: str


def chart_scores(model: ModelSpec, theta, chart=None, quad: QuadratureSpec = None):
    """Sample nodes, weights, and chart-native score matrix (q, m)."""
    ch = model.require_interior(theta, chart)
    theta_ref = ch.to_reference(theta)
    x, w = sample_nodes(model, theta_ref, quad)
    s = model.score_ref(x, theta_ref)
    if ch.name != model.reference:
        s = s @ ch.jacobian(np.asarray(theta, dtype=float))
    return x, w, s, ch


def _require_spd(g, theta):
    # the Cholesky factorisation lets a NaN on the diagonal through
    if not np.isfinite(g).all():
        raise NotSPDError(
            f"non-finite Fisher metric at theta={np.asarray(theta, dtype=float).tolist()}")
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise NotSPDError(
            f"Fisher metric is not positive-definite at "
            f"theta={np.asarray(theta, dtype=float).tolist()} "
            f"(quadrature or domain misconfiguration)") from None


def _require_finite(c, theta):
    if not np.isfinite(c).all():
        raise NotSPDError(
            f"non-finite cubic tensor at theta={np.asarray(theta, dtype=float).tolist()}")


def fisher_metric(model, theta, chart=None, quad=None):
    """g_ij = E[ (d_i l)(d_j l) ], SPD-checked."""
    _, w, s, ch = chart_scores(model, theta, chart, quad)
    g = kernels.pair_contract(w, s)
    _require_spd(g, theta)
    return MetricTensor(np.asarray(theta, dtype=float), g, ch.name)


def amari_chentsov(model, theta, chart=None, quad=None):
    """C_ijk = E[ (d_i l)(d_j l)(d_k l) ], checked to be finite."""
    _, w, s, ch = chart_scores(model, theta, chart, quad)
    c = kernels.triple_contract(w, s)
    _require_finite(c, theta)
    return CubicTensor(np.asarray(theta, dtype=float), c, ch.name)


def metric_and_cubic(model, theta, chart=None, quad=None):
    """Metric and cubic tensor from one shared set of quadrature nodes, checked
    as in ``fisher_metric`` and ``amari_chentsov``."""
    _, w, s, ch = chart_scores(model, theta, chart, quad)
    g = kernels.pair_contract(w, s)
    c = kernels.triple_contract(w, s)
    _require_spd(g, theta)
    _require_finite(c, theta)
    at = np.asarray(theta, dtype=float)
    return MetricTensor(at, g, ch.name), CubicTensor(at, c, ch.name)


def inverse_metric(metric: MetricTensor):
    """g^{-1} via np.linalg.inv, symmetrized; raises NotSPDError when singular."""
    g = metric.g
    try:
        inv = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        raise NotSPDError("metric is singular") from None
    # symmetrize away solver roundoff
    return 0.5 * (inv + inv.T)


def sqrt_det_metric(metric: MetricTensor):
    """sqrt(det g) from the Cholesky factor (stable for small determinants)."""
    try:
        L = np.linalg.cholesky(metric.g)
    except np.linalg.LinAlgError:
        raise NotSPDError("metric is not SPD") from None
    return float(np.prod(np.diag(L)))
