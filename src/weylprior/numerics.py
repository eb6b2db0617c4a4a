"""Quadrature, differentiation, and path-integral engines.

Expectations use Gauss-Hermite quadrature standardized by the model's own
location/scale (continuous families) or truncated summation (discrete
families).  All integrands occurring in the tensor computations are
polynomials times the standardizing Gaussian, so moderate node counts are
exact to machine precision.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce
import numpy as np

from .errors import DomainError
from .models import LOG_2PI, ModelSpec

DEFAULT_NODES_1D = 64
DEFAULT_NODES_ND = 32


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Hermite node count per sample dimension."""

    nodes: int = DEFAULT_NODES_1D

    def __post_init__(self):
        if self.nodes < 2:
            raise ValueError("need at least 2 quadrature nodes")


def default_quadrature(model):
    d = model.sample_space.dim
    return QuadratureSpec(DEFAULT_NODES_1D if d == 1 else DEFAULT_NODES_ND)


@lru_cache(maxsize=8)
def _node_grid(k, dim):
    t, w = np.polynomial.hermite.hermgauss(k)
    z = np.sqrt(2.0) * t
    w = w / np.sqrt(np.pi)
    # row order of itertools.product(z, repeat=dim): the last axis varies fastest
    grid = np.stack(np.meshgrid(*[z] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
    wts = reduce(np.multiply.outer, [w] * dim).reshape(-1)
    grid.flags.writeable = False
    wts.flags.writeable = False
    return grid, wts


@lru_cache(maxsize=8)
def _log_std_normal(k, dim):
    """log N(z; 0, I) at the nodes of ``_node_grid(k, dim)``."""
    z = _node_grid(k, dim)[0]
    out = -0.5 * (dim * LOG_2PI + np.sum(z * z, axis=1))
    out.flags.writeable = False
    return out


def gauss_hermite_nodes(k, dim=1):
    """Standardized nodes and probabilist weights: integrates E[f(Z)], Z ~ N(0, I).

    The tensor-product grid is built once per ``(k, dim)`` and cached; the
    returned arrays are shared between callers and read-only.
    """
    # a plain function around the cache, so the per-layer benchmark can wrap
    # and time it like every other public function
    return _node_grid(k, dim)


def nodes_per_point(model: ModelSpec, theta_ref, quad: QuadratureSpec = None):
    """Sample points per parameter point that ``sample_nodes`` returns for the
    stack ``theta_ref`` (P, m): the quadrature grid size, or the widest
    discrete support of the stack."""
    space = model.sample_space
    if space.kind == "discrete":
        return max(space.support_size(np.asarray(theta_ref, dtype=float)).tolist())
    if quad is None:
        quad = default_quadrature(model)
    return quad.nodes ** space.dim


def sample_nodes(model: ModelSpec, theta_ref, quad: QuadratureSpec = None):
    """Sample points and probability weights realizing E_theta[.].

    Continuous models: Gauss-Hermite after whitening by the model's
    location/Cholesky hint, with an importance correction by the density
    ratio (identically 1 for Gaussian families).  Discrete models: the
    truncated support with its probability masses.

    ``theta_ref`` is one reference-chart point (m,), giving points (q,) or
    (q, d) and weights (q,), or a stack (P, m), giving points (P, q) or
    (P, q, d) and weights (P, q).  In a stack, discrete supports are padded
    to the widest one by further support points of zero weight.
    """
    theta_ref = np.asarray(theta_ref, dtype=float)
    if theta_ref.ndim == 1:
        x, w = _stacked_nodes(model, theta_ref[None], quad)
        return x[0], w[0]
    return _stacked_nodes(model, theta_ref, quad)


def _stacked_nodes(model, theta_ref, quad):
    space = model.sample_space
    if space.kind == "discrete":
        size = space.support_size(theta_ref)
        widths = size.tolist()
        pts = np.arange(max(widths), dtype=float)
        x = np.repeat(pts[None], len(theta_ref), axis=0)
        w = np.exp(model.log_density(x, theta_ref))
        if min(widths) < len(pts):
            w[pts >= size[:, None]] = 0.0
        return x, w
    if quad is None:
        quad = default_quadrature(model)
    mean, chol = model.standardize(theta_ref)        # (P, d), (P, d, d)
    d = space.dim
    z, w = gauss_hermite_nodes(quad.nodes, d)
    x = mean[:, None, :] + z @ np.swapaxes(chol, 1, 2)
    # ratio p(x|theta) / N(x; mean, chol chol^T); exact 1 for Gaussians
    logdet = np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    log_q = _log_std_normal(quad.nodes, d) - logdet[:, None]
    xx = x[..., 0] if d == 1 else x
    ratio = np.exp(model.log_density(xx, theta_ref) - log_q)
    if not np.isfinite(ratio).all():
        finite = np.isfinite(ratio).all(axis=1)
        raise DomainError(
            f"non-finite density ratio at a quadrature node at reference-chart "
            f"theta={theta_ref[np.argmin(finite)].tolist()}")
    return xx, w * ratio


# ---------------------------------------------------------------------------
# finite differences

@dataclass(frozen=True)
class DiffSpec:
    """Richardson-extrapolated central finite differences; the step is
    relative to the coordinate scale."""

    rel_step: float = 1e-4
    abs_floor: float = 1e-6

    def __post_init__(self):
        # a NaN step never falls below the floor, so the stencil-halving loop
        # in ``gradient`` would never end
        for name in ("rel_step", "abs_floor"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v}")

    def step(self, theta):
        """Initial step per coordinate of ``theta`` (any shape)."""
        return np.maximum(self.rel_step * (np.abs(theta) + 1.0), self.abs_floor)


DEFAULT_DIFF = DiffSpec()


def _stencil(theta, h):
    """Points (4, P, m, m): row [s, p, i] is theta[p] with coordinate i moved
    by +h, -h, +h/2, -h/2 for s = 0..3, where h = h[p, i]."""
    p, m = theta.shape
    pts = np.broadcast_to(theta[None, :, None, :], (4, p, m, m)).copy()
    diag = np.arange(m)
    pts[:, :, diag, diag] += np.stack([h, -h, 0.5 * h, -0.5 * h])
    return pts


def gradient(f, theta, diff: DiffSpec = None, domain=None):
    """Central-difference partials of ``f`` at one point (m,) or at every row
    of a stack (P, m); the direction axis follows the point axis, so the
    result is (m, ...) or (P, m, ...).

    ``f`` maps a stack of points (K, m) to values (K, ...) and is called once,
    on all 4 m P stencil points.  Each partial is the Richardson combination
    (4 D(h/2) - D(h)) / 3 of two central differences D.  If ``domain`` (a
    stacked predicate (K, m) -> (K,) bool, such as ``Chart.interior``) is
    given, each coordinate's step is halved until its own stencil lies
    inside; below the floor this raises DomainError.
    """
    if diff is None:
        diff = DEFAULT_DIFF
    theta = np.asarray(theta, dtype=float)
    stack = theta if theta.ndim == 2 else theta[None]
    p, m = stack.shape
    h = diff.step(stack)
    pts = _stencil(stack, h)
    while domain is not None:
        ok = domain(pts.reshape(-1, m)).reshape(4, p, m).all(axis=0)
        if ok.all():
            break
        h = np.where(ok, h, 0.5 * h)
        if (h < diff.abs_floor).any():
            k, i = np.argwhere(h < diff.abs_floor)[0]
            raise DomainError(
                f"FD stencil for coordinate {i} escapes the domain at "
                f"theta={stack[k].tolist()} even at the minimum step")
        pts = _stencil(stack, h)
    vals = np.asarray(f(pts.reshape(-1, m)), dtype=float)
    vals = vals.reshape((4, p, m) + vals.shape[1:])
    h = h.reshape(h.shape + (1,) * (vals.ndim - 3))
    d1 = (vals[0] - vals[1]) / (2.0 * h)
    d2 = (vals[2] - vals[3]) / (2.0 * (0.5 * h))
    out = (4.0 * d2 - d1) / 3.0
    return out if theta.ndim == 2 else out[0]


# ---------------------------------------------------------------------------
# path integrals of 1-form fields

# 5-point Gauss-Legendre nodes and weights on [0, 1], for one subinterval
_GL = np.polynomial.legendre.leggauss(5)
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL[0] + 1.0), 0.5 * _GL[1]


def segment_integrals(omega, starts, ends, steps):
    """Integrals (S,) of the 1-form ``omega`` over each straight segment
    ``starts[s] -> ends[s]`` (both (S, m)), by composite 5-point
    Gauss-Legendre on ``steps`` equal subintervals per segment.

    ``omega`` maps a stack of points (K, m) to covectors (K, m); it is called
    once, on the nodes of all segments.  Each segment's terms are added one
    by one in path order.
    """
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    starts = np.asarray(starts, dtype=float)
    span = np.asarray(ends, dtype=float) - starts
    frac = ((np.arange(steps)[:, None] + _GL_NODES) / steps).reshape(-1)
    nodes = starts[:, None, :] + frac[:, None] * span[:, None, :]
    phi = np.asarray(omega(nodes.reshape(-1, starts.shape[1]))).reshape(nodes.shape)
    terms = np.tile(_GL_WEIGHTS, steps) * np.einsum("sni,si->sn", phi, span / steps)
    return np.cumsum(terms, axis=1)[:, -1]
