"""Quadrature, differentiation, and path-integral engines.

Expectations E_theta[f(X)] use Gauss-Hermite quadrature on the model's own
law (continuous families) or truncated summation (discrete families).  Every
continuous family is Gaussian in x, and ``ModelSpec.standardize`` returns the
mean and Cholesky factor of that law, so whitened Gauss-Hermite nodes and
their plain weights realize the expectation.  All integrands occurring in the
tensor computations are polynomials in x, so moderate node counts are exact
to machine precision.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce
import numpy as np

from .errors import DomainError
from .models import ModelSpec

DEFAULT_NODES_1D = 64
DEFAULT_NODES_ND = 32
# the largest count for which NumPy's hermgauss gives finite, positive weights
# (from 371 nodes its weights overflow to NaN)
MAX_NODES = 370
# the fewest Gauss-Hermite nodes per dimension that are exact for a continuous
# family: its score has degree at most 2 in x (every continuous family is
# Gaussian in x), so the cubic tensor's integrand has degree 6, and k nodes
# are exact up to degree 2k - 1
MIN_CONTINUOUS_NODES = 4
# the largest tensor grid, nodes per point, that the CLI accepts: 64^3, so a
# cached node table ((d + 1) doubles per node) stays at 8 MiB for d = 3 and
# one point's scores (m doubles per node) at 18 MiB for gaussian_mv:3 (m = 9);
# 370^3 nodes would ask for a 1.13 GiB node table alone
MAX_GRID_NODES = 64 ** 3


@dataclass(frozen=True)
class QuadratureSpec:
    """Gauss-Hermite node count per sample dimension."""

    nodes: int = DEFAULT_NODES_1D

    def __post_init__(self):
        if self.nodes < 2:
            raise ValueError("need at least 2 quadrature nodes")
        if self.nodes > MAX_NODES:
            raise ValueError(f"at most {MAX_NODES} quadrature nodes give finite "
                             f"Gauss-Hermite weights")


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
    stack ``theta_ref`` (P, m): the quadrature grid size, an int, for a
    continuous model, and the support width of every point, (P,) ints, for a
    discrete one."""
    space = model.sample_space
    if space.kind == "discrete":
        widths = space.support_size(np.asarray(theta_ref, dtype=float))
        # bounded as floats: the width of a huge rate does not fit an int
        if not widths.max(initial=0.0) <= MAX_GRID_NODES:
            k = np.argmin(widths <= MAX_GRID_NODES)
            raise DomainError(
                f"theta={theta_ref[k].tolist()} (chart {model.reference!r}) of "
                f"model {model.id!r} needs a support of {widths[k]:.6g} points; "
                f"at most {MAX_GRID_NODES} are summed per point")
        return widths.astype(int)
    if quad is None:
        quad = default_quadrature(model)
    return quad.nodes ** space.dim


def sample_nodes(model: ModelSpec, theta_ref, quad: QuadratureSpec = None,
                 width=None):
    """Sample points and probability weights realizing E_theta[.].

    Continuous models: Gauss-Hermite nodes whitened by the mean and
    Cholesky factor that ``model.standardize`` gives for the family's own
    Gaussian law, with the plain Gauss-Hermite weights; the density is not
    read.  Discrete models: the truncated support with its probability
    masses.

    ``theta_ref`` is one reference-chart point (m,), giving points (q,) or
    (q, d) and weights (q,), or a stack (P, m), giving points (P, q) or
    (P, q, d) and weights (P, q).  Every point of a stack gets the same q:
    the points of a discrete stack must share one support width, and a
    stack of mixed widths raises ValueError.  ``width`` is that shared
    width when the caller already has it from ``nodes_per_point``; it is
    read for discrete models only.
    """
    theta_ref = np.asarray(theta_ref, dtype=float)
    if theta_ref.ndim == 1:
        x, w = _stacked_nodes(model, theta_ref[None], quad, width)
        return x[0], w[0]
    return _stacked_nodes(model, theta_ref, quad, width)


def _stacked_nodes(model, theta_ref, quad, width):
    space = model.sample_space
    if space.kind == "discrete":
        if width is None:
            widths = np.unique(nodes_per_point(model, theta_ref)).tolist()
            if len(widths) > 1:
                raise ValueError(f"a discrete stack needs one support width, got "
                                 f"widths {widths}; sample each width on its own")
            width = widths[0]
        x = np.repeat(np.arange(width, dtype=float)[None], len(theta_ref), axis=0)
        return x, np.exp(model.log_density(x, theta_ref))
    if quad is None:
        quad = default_quadrature(model)
    mean, chol = model.standardize(theta_ref)        # (P, d), (P, d, d)
    z, w = gauss_hermite_nodes(quad.nodes, space.dim)
    x = mean[:, None, :] + z @ np.swapaxes(chol, 1, 2)
    # a C-ordered copy per point, not a stride-0 view, so the kernels' products
    # w * s are laid out for every point of a stack as for one point alone
    w = np.repeat(w[None], len(theta_ref), axis=0)
    return (x[..., 0] if space.dim == 1 else x), w


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
