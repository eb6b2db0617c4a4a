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

from .errors import DomainError, InvalidConfigError
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
# the most nodes per point, of a tensor grid or a support: 64^3, so a
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
    discrete one.  Every tensor call passes here before a node table is
    built: a continuous rule under MIN_CONTINUOUS_NODES nodes per dimension
    raises InvalidConfigError, and more than MAX_GRID_NODES nodes for a
    point raise DomainError."""
    space = model.sample_space
    if space.kind == "discrete":
        widths = space.support_size(np.asarray(theta_ref, dtype=float))
    else:
        k = (quad or default_quadrature(model)).nodes
        if k < MIN_CONTINUOUS_NODES:
            raise InvalidConfigError(
                f"{k} Gauss-Hermite nodes for model {model.id!r}; at least "
                f"{MIN_CONTINUOUS_NODES} are needed: k nodes are exact up to "
                f"degree 2k - 1, and the cubic tensor's integrand has degree 6")
        widths = np.array([float(k) ** space.dim])
    # bounded as floats: the width of a huge rate does not fit an int
    if not widths.max(initial=0.0) <= MAX_GRID_NODES:
        i = np.argmin(widths <= MAX_GRID_NODES)
        where = (f"theta={theta_ref[i].tolist()} (chart {model.reference!r})"
                 if space.kind == "discrete" else f"a {k}-node rule")
        raise DomainError(f"{where} of model {model.id!r} needs {widths[i]:.6g} "
                          f"nodes per point; at most {MAX_GRID_NODES}")
    return widths.astype(int) if space.kind == "discrete" else int(widths[0])


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

# QUADPACK's qk15 (Piessens et al., 1983) on [-1, 1]: the positive nodes of
# the 15-point Kronrod rule down to the centre, their weights, and the
# weights of the 7-point Gauss rule at the 2nd, 4th, 6th and 8th of them
_XK = np.array([0.991455371120812639206854697526329,
                0.949107912342758524526189684047851,
                0.864864423359769072789712788640926,
                0.741531185599394439863864773280788,
                0.586087235467691130294144845693013,
                0.405845151377397166906606412076961,
                0.207784955007898467600689403773245,
                0.0])
_WK = np.array([0.022935322010529224963732008058970,
                0.063092092629978553290700663189204,
                0.104790010322250183839876322541518,
                0.140653259715525918745189590510238,
                0.169004726639267902826583426598550,
                0.190350578064785409913256402421014,
                0.204432940075298892414161999234649,
                0.209482141084727828012999174891714])
_WG = np.array([0.129484966168869693270611432679082,
                0.279705391489276667901467771423780,
                0.381830050505118944950369775488975,
                0.417959183673469387755102040816327])


def _symmetric(half):
    """Values at the 15 nodes in increasing order from those at _XK."""
    return np.concatenate([half, half[-2::-1]])


# the rules on [0, 1]: nodes in path order, and the weights of the Kronrod
# value K and of its difference K - G from the embedded Gauss value, the
# interval's error estimate
KRONROD_NODES = 0.5 * (1.0 + np.concatenate([-_XK, _XK[-2::-1]]))
KRONROD_WEIGHTS = 0.5 * _symmetric(_WK)
GAUSS_WEIGHTS = 0.5 * _symmetric(np.column_stack([np.zeros(4), _WG]).ravel())
_EXCESS = KRONROD_WEIGHTS - GAUSS_WEIGHTS

# an interval is accepted once its estimate |K - G| is at most QUAD_TOL times
# its segment's scale, the larger of 1 and the sum of |K| over the segment's
# intervals.  |K - G| bounds the Gauss value's error, and K's is far smaller,
# so Omega's error stays near QUAD_TOL times the larger of 1 and |Omega|,
# below the 1e-12 to which a prior exp(k Omega) is meant to hold.  The
# 1-form's own roundoff (up to about 2e-15 relative on gaussian_mv:2) stays
# below QUAD_TOL, so the refinement never chases noise; the floor 1 serves a
# segment whose integral vanishes (phi orthogonal to it).
QUAD_TOL = 1e-13
# bisections after which an interval's two closest nodes are one machine
# epsilon of the segment apart: finer intervals repeat nodes, so the
# refinement can gain nothing more
MAX_LEVELS = int(np.log2(np.diff(KRONROD_NODES).min() / np.finfo(float).eps))


def _kronrod_points(starts, ends, span, seg, left, width):
    """The Kronrod nodes (A, 15, m) of the intervals [left, left + width] of
    the segments ``seg``, each taken from the nearer end point, so that a
    node close to an end point (where phi may vary fastest) keeps its
    relative accuracy: past the middle its fraction is
    (left - 1) + width * node, exact but for the last rounding, relative to
    the end point."""
    offset = width * KRONROD_NODES
    from_end = offset + left[:, None] > 0.5
    frac = offset + (left[:, None] - from_end)
    pts = np.where(from_end[..., None], ends[seg, None, :], starts[seg, None, :])
    pts += frac[..., None] * span[seg, None, :]
    return pts


def segment_integrals(omega, starts, ends):
    """Integrals (S,) of the 1-form ``omega`` over each straight segment
    ``starts[s] -> ends[s]`` (both (S, m)), and the largest error estimate
    among the intervals they are summed from.

    Adaptive Gauss-Kronrod (G7/K15) with local bisection (Gander and
    Gautschi, BIT 40, 2000): every segment starts as one interval; each
    level evaluates ``omega`` (a stack of points (K, m) to covectors (K, m))
    once, on the 15 Kronrod nodes of every open interval, and accepts the
    intervals whose estimate |K - G| is within ``QUAD_TOL`` of their
    segment's scale (see there); the others are halved for the next level.
    DomainError names the end point of a segment still open after
    ``MAX_LEVELS`` bisections.  Each segment's accepted values are added in
    path order.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    span = ends - starts
    count, m = starts.shape
    seg = np.arange(count)              # segment of each open interval
    left = np.zeros(count)              # its start, as a fraction of the segment
    done_abs = np.zeros(count)          # sum of |K| over accepted intervals
    found = []                          # (segment, start, K) of accepted intervals
    worst = 0.0
    for level in range(MAX_LEVELS + 1):
        width = 0.5 ** level
        pts = _kronrod_points(starts, ends, span, seg, left, width)
        phi = np.asarray(omega(pts.reshape(-1, m))).reshape(pts.shape)
        # elementwise sums, not BLAS: a segment's values must not depend on
        # the other segments of the stack
        f = width * np.einsum("ani,ai->an", phi, span[seg])
        k = (f * KRONROD_WEIGHTS).sum(axis=1)
        err = np.abs((f * _EXCESS).sum(axis=1))
        scale = done_abs + np.bincount(seg, np.abs(k), count)
        ok = err <= QUAD_TOL * np.maximum(1.0, scale[seg])
        found.append((seg[ok], left[ok], k[ok]))
        worst = max(worst, err[ok].max(initial=0.0))
        done_abs += np.bincount(seg[ok], np.abs(k[ok]), count)
        seg, left = seg[~ok], left[~ok]
        if not len(seg):
            break
        seg = np.repeat(seg, 2)
        left = np.repeat(left, 2) + np.tile([0.0, 0.5 * width], len(left))
    else:
        raise DomainError(
            f"the line integral to theta={ends[seg[0]].tolist()} "
            f"does not converge within {MAX_LEVELS} bisections")
    seg, left, k = (np.concatenate(a) for a in zip(*found))
    order = np.lexsort((left, seg))
    # bincount adds in array order, so each segment's values in path order
    return np.bincount(seg[order], k[order], count), worst
