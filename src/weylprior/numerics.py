"""Expectation, differentiation, and path-integral engines.

Expectations use Gauss-Hermite quadrature standardized by the model's own
location/scale (continuous families) or truncated summation (discrete
families).  All integrands occurring in the tensor computations are
polynomials times the standardizing Gaussian, so moderate node counts are
exact to machine precision.
"""

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Sequence

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


def gauss_hermite_nodes(k, dim=1):
    """Standardized nodes and probabilist weights: integrates E[f(Z)], Z ~ N(0, I).

    The tensor-product grid is built once per ``(k, dim)`` and cached; the
    returned arrays are shared between callers and read-only.
    """
    # a plain function around the cache, so the per-layer benchmark can wrap
    # and time it like every other public function
    return _node_grid(k, dim)


def sample_nodes(model: ModelSpec, theta_ref, quad: QuadratureSpec = None):
    """Sample points and probability weights realizing E_theta[.].

    Continuous models: Gauss-Hermite after whitening by the model's
    location/Cholesky hint, with an importance correction by the density
    ratio (identically 1 for Gaussian families).  Discrete models: the
    truncated support with its probability masses.
    """
    theta_ref = np.asarray(theta_ref, dtype=float)
    space = model.sample_space
    if space.kind == "discrete":
        pts = np.asarray(space.support(theta_ref), dtype=float)
        w = np.exp(model.log_density(pts, theta_ref))
        return pts, w
    if quad is None:
        quad = default_quadrature(model)
    mean, chol = model.standardize(theta_ref)
    d = space.dim
    z, w = gauss_hermite_nodes(quad.nodes, d)
    x = mean + z @ chol.T
    # ratio p(x|theta) / N(x; mean, chol chol^T); exact 1 for Gaussians
    zz = np.sum(z * z, axis=1)
    logdet = np.sum(np.log(np.diag(chol)))
    log_q = -0.5 * (d * LOG_2PI + zz) - logdet
    xx = x[:, 0] if d == 1 else x
    ratio = np.exp(model.log_density(xx, theta_ref) - log_q)
    if not np.all(np.isfinite(ratio)):
        raise DomainError("non-finite density ratio at a quadrature node")
    return xx, w * ratio


def expect(model, theta, f, quad=None, chart=None):
    """E_theta[f(X)] by quadrature (continuous) or truncated summation (discrete)."""
    ch = model.require_interior(theta, chart)
    x, w = sample_nodes(model, ch.to_reference(theta), quad)
    vals = np.broadcast_to(np.asarray(f(x), dtype=float), w.shape)
    if not np.all(np.isfinite(vals)):
        raise DomainError("integrand is non-finite at a quadrature node")
    return float(w @ vals)


# ---------------------------------------------------------------------------
# finite differences

@dataclass(frozen=True)
class DiffSpec:
    """Central finite differences; step is relative to the coordinate scale."""

    rel_step: float = 1e-4
    abs_floor: float = 1e-6
    richardson: bool = True

    def step(self, coord_value):
        return max(self.rel_step * (abs(coord_value) + 1.0), self.abs_floor)


DEFAULT_DIFF = DiffSpec()


def partial(f, theta, i, diff: DiffSpec = None, domain=None):
    """Central-difference estimate of d f / d theta^i.

    ``f`` may return scalars or arrays.  If ``domain`` is given, the step is
    halved until the whole stencil lies inside; below the floor this raises
    DomainError.
    """
    if diff is None:
        diff = DEFAULT_DIFF
    theta = np.asarray(theta, dtype=float)
    h = diff.step(theta[i])

    def stencil_ok(hh):
        if domain is None:
            return True
        for s in (-1.0, -0.5, 0.5, 1.0):
            t = theta.copy()
            t[i] += s * hh
            if not domain(t):
                return False
        return True

    while not stencil_ok(h):
        h *= 0.5
        if h < diff.abs_floor:
            raise DomainError(
                f"FD stencil for coordinate {i} escapes the domain at "
                f"theta={theta.tolist()} even at the minimum step")

    def central(hh):
        tp = theta.copy()
        tm = theta.copy()
        tp[i] += hh
        tm[i] -= hh
        return (np.asarray(f(tp), dtype=float) - np.asarray(f(tm), dtype=float)) / (2.0 * hh)

    d1 = central(h)
    if not diff.richardson:
        return d1
    d2 = central(0.5 * h)
    return (4.0 * d2 - d1) / 3.0


def gradient(f, theta, diff=None, domain=None):
    """Stack of partials over all coordinates; leading axis is the direction."""
    theta = np.asarray(theta, dtype=float)
    return np.array([partial(f, theta, i, diff, domain) for i in range(len(theta))])


# ---------------------------------------------------------------------------
# path integrals of 1-form fields

@dataclass(frozen=True)
class Path:
    """Piecewise-linear path through parameter space, in one chart."""

    waypoints: Sequence
    steps: int = 256

    def __post_init__(self):
        pts = [np.asarray(p, dtype=float) for p in self.waypoints]
        if len(pts) < 2:
            raise ValueError("a path needs at least two waypoints")
        object.__setattr__(self, "waypoints", pts)
        if self.steps < 1:
            raise ValueError("steps must be positive")

    def segments(self):
        for a, b in zip(self.waypoints[:-1], self.waypoints[1:]):
            yield a, b


# nodes/weights of 5-point Gauss-Legendre on [0, 1]
_GL_T, _GL_W = np.polynomial.legendre.leggauss(5)
_GL_T = 0.5 * (_GL_T + 1.0)
_GL_W = 0.5 * _GL_W


def line_integral(omega, path: Path, rule="midpoint"):
    """Integral of the 1-form ``omega`` (theta -> m-vector) along ``path``.

    "midpoint": composite midpoint, second order in 1/steps (the default
    contract).  "gauss": composite 5-point Gauss-Legendre per subinterval,
    used where near-machine accuracy is required.
    """
    total = 0.0
    for a, b in path.segments():
        delta = (b - a) / path.steps
        if rule == "midpoint":
            ts = (np.arange(path.steps) + 0.5) / path.steps
            for t in ts:
                total += float(np.dot(np.asarray(omega(a + t * (b - a))), delta))
        elif rule == "gauss":
            for k in range(path.steps):
                for t, w in zip(_GL_T, _GL_W):
                    point = a + ((k + t) / path.steps) * (b - a)
                    total += w * float(np.dot(np.asarray(omega(point)), delta))
        else:
            raise ValueError(f"unknown integration rule {rule!r}")
    return total
