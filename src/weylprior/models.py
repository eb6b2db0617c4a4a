"""Parametric statistical families: charts, sample spaces, densities, scores.

A ModelSpec evaluates log-densities and analytic scores in its reference
chart; alternate charts carry smooth bijections to the reference chart with
Jacobians, and chart-native scores follow by the chain rule.

Parameters carry their coordinates on the last axis, and every chart map,
interior test, density and score also takes a stack of points: theta of
shape (P, m) with samples x of shape (P, q) (or (P, q, d)) gives densities
of shape (P, q) and scores of shape (P, q, m).

Built-in families: gaussian1d (reference chart (mu, sigma^2)), gaussian_mv(n)
(reference chart (mu, vech Sigma), vech = upper triangle, row-major),
bernoulli, poisson.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DataError, DomainError, InvalidConfigError, UnknownModelError
from .numerics import MIN_CONTINUOUS_NODES, max_nodes_per_point

# margin used for interiority checks of chart domains; FD stencils need room
DOMAIN_MARGIN = 1e-10

LOG_2PI = np.log(2.0 * np.pi)


class Chart:
    """A coordinate system with an optional bijection to the reference chart.

    ``to_reference``/``from_reference`` are None for the reference chart
    itself (identity).  ``jacobian`` evaluates d(theta_ref)/d(theta_chart).

    Every chart domain, shrunk by its interiority margin, is convex and must
    stay so: potentials integrate along the straight segment from an
    interior anchor, and grid sweeps along the edges between interior grid
    points, without testing that the path stays interior.
    """

    def __init__(self, name, coords, contains,
                 to_reference=None, from_reference=None, jacobian=None):
        self.name = name
        self.coords = list(coords)
        self.dim = len(self.coords)
        self._contains = contains
        self._to_ref = to_reference
        self._from_ref = from_reference
        self._jacobian = jacobian

    def interior(self, thetas, margin=DOMAIN_MARGIN):
        """Boolean (P,): which rows of the stack ``thetas`` (P, m) are interior."""
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.dim:
            return np.zeros(len(thetas), dtype=bool)
        # the interior tests give False, and raise nothing, on non-finite rows
        return np.isfinite(thetas).all(axis=1) & self._contains(thetas, margin)

    def restrict_to(self, ref):
        """Admit a point only if its image under ``to_reference`` is interior
        to the reference chart ``ref`` too, at margin 0 (so every point whose
        image the map resolves stays in).  A map that underflows or overflows
        (a Bernoulli eta of 800 gives p = 1) then names no member of the
        family, however the chart's own domain reads."""
        own = self._contains

        def contains(thetas, margin):
            with np.errstate(all="ignore"):
                image = self.to_reference(thetas)
            return own(thetas, margin) & ref.interior(image, 0.0)

        self._contains = contains

    def to_reference(self, theta):
        theta = np.asarray(theta, dtype=float)
        if self._to_ref is None:
            return theta
        return np.asarray(self._to_ref(theta), dtype=float)

    def from_reference(self, theta_ref):
        theta_ref = np.asarray(theta_ref, dtype=float)
        if self._from_ref is None:
            return theta_ref
        return np.asarray(self._from_ref(theta_ref), dtype=float)

    def jacobian(self, theta):
        """d(theta_ref)/d(theta_chart), an (m, m) matrix (or (P, m, m))."""
        theta = np.asarray(theta, dtype=float)
        if self._jacobian is None:
            return np.broadcast_to(np.eye(self.dim), theta.shape + (self.dim,))
        return np.asarray(self._jacobian(theta), dtype=float)


@dataclass(frozen=True)
class SampleSpace:
    """Continuous R^d or a discrete support with an accuracy-bounded truncation.

    Discrete spaces are the integers 0..max_value (unbounded when max_value
    is None); at a parameter the expectation sums over 0..N-1, where N is
    ``support_size(theta_ref)``.
    """

    kind: str                       # "continuous" | "discrete"
    dim: int
    # discrete only: theta_ref (..., m) -> N (...), unbounded and possibly
    # floats; ``numerics.nodes_per_point`` bounds them and casts them to ints
    support_size: Optional[Callable] = None
    max_value: Optional[float] = None    # discrete only

    def validate(self, x, source="observations"):
        """Raise DataError naming the first row of ``x`` outside the space."""
        x = np.asarray(x, dtype=float)
        bad = ~np.isfinite(x)
        if self.kind == "discrete":
            bad |= (x < 0) | (x != np.floor(x))
            if self.max_value is not None:
                bad |= x > self.max_value
        rows = bad.reshape(len(x), -1).any(axis=1)
        if rows.any():
            k = int(np.argmax(rows))
            if self.kind == "discrete":
                space = ("non-negative integers" if self.max_value is None
                         else f"integers 0..{self.max_value:g}")
            else:
                space = "finite values"
            raise DataError(f"{source}: row {k + 1}: observation "
                            f"{x[k].tolist()} is outside the sample space "
                            f"({space})")


# eq=False: a model hashes and compares by identity, which the geometry
# layer's kept bundles key on
@dataclass(eq=False)
class ModelSpec:
    id: str
    dim: int                        # manifold dimension m
    sample_space: SampleSpace
    charts: dict
    reference: str
    log_density: Callable           # (x, theta_ref) -> (q,)
    analytic_score: Callable        # (x, theta_ref) -> (q, m)
    # continuous families only, which must be Gaussian in x: theta_ref ->
    # (mean (d,), chol (d, d)) of the family's own law; quadrature reads the
    # law from these alone, never from log_density
    standardize: Optional[Callable] = None

    def __post_init__(self):
        # the reference chart's own test is left as it is, so its calls run
        # nothing more
        ref = self.charts[self.reference]
        for ch in self.charts.values():
            if ch is not ref:
                ch.restrict_to(ref)

    def chart(self, name=None):
        if name is None:
            return self.charts[self.reference]
        try:
            return self.charts[name]
        except KeyError:
            raise UnknownModelError(
                f"model {self.id!r} has no chart {name!r}; "
                f"available: {sorted(self.charts)}") from None

    def require_interior(self, theta, chart=None):
        """The chart, if ``theta`` (one point, or a stack of shape (P, m)) is
        interior; otherwise DomainError naming the (first) outside point, or
        the coordinate count if it differs from the chart's dimension."""
        ch = self.chart(chart) if isinstance(chart, (str, type(None))) else chart
        theta = np.asarray(theta, dtype=float)
        stack = theta if theta.ndim == 2 else theta[None]
        inside = ch.interior(stack)
        if not inside.all():
            if stack.ndim != 2 or stack.shape[1] != ch.dim:
                count = theta.shape[-1] if theta.ndim else 1
                raise DomainError(
                    f"theta={stack[0].tolist()} has {count} coordinate(s) "
                    f"but chart {ch.name!r} of model {self.id!r} has "
                    f"dimension {ch.dim}")
            raise DomainError(
                f"theta={stack[np.argmin(inside)].tolist()} is not interior "
                f"to the domain of chart {ch.name!r} of model {self.id!r}")
        return ch

    def score_ref(self, x, theta_ref):
        """Analytic score in the reference chart."""
        return self.analytic_score(x, theta_ref)


def score(model, x, theta, chart=None):
    """Score vector(s) d/dtheta log p(x|theta) in the given chart.

    Applies the chain rule through the chart's bijection to the reference
    chart: s_chart = J^T s_ref with J = d(theta_ref)/d(theta_chart).
    """
    ch = model.require_interior(theta, chart)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    if scalar:
        x = x.reshape(1)
    theta_ref = ch.to_reference(theta)
    s = model.score_ref(x, theta_ref)
    if ch.name != model.reference:
        s = s @ ch.jacobian(theta)
    return s[0] if scalar else s


def log_density(model, x, theta, chart=None):
    """log p(x|theta) with theta given in the requested chart; DataError
    naming the first row of ``x`` outside the sample space."""
    ch = model.require_interior(theta, chart)
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0 and model.sample_space.dim == 1
    if scalar:
        x = x.reshape(1)
    model.sample_space.validate(x, "x")
    out = np.asarray(model.log_density(x, ch.to_reference(theta)), dtype=float)
    if not np.all(np.isfinite(out)):
        raise DomainError(f"non-finite log-density for model {model.id!r} at "
                          f"theta={np.asarray(theta, dtype=float).tolist()}")
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# vech helpers (upper triangle, row-major)

def vech_indices(n):
    return [(i, j) for i in range(n) for j in range(i, n)]

def vech_from_mat(a):
    n = a.shape[0]
    return np.array([a[i, j] for i, j in vech_indices(n)])


# ---------------------------------------------------------------------------
# gaussian1d

def _matrix(rows, t):
    """An (..., r, c) array from rows of scalars or arrays shaped like t[..., 0]."""
    shape = np.shape(t)[:-1]
    return np.stack([np.stack([np.broadcast_to(v, shape) for v in row], axis=-1)
                     for row in rows], axis=-2)


def _gaussian1d():
    def contains_ms2(t, margin):
        return t[..., 1] > margin

    ref = Chart("mu_sigma2", ["mu", "s2"], contains_ms2)

    mu_sigma = Chart(
        "mu_sigma", ["mu", "sigma"],
        lambda t, margin: t[..., 1] > margin,
        to_reference=lambda t: np.stack([t[..., 0], t[..., 1] ** 2], axis=-1),
        from_reference=lambda t: np.stack([t[..., 0], np.sqrt(t[..., 1])], axis=-1),
        jacobian=lambda t: _matrix([[1.0, 0.0], [0.0, 2.0 * t[..., 1]]], t),
    )

    def nat_to_ref(e):
        s2 = -1.0 / (2.0 * e[..., 1])
        return np.stack([e[..., 0] * s2, s2], axis=-1)

    def nat_from_ref(t):
        return np.stack([t[..., 0] / t[..., 1], -1.0 / (2.0 * t[..., 1])], axis=-1)

    def nat_jac(e):
        # mu = -e1/(2 e2), s2 = -1/(2 e2)
        e1, e2 = e[..., 0], e[..., 1]
        return _matrix([[-1.0 / (2.0 * e2), e1 / (2.0 * e2 ** 2)],
                        [0.0, 1.0 / (2.0 * e2 ** 2)]], e)

    natural = Chart("natural", ["eta1", "eta2"],
                    lambda t, margin: t[..., 1] < -margin,
                    to_reference=nat_to_ref, from_reference=nat_from_ref,
                    jacobian=nat_jac)

    def logp(x, t):
        mu, s2 = t[..., 0:1], t[..., 1:2]
        return -0.5 * (LOG_2PI + np.log(s2)) - (x - mu) ** 2 / (2.0 * s2)

    def sc(x, t):
        mu, s2 = t[..., 0:1], t[..., 1:2]
        d = x - mu
        out = np.empty(d.shape + (2,))
        out[..., 0] = d / s2
        out[..., 1] = d ** 2 / (2.0 * s2 ** 2) - 1.0 / (2.0 * s2)
        return out

    def std(t):
        return t[..., 0:1], np.sqrt(t[..., 1])[..., None, None]

    return ModelSpec(
        id="gaussian1d", dim=2,
        sample_space=SampleSpace("continuous", 1),
        charts={c.name: c for c in (ref, mu_sigma, natural)},
        reference="mu_sigma2",
        log_density=logp, analytic_score=sc, standardize=std,
    )


# ---------------------------------------------------------------------------
# gaussian_mv(n)

def _gaussian_mv(n):
    m = n + n * (n + 1) // 2
    # refused before the vech indices are built; the power is taken only
    # once m^2 alone fits the budget
    limit = max_nodes_per_point(m)
    if limit < MIN_CONTINUOUS_NODES or MIN_CONTINUOUS_NODES ** n > limit:
        raise InvalidConfigError(
            f"gaussian_mv:{n}: {n} sample dimensions need at least "
            f"{MIN_CONTINUOUS_NODES}^{n} nodes per point; at most {limit} at "
            f"dimension {m}")
    idx = vech_indices(n)

    def split(t):
        t = np.asarray(t, dtype=float)
        sig = np.empty(t.shape[:-1] + (n, n))
        for k, (i, j) in enumerate(idx):
            sig[..., i, j] = t[..., n + k]
            sig[..., j, i] = t[..., n + k]
        return t[..., :n], sig

    def samples(x):
        # as (..., q, n); samples of a 1-D space carry no trailing axis
        x = np.asarray(x, dtype=float)
        return x[..., None] if n == 1 else np.atleast_2d(x)

    def is_spd(a):
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            return False
        return True

    def contains(t, margin):
        _, sig = split(t)
        shifted = sig - margin * np.eye(n)
        # one factorisation for the stack; per point only when it fails
        if is_spd(shifted):
            return np.ones(len(sig), dtype=bool)
        return np.array([is_spd(a) for a in shifted])

    coords = [f"mu{i}" for i in range(n)] + [f"s{i}{j}" for i, j in idx]
    ref = Chart("mu_vech", coords, contains)

    def logp(x, t):
        mu, sig = split(t)
        x = samples(x)
        L = np.linalg.cholesky(sig)
        z = np.linalg.solve(L, np.swapaxes(x - mu[..., None, :], -1, -2))  # (..., n, q)
        logdet = 2.0 * np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1)), axis=-1)
        return -0.5 * (n * LOG_2PI + logdet[..., None] + np.sum(z * z, axis=-2))

    def sc(x, t):
        mu, sig = split(t)
        x = samples(x)
        p = np.linalg.inv(sig)
        z = (x - mu[..., None, :]) @ p         # (..., q, n), = Sigma^{-1}(x-mu)
        out = np.empty(z.shape[:-1] + (m,))
        out[..., :n] = z
        # dl/dSigma_ij = 1/2 (z_i z_j - P_ij), counted twice off the diagonal
        for k, (i, j) in enumerate(idx):
            a = 0.5 * (z[..., i] * z[..., j] - p[..., i, j, None])
            out[..., n + k] = a if i == j else 2.0 * a
        return out

    def std(t):
        mu, sig = split(t)
        return mu, np.linalg.cholesky(sig)

    return ModelSpec(
        id=f"gaussian_mv:{n}", dim=m,
        sample_space=SampleSpace("continuous", n),
        charts={ref.name: ref}, reference="mu_vech",
        log_density=logp, analytic_score=sc, standardize=std,
    )


# ---------------------------------------------------------------------------
# bernoulli

def _bernoulli():
    ref = Chart("p", ["p"],
                lambda t, margin: (t[..., 0] > margin) & (t[..., 0] < 1.0 - margin))

    natural = Chart(
        "natural", ["eta"], lambda t, margin: np.isfinite(t[..., 0]),
        to_reference=lambda e: 1.0 / (1.0 + np.exp(-e[..., 0:1])),
        from_reference=lambda t: np.log(t[..., 0:1] / (1.0 - t[..., 0:1])),
        # dp/deta = p (1 - p), even in eta: e^-|eta| keeps (1 + e^-eta)^2 from
        # overflowing for eta <= -355
        jacobian=lambda e: (np.exp(-np.abs(e[..., 0]))
                            / (1.0 + np.exp(-np.abs(e[..., 0]))) ** 2)[..., None, None],
    )

    def logp(x, t):
        p = t[..., 0:1]
        return x * np.log(p) + (1.0 - x) * np.log1p(-p)

    def sc(x, t):
        p = t[..., 0:1]
        return ((x - p) / (p * (1.0 - p)))[..., None]

    return ModelSpec(
        id="bernoulli", dim=1,
        sample_space=SampleSpace("discrete", 1,
                                 support_size=lambda t: np.full(np.shape(t)[:-1], 2),
                                 max_value=1.0),
        charts={c.name: c for c in (ref, natural)}, reference="p",
        log_density=logp, analytic_score=sc,
    )


# ---------------------------------------------------------------------------
# poisson

def _poisson_support_size(t):
    # support {0..N}, N = floor(lam + s), s = 10 sqrt(lam) + 20.  Bennett's
    # inequality P(X >= lam + s) <= exp(-s^2 / (2 (lam + s/3))) has exponent
    # at least 30 for every lam > 0, so the dropped mass P(X > N) is below
    # e^-30 (about 9.4e-14), under 1e-12
    lam = t[..., 0]
    return np.floor(lam + 10.0 * np.sqrt(lam) + 20.0) + 1.0


# log k! = lgamma(k + 1) for k < 4096 (32 KiB): every support up to a rate of
# about 3,480 and every count below 4096 is one lookup
_LOG_FACTORIAL = np.array([math.lgamma(k + 1.0) for k in range(4096)])


def _log_factorial(x):
    """log x! of integers x in 0..2^53 held as floats, any shape; by
    math.lgamma one value at a time if a count is past the table."""
    try:
        return _LOG_FACTORIAL[x.astype(np.intp)]
    except IndexError:
        return np.vectorize(math.lgamma, otypes=[float])(x + 1.0)


def _poisson():
    ref = Chart("lam", ["lam"], lambda t, margin: t[..., 0] > margin)
    # every finite eta whose rate e^eta is a positive finite double: one
    # that overflows or underflows fails the reference chart's test
    natural = Chart(
        "natural", ["eta"], lambda t, margin: np.isfinite(t[..., 0]),
        to_reference=lambda e: np.exp(e[..., 0:1]),
        from_reference=lambda t: np.log(t[..., 0:1]),
        jacobian=lambda e: np.exp(e[..., 0])[..., None, None],
    )

    def logp(x, t):
        lam = t[..., 0:1]
        return x * np.log(lam) - lam - _log_factorial(x)

    def sc(x, t):
        lam = t[..., 0:1]
        return (x / lam - 1.0)[..., None]

    return ModelSpec(
        id="poisson", dim=1,
        # a double holds every integer only up to 2^53, so a larger count is
        # not known exactly; the bound also keeps counts within an int cast
        sample_space=SampleSpace(
            "discrete", 1, support_size=_poisson_support_size,
            max_value=2.0 ** 53),
        charts={c.name: c for c in (ref, natural)}, reference="lam",
        log_density=logp, analytic_score=sc,
    )

# ---------------------------------------------------------------------------

def get_model(model_id, n=None):
    """Build one of the registered families.

    ids: "gaussian1d", "gaussian_mv" (requires n >= 1), "bernoulli",
    "poisson".  The CLI syntax "gaussian_mv:2" is accepted too.
    """
    if ":" in str(model_id):
        base, _, arg = str(model_id).partition(":")
        if base != "gaussian_mv":
            raise UnknownModelError(f"unknown model id {model_id!r}")
        try:
            n = int(arg)
        except ValueError:
            raise InvalidConfigError(
                f"bad dimension in model spec {model_id!r}") from None
        model_id = base
    if model_id == "gaussian1d":
        return _gaussian1d()
    if model_id == "gaussian_mv":
        if n is None or int(n) < 1:
            raise InvalidConfigError("gaussian_mv requires data dimension n >= 1")
        return _gaussian_mv(int(n))
    if model_id == "bernoulli":
        return _bernoulli()
    if model_id == "poisson":
        return _poisson()
    raise UnknownModelError(f"unknown model id {model_id!r}")
