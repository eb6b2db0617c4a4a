"""Connections, the Weyl 1-form and its potential, and identity residuals.

Every connection and residual comes from one stacked evaluation at a point
(or a stack of points) and its finite-difference stencil: g, C, g^-1 and
phi from one tensor call at the points, and d g from one metric call on all
stencil points, which gives the Levi-Civita coefficients.  Alpha and Weyl
connections add their algebraic corrections.  Residual functions return the
full arrays so callers can report max-norms against their tolerances.
``weyl_one_form``, which the potential integrates, needs no C: it takes phi
from the trace kernel (``tensors.cubic_trace``), so the bundle's phi and
``weyl_one_form`` reach the same value by two routes.

The two most recent bundles are kept (``functools.lru_cache``), keyed on the
model object and the exact inputs, so the checks at one point (and the Ricci
tensor's stencil around it) share one evaluation; a repeated request makes
no tensor call and returns the same read-only arrays, so every result is
bitwise that of a fresh evaluation.
"""

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import ClosednessError, DomainError
from .numerics import DiffSpec, gradient, segment_integrals
from .tensors import cubic_trace, fisher_metric, inverse_metric, metric_and_cubic

# FD of connection coefficients sits on top of FD of the metric; a larger
# step keeps the amplified roundoff of the inner differences in check.
GAMMA_DIFF = DiffSpec(rel_step=1e-3)

CLOSEDNESS_TOL = 1e-6

# bundles kept: a point and its GAMMA_DIFF Ricci stencil, which is what a
# run of checks at one point asks for
_MEMO_SIZE = 2


@dataclass(frozen=True)
class _Bundle:
    """The tensors every connection and residual is built from, at one point
    (m,) or a stack (P, m); arrays carry the point axis first."""

    g: np.ndarray
    ginv: np.ndarray
    C: np.ndarray
    phi: np.ndarray
    dg: np.ndarray             # dg[..., k, i, j] = d_k g_ij
    lc: np.ndarray             # Levi-Civita Gamma^i_jk


def _phi(c, ginv):
    return 0.5 * np.einsum("...ijk,...jk->...i", c, ginv)


def _levi_civita(ginv, dg):
    """Gamma^i_jk = 1/2 g^il (d_j g_lk + d_k g_jl - d_l g_jk), symmetrised in
    its lower indices."""
    a = np.swapaxes(dg, -3, -2) + np.swapaxes(dg, -3, -1) - dg
    lc = 0.5 * np.einsum("...il,...ljk->...ijk", ginv, a)
    return 0.5 * (lc + np.swapaxes(lc, -1, -2))


def _evaluate_bundle(model, theta, chart, quad, diff):
    """g, g^-1, C, phi, d g (central differences of the quadrature metric) and
    the Levi-Civita coefficients, from one tensor call at the points and one
    metric call on their stencil."""
    met, c = metric_and_cubic(model, theta, chart, quad)
    ginv = inverse_metric(met)
    dg = gradient(lambda t: fisher_metric(model, t, chart, quad).g, theta,
                  diff, model.chart(chart).interior)
    return _Bundle(met.g, ginv, c, _phi(c, ginv), dg, _levi_civita(ginv, dg))


@lru_cache(maxsize=_MEMO_SIZE)
def _kept_bundle(model, chart, quad, diff, shape, data):
    b = _evaluate_bundle(model, np.frombuffer(data).reshape(shape), chart,
                         quad, diff)
    for arr in vars(b).values():
        arr.flags.writeable = False
    return b


def _bundle(model, theta, chart, quad, diff):
    """The bundle at ``theta``, evaluated once for the same model object,
    chart, quadrature, step and exact coordinates among the last _MEMO_SIZE
    requests; its arrays are read-only."""
    theta = np.asarray(theta, dtype=float)
    return _kept_bundle(model, chart, quad, diff, theta.shape, theta.tobytes())


def _gamma(b, kind, alpha=None):
    """Coefficients of the connection ``kind`` from the bundle ``b``:
    alpha: LC - (alpha/2) g^il C_ljk;
    weyl: LC + 1/2 (delta^i_j phi_k + delta^i_k phi_j - g^im g_jk phi_m)."""
    if kind == "levi_civita":
        return b.lc
    if kind == "alpha":
        return b.lc - 0.5 * alpha * np.einsum("...il,...ljk->...ijk", b.ginv, b.C)
    if kind == "weyl":
        eye = np.eye(b.g.shape[-1])
        return b.lc + 0.5 * (np.einsum("ij,...k->...ijk", eye, b.phi)
                             + np.einsum("ik,...j->...ijk", eye, b.phi)
                             - np.einsum("...im,...m,...jk->...ijk",
                                         b.ginv, b.phi, b.g))
    raise ValueError(f"unknown connection kind {kind!r}")


def levi_civita(model, theta, chart=None, quad=None, diff=None):
    """Metric connection gamma[..., i, j, k] = Gamma^i_jk at one point (m,) or
    a stack (P, m), like the tensors."""
    # a copy: the bundle's own array is shared with later requests
    return _gamma(_bundle(model, theta, chart, quad, diff), "levi_civita").copy()


def alpha_connection(model, theta, alpha, chart=None, quad=None, diff=None):
    """Gamma^i_jk = LC - (alpha/2) g^il C_ljk, at one point or a stack."""
    return _gamma(_bundle(model, theta, chart, quad, diff), "alpha", alpha)


def weyl_connection(model, theta, chart=None, quad=None, diff=None):
    """LC plus 1/2 (delta^i_j phi_k + delta^i_k phi_j - g^im g_jk phi_m), at
    one point or a stack."""
    return _gamma(_bundle(model, theta, chart, quad, diff), "weyl")


def weyl_one_form(model, theta, chart=None, quad=None):
    """phi_i = 1/2 C_ijk g^jk = 1/2 E[d_i l (dl)^T g^-1 dl], the trace 1-form
    of the cubic tensor, at one point (m,) or at every row of a stack (P, m)
    in one stacked evaluation of the trace, which never builds C; phi has the
    shape of ``theta``.  The bundle's ``phi`` reaches the same value from C."""
    return 0.5 * cubic_trace(model, theta, chart, quad)


def closedness_residual(model, theta, chart=None, quad=None, diff=None):
    """R_ij = d_i phi_j - d_j phi_i; zero iff phi is closed at theta."""
    model.require_interior(theta, chart)
    dphi = gradient(lambda t: weyl_one_form(model, t, chart, quad), theta, diff,
                    model.chart(chart).interior)
    return dphi - np.swapaxes(dphi, -1, -2)


def potential_omega(model, theta, anchor, chart=None, quad=None):
    """Potential Omega with Omega(anchor) = 0, at one point (m,) or at every
    row of a stack (P, m), by integrating the Weyl 1-form along the straight
    segment from the anchor.

    Chart domains are convex (see ``Chart``), so each segment between
    interior endpoints stays interior.  Closedness, which makes Omega
    path-independent, is probed once, halfway from the anchor to the middle
    point.  All segments are integrated in one ``segment_integrals`` call:
    adaptive Gauss-Kronrod to ``numerics.QUAD_TOL`` of each segment's scale,
    with one stacked 1-form call per bisection level; a segment that does
    not converge within ``numerics.MAX_LEVELS`` levels raises DomainError
    naming its end point.  Omega is a float for one point and (P,) for a
    stack.
    """
    anchor = np.asarray(anchor, dtype=float)
    try:
        model.require_interior(anchor, chart)
    except DomainError as exc:
        raise DomainError(f"anchor: {exc}") from None
    theta = np.asarray(theta, dtype=float)
    model.require_interior(theta, chart)
    stack = theta if theta.ndim == 2 else theta[None]
    probe = 0.5 * (anchor + stack[len(stack) // 2])
    res = np.max(np.abs(closedness_residual(model, probe, chart, quad)))
    if res > CLOSEDNESS_TOL:
        raise ClosednessError(
            f"Weyl 1-form is not closed (residual {res:.3e} at "
            f"{probe.tolist()}); the potential and the alpha-parallel and "
            "Weyl priors are undefined for this family")
    omega, _ = segment_integrals(lambda t: weyl_one_form(model, t, chart, quad),
                                 np.broadcast_to(anchor, stack.shape), stack)
    return omega if theta.ndim == 2 else float(omega[0])


def ricci_tensor(model, theta, kind="levi_civita", alpha=None, chart=None,
                 quad=None, diff=None):
    """Ric_jk = d_i G^i_jk - d_j G^i_ik + G^i_ip G^p_jk - G^i_jp G^p_ik for the
    connection ``kind`` ("levi_civita", "alpha" or "weyl"); d G is one
    central-difference level over the bundle at all stencil points."""
    def gamma(t):
        return _gamma(_bundle(model, t, chart, quad, diff), kind, alpha)

    g0 = gamma(theta)
    dg = gradient(gamma, theta, GAMMA_DIFF, model.chart(chart).interior)
    return (np.einsum("...iijk->...jk", dg)
            - np.einsum("...jiik->...jk", dg)
            + np.einsum("...iip,...pjk->...jk", g0, g0)
            - np.einsum("...ijp,...pik->...jk", g0, g0))


def _nabla_g(b, gamma, gamma_dual):
    """d_k g_ij - Gamma^l_ki g_lj - Gamma*^l_kj g_il."""
    return (b.dg - np.einsum("...lki,...lj->...kij", gamma, b.g)
            - np.einsum("...lkj,...il->...kij", gamma_dual, b.g))


def duality_residual(model, theta, alpha, chart=None, quad=None, diff=None):
    """D_kij = d_k g_ij - (aG^l_ki g_lj + (-a)G^l_kj g_il); zero iff dual pair."""
    b = _bundle(model, theta, chart, quad, diff)
    return _nabla_g(b, _gamma(b, "alpha", alpha), _gamma(b, "alpha", -alpha))


def nabla_g_identity_residual(model, theta, alpha, chart=None, quad=None,
                              diff=None):
    """(nabla^a g)_kij - a C_kij; zero under the alpha-connection convention."""
    b = _bundle(model, theta, chart, quad, diff)
    ga = _gamma(b, "alpha", alpha)
    return _nabla_g(b, ga, ga) - alpha * b.C


def weyl_compatibility_residual(model, theta, chart=None, quad=None, diff=None):
    """(nabla^W g)_kij + phi_k g_ij; zero for the Weyl connection."""
    b = _bundle(model, theta, chart, quad, diff)
    gw = _gamma(b, "weyl")
    return _nabla_g(b, gw, gw) + np.einsum("...k,...ij->...kij", b.phi, b.g)


def trace_identity_residual(model, theta, chart=None, quad=None, diff=None):
    """| tr W-connection - tr Levi-Civita - (m/2) phi | per lower index."""
    b = _bundle(model, theta, chart, quad, diff)
    return (np.einsum("...iji->...j", _gamma(b, "weyl"))
            - np.einsum("...iji->...j", b.lc) - 0.5 * model.dim * b.phi)


def gauge_residual(model, theta, lam, chart=None, quad=None, diff=None):
    """Weyl connection of (e^lam g, phi - d lam) minus that of (g, phi), at one
    point (m,) or a stack (P, m); zero because the Weyl connection depends on
    the Weyl structure, not on the gauge that represents it.

    ``lam`` maps a stack of points (K, m) to values (K,) and one point (m,) to
    a scalar, e.g. ``lambda t: t[..., 0]``.  The Levi-Civita coefficients of
    e^lam g come from d(e^lam g), differenced on its own stencil with one
    metric call; d lam is differenced on the same stencil.
    """
    theta = np.asarray(theta, dtype=float)
    b = _bundle(model, theta, chart, quad, diff)
    interior = model.chart(chart).interior
    scale = np.exp(lam(theta))[..., None, None]
    dlam = gradient(lam, theta, diff, interior)
    dg = gradient(lambda t: np.exp(lam(t))[:, None, None]
                  * fisher_metric(model, t, chart, quad).g,
                  theta, diff, interior)
    ginv = b.ginv / scale
    gauged = replace(b, g=scale * b.g, ginv=ginv, phi=b.phi - dlam, dg=dg,
                     lc=_levi_civita(ginv, dg))
    return _gamma(gauged, "weyl") - _gamma(b, "weyl")
