"""Connections, the Weyl 1-form and its potential, and identity residuals.

Every connection and residual comes from one stacked evaluation at a point
(or a stack of points) and its finite-difference stencil: g, C, g^-1 and
phi from one tensor call at the points, and d g from one metric call on all
stencil points, which gives the Levi-Civita coefficients.  Alpha and Weyl
connections add their algebraic corrections.  Residual functions return the
full arrays so callers can report max-norms against their tolerances.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ClosednessError, DomainError
from .numerics import DiffSpec, gradient, segment_integrals
from .tensors import fisher_metric, inverse_metric, metric_and_cubic

# FD of connection coefficients sits on top of FD of the metric; a larger
# step keeps the amplified roundoff of the inner differences in check.
GAMMA_DIFF = DiffSpec(rel_step=1e-3)

CLOSEDNESS_TOL = 1e-6

# Gauss-Legendre subintervals on the segment from the anchor to each point
POTENTIAL_STEPS = 24


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


def _bundle(model, theta, chart, quad, diff):
    """g, g^-1, C, phi, d g (central differences of the quadrature metric) and
    the Levi-Civita coefficients
    Gamma^i_jk = 1/2 g^il (d_j g_lk + d_k g_jl - d_l g_jk),
    from one tensor call at the points and one metric call on their stencil."""
    met, c = metric_and_cubic(model, theta, chart, quad)
    ginv = inverse_metric(met)
    dg = gradient(lambda t: fisher_metric(model, t, chart, quad).g, theta,
                  diff, model.chart(chart).interior)
    a = np.swapaxes(dg, -3, -2) + np.swapaxes(dg, -3, -1) - dg
    lc = 0.5 * np.einsum("...il,...ljk->...ijk", ginv, a)
    lc = 0.5 * (lc + np.swapaxes(lc, -1, -2))
    return _Bundle(met.g, ginv, c, _phi(c, ginv), dg, lc)


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
    return _gamma(_bundle(model, theta, chart, quad, diff), "levi_civita")


def alpha_connection(model, theta, alpha, chart=None, quad=None, diff=None):
    """Gamma^i_jk = LC - (alpha/2) g^il C_ljk, at one point or a stack."""
    return _gamma(_bundle(model, theta, chart, quad, diff), "alpha", alpha)


def weyl_connection(model, theta, chart=None, quad=None, diff=None):
    """LC plus 1/2 (delta^i_j phi_k + delta^i_k phi_j - g^im g_jk phi_m), at
    one point or a stack."""
    return _gamma(_bundle(model, theta, chart, quad, diff), "weyl")


def weyl_one_form(model, theta, chart=None, quad=None):
    """phi_i = 1/2 C_ijk g^jk, the trace 1-form of the cubic tensor, at one
    point (m,) or at every row of a stack (P, m) in one stacked evaluation of
    the tensors; phi has the shape of ``theta``."""
    met, c = metric_and_cubic(model, theta, chart, quad)
    return _phi(c, inverse_metric(met))


def closedness_residual(model, theta, chart=None, quad=None, diff=None):
    """R_ij = d_i phi_j - d_j phi_i; zero iff phi is closed at theta."""
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
    point.  All segments are integrated by composite Gauss-Legendre in one
    ``segment_integrals`` call, so the 1-form is evaluated at every node in
    one stacked call.  Omega is a float for one point and (P,) for a stack.
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
    omega = segment_integrals(lambda t: weyl_one_form(model, t, chart, quad),
                              np.broadcast_to(anchor, stack.shape), stack,
                              POTENTIAL_STEPS)
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


def gauge_rescale_check(model, lam, start, end, steps, chart=None, quad=None,
                        diff=None):
    """Relative mismatch of the Weyl translation from ``start`` to ``end``
    computed in two gauges.

    Branch A uses (g, phi); branch B uses (e^lam g, phi - d lam), mapped back
    to the same initial scalar product.  The Weyl structure axiom makes the
    two translated products equal.  Both scale the same scalar product, so
    the mismatch is that of the scale factors alone and g is not evaluated.
    Both branches integrate along the straight segment with ``steps``
    Gauss-Legendre subintervals.  ``lam`` maps a stack of points (K, m) to
    values (K,) and one point (m,) to a scalar, e.g. ``lambda t: t[..., 0]``;
    d lam is taken at all nodes in one ``gradient`` call.
    """
    p = np.asarray(start, dtype=float)
    q = np.asarray(end, dtype=float)

    def phi(ts):
        return weyl_one_form(model, ts, chart, quad)

    def integral(omega):
        return segment_integrals(omega, p[None], q[None], steps)[0]

    def phi_gauged(ts):
        return phi(ts) - gradient(lam, ts, diff, model.chart(chart).interior)

    val_a = np.exp(integral(phi))
    val_b = np.exp(integral(phi_gauged)) * np.exp(lam(q)) * np.exp(-lam(p))
    return abs(val_a - val_b) / max(abs(val_a), np.finfo(float).tiny)
