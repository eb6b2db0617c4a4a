"""Numerical information geometry: Fisher metrics, cubic tensors, alpha and
Weyl connections, and the prior fields they induce."""

from .models import get_model, log_density, score
from .numerics import DiffSpec, QuadratureSpec, gradient, segment_integrals
from .tensors import amari_chentsov, fisher_metric, inverse_metric, sqrt_det_metric
from .geometry import (
    alpha_connection,
    closedness_residual,
    duality_residual,
    gauge_residual,
    levi_civita,
    nabla_g_identity_residual,
    potential_omega,
    ricci_tensor,
    trace_identity_residual,
    weyl_compatibility_residual,
    weyl_connection,
    weyl_one_form,
)
from .priors import (
    KINDS,
    Axis,
    GridSpec,
    PriorField,
    alpha_prior_field,
    jeffreys_field,
    normalize_field,
    prior_field,
    prior_values,
    reparam_transform,
    theorem_ratio_check,
    weyl_prior_field,
)
from .bayes import Dataset, grid_posterior, load_observations

__version__ = "0.1.0"
