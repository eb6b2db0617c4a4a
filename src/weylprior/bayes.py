"""Grid-based Bayesian posteriors on top of any PriorField.

All arithmetic happens in log space with a log-sum-exp normalizer, so
thousands of observations cannot underflow the cell masses.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import DataError, GridError
from .models import ModelSpec
from .priors import PriorField


@dataclass(frozen=True)
class Dataset:
    observations: np.ndarray     # (N,) or (N, d)
    source: str = "inline"

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=float)
        if obs.size == 0:
            raise DataError(f"{self.source}: empty dataset")
        if not np.all(np.isfinite(obs)):
            raise DataError(f"{self.source}: non-finite observation")
        object.__setattr__(self, "observations", obs)


@dataclass(frozen=True)
class PosteriorGrid:
    points: np.ndarray
    log_values: np.ndarray       # normalized log density over the grid
    masses: np.ndarray           # per-cell probability mass, sums to 1
    grid: object = None


def load_observations(path, model: ModelSpec) -> Dataset:
    """Read one observation per CSV row (no header), d columns."""
    d = model.sample_space.dim
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            tokens = line.split(",")
            if len(tokens) != d:
                raise DataError(
                    f"{path}:{lineno}: expected {d} column(s) for model "
                    f"{model.id!r}, got {len(tokens)}")
            try:
                rows.append([float(t) for t in tokens])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: empty file")
    obs = np.array(rows)
    return Dataset(obs[:, 0] if d == 1 else obs, source=str(path))


def grid_posterior(model: ModelSpec, prior: PriorField,
                   data: Dataset) -> PosteriorGrid:
    """log p(theta | data) over the prior's grid, in the prior's chart,
    log-sum-exp normalized.

    The likelihood is evaluated once per distinct observation and weighted by
    its multiplicity; ``math.fsum`` rounds the sum correctly, so the result
    does not depend on the order of the observations.
    """
    if prior.grid is None:
        raise GridError("posterior computation needs a grid-backed prior")
    ch = model.chart(prior.chart)
    model.sample_space.validate(data.observations, data.source)
    obs, counts = np.unique(data.observations, axis=0, return_counts=True)
    pts = prior.points
    model.require_interior(pts, ch)
    refs = ch.to_reference(pts)
    loglik = np.empty(len(pts))
    # an observation far in a tail overflows its log-density to -inf, which
    # the check below reports when it leaves no grid point finite
    with np.errstate(over="ignore"):
        for k, t in enumerate(refs):
            loglik[k] = math.fsum((counts * model.log_density(obs, t)).tolist())
    logpost = loglik + np.log(prior.values)
    if not np.any(np.isfinite(logpost)):
        raise DataError(_vanishing(model, refs, data))
    logvol = np.log(prior.grid.cell_volumes())
    norm = logsumexp(logpost + logvol)
    log_values = logpost - norm
    masses = np.exp(log_values + logvol)
    return PosteriorGrid(pts, log_values, masses, grid=prior.grid)


def _vanishing(model, refs, data):
    """The error for a likelihood that vanishes at every grid point, naming the
    first observation in input order whose log-density is -inf at all of the
    grid's reference-chart points ``refs``, if there is one."""
    msg = "data has vanishing likelihood at every grid point"
    # only on this error path: a stable sort for the first indices costs
    # time and memory on every posterior
    obs, first = np.unique(data.observations, axis=0, return_index=True)
    dead = np.ones(len(obs), dtype=bool)
    with np.errstate(over="ignore"):
        for t in refs:
            dead &= model.log_density(obs, t) == -np.inf
            if not dead.any():
                break
    if not dead.any():
        return msg
    k = np.flatnonzero(dead)[np.argmin(first[dead])]
    return (f"{msg}: {data.source}: row {first[k] + 1}: observation "
            f"{obs[k].tolist()} has log-density -inf at every grid point")
