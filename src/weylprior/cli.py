"""Command-line front end.

Subcommands: tensor, check, prior, posterior, verify-all.  Every run is
fully determined by its flags (the only RNG use is demo-data generation
under an explicit --seed), and identical invocations produce byte-identical
output files on one NumPy/BLAS build and CPU kernel.

Exit status: 0 success, 1 check failure (diagnostic JSON on stdout),
2 usage or configuration error.
"""

import argparse
import json
import sys

import numpy as np

from . import bayes, geometry, priors
from .errors import DomainError, InvalidConfigError, WeylPriorError
from .models import get_model, vech_from_mat
from .numerics import MAX_STEP_DOUBLES, DiffSpec, QuadratureSpec, nodes_per_point
from .tensors import metric_and_cubic

# every identity residual and the Weyl field's spread and chart covariance
# are judged against geometry.CLOSEDNESS_TOL, the potential's own bound;
# the Weyl/alpha-parallel theorem ratio is a ratio of two fields from the
# same potential, so it is held tighter
THEOREM_RATIO_TOL = 1e-8


def _parse_theta(text):
    try:
        return np.array([float(t) for t in text.split(",")])
    except ValueError:
        raise WeylPriorError(f"cannot parse parameter vector {text!r}") from None


def _parse_grid(text, chart_name):
    axes = []
    for part in text.split(","):
        name, _, spec = part.partition("=")
        if not spec:
            raise WeylPriorError(f"bad grid axis {part!r}; use name=min:max:count[:log]")
        bits = spec.split(":")
        if len(bits) not in (3, 4):
            raise WeylPriorError(f"bad grid axis {part!r}; use name=min:max:count[:log]")
        try:
            axes.append(priors.Axis(name.strip(), float(bits[0]), float(bits[1]),
                                    int(bits[2]), *bits[3:]))
        except ValueError as exc:
            raise WeylPriorError(f"bad grid axis {part!r}: {exc}") from None
    return priors.GridSpec(tuple(axes), chart=chart_name)


def _quad(args, model):
    """The --quad-nodes rule, or None; a rule the library would refuse for
    ``model`` is refused here, before any node table is built."""
    if args.quad_nodes is None:
        return None
    try:
        quad = QuadratureSpec(args.quad_nodes)
        # the rule's own checks read no point: an empty stack runs only them
        nodes_per_point(model, np.empty((0, model.dim)), quad)
    except (ValueError, WeylPriorError) as exc:
        raise InvalidConfigError(f"--quad-nodes {args.quad_nodes}: {exc}") from None
    return quad


def _diff(args):
    if args.fd_step is None:
        return None
    try:
        return DiffSpec(rel_step=args.fd_step)
    except ValueError as exc:
        raise InvalidConfigError(f"--fd-step {args.fd_step}: {exc}") from None


def _alpha(args):
    if args.alpha is not None and not np.isfinite(args.alpha):
        raise InvalidConfigError(f"--alpha {args.alpha}: need a finite value")
    return args.alpha


def _emit(payload, out=None):
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_tensor(args):
    model = get_model(args.model)
    theta = _parse_theta(args.theta)
    met, c = metric_and_cubic(model, theta, args.chart, _quad(args, model))
    _emit({"g": met.g.tolist(), "C": c.tolist(),
           "theta": theta.tolist(), "chart": model.chart(args.chart).name},
          args.out)
    return 0


def run_check(model, what, theta, alpha=1.0, chart=None, quad=None, diff=None):
    """Evaluate one named residual; returns (max_residual, tolerance)."""
    if what == "closedness":
        res = geometry.closedness_residual(model, theta, chart, quad, diff)
    elif what == "duality":
        res = geometry.duality_residual(model, theta, alpha, chart, quad, diff)
    elif what == "nabla-g":
        res = geometry.nabla_g_identity_residual(model, theta, alpha, chart,
                                                 quad, diff)
    elif what == "weyl-compat":
        res = geometry.weyl_compatibility_residual(model, theta, chart, quad, diff)
    elif what == "ricci-symmetry":
        ric = geometry.ricci_tensor(model, theta, "alpha", alpha, chart, quad, diff)
        res = ric - ric.T
    elif what == "trace-identity":
        res = geometry.trace_identity_residual(model, theta, chart, quad, diff)
    elif what == "gauge":
        res = geometry.gauge_residual(model, theta, lambda t: t[..., 0], chart,
                                      quad, diff)
    else:
        raise WeylPriorError(f"unknown check {what!r}")
    return float(np.max(np.abs(res))), geometry.CLOSEDNESS_TOL


def cmd_check(args):
    model = get_model(args.model)
    theta = _parse_theta(args.theta)
    res, tol = run_check(model, args.what, theta, alpha=_alpha(args),
                         chart=args.chart, quad=_quad(args, model),
                         diff=_diff(args))
    ok = res < tol
    _emit({"check": args.what, "theta": theta.tolist(), "max_residual": res,
           "tolerance": tol, "pass": bool(ok)}, args.out)
    return 0 if ok else 1


def _require_chart_axes(model, grid):
    """Refuse one axis per chart coordinate named otherwise: a table's
    header then names its chart."""
    chart = model.chart(grid.chart)
    if len(grid.names) == chart.dim and grid.names != chart.coords:
        raise WeylPriorError(f"--grid axes {grid.names} are not the coordinates "
                             f"{chart.coords} of chart {chart.name!r}")


def _prior_field(model, args, kind):
    """The ``kind`` prior field over ``--grid``, from the prior flags."""
    grid = _parse_grid(args.grid, args.chart)
    _require_chart_axes(model, grid)
    anchor = _parse_theta(args.anchor) if args.anchor else None
    quad = _quad(args, model)
    return priors.prior_field(model, grid, kind, _alpha(args), anchor, quad)


def cmd_prior(args):
    model = get_model(args.model)
    field = _prior_field(model, args, args.kind)
    if args.normalize:
        field = priors.normalize_field(field)
    priors.write_csv(field, args.out)
    return 0


def _demo_observations(model, theta, n, seed):
    if model.standardize is None:
        raise InvalidConfigError(f"--demo-n: model {model.id!r} has no law to draw from")
    try:
        model.require_interior(theta)
    except DomainError as exc:
        raise InvalidConfigError(f"--demo-theta: {exc}") from None
    mean, chol = model.standardize(theta)
    d = model.sample_space.dim
    x = mean + np.random.default_rng(seed).standard_normal((n, d)) @ chol.T
    # as load_observations gives them: 1-D samples carry no trailing axis
    return bayes.Dataset(x[:, 0] if d == 1 else x, source="demo")


def cmd_posterior(args):
    model = get_model(args.model)
    if args.grid is None:
        raise WeylPriorError("posterior needs --grid (with --prior-file, to "
                             "recover cell volumes)")
    if args.prior_file:
        names, pts, values = priors.read_csv(args.prior_file)
        grid = _parse_grid(args.grid, args.chart)
        # exact: the table holds every coordinate as its repr, so a file
        # written with the same --grid matches it bit for bit
        if not np.array_equal(grid.points(), pts):
            raise WeylPriorError("--grid does not match the points in --prior-file")
        if names != grid.names:
            raise WeylPriorError(f"--grid axes {grid.names} do not match the "
                                 f"columns {names} of --prior-file")
        _require_chart_axes(model, grid)
        field = priors.PriorField(pts, values, "loaded",
                                  args.chart or model.reference, grid=grid)
    else:
        field = _prior_field(model, args, args.prior_kind)
    if args.data:
        data = bayes.load_observations(args.data, model)
    elif args.demo_n is not None:
        # n d doubles of draws, within the bound of every other size
        limit = MAX_STEP_DOUBLES // model.sample_space.dim
        if not 1 <= args.demo_n <= limit:
            raise InvalidConfigError(f"--demo-n {args.demo_n}: need 1 to "
                                     f"{limit} observations")
        if args.seed is None:
            raise WeylPriorError("demo data needs an explicit --seed")
        if args.seed < 0:
            raise InvalidConfigError(
                f"--seed {args.seed}: need a non-negative integer")
        data = _demo_observations(model, _parse_theta(args.demo_theta),
                                  args.demo_n, args.seed)
    else:
        raise WeylPriorError("posterior needs --data or --demo-n")
    post = bayes.grid_posterior(model, field, data)
    priors.write_table(args.out, field.grid.names + ["log_density", "mass"],
                       np.column_stack([post.points, post.log_values, post.masses]))
    return 0


# verify-all's checks at each of its points, in output order: (label, the
# ``run_check`` name, alpha); ``check --what`` offers the names
SUITE = ([(what, what, 1.0)
          for what in ("closedness", "weyl-compat", "trace-identity", "gauge")]
         + [(f"{what}(alpha={alpha})", what, alpha)
            for alpha in (-2.0, 0.0, 1.0) for what in ("duality", "nabla-g")]
         + [(f"ricci-symmetry(alpha={alpha})", "ricci-symmetry", alpha)
            for alpha in (-2.0, 0.0, 1.0, 2.0)])

DEFAULT_TEST_POINTS = {
    "gaussian1d": ["0,1", "1,2", "-1,4"],
    "bernoulli": ["0.3", "0.5"],
    "poisson": ["1", "4"],
}


def _test_points(model):
    """verify-all's default points, in the reference chart."""
    if model.id.startswith("gaussian_mv"):
        n = model.sample_space.dim
        eye = np.eye(n)
        return [np.concatenate([np.zeros(n), vech_from_mat(sig)])
                for sig in (eye, eye + 0.5 * np.diag(np.arange(n)))]
    return [_parse_theta(t) for t in DEFAULT_TEST_POINTS[model.id]]


def cmd_verify_all(args):
    model = get_model(args.model)
    quad = _quad(args, model)
    results = []

    def record(check, theta, res, tol):
        entry = {"check": check, "theta": np.asarray(theta).tolist(),
                 "max_residual": float(res), "tolerance": tol,
                 "pass": bool(res < tol)}
        results.append(entry)
        print(json.dumps(entry))

    chart = model.chart(args.chart)
    for theta in map(chart.from_reference, _test_points(model)):
        for label, what, alpha in SUITE:
            record(label, theta, *run_check(model, what, theta, alpha,
                                            args.chart, quad))

    if model.id == "gaussian1d":
        # the Weyl prior is uniform in the reference chart (mu, sigma^2)
        # alone, so this block reads its grid there whatever --chart says
        grid = _parse_grid("mu=-2:2:11,s2=0.25:16:11:log", None)
        anchor = np.array([0.0, 1.0])
        ratio = priors.theorem_ratio_check(model, grid, anchor, quad)
        record("theorem-ratio", anchor, ratio["max_rel_deviation"],
               THEOREM_RATIO_TOL)
        wf = priors.prior_field(model, grid, "weyl", anchor=anchor, quad=quad)
        spread = (wf.values.max() - wf.values.min()) / wf.values.mean()
        record("weyl-constancy", anchor, spread, geometry.CLOSEDNESS_TOL)
        moved = priors.reparam_transform(wf, model, "mu_sigma")
        native = priors.prior_values(model, moved.points, "weyl",
                                     anchor=np.array([0.0, 1.0]),
                                     chart="mu_sigma", quad=quad)
        dev = np.max(np.abs(moved.values - native) / np.abs(native))
        record("reparam-covariance", anchor, dev, geometry.CLOSEDNESS_TOL)

    failures = sum(not entry["pass"] for entry in results)
    summary = {"model": model.id, "checks": len(results), "failures": failures}
    print(json.dumps(summary))
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="weylprior",
        description="Fisher/Amari-Chentsov tensors, alpha and Weyl connections, "
                    "and the resulting prior fields for parametric families.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", required=True,
                       help="gaussian1d | gaussian_mv:n | bernoulli | poisson")
        p.add_argument("--chart", default=None)
        p.add_argument("--quad-nodes", type=int, default=None)

    p = sub.add_parser("tensor", help="metric and cubic tensor at a point, as JSON")
    common(p)
    p.add_argument("--theta", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("check", help="evaluate one geometric identity residual")
    common(p)
    p.add_argument("--what", required=True,
                   choices=list(dict.fromkeys(what for _, what, _ in SUITE)))
    p.add_argument("--theta", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--fd-step", type=float, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("prior", help="prior density field over a grid, as CSV")
    common(p)
    p.add_argument("--kind", required=True, choices=priors.KINDS)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--anchor", default=None)
    p.add_argument("--grid", required=True,
                   help='e.g. "mu=-2:2:21,s2=0.25:16:21:log"')
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prior)

    p = sub.add_parser("posterior", help="grid posterior from a prior and data")
    common(p)
    p.add_argument("--prior-file", default=None)
    p.add_argument("--prior-kind", default="jeffreys", choices=priors.KINDS)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--anchor", default=None)
    p.add_argument("--grid", default=None)
    p.add_argument("--data", default=None)
    p.add_argument("--demo-n", type=int, default=None)
    p.add_argument("--demo-theta", default="1,2")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_posterior)

    p = sub.add_parser("verify-all", help="run the full invariant suite for a model")
    common(p)
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # OSError: an --out, --data or --prior-file path that cannot be opened
    except (WeylPriorError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
