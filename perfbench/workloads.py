"""The four benchmark workloads.

A workload is built from a seed (its inputs), runs one round of calls into
weylprior, and checks what the calls returned against the closed forms in
``oracles``.  Program functions are looked up through their modules at call
time, so the traced run's wrappers see every call.
"""

import csv
import os

import numpy as np

import oracles


class Ops:
    """Counts the operations a round attempts and the ones that fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def call(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a raising operation is a failed operation
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: "
                               f"{type(exc).__name__}: {exc}")
            return None

    def cli(self, argv):
        from weylprior import cli
        code = self.call(cli.main, argv)
        if code not in (0, None):
            self.failed += 1
            self.errors.append(f"weylprior {argv[0]} exited {code}")


class Workload:
    name = ""
    model_id = ""
    points = 0          # grid or check points per round, for per-point ratios

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.problems = []

    def run(self, ops, model):
        """One round of calls; ``model`` is the one built during set-up."""
        raise NotImplementedError

    def check(self):
        """Largest error against the closed form; problems go to self.problems."""
        raise NotImplementedError

    def _expect(self, ok, what):
        if not ok:
            self.problems.append(what)


def _read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(c) for c in r] for r in rows[1:]])


class WeylPosteriorG1(Workload):
    """CLI ``prior --kind weyl`` on a 21x21 gaussian1d grid, then ``posterior``."""

    name = "weyl-posterior-g1"
    model_id = "gaussian1d"
    grid = "mu=-2:2:21,s2=0.25:16:21:log"
    mu_vals = np.linspace(-2.0, 2.0, 21)
    s2_vals = np.geomspace(0.25, 16.0, 21)
    anchor = (0.0, 1.0)
    points = 441

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.x = np.random.default_rng(seed).normal(1.0, np.sqrt(2.0), 1000)
        self.data = os.path.join(workdir, "draws.csv")
        self.prior = os.path.join(workdir, "weyl.csv")
        self.post = os.path.join(workdir, "post.csv")
        with open(self.data, "w") as fh:
            fh.writelines(f"{v!r}\n" for v in self.x.tolist())

    def run(self, ops, model):
        ops.cli(["prior", "--model", "gaussian1d", "--kind", "weyl",
                 "--anchor", "0,1", "--grid", self.grid, "--out", self.prior])
        ops.cli(["posterior", "--model", "gaussian1d", "--prior-file", self.prior,
                 "--grid", self.grid, "--data", self.data, "--out", self.post])

    def check(self):
        mu, s2 = (m.reshape(-1) for m in
                  np.meshgrid(self.mu_vals, self.s2_vals, indexing="ij"))
        _, prior = _read_rows(self.prior)
        header, post = _read_rows(self.post)
        self._expect(header == ["mu", "s2", "log_density", "mass"],
                     f"posterior header {header}")
        for label, table in (("prior", prior), ("posterior", post)):
            self._expect(np.allclose(table[:, 0], mu, rtol=0, atol=1e-12)
                         and np.allclose(table[:, 1], s2, rtol=1e-12, atol=0),
                         f"{label} grid points differ from {self.grid}")
        err = max(oracles.gaussian1d_weyl_error(prior[:, 2], self.anchor[1]),
                  oracles.log_density_error(
                      post[:, 2], oracles.normal_flat_posterior(
                          self.x, self.mu_vals, self.s2_vals)))
        self._expect(err < oracles.TOL_G1, f"error {err:.3e} >= {oracles.TOL_G1}")
        return err


class WeylFieldMV2(Workload):
    """Weyl and Jeffreys fields of gaussian_mv:2 over 25 covariances."""

    name = "weyl-field-mv2"
    model_id = "gaussian_mv:2"
    anchor = (0.0, 0.0, 1.0, 0.2, 1.0)
    points = 25

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        from weylprior.priors import Axis, GridSpec
        self.gridspec = GridSpec((Axis("mu0", 0.0, 0.0, 1), Axis("mu1", 0.0, 0.0, 1),
                                  Axis("s00", 0.5, 2.0, 5, "log"),
                                  Axis("s01", 0.2, 0.2, 1),
                                  Axis("s11", 0.5, 2.0, 5, "log")))
        self.fields = {}

    def run(self, ops, model):
        from weylprior import priors
        self.fields["weyl"] = ops.call(priors.weyl_prior_field, model,
                                       self.gridspec, np.array(self.anchor))
        self.fields["jeffreys"] = ops.call(priors.jeffreys_field, model, self.gridspec)

    def check(self):
        exps = {"weyl": oracles.weyl_det_exponent(2),
                "jeffreys": oracles.jeffreys_det_exponent(2)}
        err = 0.0
        for kind, field in self.fields.items():
            if field is None:
                continue
            self._expect(len(field.values) == 25, f"{kind}: {len(field.values)} points")
            err = max(err, oracles.det_power_error(field.points, field.values,
                                                   exps[kind], self.anchor))
        self._expect(err < oracles.TOL_MV2, f"error {err:.3e} >= {oracles.TOL_MV2}")
        return err


class IdentitySuite(Workload):
    """verify-all's per-point checks except gauge, at 40 seeded gaussian1d points."""

    name = "identity-suite"
    model_id = "gaussian1d"
    points = 40
    checks = ([("closedness", 1.0), ("weyl-compat", 1.0), ("trace-identity", 1.0)]
              + [(what, a) for a in (-2.0, 0.0, 1.0) for what in ("duality", "nabla-g")]
              + [("ricci-symmetry", a) for a in (-2.0, 0.0, 1.0, 2.0)])

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        mu = rng.uniform(-2.0, 2.0, self.points)
        s2 = np.exp(rng.uniform(np.log(0.25), np.log(4.0), self.points))
        self.thetas = np.column_stack([mu, s2])
        self.results = []

    def run(self, ops, model):
        from weylprior import cli, geometry
        for theta in self.thetas:
            for what, alpha in self.checks:
                self.results.append((what, alpha, theta,
                                     ops.call(cli.run_check, model, what, theta, alpha)))
            self.results.append(("ricci-lc", None, theta,
                                 ops.call(geometry.ricci_tensor, model, theta,
                                          "levi_civita")))

    def check(self):
        err = 0.0
        for what, alpha, theta, out in self.results:
            if out is None:
                continue
            if what == "ricci-lc":
                err = max(err, oracles.normal_ricci_error(theta, out))
            else:
                res, tol = out
                self._expect(res < tol, f"{what}(alpha={alpha}) at {theta.tolist()}: "
                                        f"residual {res:.3e} >= {tol}")
        self._expect(err < oracles.TOL_RICCI, f"Ricci error {err:.3e} >= {oracles.TOL_RICCI}")
        return err


class JeffreysPosteriorPoisson(Workload):
    """Jeffreys field of poisson on 2000 rates, then a posterior on 10^5 counts."""

    name = "jeffreys-posterior-poisson"
    model_id = "poisson"
    points = 2000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        from weylprior.bayes import Dataset
        from weylprior.priors import Axis, GridSpec
        self.lam = np.geomspace(0.5, 8.0, self.points)
        self.gridspec = GridSpec((Axis("lam", 0.5, 8.0, self.points, "log"),))
        self.x = np.random.default_rng(seed).poisson(3.0, 100_000).astype(float)
        self.data = Dataset(self.x, source=f"poisson(3) seed {seed}")
        self.field = self.post = None

    def run(self, ops, model):
        from weylprior import bayes, priors
        self.field = ops.call(priors.jeffreys_field, model, self.gridspec)
        if self.field is not None:
            self.post = ops.call(bayes.grid_posterior, model, self.field, self.data)

    def check(self):
        err = 0.0
        if self.field is not None:
            self._expect(np.allclose(self.field.points[:, 0], self.lam, rtol=1e-12, atol=0),
                         "field grid differs from geomspace(0.5, 8, 2000)")
            err = oracles.poisson_jeffreys_error(self.lam, self.field.values)
        if self.post is not None:
            err = max(err, oracles.log_density_error(
                self.post.log_values, oracles.gamma_posterior(self.lam, self.x)))
        self._expect(err < oracles.TOL_POISSON, f"error {err:.3e} >= {oracles.TOL_POISSON}")
        return err


WORKLOADS = {w.name: w for w in (WeylPosteriorG1, WeylFieldMV2, IdentitySuite,
                                 JeffreysPosteriorPoisson)}
