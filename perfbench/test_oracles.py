"""Each benchmark oracle accepts the right answer and rejects a wrong one.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_oracles.py
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles
from weylprior import bayes, get_model, priors

HERE = Path(__file__).resolve().parent


def g1_grid():
    return priors.GridSpec((priors.Axis("mu", -2.0, 2.0, 21),
                            priors.Axis("s2", 0.25, 16.0, 21, spacing="log")))


def test_jeffreys_field_is_not_the_gaussian1d_weyl_field():
    field = priors.jeffreys_field(get_model("gaussian1d"), g1_grid())
    assert oracles.gaussian1d_weyl_error(field.values, 1.0) > 1e3 * oracles.TOL_G1
    uniform = np.full(441, 1.0 / np.sqrt(2.0)) * (1.0 + 1e-10)
    assert oracles.gaussian1d_weyl_error(uniform, 1.0) < oracles.TOL_G1


def test_flat_normal_posterior_matches_its_own_formula_only():
    x = np.random.default_rng(0).normal(1.0, np.sqrt(2.0), 200)
    mu, s2 = np.linspace(-2, 2, 21), np.geomspace(0.25, 16, 21)
    flat = oracles.normal_flat_posterior(x, mu, s2)
    assert np.isclose(np.exp(flat + oracles.log_cell_volumes(mu, s2)).sum(), 1.0)
    # a Jeffreys-type prior 1/s2^1.5 moves the log density by O(1)
    s2_pts = np.repeat(s2[None, :], 21, axis=0).reshape(-1)
    skewed = flat - 1.5 * np.log(s2_pts)
    assert oracles.log_density_error(skewed, flat) > 1e3 * oracles.TOL_G1


def test_det_sigma_exponent_2_9_is_rejected():
    s = np.geomspace(0.5, 2.0, 5)
    s00, s11 = (m.reshape(-1) for m in np.meshgrid(s, s, indexing="ij"))
    pts = np.column_stack([np.zeros(25), np.zeros(25), s00, np.full(25, 0.2), s11])
    det = oracles.det_sigma_2x2(pts)
    anchor = (0.0, 0.0, 1.0, 0.2, 1.0)
    e = oracles.weyl_det_exponent(2)
    assert e == 3.0 and oracles.jeffreys_det_exponent(2) == -2.0
    assert oracles.det_power_error(pts, 7.0 * det ** e, e, anchor) < oracles.TOL_MV2
    assert oracles.det_power_error(pts, 7.0 * det ** 2.9, e, anchor) > 1e3 * oracles.TOL_MV2


def test_ricci_curvature_minus_one_is_rejected():
    theta = np.array([0.3, 1.7])
    g = oracles.gaussian1d_metric(theta[1])
    assert oracles.normal_ricci_error(theta, -0.5 * g * (1 + 1e-9)) < oracles.TOL_RICCI
    assert oracles.normal_ricci_error(theta, -1.0 * g) > 1e3 * oracles.TOL_RICCI


def test_poisson_posterior_under_a_flat_prior_is_rejected():
    model = get_model("poisson")
    grid = priors.GridSpec((priors.Axis("lam", 0.5, 8.0, 2000, spacing="log"),))
    lam = grid.points()[:, 0]
    x = np.random.default_rng(0).poisson(3.0, 1000).astype(float)
    data = bayes.Dataset(x)

    def posterior(values):
        field = priors.PriorField(grid.points(), values, "jeffreys", "lam", grid=grid)
        return bayes.grid_posterior(model, field, data).log_values

    ref = oracles.gamma_posterior(lam, x)
    assert oracles.log_density_error(posterior(lam ** -0.5), ref) < oracles.TOL_POISSON
    assert oracles.log_density_error(posterior(np.ones_like(lam)), ref) > 1e3 * oracles.TOL_POISSON
    assert oracles.poisson_jeffreys_error(lam, 3.0 * lam ** -0.5) < oracles.TOL_POISSON
    assert oracles.poisson_jeffreys_error(lam, np.ones_like(lam)) > 1e3 * oracles.TOL_POISSON


def test_digits_floor_at_epsilon():
    assert oracles.digits(0.0) == oracles.digits(oracles.EPS)
    assert np.isclose(oracles.digits(1e-9), 9.0)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "identity-suite", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
