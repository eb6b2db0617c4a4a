"""CLI behavior: output formats, exit codes, determinism."""

import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylprior import (Axis, GridSpec, cli, get_model, normalize_field,
                       weyl_prior_field)
from weylprior.cli import _test_points, main
from weylprior.priors import read_csv

from conftest import diagonal_gaussian
from test_readme import cli_commands


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTensor:
    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "tensor", "--model", "gaussian1d",
                           "--theta", "0,1")
        assert code == 0
        payload = json.loads(out)
        np.testing.assert_allclose(payload["g"], [[1.0, 0.0], [0.0, 0.5]],
                                   atol=1e-12)
        assert payload["C"][1][1][1] == pytest.approx(1.0, abs=1e-10)
        assert payload["chart"] == "mu_sigma2"

    def test_unknown_chart_exit_2(self, capsys):
        code, out, err = run(capsys, "tensor", "--model", "gaussian1d",
                             "--chart", "foo", "--theta", "0,1")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == (
            "model 'gaussian1d' has no chart 'foo'; available: "
            "['mu_sigma', 'mu_sigma2', 'natural']")

    def test_chart_named_in_payload(self, capsys):
        code, out, _ = run(capsys, "tensor", "--model", "gaussian1d",
                           "--chart", "mu_sigma", "--theta", "0,2")
        assert code == 0
        payload = json.loads(out)
        # in (mu, sigma) the metric is diag(1/sigma^2, 2/sigma^2)
        np.testing.assert_allclose(payload["g"], np.diag([0.25, 0.5]), atol=1e-12)
        assert payload["chart"] == "mu_sigma"

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "tensor.json"
        code, _, _ = run(capsys, "tensor", "--model", "bernoulli",
                         "--theta", "0.5", "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["g"][0][0] == pytest.approx(4.0, rel=1e-10)

    def test_bad_theta_exit_2(self, capsys):
        code, _, err = run(capsys, "tensor", "--model", "gaussian1d",
                           "--theta", "0,oops")
        assert code == 2
        assert "error" in json.loads(err)

    def test_too_few_quad_nodes_exit_2(self, capsys, tmp_path):
        # k Gauss-Hermite nodes are exact up to degree 2k - 1 and a continuous
        # family's cubic integrand has degree 6: 2 or 3 nodes would give wrong
        # tensors (3 give C[1][1][1] = 0.25 at theta = (0, 1), not 1)
        out_path = tmp_path / "prior.csv"
        commands = [("tensor", "--theta", "0,1"),
                    ("check", "--what", "closedness", "--theta", "0,1"),
                    ("prior", "--kind", "jeffreys", "--grid",
                     "mu=-1:1:3,s2=0.5:2:3", "--out", str(out_path))]
        for command in commands:
            for nodes in ("1", "2", "3"):
                code, out, err = run(capsys, command[0], "--model", "gaussian1d",
                                     *command[1:], "--quad-nodes", nodes)
                assert code == 2 and out == "", (command[0], nodes)
                assert f"--quad-nodes {nodes}" in json.loads(err)["error"]
        assert not out_path.exists()

    def test_four_quad_nodes_give_the_closed_form(self, capsys):
        # C_{mu mu s2} = 1/s2^2 and C_{s2 s2 s2} = 1/s2^3, every other entry 0
        code, out, _ = run(capsys, "tensor", "--model", "gaussian1d",
                           "--theta", "0.5,1.5", "--quad-nodes", "4")
        assert code == 0
        want = np.zeros((2, 2, 2))
        want[0, 0, 1] = want[0, 1, 0] = want[1, 0, 0] = 1.0 / 1.5 ** 2
        want[1, 1, 1] = 1.0 / 1.5 ** 3
        np.testing.assert_allclose(json.loads(out)["C"], want, rtol=1e-13,
                                   atol=1e-14)

    # from 371 nodes NumPy's Gauss-Hermite weights are NaN, and 100000 nodes
    # would ask for a 74.5 GiB array; both are refused before any node table
    @pytest.mark.parametrize("nodes", ["371", "100000"])
    @pytest.mark.parametrize("command", [
        ("tensor",), ("check", "--what", "closedness")], ids=["tensor", "check"])
    def test_too_many_quad_nodes_exit_2(self, capsys, command, nodes):
        code, out, err = run(capsys, command[0], "--model", "gaussian1d",
                             *command[1:], "--theta", "0.5,1.5",
                             "--quad-nodes", nodes)
        assert code == 2 and out == ""
        assert f"--quad-nodes {nodes}" in json.loads(err)["error"]

    # 370 nodes per sample dimension are 370^3 nodes per point on
    # gaussian_mv:3, a 1.13 GiB node table; the total is refused first
    @pytest.mark.parametrize("command", [
        ("tensor",), ("check", "--what", "closedness")], ids=["tensor", "check"])
    def test_too_many_grid_nodes_exit_2(self, capsys, monkeypatch, command):
        from weylprior import numerics
        grids = []
        inner = numerics._node_grid

        def recorded(k, dim):
            grids.append((k, dim))
            # a table this large is never built, even if the bound regresses
            assert k ** dim <= numerics.MAX_GRID_NODES, (k, dim)
            return inner(k, dim)

        monkeypatch.setattr(numerics, "_node_grid", recorded)
        code, out, err = run(capsys, command[0], "--model", "gaussian_mv:3",
                             *command[1:], "--theta", "0,0,0,1,0,0,1,0,1",
                             "--quad-nodes", "370")
        assert code == 2 and out == ""
        assert "--quad-nodes 370" in json.loads(err)["error"]
        assert (370, 3) not in grids

    # 22^4 nodes per point on gaussian_mv:4 (m = 14) pass 64^3, but one
    # point's score products would take 22^4 * 14^2 doubles (367 MB); the
    # rule is refused before any node table is built
    @pytest.mark.parametrize("command", [
        ("tensor",), ("check", "--what", "closedness")], ids=["tensor", "check"])
    def test_too_many_score_products_exit_2(self, capsys, monkeypatch, command):
        from weylprior import numerics
        inner = numerics._node_grid

        def guarded(k, dim):
            assert (k, dim) != (22, 4)
            return inner(k, dim)

        monkeypatch.setattr(numerics, "_node_grid", guarded)
        code, out, err = run(capsys, command[0], "--model", "gaussian_mv:4",
                             *command[1:], "--theta", "0,0,0,0,1,0,0,0,1,0,0,1,0,1",
                             "--quad-nodes", "22")
        assert code == 2 and out == ""
        assert json.loads(err)["error"].startswith(
            "--quad-nodes 22: a 22-node rule of model 'gaussian_mv:4' needs "
            "234256 nodes per point; at most 171196")

    # no rule of 4 or more nodes per sample dimension fits these families:
    # gaussian_mv:9 at 4 nodes would ask for a 5.70 GiB array, and
    # gaussian_mv:100000 for 5e9 vech index pairs before any tensor call
    @pytest.mark.parametrize("n,flags", [
        ("9", ("--quad-nodes", "4")), ("100000", ()),
        ("1000000000000000000", ())], ids=["9", "1e5", "1e18"])
    def test_gaussian_mv_too_large_to_build_exit_2(self, capsys, monkeypatch,
                                                   n, flags):
        from weylprior import models
        inner = models.vech_indices

        def guarded(k):
            assert k <= 7
            return inner(k)

        monkeypatch.setattr(models, "vech_indices", guarded)
        code, out, err = run(capsys, "tensor", "--model", f"gaussian_mv:{n}",
                             "--theta", "0", *flags)
        assert code == 2 and out == ""
        assert json.loads(err)["error"].startswith(
            f"gaussian_mv:{n}: {n} sample dimensions need at least 4^{n} ")

    def test_max_quad_nodes_works(self, capsys):
        code, out, _ = run(capsys, "tensor", "--model", "gaussian1d",
                           "--theta", "0,1", "--quad-nodes", "370")
        assert code == 0
        np.testing.assert_allclose(json.loads(out)["g"], [[1.0, 0.0], [0.0, 0.5]],
                                   atol=1e-12)

    def test_output_bytes_do_not_depend_on_blas_threads(self):
        # at m = 9 the contraction kernels' matrix products are large enough
        # for OpenBLAS to split them over threads; the split must not move a bit
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run(
                [sys.executable, "-m", "weylprior.cli", "tensor",
                 "--model", "gaussian_mv:3",
                 "--theta", "0.1,0,0.2,1.3,0.2,0.1,1.1,0.3,0.9"],
                env=env, capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr.decode()[-2000:]
            outs.append(proc.stdout)
        assert len(json.loads(outs[0])["C"]) == 9
        assert outs[0] == outs[1]

    def test_unknown_model_exit_2(self, capsys):
        code, _, err = run(capsys, "tensor", "--model", "weibull",
                           "--theta", "1,1")
        assert code == 2
        assert "error" in json.loads(err)


class TestCheck:
    @pytest.mark.parametrize("what", ["closedness", "duality", "weyl-compat",
                                      "trace-identity", "nabla-g", "gauge"])
    def test_passing_checks(self, capsys, what):
        code, out, _ = run(capsys, "check", "--model", "gaussian1d",
                           "--what", what, "--theta", "0.5,1.5")
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["max_residual"] < payload["tolerance"]
        assert code == 0

    def test_ricci_symmetry_alpha(self, capsys):
        code, out, _ = run(capsys, "check", "--model", "poisson",
                           "--what", "ricci-symmetry", "--theta", "2.0",
                           "--alpha", "-2.0")
        assert code == 0
        assert json.loads(out)["pass"] is True

    # N((a, b), diag(e^b, e^a)) is not closed (its curl is 0.0345, -0.00348
    # and -0.0880 at these points); the product family diag(e^a, e^b) is closed
    @pytest.mark.parametrize("swap", [True, False], ids=["curved", "product"])
    @pytest.mark.parametrize("theta", ["0.3,-0.2", "1.0,0.5", "-0.7,0.9"])
    def test_closedness_of_a_test_local_family(self, capsys, monkeypatch, swap,
                                               theta):
        monkeypatch.setattr(cli, "get_model", lambda model_id: diagonal_gaussian(swap))
        code, out, _ = run(capsys, "check", "--model", "diagonal_gaussian",
                           "--what", "closedness", f"--theta={theta}")
        payload = json.loads(out)
        assert payload["pass"] is not swap
        assert code == (1 if swap else 0)
        assert (payload["max_residual"] > 3e-3) is swap

    @pytest.mark.parametrize("step", ["0", "-5", "nan"])
    def test_bad_fd_step_exit_2(self, capsys, step):
        code, _, err = run(capsys, "check", "--model", "gaussian1d",
                           "--what", "closedness", "--theta", "0.5,1.5",
                           "--fd-step", step)
        assert code == 2
        assert f"--fd-step {float(step)}" in json.loads(err)["error"]

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", [
        ("check", "--what", "duality", "--theta", "0.5,1.5"),
        ("prior", "--kind", "alpha", "--anchor", "0,1",
         "--grid", "mu=-1:1:3,s2=0.5:2:3", "--out", os.devnull),
        ("posterior", "--prior-kind", "jeffreys", "--demo-n", "5",
         "--seed", "1", "--grid", "mu=-1:1:3,s2=0.5:2:3", "--out", os.devnull),
    ], ids=["check", "prior", "posterior"])
    def test_non_finite_alpha_exit_2(self, capsys, command, alpha):
        code, out, err = run(capsys, command[0], "--model", "gaussian1d",
                             *command[1:], f"--alpha={alpha}")
        assert code == 2 and out == ""
        assert f"--alpha {float(alpha)}" in json.loads(err)["error"]

    @pytest.mark.parametrize("command,theta,count", [
        (("tensor",), "0,1,2", 3),
        (("check", "--what", "closedness"), "0,1,2", 3),
        (("check", "--what", "gauge"), "0", 1),
    ], ids=["tensor", "closedness", "gauge"])
    def test_wrong_length_theta_names_coordinate_count(self, capsys, command,
                                                       theta, count):
        code, out, err = run(capsys, command[0], "--model", "gaussian1d",
                             *command[1:], "--theta", theta)
        assert code == 2 and out == ""
        message = json.loads(err)["error"]
        assert f"has {count} coordinate(s)" in message and "dimension 2" in message

    def test_fd_step_is_check_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tensor", "--model", "gaussian1d", "--theta", "0,1",
                  "--fd-step", "1e-3"])
        assert exc.value.code == 2


class TestPrior:
    def test_grid_too_large_to_hold_exit_2(self, capsys, monkeypatch, tmp_path):
        # 1e11 rates would take 745 GiB for the axis values alone
        from weylprior import priors
        inner = priors.Axis.values

        def guarded(axis):
            assert axis.count <= 10 ** 6
            return inner(axis)

        monkeypatch.setattr(priors.Axis, "values", guarded)
        out_path = tmp_path / "x.csv"
        code, out, err = run(capsys, "prior", "--model", "poisson", "--kind",
                             "jeffreys", "--grid", "lam=0.5:8:100000000000",
                             "--out", str(out_path))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == (
            "grid axis counts [100000000000] give 100000000000 points; at most "
            "447392 for 1 axis(es)")
        assert not out_path.exists()

    @pytest.mark.parametrize("kind", [("weyl",), ("alpha", "--alpha", "1")],
                             ids=["weyl", "alpha"])
    def test_potential_of_a_family_that_is_not_closed(self, capsys, monkeypatch,
                                                      tmp_path, kind):
        monkeypatch.setattr(cli, "get_model", lambda model_id: diagonal_gaussian(True))
        out_path = tmp_path / "prior.csv"
        code, out, err = run(capsys, "prior", "--model", "diagonal_gaussian",
                             "--kind", *kind, "--anchor", "0,0",
                             "--grid", "a=-1:1:3,b=0:2:3", "--out", str(out_path))
        assert code == 2 and out == ""
        assert "Weyl 1-form is not closed" in json.loads(err)["error"]
        assert not out_path.exists()

    def test_weyl_csv(self, capsys, tmp_path):
        out_path = tmp_path / "weyl.csv"
        code, _, _ = run(capsys, "prior", "--model", "gaussian1d",
                         "--kind", "weyl", "--anchor", "0,1",
                         "--grid", "mu=-1:1:3,s2=0.5:2:3",
                         "--out", str(out_path))
        assert code == 0
        names, pts, vals = read_csv(out_path)
        assert names == ["mu", "s2"]
        assert pts.shape == (9, 2)
        np.testing.assert_allclose(vals, 1.0 / np.sqrt(2.0), rtol=1e-8)

    def test_normalize(self, capsys, tmp_path):
        out_path = tmp_path / "weyl.csv"
        code, _, _ = run(capsys, "prior", "--model", "gaussian1d",
                         "--kind", "weyl", "--anchor", "0,1", "--normalize",
                         "--grid", "mu=-2:2:11,s2=0.25:16:11:log",
                         "--out", str(out_path))
        assert code == 0
        _, pts, vals = read_csv(out_path)
        grid = GridSpec((Axis("mu", -2.0, 2.0, 11),
                         Axis("s2", 0.25, 16.0, 11, "log")))
        assert vals @ grid.cell_volumes() == pytest.approx(1.0, abs=1e-12)
        field = normalize_field(weyl_prior_field(get_model("gaussian1d"), grid,
                                                 np.array([0.0, 1.0])))
        assert pts.tolist() == field.points.tolist()
        assert vals.tolist() == field.values.tolist()

    def test_determinism_byte_identical(self, capsys, tmp_path):
        args = ("prior", "--model", "gaussian1d", "--kind", "jeffreys",
                "--grid", "mu=-1:1:3,s2=0.5:2:3")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("args", [
        ("prior", "--kind", "weyl", "--anchor", "0,1"),
        ("posterior", "--prior-kind", "weyl", "--anchor", "0,1",
         "--demo-n", "20", "--seed", "4"),
    ], ids=["prior", "posterior"])
    def test_weyl_runs_byte_identical(self, capsys, tmp_path, args):
        args = args[:1] + ("--model", "gaussian1d",
                           "--grid", "mu=-1:1:3,s2=0.5:2:3") + args[1:]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, *args, "--out", str(a))[0] == 0
        assert run(capsys, *args, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_alpha_requires_alpha(self, capsys, tmp_path):
        code, _, err = run(capsys, "prior", "--model", "gaussian1d",
                           "--kind", "alpha", "--anchor", "0,1",
                           "--grid", "mu=0:0:1,s2=1:1:1",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "alpha" in json.loads(err)["error"]

    @pytest.mark.parametrize("kind", [("weyl",), ("alpha", "--alpha", "1")],
                             ids=["weyl", "alpha"])
    def test_one_point_grid(self, capsys, tmp_path, kind):
        # a one-point grid has no edges: the sweep evaluates the 1-form on an
        # empty stack
        out_path = tmp_path / "one.csv"
        code, _, err = run(capsys, "prior", "--model", "gaussian1d",
                           "--kind", *kind, "--anchor", "0,1",
                           "--grid", "mu=0:0:1,s2=1:1:1", "--out", str(out_path))
        assert code == 0, err
        names, pts, vals = read_csv(out_path)
        assert pts.tolist() == [[0.0, 1.0]]
        assert vals.tolist() == [1.0 / np.sqrt(2.0)]

    def test_bad_grid_syntax(self, capsys, tmp_path):
        for axis in ("mu=-1:1", "mu", "mu=-1:1:x"):
            code, _, err = run(capsys, "prior", "--model", "gaussian1d",
                               "--kind", "jeffreys", "--grid", axis + ",s2=0.5:2:3",
                               "--out", str(tmp_path / "x.csv"))
            assert code == 2
            assert f"bad grid axis {axis!r}" in json.loads(err)["error"]
            assert not (tmp_path / "x.csv").exists()

    def test_unknown_grid_spacing(self, capsys, tmp_path):
        code, _, err = run(capsys, "prior", "--model", "gaussian1d",
                           "--kind", "jeffreys", "--grid", "mu=0:1:3:lin",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "'lin'" in json.loads(err)["error"]
        assert not (tmp_path / "x.csv").exists()


    def test_weyl_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the Weyl 1-form's trace kernel is batched matrix products, like the
        # metric's; OpenBLAS threads must not move a bit of the field
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            out_path = tmp_path / f"weyl-{threads}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "weylprior.cli", "prior",
                 "--model", "gaussian_mv:2", "--kind", "weyl",
                 "--anchor", "0,0,1,0,1",
                 "--grid", "mu0=0:0:1,mu1=-0.5:0.5:2,s00=0.8:1.6:3,"
                           "s01=-0.2:0.2:2,s11=0.9:1.4:2",
                 "--out", str(out_path)],
                env=env, capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr.decode()[-2000:]
            outs.append(out_path.read_bytes())
        assert len(read_csv(tmp_path / "weyl-1.csv")[2]) == 24
        assert outs[0] == outs[1]

    def test_axis_count_differs_from_chart_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "prior", "--model", "gaussian1d",
                           "--kind", "jeffreys", "--grid", "mu=-2:2:3",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        message = json.loads(err)["error"]
        assert "1 coordinate(s)" in message and "dimension 2" in message


class TestPosterior:
    GRID = "mu=-2:2:9,s2=0.25:4:9"

    def test_demo_runs_and_normalizes(self, capsys, tmp_path):
        out_path = tmp_path / "post.csv"
        code, _, _ = run(capsys, "posterior", "--model", "gaussian1d",
                         "--prior-kind", "jeffreys", "--grid", self.GRID,
                         "--demo-n", "200", "--seed", "5",
                         "--out", str(out_path))
        assert code == 0
        rows = out_path.read_text().strip().splitlines()
        assert rows[0] == "mu,s2,log_density,mass"
        masses = np.array([float(r.split(",")[-1]) for r in rows[1:]])
        assert masses.sum() == pytest.approx(1.0, abs=1e-10)

    def test_demo_needs_seed(self, capsys, tmp_path):
        code, _, err = run(capsys, "posterior", "--model", "gaussian1d",
                           "--grid", self.GRID, "--demo-n", "10",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "seed" in json.loads(err)["error"]

    @pytest.mark.parametrize("flags, message", [
        (("--demo-n=-5", "--seed", "1"), "--demo-n -5"),
        (("--demo-n", "0", "--seed", "1"), "--demo-n 0"),
        (("--demo-n", "10", "--seed=-1"), "--seed -1"),
        (("--demo-n", "10", "--seed", "1", "--demo-theta", "1,-2"),
         "--demo-theta"),
        (("--demo-n", "10", "--seed", "1", "--demo-theta", "1"),
         "--demo-theta"),
    ], ids=["negative-n", "zero-n", "negative-seed", "outside", "short"])
    def test_bad_demo_flags_exit_2(self, capsys, tmp_path, flags, message):
        out_path = tmp_path / "x.csv"
        code, out, err = run(capsys, "posterior", "--model", "gaussian1d",
                             "--grid", self.GRID, *flags, "--out", str(out_path))
        assert code == 2 and out == ""
        assert message in json.loads(err)["error"]
        assert not out_path.exists()

    def test_needs_grid_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "posterior", "--model", "gaussian1d",
                           "--demo-n", "10", "--seed", "1",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "--grid" in json.loads(err)["error"]

    def test_prior_file_round_trip(self, capsys, tmp_path):
        prior_path = tmp_path / "prior.csv"
        run(capsys, "prior", "--model", "gaussian1d", "--kind", "jeffreys",
            "--grid", self.GRID, "--out", str(prior_path))
        direct = tmp_path / "direct.csv"
        via_file = tmp_path / "via_file.csv"
        common = ("--model", "gaussian1d", "--demo-n", "100", "--seed", "5")
        run(capsys, "posterior", *common, "--prior-kind", "jeffreys",
            "--grid", self.GRID, "--out", str(direct))
        run(capsys, "posterior", *common, "--prior-file", str(prior_path),
            "--grid", self.GRID, "--out", str(via_file))
        assert direct.read_bytes() == via_file.read_bytes()

    @pytest.mark.parametrize("grid", ["mu=-1:1:9,s2=0.25:4:9",
                                      "mu=-2:2:8,s2=0.25:4:9", "mu=-2:2:9"],
                             ids=["other-values", "other-count", "other-dimension"])
    def test_prior_file_grid_mismatch_exit_2(self, capsys, tmp_path, grid):
        prior_path = tmp_path / "prior.csv"
        run(capsys, "prior", "--model", "gaussian1d", "--kind", "jeffreys",
            "--grid", self.GRID, "--out", str(prior_path))
        out_path = tmp_path / "post.csv"
        code, out, err = run(capsys, "posterior", "--model", "gaussian1d",
                             "--demo-n", "10", "--seed", "1",
                             "--prior-file", str(prior_path), "--grid", grid,
                             "--out", str(out_path))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == (
            "--grid does not match the points in --prior-file")
        assert not out_path.exists()

    def test_data_file(self, capsys, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text("\n".join(repr(float(v)) for v in
                                  np.random.default_rng(1).normal(0, 1, 50)))
        out_path = tmp_path / "post.csv"
        code, _, _ = run(capsys, "posterior", "--model", "gaussian1d",
                         "--grid", self.GRID, "--data", str(data),
                         "--out", str(out_path))
        assert code == 0

    def test_vanishing_likelihood_exit_2(self, capsys, tmp_path):
        # the error names the first row whose log-density is -inf at every
        # grid point
        for rows, row in ((["0.5", "1e200"], 2), (["1e200", "0.5"], 1)):
            data = tmp_path / "obs.csv"
            data.write_text("\n".join(rows) + "\n")
            out_path = tmp_path / "post.csv"
            code, out, err = run(capsys, "posterior", "--model", "gaussian1d",
                                 "--grid", self.GRID, "--data", str(data),
                                 "--out", str(out_path))
            assert code == 2 and out == ""
            assert json.loads(err)["error"] == (
                f"data has vanishing likelihood at every grid point: {data}: "
                f"row {row}: observation 1e+200 has log-density -inf at every "
                "grid point")
            assert not out_path.exists()

    @pytest.mark.parametrize("model, grid, rows, bad", [
        ("bernoulli", "p=0.1:0.9:5", ["0", "1", "2"], "row 3: observation 2.0"),
        ("poisson", "lam=0.5:5:5", ["3", "1.5", "0"], "row 2: observation 1.5"),
        ("poisson", "lam=0.5:5:5", ["3", "-2"], "row 2: observation -2.0"),
    ])
    def test_observation_outside_sample_space_exit_2(self, capsys, tmp_path,
                                                     model, grid, rows, bad):
        data = tmp_path / "obs.csv"
        data.write_text("\n".join(rows) + "\n")
        out_path = tmp_path / "post.csv"
        code, _, err = run(capsys, "posterior", "--model", model,
                           "--grid", grid, "--data", str(data),
                           "--out", str(out_path))
        assert code == 2
        assert bad in json.loads(err)["error"]
        assert not out_path.exists()


def _openblas_on_x86_64():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return ("openblas" in blas.get("name", "").lower()
            and platform.machine().lower() in ("x86_64", "amd64"))


class TestTables:
    """The prior and posterior CSVs, and the tables ``posterior`` reads."""

    GRID = "mu=-1:1:3,s2=0.5:2:3"
    MV2_GRID = "mu0=0:0:1,mu1=0:0:1,s00=1:1:1,s01=0:0:1,s11=1:1:1"

    def _prior(self, capsys, tmp_path):
        path = tmp_path / "prior.csv"
        code, _, _ = run(capsys, "prior", "--model", "gaussian1d", "--kind",
                         "jeffreys", "--grid", self.GRID, "--out", str(path))
        assert code == 0
        return path

    def test_rows_end_in_lf(self, capsys, tmp_path):
        prior = self._prior(capsys, tmp_path)
        post = tmp_path / "post.csv"
        code, _, _ = run(capsys, "posterior", "--model", "gaussian1d",
                         "--prior-file", str(prior), "--grid", self.GRID,
                         "--demo-n", "10", "--seed", "1", "--out", str(post))
        assert code == 0
        for path, header in ((prior, b"mu,s2,value"),
                             (post, b"mu,s2,log_density,mass")):
            data = path.read_bytes()
            assert b"\r" not in data
            lines = data.split(b"\n")
            assert lines[0] == header and lines[-1] == b""
            assert len(lines) == 11

    @pytest.mark.parametrize("grid, message", [
        ("mu=-1:1:3,s2=0.5:2.00001:3",
         "--grid does not match the points in --prior-file"),
        ("a=-1:1:3,b=0.5:2:3",
         "--grid axes ['a', 'b'] do not match the columns ['mu', 's2'] of "
         "--prior-file"),
    ], ids=["points-5e-6-apart", "other-names"])
    def test_prior_file_must_match_exactly(self, capsys, tmp_path, grid,
                                           message):
        prior = self._prior(capsys, tmp_path)
        out_path = tmp_path / "post.csv"
        code, out, err = run(capsys, "posterior", "--model", "gaussian1d",
                             "--prior-file", str(prior), "--grid", grid,
                             "--demo-n", "10", "--seed", "1",
                             "--out", str(out_path))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == message
        assert not out_path.exists()

    # each case turns line 3 of a table (its second row) into a bad row
    MALFORMED = {
        "abc": (lambda cells: ["abc"] + cells[1:],
                "could not convert string to float: 'abc'"),
        "short-row": (lambda cells: cells[:-1], "expected {width} column(s)"),
        "nan": (lambda cells: cells[:-1] + ["nan"],
                "'nan' is not a finite number"),
        "1e400": (lambda cells: cells[:-1] + ["1e400"],
                  "'1e400' is not a finite number"),
    }

    def _posterior(self, capsys, tmp_path, flag, path):
        """Run ``posterior`` reading ``path`` as ``flag``."""
        if flag == "--prior-file":
            model = ("--model", "gaussian1d", "--grid", self.GRID,
                     "--demo-n", "10", "--seed", "1")
        else:
            model = ("--model", "gaussian_mv:2", "--grid", self.MV2_GRID)
        out_path = tmp_path / "post.csv"
        return (*run(capsys, "posterior", *model, flag, str(path),
                     "--out", str(out_path)), out_path)

    def _table(self, capsys, tmp_path, flag):
        """The lines of a valid table for ``flag``."""
        if flag == "--prior-file":
            return self._prior(capsys, tmp_path).read_text().splitlines()
        return ["0.5,-0.25", "1.0,2.0", "-1.5,0.0"]

    @pytest.mark.parametrize("case", list(MALFORMED))
    @pytest.mark.parametrize("flag", ["--prior-file", "--data"])
    def test_malformed_row_exit_2(self, capsys, tmp_path, flag, case):
        edit, message = self.MALFORMED[case]
        lines = self._table(capsys, tmp_path, flag)
        cells = lines[2].split(",")
        lines[2] = ",".join(edit(cells))
        path = tmp_path / "table.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, err, out_path = self._posterior(capsys, tmp_path, flag, path)
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error.startswith(f"{path}:3: ")
        assert message.format(width=len(cells)) in error
        assert not out_path.exists()

    @pytest.mark.parametrize("flag", ["--prior-file", "--data"])
    def test_blank_lines_are_skipped(self, capsys, tmp_path, flag):
        lines = self._table(capsys, tmp_path, flag)
        clean, blank = tmp_path / "clean.csv", tmp_path / "blank.csv"
        clean.write_text("\n".join(lines) + "\n")
        blank.write_text("\n".join(lines[:2] + ["", "  "] + lines[2:])
                         + "\n\n\r\n")
        outs = []
        for path in (clean, blank):
            code, _, err, out_path = self._posterior(capsys, tmp_path, flag,
                                                     path)
            assert code == 0, err
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1]

    # under a valid header, a --prior-file reaches the row parser
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(text=st.text(alphabet="0123456789,.-+eEnaif \n\r", max_size=40))
    @pytest.mark.parametrize("flag, header", [
        ("--data", ""), ("--prior-file", ""),
        ("--prior-file", "mu,s2,value\n")], ids=["data", "prior", "prior-rows"])
    def test_arbitrary_table_exit_0_or_2(self, flag, header, text):
        with tempfile.TemporaryDirectory() as tmp:
            path, out_path = Path(tmp, "table.csv"), Path(tmp, "post.csv")
            path.write_bytes((header + text).encode())
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["posterior", "--model", "gaussian1d",
                             "--grid", self.GRID, "--demo-n", "5", "--seed", "1",
                             flag, str(path), "--out", str(out_path)])
            assert code in (0, 2)
            if code == 2:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and "error" in json.loads(lines[0])
                assert not out_path.exists()

    @pytest.mark.skipif(not _openblas_on_x86_64(),
                        reason="OPENBLAS_CORETYPE selects an OpenBLAS kernel "
                               "on x86-64 only")
    def test_readme_outputs_agree_across_blas_kernels(self, tmp_path):
        # byte identity holds for one NumPy/BLAS build on one kernel; on
        # another kernel the sums round differently.  Measured against the
        # Prescott kernel: prior values 1.6e-15 and posterior log-densities
        # 7.8e-14 apart (relative), masses 1.3e-17 apart (absolute)
        src = str(Path(__file__).resolve().parents[1] / "src")
        tables = {}
        for coretype in (None, "Prescott"):
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            env.pop("OPENBLAS_CORETYPE", None)
            if coretype:
                env["OPENBLAS_CORETYPE"] = coretype
            for argv in cli_commands():
                if argv[0] not in ("prior", "posterior"):
                    continue
                k = argv.index("--out") + 1
                argv[k] = str(tmp_path / f"{coretype}-{argv[k]}")
                proc = subprocess.run([sys.executable, "-m", "weylprior.cli",
                                       *argv], env=env, capture_output=True,
                                      timeout=120)
                assert proc.returncode == 0, proc.stderr.decode()[-2000:]
                tables[coretype, argv[0]] = np.loadtxt(argv[k], delimiter=",",
                                                       skiprows=1)
        for command in ("prior", "posterior"):
            np.testing.assert_allclose(tables["Prescott", command],
                                       tables[None, command],
                                       rtol=1e-12, atol=1e-15)


class TestVerifyAll:
    @pytest.mark.parametrize("model", ["bernoulli", "poisson"])
    def test_discrete_models_pass(self, capsys, model):
        code, out, _ = run(capsys, "verify-all", "--model", model)
        assert code == 0
        lines = out.strip().splitlines()
        summary = json.loads(lines[-1])
        assert summary["failures"] == 0
        assert summary["checks"] == len(lines) - 1
        for line in lines[:-1]:
            assert json.loads(line)["pass"] is True

    @pytest.mark.parametrize("model,chart", [
        (m, c) for m in ("gaussian1d", "gaussian_mv:2", "bernoulli", "poisson")
        for c in sorted(get_model(m).charts)])
    def test_every_chart_passes(self, capsys, model, chart):
        code, out, _ = run(capsys, "verify-all", "--model", model,
                           "--chart", chart)
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 0 and lines[-1]["failures"] == 0, lines[-1]
        # the default points are read in the reference chart and checked
        # at their coordinates in --chart
        ch = get_model(model).chart(chart)
        first = ch.from_reference(_test_points(get_model(model))[0])
        assert lines[0]["theta"] == first.tolist()


    def test_suite_order_and_check_names(self, capsys):
        # the output order of verify-all's per-point checks is part of its
        # format, and ``check --what`` runs each of them alone
        code, out, _ = run(capsys, "verify-all", "--model", "bernoulli")
        assert code == 0
        labels = [json.loads(line)["check"] for line in out.splitlines()[:-1]]
        want = (["closedness", "weyl-compat", "trace-identity", "gauge"]
                + [f"{what}(alpha={alpha})" for alpha in (-2.0, 0.0, 1.0)
                   for what in ("duality", "nabla-g")]
                + [f"ricci-symmetry(alpha={alpha})"
                   for alpha in (-2.0, 0.0, 1.0, 2.0)])
        assert labels == want * len(_test_points(get_model("bernoulli")))
        assert [label for label, _, _ in cli.SUITE] == want
        for what in dict.fromkeys(what for _, what, _ in cli.SUITE):
            code, out, _ = run(capsys, "check", "--model", "gaussian1d",
                               "--what", what, "--theta", "0.5,1.5")
            assert code == 0 and json.loads(out)["check"] == what

    # verify-all writes no file, so it takes no --out; prior and posterior
    # write one, so they need it
    @pytest.mark.parametrize("argv", [
        ["verify-all", "--model", "bernoulli", "--out", "x.json"],
        ["prior", "--model", "gaussian1d", "--kind", "jeffreys",
         "--grid", "mu=-1:1:3,s2=0.5:2:3"],
        ["posterior", "--model", "gaussian1d", "--grid", "mu=-1:1:3,s2=0.5:2:3",
         "--demo-n", "5", "--seed", "1"],
    ], ids=["verify-all", "prior", "posterior"])
    def test_out_only_where_a_file_is_written(self, capsys, monkeypatch,
                                              tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["", "missing/x.csv"], ids=["empty", "no-dir"])
    def test_out_that_cannot_be_opened_exit_2(self, capsys, monkeypatch,
                                              tmp_path, out):
        monkeypatch.chdir(tmp_path)
        code, stdout, err = run(capsys, "prior", "--model", "gaussian1d",
                                "--kind", "jeffreys", "--grid",
                                "mu=-1:1:3,s2=0.5:2:3", "--out", out)
        assert code == 2 and stdout == ""
        assert "No such file or directory" in json.loads(err)["error"]


# ---------------------------------------------------------------------------
# the CLI contract for bad numeric input: exit 2, one JSON error object on
# stderr, nothing on stdout

FINITE = st.floats(-1e6, 1e6, allow_nan=False)
NON_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf")])


def _vector(values):
    return ",".join(repr(float(v)) for v in values)


# gaussian1d points (mu, s2) that are not interior: a wrong coordinate count,
# a non-finite coordinate, or s2 <= 0
BAD_POINTS = st.one_of(
    st.lists(FINITE, min_size=1, max_size=4).filter(lambda v: len(v) != 2),
    st.tuples(FINITE, st.floats(max_value=0.0, allow_nan=False,
                                allow_infinity=False)),
    st.tuples(NON_FINITE, FINITE),
    st.tuples(FINITE, NON_FINITE),
).map(_vector)

BAD_ALPHA = st.tuples(st.just("alpha"), NON_FINITE.map(repr))
BAD_CASES = st.one_of(
    st.tuples(st.just("check"), st.one_of(
        BAD_ALPHA,
        st.tuples(st.just("theta"), BAD_POINTS))),
    st.tuples(st.just("prior"), st.one_of(
        BAD_ALPHA,
        st.tuples(st.just("anchor"), BAD_POINTS))),
)


def _argv(command, flag, value, what):
    """A valid ``check`` or ``prior`` invocation with one flag set to a bad
    value; ``--flag=value`` keeps values such as -inf from reading as flags."""
    if command == "check":
        head = ["check", "--model", "gaussian1d", "--what", what]
        flags = {"theta": "0.5,1.5", "alpha": "1"}
    else:
        head = ["prior", "--model", "gaussian1d", "--kind", "alpha",
                "--grid", "mu=-1:1:3,s2=0.5:2:3", "--out", os.devnull]
        flags = {"anchor": "0,1", "alpha": "1"}
    flags[flag] = value
    return head + [f"--{k}={v}" for k, v in flags.items()]


class TestBadInputContract:
    @settings(max_examples=50, deadline=None)
    @given(case=BAD_CASES,
           what=st.sampled_from(["closedness", "duality", "gauge", "nabla-g"]))
    def test_exit_2_with_one_json_error(self, case, what):
        command, (flag, value) = case
        argv = _argv(command, flag, value, what)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 2, argv
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert "error" in json.loads(lines[0])

    @pytest.mark.parametrize("argv", [
        ["check", "--model", "poisson", "--what", "closedness", "--theta", "1e18"],
        ["tensor", "--model", "poisson", "--theta", "1e20"],
        ["tensor", "--model", "poisson", "--chart", "natural", "--theta", "800"],
    ], ids=["check-1e18", "tensor-1e20", "tensor-natural-800"])
    def test_poisson_support_beyond_the_node_bound(self, argv):
        # a stray RuntimeWarning (an int cast or an exp overflow) fails here
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        assert code == 2, argv
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert "error" in json.loads(lines[0])

    @pytest.mark.parametrize("model_id,eta", [
        ("bernoulli", "800"), ("bernoulli", "-800"), ("poisson", "-800")])
    def test_natural_parameter_without_a_member(self, model_id, eta):
        # e^eta overflows or underflows, so the reference image (p = 1 or 0,
        # rate 0) is no member of the family
        argv = ["tensor", "--model", model_id, "--chart", "natural", f"--theta={eta}"]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        assert code == 2
        assert out.getvalue() == ""
        assert "is not interior" in json.loads(err.getvalue())["error"]

    @pytest.mark.parametrize("eta", ["-707", "-745", "-745.1"])
    def test_poisson_natural_parameter_with_a_tiny_rate(self, eta):
        # the rate e^eta is representable, so the point is interior, but the
        # score x / rate overflows on the support's counts; the metric check
        # names the point, and no RuntimeWarning escapes
        argv = ["tensor", "--model", "poisson", "--chart", "natural", f"--theta={eta}"]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        assert code == 2
        assert out.getvalue() == ""
        assert json.loads(err.getvalue())["error"] == (
            f"non-finite Fisher metric at theta=[{float(eta)}]")

    @pytest.mark.parametrize("eta", ["-707", "-745"])
    def test_closedness_names_the_point_asked_for(self, capsys, eta):
        # closedness differences the 1-form on theta's stencil and never
        # evaluates theta itself, so a stencil point's metric fails first
        code, out, err = run(capsys, "check", "--model", "poisson", "--chart",
                             "natural", "--what", "closedness", f"--theta={eta}")
        assert code == 2 and out == ""
        assert json.loads(err)["error"].startswith(
            f"the Weyl 1-form at theta=[{float(eta)}] cannot be differenced: "
            f"non-finite Fisher metric at theta=[")

    @pytest.mark.parametrize("eta", ["-355", "-700", "-709.78"])
    def test_bernoulli_natural_parameter_with_a_tiny_slope(self, capsys, eta):
        # the chart's slope dp/deta = p (1 - p), once (1 + e^-eta)^2 in a
        # denominator, which overflowed from eta = -355
        code, out, _ = run(capsys, "tensor", "--model", "bernoulli",
                           "--chart", "natural", f"--theta={eta}")
        assert code == 0
        payload = json.loads(out)
        want = np.exp(float(eta)) / (1.0 + np.exp(float(eta))) ** 2
        assert payload["g"][0][0] == pytest.approx(want, rel=1e-12)
        assert payload["C"][0][0][0] == pytest.approx(want, rel=1e-12)

    def test_widest_poisson_support_is_accepted(self, capsys):
        code, out, _ = run(capsys, "tensor", "--model", "poisson",
                           "--theta", "2.5e5")
        assert code == 0
        assert json.loads(out)["g"][0][0] == pytest.approx(1 / 2.5e5, rel=1e-9)
