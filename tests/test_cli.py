"""CLI behavior: output formats, exit codes, determinism."""

import json

import numpy as np
import pytest

from weylprior.cli import main
from weylprior.priors import read_csv


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

    def test_too_few_quad_nodes_exit_2(self, capsys):
        code, _, err = run(capsys, "tensor", "--model", "gaussian1d",
                           "--theta", "0,1", "--quad-nodes", "1")
        assert code == 2
        assert "--quad-nodes 1" in json.loads(err)["error"]

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

    @pytest.mark.parametrize("step", ["0", "-5", "nan"])
    def test_bad_fd_step_exit_2(self, capsys, step):
        code, _, err = run(capsys, "check", "--model", "gaussian1d",
                           "--what", "closedness", "--theta", "0.5,1.5",
                           "--fd-step", step)
        assert code == 2
        assert f"--fd-step {float(step)}" in json.loads(err)["error"]

    def test_fd_step_is_check_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tensor", "--model", "gaussian1d", "--theta", "0,1",
                  "--fd-step", "1e-3"])
        assert exc.value.code == 2


class TestPrior:
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

    def test_determinism_byte_identical(self, capsys, tmp_path):
        args = ("prior", "--model", "gaussian1d", "--kind", "jeffreys",
                "--grid", "mu=-1:1:3,s2=0.5:2:3")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, *args, "--out", str(a))
        run(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_alpha_requires_alpha(self, capsys, tmp_path):
        code, _, err = run(capsys, "prior", "--model", "gaussian1d",
                           "--kind", "alpha", "--anchor", "0,1",
                           "--grid", "mu=0:0:1,s2=1:1:1",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "alpha" in json.loads(err)["error"]

    def test_bad_grid_syntax(self, capsys, tmp_path):
        code, _, err = run(capsys, "prior", "--model", "gaussian1d",
                           "--kind", "jeffreys", "--grid", "mu=-1:1",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "grid axis" in json.loads(err)["error"]


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

    def test_data_file(self, capsys, tmp_path):
        data = tmp_path / "obs.csv"
        data.write_text("\n".join(repr(float(v)) for v in
                                  np.random.default_rng(1).normal(0, 1, 50)))
        out_path = tmp_path / "post.csv"
        code, _, _ = run(capsys, "posterior", "--model", "gaussian1d",
                         "--grid", self.GRID, "--data", str(data),
                         "--out", str(out_path))
        assert code == 0


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
