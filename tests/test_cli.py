"""Config validation, CLI exit codes, CSV schemas, and determinism."""

import csv
import json
import math
import os
import shlex
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.optimize import brentq
from scipy.special import expit

import poisonlab
from poisonlab import cli, config, population, simulate
from poisonlab import covariance as cov
from poisonlab import fixed_point as fp
from poisonlab import theory_squared as th


def write_json(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames, list(reader)


def quad_closure_map(spec, x):
    """The logistic closure map G at x = (tau, gamma, eta1, eta2) by scipy's
    adaptive quadrature over each component's margin r ~ N(m_c, sigma^2),
    with u = prox(delta, r) found by brentq at every r."""
    mom, _, m1, m2, _, sigma_sq, _ = fp._member(fp._moments(fp._Points([spec]), x[None]), 0)
    delta, sigma = mom.tr_cr, math.sqrt(sigma_sq)

    def integrands(r, m):
        u = brentq(lambda t: t - delta * expit(-t) - r, r - 1.0, r + delta + 1.0,
                   xtol=1e-300, rtol=1e-15)
        f, ell2 = expit(-u), expit(u) * expit(-u)
        density = math.exp(-0.5 * ((r - m) / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        return density * np.array([ell2 / (1.0 + delta * ell2), f * f, f])

    (w1, w2), g = spec.class_weights(), []
    for w, m in ((w1, m1), (w2, m2)):
        tau, gamma, eta = quad_vec(integrands, m - 12.0 * sigma, m + 12.0 * sigma, args=(m,),
                                   epsabs=1e-13, epsrel=1e-12)[0]
        g.append(w * np.array([tau, gamma, eta]))
    return np.array([g[0][0] + g[1][0], g[0][1] + g[1][1], g[0][2], g[1][2]])


def theory_cfg(**overrides):
    payload = {
        "mode": "theory",
        "loss": "squared",
        "alpha_grid": [0.0, 1.0, 2.0],
        "problem": {
            "p": 30,
            "n": 60,
            "phi": 0.1,
            "lam": 0.5,
            "covariance": {"kind": "isotropic"},
        },
    }
    payload.update(overrides)
    return payload


class TestConfigValidation:
    def test_defaults_filled(self, tmp_path):
        cfg = config.load_config(write_json(tmp_path, theory_cfg()))
        assert cfg["seed"] == 0
        assert cfg["alpha_test"] == 0.5
        assert cfg["solver"] == {"tol": 1e-10, "max_iter": 10000}
        assert cfg["problem"]["norm_mu"] == 1.0

    def test_unknown_keys_rejected_everywhere(self, tmp_path, capsys):
        # (valid config, path to a section, the section's name in the error):
        # the config fails once that section gains a key no table holds.
        def valid(mode):
            return json.loads(json.dumps(self.MODE_CFGS[mode]))

        sites = [(valid(mode), (), f"config for mode '{mode}'") for mode in self.MODE_CFGS] + [
            (valid("theory"), ("problem",), "problem"),
            (valid("theory"), ("solver",), "solver"),
            (valid("decompose"), ("solver",), "solver"),
            (valid("eigen_sweep"), ("sweep",), "sweep"),
            (valid("population"), ("population",), "population"),
        ]
        np.savetxt(tmp_path / "cov.csv", np.eye(30), delimiter=",")
        for kind, fields in (("isotropic", {}), ("spectrum", {"eigenvalues": [1.0] * 30}),
                             ("eigen_pair", {"s_mu_sq": 1.0, "s_v_sq": 1.0}),
                             ("dense", {"path": "cov.csv"})):
            payload = valid("theory")
            payload["problem"]["covariance"] = {"kind": kind, **fields}
            sites.append((payload, ("problem", "covariance"), f"covariance ({kind})"))
        for payload, path, where in sites:
            section = payload
            for key in path:
                section = section.setdefault(key, {})
            assert cli.main(["validate", "--config", write_json(tmp_path, payload)]) == 0
            section["typo"] = 1
            cfg = write_json(tmp_path, payload)
            with pytest.raises(config.ConfigError, match="unknown key"):
                config.load_config(cfg)
            assert cli.main(["validate", "--config", cfg]) == 2
            assert f"unknown key(s) in {where}: ['typo']" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_preset_is_an_unknown_key(self, tmp_path, capsys, command):
        payload = theory_cfg(preset="cifar_logistic")
        argv = [command, "--config", write_json(tmp_path, payload)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert "unknown key(s) in config for mode 'theory': ['preset']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("mode, section", [("theory", "problem"),
                                               ("population", "population")])
    def test_missing_lam_exits_2_naming_it(self, tmp_path, capsys, command, mode, section):
        payload = json.loads(json.dumps(self.MODE_CFGS[mode]))
        del payload[section]["lam"]
        argv = [command, "--config", write_json(tmp_path, payload)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert f"missing required key 'lam' in {section}" in capsys.readouterr().err

    # A 341-digit integer, beyond the float range, in each place a number
    # becomes a float.
    @pytest.mark.parametrize("place, named", [
        ("lam", "problem.lam"), ("n", "problem.n"), ("alpha_test", "alpha_test"),
        ("alpha_grid", "alpha_grid[1]"), ("spectrum", "covariance.eigenvalues[17]"),
        ("population", "population.lam"), ("tol", "solver.tol"),
    ])
    def test_number_beyond_the_float_range_exits_2_naming_its_key(self, tmp_path, capsys,
                                                                  place, named):
        big = 10**340
        payload = theory_cfg()
        if place in ("lam", "n"):
            payload["problem"][place] = big
        elif place == "alpha_test":
            payload["alpha_test"] = big
        elif place == "alpha_grid":
            payload["alpha_grid"] = [0.0, big]
        elif place == "spectrum":
            eigenvalues = [1.0] * 30
            eigenvalues[17] = big
            payload["problem"]["covariance"] = {"kind": "spectrum", "eigenvalues": eigenvalues}
        elif place == "population":
            payload = json.loads(json.dumps(self.MODE_CFGS["population"]))
            payload["population"]["lam"] = big
        else:
            payload["solver"] = {"tol": big}
        assert cli.main(["validate", "--config", write_json(tmp_path, payload)]) == 2
        assert f"error: {named} must" in capsys.readouterr().err

    @pytest.mark.parametrize("key, values, named", [
        ("alpha_grid", [0.0, 1.0, -1.0], "alpha_grid[2] must be nonnegative and finite"),
        ("alpha_grid", [0.0, "1.0"], "alpha_grid[1] must be a number"),
        ("alpha_grid", [0.0, math.nan], "alpha_grid[1] must be nonnegative and finite"),
        ("sweep", [1.0, 0.0], "sweep.s_v_sq_values[1] must be positive and finite"),
        ("sweep", [True], "sweep.s_v_sq_values[0] must be a number"),
    ])
    def test_bad_list_entry_exits_2_naming_its_index(self, tmp_path, capsys, key, values,
                                                     named):
        payload = json.loads(json.dumps(self.MODE_CFGS["eigen_sweep"]))
        if key == "sweep":
            payload["sweep"]["s_v_sq_values"] = values
        else:
            payload["alpha_grid"] = values
        assert cli.main(["validate", "--config", write_json(tmp_path, payload)]) == 2
        assert f"error: {named}" in capsys.readouterr().err

    def test_value_range_checks(self, tmp_path):
        bad = [
            lambda c: c["problem"].update(phi=0.5),
            lambda c: c["problem"].update(lam=0.0),
            lambda c: c["problem"].update(p=0),
            lambda c: c.update(alpha_grid=[]),
            lambda c: c.update(alpha_grid=[-1.0]),
            lambda c: c.update(mode="unknown"),
            lambda c: c.update(loss="hinge"),
            # SolverConfig's range, which `run` used to report as exit 3.
            lambda c: c.update(solver={"tol": 1.0}),
        ]
        for mutate in bad:
            payload = theory_cfg()
            mutate(payload)
            cfg = write_json(tmp_path, payload)
            with pytest.raises(config.ConfigError):
                config.load_config(cfg)
            assert cli.main(["validate", "--config", cfg]) == 2

    def test_removed_damping_key_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path, theory_cfg(solver={"damping": 0.5}))
        assert cli.main(["validate", "--config", cfg]) == 2
        assert "unknown key" in capsys.readouterr().err
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    def test_removed_gh_nodes_key_exits_2(self, tmp_path, capsys):
        # The Gauss-Hermite rule is fixed; a config that still sets its
        # node count is rejected, whatever the count.
        cfg = write_json(tmp_path, theory_cfg(solver={"gh_nodes": 100}))
        assert cli.main(["validate", "--config", cfg]) == 2
        assert "unknown key(s) in solver: ['gh_nodes']" in capsys.readouterr().err
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2

    def test_one_dimensional_problem_needs_a_trigger_file(self, tmp_path, capsys):
        # The default trigger is e_1, which needs p >= 2.
        payload = theory_cfg()
        payload["problem"]["p"] = 1
        cfg = write_json(tmp_path, payload)
        assert cli.main(["validate", "--config", cfg]) == 2
        assert "problem.p" in capsys.readouterr().err
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "problem.p" in capsys.readouterr().err
        (tmp_path / "v.csv").write_text("1.0\n")
        payload["problem"]["v_path"] = "v.csv"
        ok = write_json(tmp_path, payload, name="ok.json")
        assert cli.main(["run", "--config", ok, "--out", str(tmp_path / "out")]) == 0

    def test_duplicate_alphas_exit_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path, theory_cfg(mode="erm", alpha_grid=[1.0, 2.0, 1]))
        assert cli.main(["validate", "--config", cfg]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_colliding_sweep_file_names_exit_2(self, tmp_path, capsys):
        # Both values format as results_sv_1.csv under {:g}.
        payload = theory_cfg(mode="eigen_sweep", sweep={"s_v_sq_values": [1.0000001, 1.0000002]})
        payload["problem"]["covariance"] = {"kind": "eigen_pair", "s_mu_sq": 2.0, "s_v_sq": 1.0}
        cfg = write_json(tmp_path, payload)
        assert cli.main(["validate", "--config", cfg]) == 2
        assert "results_sv_1.csv" in capsys.readouterr().err

    def test_spectrum_length_must_match_p(self, tmp_path):
        payload = theory_cfg()
        payload["problem"]["covariance"] = {"kind": "spectrum", "eigenvalues": [1.0, 2.0]}
        with pytest.raises(config.ConfigError, match="length"):
            config.load_config(write_json(tmp_path, payload))

    @pytest.mark.parametrize("entry, problem", [
        (True, "a number"), ("2.0", "a number"), (None, "a number"), ([1.0], "a number"),
        (math.inf, "positive and finite"), (-math.inf, "positive and finite"),
        (math.nan, "positive and finite"), (0.0, "positive and finite"),
        (-1.0, "positive and finite"),
    ])
    def test_bad_spectrum_entry_exits_2_naming_its_index(self, tmp_path, capsys, entry,
                                                          problem):
        eigenvalues = [1.0] * 30
        eigenvalues[17] = entry
        payload = theory_cfg()
        payload["problem"]["covariance"] = {"kind": "spectrum", "eigenvalues": eigenvalues}
        cfg = write_json(tmp_path, payload)
        assert cli.main(["validate", "--config", cfg]) == 2
        assert f"covariance.eigenvalues[17] must be {problem}" in capsys.readouterr().err

    def test_spectrum_is_validated_as_one_float_array(self, tmp_path):
        payload = theory_cfg()
        payload["problem"]["covariance"] = {"kind": "spectrum",
                                            "eigenvalues": [1, 2.5] + [0.5] * 28}
        cfg = config.load_config(write_json(tmp_path, payload))
        ev = cfg["problem"]["covariance"]["eigenvalues"]
        assert ev.dtype == float and ev.tolist() == [1.0, 2.5] + [0.5] * 28

    def test_eigen_sweep_needs_eigen_pair(self, tmp_path):
        payload = theory_cfg(mode="eigen_sweep", sweep={"s_v_sq_values": [0.5]})
        with pytest.raises(config.ConfigError, match="eigen_pair"):
            config.load_config(write_json(tmp_path, payload))

    def test_missing_and_invalid_files(self, tmp_path):
        with pytest.raises(config.ConfigError, match="cannot read"):
            config.load_config(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(config.ConfigError, match="not valid JSON"):
            config.load_config(str(bad))

    def test_vector_files_resolved_relative_to_config(self, tmp_path):
        p = 30
        np.savetxt(tmp_path / "mu.csv", 2.0 * np.eye(p)[0], delimiter=",")
        np.savetxt(tmp_path / "v.csv", np.eye(p)[3], delimiter=",")
        payload = theory_cfg()
        payload["problem"].update(mu_path="mu.csv", v_path="v.csv")
        cfg = config.load_config(write_json(tmp_path, payload))
        spec = config.build_problem(cfg, alpha=1.0)
        assert spec.mu[0] == 2.0 and np.count_nonzero(spec.mu) == 1
        assert spec.v[3] == 1.0

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_norm_mu_with_a_mean_file_exits_2(self, tmp_path, capsys, command):
        # mu_path gives mu whole; a norm_mu beside it would be ignored.
        np.savetxt(tmp_path / "mu.csv", np.eye(30)[0], delimiter=",")
        payload = theory_cfg()
        payload["problem"].update(mu_path="mu.csv", norm_mu=5.0)
        argv = [command, "--config", write_json(tmp_path, payload)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert "error: problem.norm_mu" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_unit_trigger_file_rejected(self, tmp_path):
        p = 30
        np.savetxt(tmp_path / "v.csv", 3.0 * np.eye(p)[1], delimiter=",")
        payload = theory_cfg()
        payload["problem"].update(v_path="v.csv")
        cfg = config.load_config(write_json(tmp_path, payload))
        with pytest.raises(config.ConfigError, match="fold the magnitude into alpha"):
            config.build_problem(cfg, alpha=1.0)

    def test_near_unit_trigger_file_exits_2_naming_norm_and_alpha(self, tmp_path, capsys):
        # A norm miss of 5e-9 fails the unit check; the message shows the miss.
        p = 30
        np.savetxt(tmp_path / "v.csv", 1.000000005 * np.eye(p)[1], delimiter=",")
        payload = theory_cfg()
        payload["problem"].update(v_path="v.csv")
        cfg = write_json(tmp_path, payload)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "norm 1.000000005" in err
        assert "fold the magnitude into alpha" in err
        # `validate` builds the first point too, and rejects the file alike.
        assert cli.main(["validate", "--config", cfg]) == 2
        assert "fold the magnitude into alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("key", ["mu_path", "v_path"])
    def test_non_numeric_vector_file_exits_2_naming_the_key(self, tmp_path, capsys, key,
                                                            command):
        (tmp_path / "vec.csv").write_text("a,b\n")
        payload = theory_cfg()
        payload["problem"][key] = "vec.csv"
        argv = [command, "--config", write_json(tmp_path, payload)]
        if command == "run":
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert f"error: problem.{key}: could not convert" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # A valid config of each mode, and a valid value of each top-level key
    # for the modes that read it.
    MODE_CFGS = {
        "theory": theory_cfg(),
        "erm": theory_cfg(mode="erm", reps=2),
        "eigen_sweep": theory_cfg(
            mode="eigen_sweep", sweep={"s_v_sq_values": [1.0]},
            problem=dict(theory_cfg()["problem"],
                         covariance={"kind": "eigen_pair", "s_mu_sq": 1.0, "s_v_sq": 1.0})),
        "population": {"mode": "population", "alpha_grid": [0.0, 1.0],
                       "population": {"lam": 0.1, "phi": 0.2}},
        "decompose": {k: v for k, v in theory_cfg(mode="decompose", alpha=1.0).items()
                      if k != "alpha_grid"},
    }
    KEY_VALUES = {
        "problem": theory_cfg()["problem"], "solver": {"tol": 1e-10}, "reps": 2,
        "sweep": {"s_v_sq_values": [1.0]}, "alpha": 1.0, "alpha_grid": [0.0, 1.0],
        "population": {"lam": 0.1},
    }

    @pytest.mark.parametrize("mode, key", [
        ("population", "problem"), ("population", "solver"), ("population", "reps"),
        ("decompose", "alpha_grid"), ("decompose", "reps"),
        ("theory", "reps"), ("theory", "sweep"), ("theory", "alpha"),
        ("theory", "population"), ("erm", "sweep"), ("eigen_sweep", "reps"),
    ])
    def test_key_of_another_mode_exits_2_naming_key_and_mode(self, tmp_path, capsys,
                                                             mode, key):
        cfg = write_json(tmp_path, self.MODE_CFGS[mode], name="ok.json")
        assert cli.main(["validate", "--config", cfg]) == 0
        capsys.readouterr()
        cfg = write_json(tmp_path, {**self.MODE_CFGS[mode], key: self.KEY_VALUES[key]})
        assert cli.main(["validate", "--config", cfg]) == 2
        assert f"unknown key(s) in config for mode '{mode}': ['{key}']" in capsys.readouterr().err


class TestRunTheory:
    def test_writes_schema_and_manifest(self, tmp_path, capsys):
        cfg = write_json(tmp_path, theory_cfg())
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_rows(out / "results.csv")
        assert header == cli.CSV_COLUMNS
        assert [r["rep"] for r in rows] == ["theory"] * 3
        assert [float(r["alpha"]) for r in rows] == [0.0, 1.0, 2.0]
        assert all(r["converged"] == "1" for r in rows)
        assert float(rows[0]["h_v_theory"]) == 0.0
        assert float(rows[2]["h_v_theory"]) > float(rows[1]["h_v_theory"]) > 0.0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["mode"] == "theory"
        assert manifest["outputs"] == ["results.csv"]
        assert set(manifest["versions"]) == {"poisonlab", "python", "numpy", "scipy"}
        assert manifest["versions"]["poisonlab"] == poisonlab.__version__
        assert "wrote" in capsys.readouterr().out

    def test_manifest_records_the_parsed_command_line(self, tmp_path, monkeypatch):
        # An in-process call records its own argv, not the host process's,
        # quoted so that a path with a space reads back as one argument.
        monkeypatch.setattr("sys.argv", ["host", "--some", "flag"])
        out = tmp_path / "out dir"
        argv = ["run", "--config", write_json(tmp_path, theory_cfg()), "--out", str(out)]
        assert cli.main(argv) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert shlex.split(manifest["command"]) == ["poisonlab", *argv]

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_one_moments_call_per_closure_map_evaluation(self, tmp_path, monkeypatch, loss):
        """Each row, its predictions and the manifest's diagnostics come from
        the evaluation that certified the point: the run forms the resolvent
        moments once per closure-map evaluation, one row per point of its
        lockstep batch (a theory run's batches hold one point), and never
        again.  The logistic run builds a quadrature rule at fewer
        evaluations than that; the squared run, in closed form, builds no
        rule and solves no prox."""
        calls = {"moments": 0, "closure_map": 0, "rule": 0, "prox": 0}
        sums, closure_map, anchor_rule, prox = (cov.SpectralTable.sums, fp._closure_map,
                                                fp.anchor_rule, fp.prox)

        def counting_sums(table, lam, tau, weights=None):
            calls["moments"] += np.size(tau)
            return sums(table, lam, tau, weights)

        def counting_closure_map(x, points, loss, rules, active=None):
            calls["closure_map"] += len(x) if active is None else len(active)
            return closure_map(x, points, loss, rules, active)

        def counting_rule(*args):
            calls["rule"] += 1
            return anchor_rule(*args)

        def counting_prox(*args):
            calls["prox"] += 1
            return prox(*args)

        monkeypatch.setattr(cov.SpectralTable, "sums", counting_sums)
        monkeypatch.setattr(fp, "_closure_map", counting_closure_map)
        monkeypatch.setattr(fp, "anchor_rule", counting_rule)
        monkeypatch.setattr(fp, "prox", counting_prox)
        cfg = write_json(tmp_path, theory_cfg(loss=loss, alpha_grid=[0.0, 1.0, 10.0, 1e3]))
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert calls["closure_map"] > 0
        assert calls["moments"] == calls["closure_map"]
        if loss == "squared":
            assert calls["rule"] == calls["prox"] == 0
        else:
            assert 0 < calls["rule"] < calls["closure_map"] < calls["prox"]

    def test_dense_covariance_read_once_per_run(self, tmp_path, monkeypatch):
        p = 12
        a = np.random.default_rng(0).standard_normal((p, p))
        np.savetxt(tmp_path / "cov.csv", a @ a.T / p + np.eye(p), delimiter=",")
        payload = theory_cfg(alpha_grid=[0.0, 1.0, 2.0, 4.0])
        payload["problem"].update(p=p, n=24, covariance={"kind": "dense", "path": "cov.csv"})
        cfg = write_json(tmp_path, payload)
        reads = []
        from_csv = cov.DenseCovariance.from_csv.__func__

        def counting_from_csv(klass, path):
            reads.append(path)
            return from_csv(klass, path)

        monkeypatch.setattr(cov.DenseCovariance, "from_csv", classmethod(counting_from_csv))
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(reads) == 1

    def test_dense_erm_runs_without_numpy_lapack(self, tmp_path, monkeypatch):
        # numpy and scipy bundle separate OpenBLAS runtimes; a factorization
        # in numpy's would wake its thread pool against scipy's.
        p = 12
        a = np.random.default_rng(1).standard_normal((p, p))
        np.savetxt(tmp_path / "cov.csv", a @ a.T / p + np.eye(p), delimiter=",")
        payload = theory_cfg(mode="erm", loss="logistic", alpha_grid=[0.0, 2.0], reps=1)
        payload["problem"].update(p=p, n=24, covariance={"kind": "dense", "path": "cov.csv"})
        cfg = write_json(tmp_path, payload)

        def numpy_lapack(*args, **kwargs):
            raise AssertionError("numpy's LAPACK was called")

        for name in ("cholesky", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, numpy_lapack)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        _, rows = read_rows(tmp_path / "out" / "results.csv")
        assert {row["rep"] for row in rows} >= {"theory", "0"}

    def test_unconverged_point_exits_3_without_outputs(self, tmp_path, capsys):
        cfg = write_json(tmp_path, theory_cfg(solver={"max_iter": 1}))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "did not converge: mode theory, alpha 0, rep theory" in err
        assert not (out / "results.csv").exists()
        assert not (out / "run_manifest.json").exists()

    def test_failed_manifest_write_removes_the_csv(self, tmp_path, monkeypatch, capsys):
        """The manifest is written after results.csv; when its write fails,
        the run exits 3 and removes the CSV it wrote."""
        written = []

        def failing_manifest(out_dir, *args):
            written.extend(os.listdir(out_dir))
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_write_manifest", failing_manifest)
        cfg = write_json(tmp_path, theory_cfg())
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
        assert "disk full" in capsys.readouterr().err
        assert written == ["results.csv"]
        assert os.listdir(out) == []

    def test_squared_large_alpha_matches_closed_form(self, tmp_path):
        # The README problem at alpha = 100, where damped iteration
        # stopped at max_iter and wrote h_v = 1.89 against 0.0132.
        payload = theory_cfg(alpha_grid=[100.0])
        payload["problem"].update(p=100, n=200, phi=0.2, lam=0.5)
        cfg = write_json(tmp_path, payload)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_rows(out / "results.csv")
        spec = config.build_problem(config.load_config(cfg), alpha=100.0)
        _, h_v = th.projections_exact(spec, th.solve_tau(spec.cov, spec.lam, spec.n))
        assert rows[0]["converged"] == "1"
        assert abs(float(rows[0]["h_v_theory"]) - h_v) <= 1e-8

    def test_small_lam_logistic_completes(self, tmp_path, monkeypatch):
        """The logistic prox used to cycle at this lam and return
        uncertified values, so the run exited 3 at alpha = 1.  Every root
        the run certifies must be a fixed point of the closure map
        evaluated independently: scipy's adaptive quadrature over the
        margin, with a brentq prox at each margin."""
        payload = theory_cfg(loss="logistic", alpha_grid=[0.0, 1.0, 10.0])
        payload["problem"].update(p=100, n=200, phi=0.2, lam=1e-3)
        cfg = write_json(tmp_path, payload)
        states = []
        solve = cli.solve_sweep

        def recording_solve(*args, **kwargs):
            found = solve(*args, **kwargs)
            states.extend(state for sweep in found for state in sweep)
            return found

        monkeypatch.setattr(cli, "solve_sweep", recording_solve)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_rows(out / "results.csv")
        assert [r["converged"] for r in rows] == ["1"] * 3
        assert [s.alpha for s in states] == [0.0, 1.0, 10.0]
        for row, state in zip(rows, states):
            assert float(row["h_mu_theory"]) == state.m1
            spec = config.build_problem(config.load_config(cfg), alpha=state.alpha)
            x = np.array([state.tau, state.gamma, state.eta1, state.eta2])
            assert np.abs(quad_closure_map(spec, x) - x).max() <= 1e-8, state.alpha

    @pytest.mark.parametrize("p, n", [(200, 8), (177, 7)])
    def test_prox_at_its_rounding_floor_completes(self, tmp_path, p, n):
        # lam = 1e-4 with n this small drives the prox step delta to about
        # 2.4e5, where some logistic prox nodes cannot meet the residual test.
        payload = theory_cfg(loss="logistic", alpha_grid=[0.0, 1.0])
        payload["problem"].update(p=p, n=n, phi=0.2, norm_mu=2.0, lam=1e-4)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", write_json(tmp_path, payload), "--out", str(out)]) == 0
        _, rows = read_rows(out / "results.csv")
        assert [r["converged"] for r in rows] == ["1", "1"]

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_tiny_trigger_completes(self, tmp_path, loss):
        # alpha = 1e-8 on the README geometry, with mu = 1.5 e0.
        payload = theory_cfg(loss=loss, alpha_grid=[0.0, 1e-8, 1.0])
        payload["problem"].update(p=100, n=200, phi=0.2, norm_mu=1.5)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", write_json(tmp_path, payload), "--out", str(out)]) == 0
        _, rows = read_rows(out / "results.csv")
        assert 0.0 < float(rows[1]["h_v_theory"]) < float(rows[2]["h_v_theory"])

    def test_manifest_records_the_covariance_jitter(self, tmp_path):
        # from_csv adds 1e-4 tr(C) / p to the diagonal of a CSV covariance;
        # any other covariance gets none.
        p = 12
        c = np.diag(np.arange(1.0, p + 1.0))
        np.savetxt(tmp_path / "cov.csv", c, delimiter=",")
        payload = theory_cfg()
        payload["problem"].update(p=p, n=24, covariance={"kind": "dense", "path": "cov.csv"})
        for name, cfg in (("dense", payload), ("iso", theory_cfg())):
            out = tmp_path / name
            assert cli.main(["run", "--config", write_json(tmp_path, cfg), "--out", str(out)]) == 0
            manifest = json.loads((out / "run_manifest.json").read_text())
            want = 1e-4 * np.trace(c) / p if name == "dense" else None
            assert manifest["covariance_jitter"] == want

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_json(tmp_path, theory_cfg(seed=5))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", cfg, "--out", str(out_a)]) == 0
        assert cli.main(["run", "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()


class TestRunErm:
    def erm_cfg(self, **overrides):
        payload = theory_cfg(mode="erm", alpha_grid=[1.0], reps=3, seed=11)
        payload.update(overrides)
        return payload

    def test_row_structure_and_summary_math(self, tmp_path):
        cfg = write_json(tmp_path, self.erm_cfg())
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_rows(out / "results.csv")
        assert [r["rep"] for r in rows] == ["theory", "0", "1", "2", "mean", "se"]
        emp = [float(r["h_mu_emp"]) for r in rows[1:4]]
        mean_row, se_row = rows[4], rows[5]
        assert float(mean_row["h_mu_emp"]) == pytest.approx(np.mean(emp), rel=1e-15)
        want_se = np.std(emp, ddof=1) / math.sqrt(3)
        assert float(se_row["h_mu_emp"]) == pytest.approx(want_se, rel=1e-12)
        # Theory columns repeat on replicate rows; empirical cells are
        # blank on the pure-theory row.
        assert rows[1]["h_mu_theory"] == rows[0]["h_mu_theory"]
        assert rows[0]["h_mu_emp"] == ""
        assert se_row["h_mu_theory"] == ""

    def test_one_replicate_has_no_standard_error(self, tmp_path):
        cfg = write_json(tmp_path, self.erm_cfg(reps=1, problem={
            "p": 20, "n": 40, "phi": 0.1, "lam": 0.5, "covariance": {"kind": "isotropic"},
        }))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_rows(out / "results.csv")
        assert [r["rep"] for r in rows] == ["theory", "0", "mean", "se"]
        for key in ("h_mu_emp", "h_v_emp", "clean_acc_emp", "asr_emp"):
            assert rows[3][key] == ""
            assert rows[2][key] == rows[1][key]
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["convergence"]["erm_fallbacks"] == 0

    def test_large_alpha_completes_through_the_fallback(self, tmp_path, monkeypatch):
        # At alpha = 1e6 two refinement steps leave residuals of 1.7e-9 to
        # 4.1e-9 on these replicates, so each is refitted directly, exactly
        # as a draw at that alpha is fitted, and the row and the manifest
        # say so.
        payload = theory_cfg(mode="erm", alpha_grid=[1.0, 1e6], reps=3, seed=3)
        payload["problem"].update(p=60, n=40, phi=0.2)
        cfg = write_json(tmp_path, payload)
        fit = simulate.ridge_fit
        fallback = []
        monkeypatch.setattr(
            simulate, "ridge_fit", lambda z, lam: fallback.append(z) or fit(z, lam)
        )
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert len(fallback) == 3
        spec = config.build_problem(config.load_config(cfg), 1e6)
        _, rows = read_rows(out / "results.csv")
        for rep in range(3):
            z0, mask = simulate.draw_replicate(spec, 3, rep)
            theta = fit(simulate.retrigger(z0, mask, spec.v, 1e6), spec.lam).theta
            row = next(r for r in rows if r["alpha"] == "1000000" and r["rep"] == str(rep))
            assert float(row["h_v_emp"]) == float(theta @ spec.v)
            assert row["iters"] == str(simulate.RIDGE_FALLBACK_ITERS)
            row = next(r for r in rows if r["alpha"] == "1" and r["rep"] == str(rep))
            assert row["iters"] == "1"
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["convergence"]["erm_fallbacks"] == 3

    @pytest.mark.parametrize("loss, tol", [("squared", simulate.RIDGE_RESIDUAL_TOL),
                                           ("logistic", simulate.LOGISTIC_GRAD_TOL)])
    def test_manifest_reports_the_largest_certified_grad_norm(self, tmp_path, loss, tol):
        payload = self.erm_cfg(loss=loss, alpha_grid=[0.0, 2.0])
        cfg = write_json(tmp_path, payload)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        loaded = config.load_config(cfg)
        spec = config.build_problem(loaded, 0.0)
        norms = [r.grad_norm for rep in range(loaded["reps"])
                 for r in simulate.run_replicates(spec, loss, rep, loaded["seed"],
                                                  loaded["alpha_test"], loaded["alpha_grid"])]
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["convergence"]["erm_max_grad_norm"] == max(norms)
        assert 0.0 < max(norms) <= tol
        out = tmp_path / "theory"
        assert cli.main(["run", "--config", write_json(tmp_path, theory_cfg(), "theory.json"),
                         "--out", str(out)]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["convergence"]["erm_max_grad_norm"] is None

    def test_manifest_reports_replicate_z(self, tmp_path):
        """Per alpha, z = (mean - theory) / se of each metric of the seeded
        replicates, from the values the CSV holds, and the largest |z|; no
        z where one replicate leaves se blank, and none outside erm."""
        cfg = write_json(tmp_path, self.erm_cfg(alpha_grid=[0.0, 2.0]))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_rows(out / "results.csv")
        report = json.loads((out / "run_manifest.json").read_text())["replicate_z"]
        names = ("h_mu", "h_v", "clean_acc", "asr")
        for alpha, got in zip((0.0, 2.0), report["per_alpha"]):
            at = {row["rep"]: row for row in rows if float(row["alpha"]) == alpha}
            assert got["alpha"] == alpha
            for name in names:
                want = ((float(at["mean"][f"{name}_emp"]) - float(at["theory"][f"{name}_theory"]))
                        / float(at["se"][f"{name}_emp"]))
                assert got[name] == want, (alpha, name)
        assert report["max_abs_z"] == max(abs(z[name]) for z in report["per_alpha"]
                                          for name in names)
        assert 0.0 < report["max_abs_z"] < 10.0
        out = tmp_path / "one"
        cfg = write_json(tmp_path, self.erm_cfg(reps=1), "one.json")
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "run_manifest.json").read_text())["replicate_z"]
        assert report == {"per_alpha": [{"alpha": 1.0, **dict.fromkeys(names)}],
                          "max_abs_z": None}
        out = tmp_path / "theory"
        assert cli.main(["run", "--config", write_json(tmp_path, theory_cfg(), "theory.json"),
                         "--out", str(out)]) == 0
        assert json.loads((out / "run_manifest.json").read_text())["replicate_z"] is None

    def test_unconverged_fit_exits_3_naming_the_replicate(self, tmp_path, monkeypatch, capsys):
        fit = simulate.logistic_fit
        monkeypatch.setattr(simulate, "logistic_fit", lambda z, lam, first_step=None:
                            fit(z, lam, max_iter=1, first_step=first_step))
        cfg = write_json(tmp_path, self.erm_cfg(loss="logistic"))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
        assert "ERM fit did not converge: mode erm, alpha 1, rep 0" in capsys.readouterr().err
        assert not (out / "results.csv").exists()

    def test_unpoisonable_draw_exits_3_naming_the_replicate(self, tmp_path, capsys):
        # phi n = 1.8 rounds to 2 poisoned samples, and rep 0 draws one negative.
        payload = self.erm_cfg(alpha_grid=[0.0, 1.0], reps=8, seed=0)
        payload["problem"].update(p=6, n=4, phi=0.45)
        cfg = write_json(tmp_path, payload)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "cannot poison 2 samples: only 1 negatives available: mode erm, rep 0" in err
        assert not (out / "results.csv").exists()


    def rounding_cfg(self, alpha_grid):
        # A well-posed problem whose ridge residuals at alpha >= 1e7 are
        # rounding of a right-hand side of size alpha |P|/n; from 2e6 the
        # path leaves residuals above 1e-8 on every replicate.
        payload = theory_cfg(mode="erm", alpha_grid=alpha_grid, seed=3)
        payload["problem"].update(p=60, n=40, phi=0.2)
        return payload

    def test_rounding_level_residual_is_certified(self, tmp_path, monkeypatch):
        cfg = write_json(tmp_path, self.rounding_cfg([2e6, 1e7]))
        fit = simulate.ridge_fit
        fallback = []
        monkeypatch.setattr(
            simulate, "ridge_fit", lambda z, lam: fallback.append(fit(z, lam)) or fallback[-1]
        )
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        # The path refits both alphas of all 8 replicates, in replicate
        # order.  Every fit at 1e7 exceeds the absolute tolerance and is
        # certified by its normwise backward error.
        assert len(fallback) == 16 and all(f.converged for f in fallback)
        assert all(f.grad_norm > simulate.RIDGE_RESIDUAL_TOL for f in fallback[1::2])

    def test_perturbed_solution_fails_the_certificate(self, tmp_path, monkeypatch):
        cfg = config.load_config(write_json(tmp_path, self.rounding_cfg([1e6])))
        spec = config.build_problem(cfg, 1e6)
        solve = simulate._cho_solve
        for rep in range(cfg["reps"]):
            z0, mask = simulate.draw_replicate(spec, 3, rep)
            z = simulate.retrigger(z0, mask, spec.v, 1e6)
            monkeypatch.setattr(simulate, "_cho_solve", solve)
            assert simulate.ridge_fit(z, spec.lam).converged
            monkeypatch.setattr(simulate, "_cho_solve", lambda c, b: solve(c, b) * (1 + 1e-8))
            assert not simulate.ridge_fit(z, spec.lam).converged

    def test_failed_ridge_certificate_exits_3_naming_the_replicate(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(simulate, "RIDGE_RESIDUAL_TOL", -1.0)
        monkeypatch.setattr(simulate, "RIDGE_BACKWARD_TOL", -1.0)
        cfg = write_json(tmp_path, self.erm_cfg())
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
        assert "ERM fit did not converge: mode erm, alpha 1, rep 0" in capsys.readouterr().err
        assert not (out / "results.csv").exists()


class TestRunEigenSweep:
    @staticmethod
    def sweep_cfg(values, alpha_grid, **overrides):
        payload = theory_cfg(mode="eigen_sweep", loss="logistic", alpha_grid=alpha_grid,
                             sweep={"s_v_sq_values": values}, **overrides)
        payload["problem"]["covariance"] = {"kind": "eigen_pair", "s_mu_sq": 1.0, "s_v_sq": 1.0}
        return payload

    def test_each_alpha_solves_every_table_in_lockstep(self, tmp_path, monkeypatch):
        """At each alpha the points of all three tables share closure-map
        calls: one call per lockstep round, as many as the most evaluations
        any of them makes there, each forming the moments of all three and
        G at those still solving; so the calls' active points add up to the
        rows' evaluations."""
        calls, moments = [], []
        closure_map, sums = fp._closure_map, cov.SpectralTable.sums

        def counting_closure_map(x, points, loss, rules, active=None):
            calls.append((len(x), len(x) if active is None else len(active)))
            return closure_map(x, points, loss, rules, active)

        def counting_sums(table, lam, tau, weights=None):
            moments.append(np.size(tau))
            return sums(table, lam, tau, weights)

        monkeypatch.setattr(fp, "_closure_map", counting_closure_map)
        monkeypatch.setattr(cov.SpectralTable, "sums", counting_sums)
        values, alphas = [0.5, 1.0, 2.0], [0.5, 1.0, 2.0]
        cfg = write_json(tmp_path, self.sweep_cfg(values, alphas))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        iters = np.array([[int(row["iters"]) for row in read_rows(out / f"results_sv_{s:g}.csv")[1]]
                          for s in values])
        assert all(size == 3 for size, _ in calls)
        assert len(calls) == iters.max(axis=0).sum() < iters.sum()
        assert sum(active for _, active in calls) == iters.sum()
        assert moments == [3] * len(calls)

    def test_failed_point_names_its_trigger_eigenvalue(self, tmp_path, capsys):
        cfg = write_json(tmp_path, self.sweep_cfg([0.5, 2.0], [0.5, 1.0],
                                                  solver={"max_iter": 2}))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert ("fixed-point solve did not converge: mode eigen_sweep, s_v_sq 0.5, alpha 0.5, "
                "rep theory") in err
        assert not (out / "results_sv_0.5.csv").exists()

    def test_first_failure_in_s_v_sq_major_order(self, tmp_path, monkeypatch, capsys):
        """Every solve of the s_v_sq = 2 table at the first alpha fails, its
        fallbacks included, and so does every solve of the s_v_sq = 0.5
        table at the third: each table's sweep ends there, and the run
        names the s_v_sq = 0.5 point, the first in s_v_sq-major grid
        order."""
        failing = {(2.0, 0.5), (0.5, 2.0)}
        rounds = []
        newton_solve = fp._newton_solve

        def failing_solve(specs, *args):
            points = [(spec.cov.eigenvalues()[1], spec.alpha) for spec in specs]
            rounds.append(points)
            return [(math.inf, *rest) if point in failing else (residual, *rest)
                    for point, (residual, *rest) in zip(points, newton_solve(specs, *args))]

        monkeypatch.setattr(fp, "_newton_solve", failing_solve)
        cfg = write_json(tmp_path, self.sweep_cfg([0.5, 2.0], [0.5, 1.0, 2.0, 4.0]))
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert rounds[0] == [(0.5, 0.5), (2.0, 0.5)]
        solved = [point for points in rounds for point in points]
        assert max(alpha for s, alpha in solved if s == 2.0) == 0.5
        assert max(alpha for s, alpha in solved if s == 0.5) == 2.0
        err = capsys.readouterr().err
        assert "mode eigen_sweep, s_v_sq 0.5, alpha 2, rep theory" in err

    def test_one_csv_per_trigger_variance(self, tmp_path):
        payload = theory_cfg(mode="eigen_sweep", sweep={"s_v_sq_values": [0.5, 1.25]})
        payload["problem"]["covariance"] = {
            "kind": "eigen_pair", "s_mu_sq": 2.0, "s_v_sq": 1.0,
        }
        cfg = write_json(tmp_path, payload)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        names = ["results_sv_0.5.csv", "results_sv_1.25.csv"]
        for name in names:
            header, rows = read_rows(out / name)
            assert header == cli.CSV_COLUMNS and len(rows) == 3
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["outputs"] == names
        # A softer trigger direction concentrates the estimator on it.
        _, soft = read_rows(out / names[0])
        _, hard = read_rows(out / names[1])
        assert float(soft[2]["h_v_theory"]) > float(hard[2]["h_v_theory"])


class TestRunPopulation:
    def test_schema_and_constant_columns(self, tmp_path):
        payload = {
            "mode": "population",
            "loss": "logistic",
            "alpha_grid": [0.0, 1.0, 5.0],
            "population": {"s_mu_sq": 1.0, "s_v_sq": 1.0, "lam": 0.1, "phi": 0.2},
        }
        cfg = write_json(tmp_path, payload)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_rows(out / "population.csv")
        assert header == cli.POPULATION_COLUMNS
        assert len(rows) == 3
        assert len({r["a_benign"] for r in rows}) == 1
        assert len({r["one_step_gradient"] for r in rows}) == 1
        assert float(rows[0]["b"]) == pytest.approx(0.0, abs=1e-9)
        assert float(rows[1]["b"]) > 0.1
        for r in rows:
            assert r["converged"] == "1"
            hyp = math.hypot(float(r["a"]) - float(r["a_benign"]), float(r["b"]))
            assert float(r["distance_to_benign"]) == pytest.approx(hyp, rel=1e-12)

    def test_benign_point_solved_once(self, tmp_path, monkeypatch):
        """One cold lockstep batch holds the benign point and the grid."""
        calls = []
        solve = population.minimize_population

        def counting(params_list):
            calls.append([(params.alpha, params.phi) for params in params_list])
            return solve(params_list)

        monkeypatch.setattr(population, "minimize_population", counting)
        payload = {
            "mode": "population",
            "loss": "logistic",
            "alpha_grid": [0.0, 1.0, 5.0],
            "population": {"s_mu_sq": 1.0, "s_v_sq": 1.0, "lam": 0.1, "phi": 0.2},
        }
        cfg = write_json(tmp_path, payload)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        # The benign solve, then the grid.
        assert calls == [[(0.0, 0.0), (0.0, 0.2), (1.0, 0.2), (5.0, 0.2)]]


    def test_unconverged_benign_solve_exits_3_without_outputs(self, tmp_path, monkeypatch,
                                                               capsys):
        solve = population.minimize_population

        def failing_benign(params_list):
            benign, *minima = solve(params_list)
            return [replace(benign, converged=False), *minima]

        monkeypatch.setattr(population, "minimize_population", failing_benign)
        payload = {
            "mode": "population",
            "loss": "logistic",
            "alpha_grid": [0.0, 1.0],
            "population": {"s_mu_sq": 1.0, "s_v_sq": 1.0, "lam": 0.1, "phi": 0.2},
        }
        cfg = write_json(tmp_path, payload)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "benign minimizer fixed-point solve failed to converge" in err
        assert not (out / "population.csv").exists()


class TestDecompose:
    def decompose_cfg(self, **overrides):
        payload = theory_cfg(mode="decompose", alpha=2.0)
        del payload["alpha_grid"]
        payload.update(overrides)
        return payload

    def test_prints_table_and_writes_csv(self, tmp_path, capsys):
        cfg = write_json(tmp_path, self.decompose_cfg())
        out = tmp_path / "out"
        assert cli.main(["decompose", "--config", cfg, "--out", str(out)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        labels = [line.split()[0] for line in lines[1:]]
        assert labels == ["mean", "cross", "trigger", "noise", "total"]
        header, rows = read_rows(out / "decomposition.csv")
        assert header == cli.DECOMPOSE_COLUMNS
        shares = [float(r["share_percent"]) for r in rows]
        assert sum(shares) == pytest.approx(100.0, abs=1e-8)
        assert (out / "run_manifest.json").exists()

    def test_out_directory_is_optional(self, tmp_path, capsys):
        cfg = write_json(tmp_path, self.decompose_cfg())
        assert cli.main(["decompose", "--config", cfg]) == 0
        assert "total" in capsys.readouterr().out

    def test_subcommand_mode_pairing_enforced(self, tmp_path, capsys):
        dec = write_json(tmp_path, self.decompose_cfg(), "dec.json")
        thr = write_json(tmp_path, theory_cfg(), "thr.json")
        out = tmp_path / "out"
        assert cli.main(["run", "--config", dec, "--out", str(out)]) == 2
        assert cli.main(["decompose", "--config", thr]) == 2
        err = capsys.readouterr().err
        assert "decompose" in err

    def test_runtime_failure_cleans_up(self, tmp_path, capsys):
        payload = self.decompose_cfg(solver={"max_iter": 1})
        cfg = write_json(tmp_path, payload)
        out = tmp_path / "out"
        assert cli.main(["decompose", "--config", cfg, "--out", str(out)]) == 3
        assert "did not converge" in capsys.readouterr().err
        assert not (out / "decomposition.csv").exists()
        assert not (out / "run_manifest.json").exists()


class TestOneParserPerProcess:
    def test_calls_in_one_process_share_nothing_but_the_parser(self, tmp_path, monkeypatch):
        """run, decompose without and with --out, and validate in one
        process: the parser is built once, a decompose without --out writes
        nothing, and each manifest records its own command line."""
        thr = write_json(tmp_path, theory_cfg(), "thr.json")
        dec_payload = theory_cfg(mode="decompose", alpha=2.0)
        del dec_payload["alpha_grid"]
        dec = write_json(tmp_path, dec_payload, "dec.json")
        writes = []
        write_outputs = cli._write_outputs

        def recording_write_outputs(out_dir, *args):
            writes.append(out_dir)
            return write_outputs(out_dir, *args)

        monkeypatch.setattr(cli, "_write_outputs", recording_write_outputs)
        run_argv = ["run", "--config", thr, "--out", str(tmp_path / "run")]
        dec_argv = ["decompose", "--config", dec, "--out", str(tmp_path / "dec")]
        assert cli.main(run_argv) == 0
        assert cli.main(["decompose", "--config", dec]) == 0
        assert writes == [str(tmp_path / "run")]
        assert cli.main(["validate", "--config", thr]) == 0
        assert cli.main(dec_argv) == 0
        assert writes == [str(tmp_path / "run"), str(tmp_path / "dec")]
        assert cli._build_parser() is cli._build_parser()
        assert cli._build_parser().parse_args(["decompose", "--config", dec]).out is None
        for argv, out in ((run_argv, "run"), (dec_argv, "dec")):
            manifest = json.loads((tmp_path / out / "run_manifest.json").read_text())
            assert shlex.split(manifest["command"]) == ["poisonlab", *argv]


class TestValidateCommand:
    def test_ok(self, tmp_path, capsys):
        cfg = write_json(tmp_path, theory_cfg())
        assert cli.main(["validate", "--config", cfg]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path, theory_cfg(typo=1))
        assert cli.main(["validate", "--config", cfg]) == 2
        assert "unknown key" in capsys.readouterr().err


def readme_configs():
    """Every ```json block of the README, parsed."""
    with open(os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")) as fh:
        blocks = fh.read().split("```json\n")[1:]
    return [json.loads(block.split("```", 1)[0]) for block in blocks]


class TestReadmeConfigs:
    """The README's example configs stay valid, and those that need no
    input file run."""

    def test_every_example_validates(self, tmp_path):
        configs = readme_configs()
        assert sorted(raw["mode"] for raw in configs) == ["decompose", "population", "theory"]
        for raw in configs:
            prob = raw.get("problem", {})
            if prob.get("covariance", {}).get("kind") == "dense":
                p = prob["p"]
                np.savetxt(tmp_path / prob["covariance"]["path"], np.diag(np.linspace(0.5, 2.0, p)),
                           delimiter=",")
                np.savetxt(tmp_path / prob["mu_path"], np.eye(p)[0], delimiter=",")
                np.savetxt(tmp_path / prob["v_path"], np.eye(p)[1], delimiter=",")
            assert config.validate_config(raw, base_dir=str(tmp_path))["mode"] == raw["mode"]

    @pytest.mark.parametrize("mode", ["theory", "population"])
    def test_example_runs(self, tmp_path, mode):
        raw = next(raw for raw in readme_configs() if raw["mode"] == mode)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", write_json(tmp_path, raw), "--out", str(out)]) == 0


def benchmark_workloads():
    """The benchmark's workload generator, loaded from its file."""
    import importlib.util

    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkConfigs:
    """Every config the benchmark generates loads, builds its first point
    as the benchmark's set-up probe does, and runs with exit 0."""

    @pytest.mark.parametrize("workload", ["theory_sweep", "dense_pipeline", "erm_ridge"])
    def test_workload_configs_load_and_run(self, tmp_path, workload):
        workloads = benchmark_workloads()
        generated = workloads.generate(workload, 0, str(tmp_path))
        assert generated.invocations
        for inv in generated.invocations:
            cfg = config.load_config(inv.config_path(str(tmp_path)))
            if "problem" in cfg:
                first = cfg["alpha"] if cfg["mode"] == "decompose" else cfg["alpha_grid"][0]
                config.build_problem(cfg, first)
            out = str(tmp_path / "out" / inv.label)
            assert cli.main(inv.argv(str(tmp_path), out)) == 0, inv.label

    @staticmethod
    def solver_work(tmp_path, monkeypatch, workload, seed=0):
        """The Newton solves, closure-map calls, points they evaluate and
        rules built by one pass of ``workload``'s invocations at ``seed``."""
        counts = dict.fromkeys(("solves", "calls", "points", "rules"), 0)
        newton_solve, closure_map, anchor_rule = fp._newton_solve, fp._closure_map, fp.anchor_rule

        def counting_solve(specs, *args):
            counts["solves"] += 1
            return newton_solve(specs, *args)

        def counting_closure_map(x, points, loss, rules, active=None):
            counts["calls"] += 1
            counts["points"] += len(x) if active is None else len(active)
            return closure_map(x, points, loss, rules, active)

        def counting_rule(*args):
            counts["rules"] += 1
            return anchor_rule(*args)

        monkeypatch.setattr(fp, "_newton_solve", counting_solve)
        monkeypatch.setattr(fp, "_closure_map", counting_closure_map)
        monkeypatch.setattr(fp, "anchor_rule", counting_rule)
        generated = benchmark_workloads().generate(workload, seed, str(tmp_path))
        for inv in generated.invocations:
            assert cli.main(inv.argv(str(tmp_path), str(tmp_path / "out" / inv.label))) == 0
        return counts

    def test_theory_sweep_keeps_its_solve_budget(self, tmp_path, monkeypatch):
        """theory_sweep's four invocations at seed 0 make 21 Newton solves,
        113 closure-map calls over 269 evaluated points, and build 84
        rules, none of them for the squared run: a schedule that adds a
        solve on a success path fails here."""
        counts = self.solver_work(tmp_path, monkeypatch, "theory_sweep")
        assert counts == {"solves": 21, "calls": 113, "points": 269, "rules": 84}

    def test_erm_ridge_keeps_its_solve_budget(self, tmp_path, monkeypatch):
        """erm_ridge's squared theory side integrates in closed form: 41
        closure-map calls at seed 0, and no rule built."""
        counts = self.solver_work(tmp_path, monkeypatch, "erm_ridge")
        assert (counts["calls"], counts["rules"]) == (41, 0)

    def test_dense_pipeline_keeps_its_solve_budget(self, tmp_path, monkeypatch):
        """dense_pipeline's logistic solves at seed 0 make 66 closure-map
        calls and build 21 rules."""
        counts = self.solver_work(tmp_path, monkeypatch, "dense_pipeline")
        assert (counts["calls"], counts["rules"]) == (66, 21)
