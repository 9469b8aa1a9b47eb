"""End-to-end tests of the command-line interface.

Everything drives ``gxe_reml.cli.main`` in-process; exit codes follow the
documented mapping (0 success, 1 usage, 2 data, 3 numerical).
"""

import argparse
import csv
import subprocess
import sys

import numpy as np
import pytest

from gxe_reml import Dataset, build_structure, reml_core
from gxe_reml import io as gio
from gxe_reml.cli import _build_parser, main, parse_args

from helpers import contrast_reml, gaussian_reference_corr, random_distance


def read_csv_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def params_value(fit_dir, name):
    rows = read_csv_rows(fit_dir / "params.csv")
    values = {row[0]: row[1] for row in rows[1:]}
    return values[name]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One simulated trial reused by the fit/predict/cv tests."""
    root = tmp_path_factory.mktemp("cli")
    corr = gaussian_reference_corr(3, seed=60)
    corr_path = root / "corr.csv"
    gio.write_matrix_csv(corr_path, corr.values, corr.labels, corr.labels)
    sim_dir = root / "sim"
    rc = main([
        "simulate", "--structure", "cor1", "--corr", str(corr_path),
        "--n-genotypes", "25", "--n-markers", "100", "--params", "1.0",
        "--resid-var", "0.5", "--env-means", "1,2,3", "--seed", "7",
        "--out", str(sim_dir),
    ])
    assert rc == 0, "simulation must succeed"
    fit_dir = root / "fit"
    rc = main([
        "fit", "--phenotypes", str(sim_dir / "phenotypes.csv"),
        "--kinship", str(sim_dir / "kinship.csv"),
        "--structure", "cor1", "--corr", str(corr_path),
        "--out", str(fit_dir),
    ])
    assert rc == 0, "fit must succeed"
    return {
        "root": root,
        "corr": corr_path,
        "sim": sim_dir,
        "fit": fit_dir,
        "env_labels": list(corr.labels),
    }


class TestUsageErrors:
    def run_expecting_usage(self, argv, capsys, needle=None):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 1, f"expected usage exit for {argv}, got {rc}: {err}"
        assert err.startswith("error:")
        if needle is not None:
            assert needle in err, f"expected {needle!r} in {err!r}"

    def test_no_subcommand(self, capsys):
        self.run_expecting_usage([], capsys, "subcommand is required")

    def test_unknown_subcommand(self, capsys):
        self.run_expecting_usage(["frobnicate"], capsys)

    def test_unknown_flag(self, capsys):
        self.run_expecting_usage(
            ["fit", "--phenotypes", "x", "--kinship", "k", "--structure",
             "main", "--out", "o", "--bogus"],
            capsys,
        )

    def test_missing_required_flag(self, capsys):
        self.run_expecting_usage(
            ["simulate", "--structure", "main", "--p-environments", "3",
             "--n-genotypes", "10", "--n-markers", "40", "--out", "o",
             "--resid-var", "0.5"],
            capsys, "--params is required",
        )

    def test_malformed_number_list(self, tmp_path, capsys):
        # parsed while the command runs, yet still a usage error, not a crash
        self.run_expecting_usage(
            ["simulate", "--structure", "main", "--p-environments", "3",
             "--n-genotypes", "10", "--n-markers", "40", "--params", "abc",
             "--resid-var", "0.5", "--out", str(tmp_path / "o")],
            capsys, "--params: expected comma-separated numbers",
        )

    def test_kernel_structure_without_distances(self, capsys):
        self.run_expecting_usage(
            ["fit", "--phenotypes", "x", "--kinship", "k",
             "--structure", "kern1", "--out", "o"],
            capsys, "kernel structures need a distance matrix",
        )

    def test_kernel_structure_with_correlation(self, capsys):
        self.run_expecting_usage(
            ["fit", "--phenotypes", "x", "--kinship", "k", "--structure",
             "kern1", "--corr", "c", "--dist", "d", "--out", "o"],
            capsys, "takes --dist, not --corr",
        )

    def test_correlation_structure_without_matrix(self, capsys):
        self.run_expecting_usage(
            ["fit", "--phenotypes", "x", "--kinship", "k",
             "--structure", "cor1", "--out", "o"],
            capsys, "requires --corr",
        )

    def test_plain_structure_takes_no_matrix(self, capsys):
        self.run_expecting_usage(
            ["fit", "--phenotypes", "x", "--kinship", "k", "--structure",
             "main", "--corr", "c", "--out", "o"],
            capsys, "neither",
        )

    def test_grid_only_for_kernel_averaging(self, capsys):
        self.run_expecting_usage(
            ["fit", "--phenotypes", "x", "--kinship", "k", "--structure",
             "kern1", "--dist", "d", "--grid", "0.5,1", "--out", "o"],
            capsys, "--grid applies only",
        )

    def test_main_structure_needs_environment_count(self, capsys):
        self.run_expecting_usage(
            ["simulate", "--structure", "main", "--n-genotypes", "10",
             "--n-markers", "40", "--params", "1", "--resid-var", "0.5",
             "--out", "o"],
            capsys, "--p-environments",
        )

    def test_nonpositive_counts(self, capsys):
        self.run_expecting_usage(
            ["cv", "--sim-config", "t", "--models", "main", "--out", "o",
             "--replicates", "0"],
            capsys, "--replicates",
        )
        self.run_expecting_usage(
            ["fit", "--phenotypes", "x", "--kinship", "k", "--structure",
             "main", "--out", "o", "--tol", "0"],
            capsys, "--tol",
        )

    def test_cv_needs_exactly_one_data_source(self, capsys):
        self.run_expecting_usage(
            ["cv", "--models", "main", "--out", "o"],
            capsys, "exactly one",
        )
        self.run_expecting_usage(
            ["cv", "--models", "main", "--out", "o", "--phenotypes", "p",
             "--sim-config", "t"],
            capsys, "exactly one",
        )
        self.run_expecting_usage(
            ["cv", "--models", "main", "--out", "o", "--phenotypes", "p"],
            capsys, "--kinship",
        )

    def test_cv_unknown_model(self, capsys):
        self.run_expecting_usage(
            ["cv", "--sim-config", "t", "--models", "main,fancy", "--out", "o"],
            capsys, "unknown structure kind",
        )

    # The sim config 't' does not exist: each flag fails before it is read.
    @pytest.mark.parametrize("flags, needle", [
        (["--models", "main,main"], "--models: structure kind 'main' is repeated"),
        (["--models", "main", "--lambdas", "2"],
         "--lambdas: must be comma-separated numbers in [0, 1]"),
        (["--models", "cor1", "--lambdas", "0,-0.5"],
         "--lambdas: must be comma-separated numbers in [0, 1]"),
        (["--models", "cor1", "--lambdas", "nan"],
         "--lambdas: must be comma-separated numbers in [0, 1]"),
        (["--models", "cor1", "--lambdas", "0,0.5,0"],
         "--lambdas: lambda 0.0 is repeated"),
    ], ids=["repeated-model", "lambda-above-1", "negative-lambda", "nan-lambda",
            "repeated-lambda"])
    def test_cv_flag_values(self, capsys, flags, needle):
        self.run_expecting_usage(
            ["cv", "--sim-config", "t", "--out", "o", *flags], capsys, needle,
        )

    def test_env_process_window(self, capsys):
        base = ["env-process", "--weather", "w", "--variables", "rain",
                "--out-corr", "c", "--out-dist", "d"]
        self.run_expecting_usage(base + ["--window", "100"], capsys, "lo:hi")
        self.run_expecting_usage(
            base + ["--window", "9:3"], capsys, "lo must be less than hi"
        )
        self.run_expecting_usage(
            base + ["--window", "0:100", "--interval", "0"],
            capsys, "--interval",
        )

    @pytest.mark.parametrize("flags, needle", [
        (["--tol", "inf"], "--tol: must be finite and positive"),
        (["--tol", "nan"], "--tol: must be finite and positive"),
        (["--resid-init", "inf"], "--resid-init: must be finite and positive"),
        (["--resid-init", "nan"], "--resid-init: must be finite and positive"),
    ])
    def test_non_finite_fit_controls(self, capsys, flags, needle):
        self.run_expecting_usage(
            ["fit", "--phenotypes", "x", "--kinship", "k", "--structure",
             "main", "--out", "o", *flags],
            capsys, needle,
        )

    @pytest.mark.parametrize("flags, needle", [
        (["--window", "0:100", "--interval", "inf"], "--interval: must be finite and positive"),
        (["--window", "0:100", "--interval", "nan"], "--interval: must be finite and positive"),
        (["--window", "0:inf"], "--window: lo and hi must be finite"),
        (["--window", "nan:100"], "--window: lo and hi must be finite"),
        (["--window=-inf:0"], "--window: lo and hi must be finite"),
    ])
    def test_non_finite_env_process_numbers(self, capsys, flags, needle):
        base = ["env-process", "--weather", "w", "--variables", "rain",
                "--out-corr", "c", "--out-dist", "d"]
        self.run_expecting_usage(base + flags, capsys, needle)

    def test_help_exits_zero(self, capsys):
        parser = _build_parser()
        sub = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        for command, subparser in sub.choices.items():
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == 0
            text = capsys.readouterr().out
            for action in subparser._actions:
                for option in action.option_strings:
                    if option.startswith("--"):
                        assert option in text, \
                            f"{command} --help must document {option}"


class TestSimulateCommand:
    def test_outputs_exist_and_parse(self, workspace):
        sim = workspace["sim"]
        records = gio.read_phenotypes_csv(sim / "phenotypes.csv")
        assert len(records) == 25 * 3
        assert {r.environment for r in records} == set(workspace["env_labels"])
        kin = gio.read_kinship_csv(sim / "kinship.csv")
        assert kin.values.shape == (25, 25)
        truth_rows = read_csv_rows(sim / "truth.csv")
        assert truth_rows[0] == ["name", "genotype", "environment", "value"]
        genetic = [r for r in truth_rows[1:] if r[0] == "genetic_value"]
        assert len(genetic) == 25 * 3

    def test_seed_determinism(self, tmp_path, workspace):
        argv = [
            "simulate", "--structure", "cor1", "--corr", str(workspace["corr"]),
            "--n-genotypes", "10", "--n-markers", "60", "--params", "1.0",
            "--resid-var", "0.5",
        ]
        for out, seed in (("a", "11"), ("b", "11"), ("c", "12")):
            assert main(argv + ["--seed", seed, "--out", str(tmp_path / out)]) == 0
        same = (tmp_path / "a" / "phenotypes.csv").read_bytes()
        again = (tmp_path / "b" / "phenotypes.csv").read_bytes()
        other = (tmp_path / "c" / "phenotypes.csv").read_bytes()
        assert same == again, "one seed must reproduce files byte for byte"
        assert same != other


    @pytest.mark.parametrize("env_means", ["1,2", ""])
    def test_env_means_of_another_length(self, tmp_path, capsys, env_means):
        rc = main([
            "simulate", "--structure", "main", "--p-environments", "3",
            "--n-genotypes", "10", "--n-markers", "40", "--params", "1",
            "--resid-var", "0.5", "--env-means", env_means,
            "--out", str(tmp_path / "o"),
        ])
        assert rc == 2, "three environments take one mean or three"
        assert "env_means" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

class TestFitCommand:
    def test_fit_outputs(self, workspace):
        fit_dir = workspace["fit"]
        for name in ("params.csv", "blups.csv", "loglik.csv", "ai.csv"):
            assert (fit_dir / name).exists(), f"fit must write {name}"
        assert params_value(fit_dir, "converged") == "1"
        assert float(params_value(fit_dir, "resid_var")) > 0.0
        blup_rows = read_csv_rows(fit_dir / "blups.csv")
        assert len(blup_rows) == 1 + 25 * 3
        ai, labels, _ = gio.read_matrix_csv(fit_dir / "ai.csv")
        assert ai.shape == (2, 2)
        assert labels[-1] == "resid_var"
        trace_rows = read_csv_rows(fit_dir / "loglik.csv")
        logliks = [float(r[1]) for r in trace_rows[1:]]
        assert all(b >= a - 1e-9 for a, b in zip(logliks, logliks[1:])), \
            "the stored trace must be non-decreasing"

    def test_reported_loglik_matches_the_contrast_oracle(self, workspace):
        # The fixture's kinship is centred, so its fit drives resid_var to the
        # bound, where the dense formula loses digits to cancellation.
        fit_dir, sim = workspace["fit"], workspace["sim"]
        corr = gio.read_correlation_csv(workspace["corr"])
        dataset = Dataset(
            gio.read_phenotypes_csv(sim / "phenotypes.csv"),
            gio.read_kinship_csv(sim / "kinship.csv"),
            corr.labels,
        )
        sigma = build_structure("cor1", corr=corr).sigma(
            [float(params_value(fit_dir, "var"))]
        )
        want = contrast_reml(dataset, sigma, float(params_value(fit_dir, "resid_var")))
        assert abs(float(params_value(fit_dir, "loglik")) - want) <= 1e-8 * abs(want)

    def test_stalled_fit_logs_its_iteration_count(self, tmp_path, workspace,
                                                  monkeypatch, caplog):
        # Every step descends, so every halving fails and the fit stops
        # unconverged at iteration 0, far short of --max-iter.
        monkeypatch.setattr(
            reml_core, "_newton_step",
            lambda ai, corr, grad: -grad / np.max(np.abs(grad)),
        )
        with caplog.at_level("WARNING"):
            rc = main([
                "fit", "--phenotypes", str(workspace["sim"] / "phenotypes.csv"),
                "--kinship", str(workspace["sim"] / "kinship.csv"),
                "--structure", "cor1", "--corr", str(workspace["corr"]),
                "--max-iter", "50", "--out", str(tmp_path / "out"),
            ])
        assert rc == 0
        (message,) = [r.getMessage() for r in caplog.records
                      if "did not converge" in r.getMessage()]
        assert "after 0 of at most 50 iterations" in message
        assert "stalled" in message

    def test_fit_logs_clamped_parameters_once(self, tmp_path, workspace, caplog):
        # The fixture's fit drives resid_var to its bound (see above).
        with caplog.at_level("WARNING"):
            rc = main([
                "fit", "--phenotypes", str(workspace["sim"] / "phenotypes.csv"),
                "--kinship", str(workspace["sim"] / "kinship.csv"),
                "--structure", "cor1", "--corr", str(workspace["corr"]),
                "--out", str(tmp_path / "out"),
            ])
        assert rc == 0
        assert [r.getMessage() for r in caplog.records if "clamped" in r.getMessage()] \
            == ["clamped at lower boundary: resid_var"]

    def test_environments_take_first_appearance_order(self, tmp_path, workspace):
        # Without --corr or --dist the phenotypes order the environments:
        # reversed records put the last environment first, as the reference.
        lines = (workspace["sim"] / "phenotypes.csv").read_text().splitlines()
        reversed_path = tmp_path / "reversed.csv"
        reversed_path.write_text("\n".join([lines[0], *lines[:0:-1]]) + "\n")
        rc = main([
            "fit", "--phenotypes", str(reversed_path),
            "--kinship", str(workspace["sim"] / "kinship.csv"),
            "--structure", "main", "--out", str(tmp_path / "out"),
        ])
        assert rc == 0
        envs = workspace["env_labels"][::-1]
        rows = read_csv_rows(tmp_path / "out" / "params.csv")
        assert [row[0] for row in rows if row[0].startswith("beta")] == \
            ["beta[intercept]"] + [f"beta[env:{env}]" for env in envs[1:]]
        blup_envs = [row[1] for row in read_csv_rows(tmp_path / "out" / "blups.csv")[1:]]
        assert list(dict.fromkeys(blup_envs)) == envs

    @pytest.mark.parametrize("sparse, start, message", [
        (False, ["main", "--init", "1e308", "--resid-init", "1e308"],
         "covariance matrix is not finite"),
        (True, ["main", "--init", "1e308", "--resid-init", "1e308"],
         "covariance matrix is not finite"),
        (False, ["ka", "--init", ",".join(["1e308"] * 7)],
         "covariance matrix is not finite"),
        (False, ["main", "--init", "1e-300", "--resid-init", "1e-308"],
         "restricted log-likelihood is not finite"),
    ], ids=["complete", "sparse", "ka", "complete-quadratic-form"])
    def test_overflowing_start_is_one_line_and_exit_3(self, tmp_path, workspace,
                                                       capsys, sparse, start, message):
        # V overflows at the start on either likelihood point, ka's weights
        # overflow their sum, or a complete trial's quadratic form overflows:
        # exit 3 with the one message, no NumPy warning before it, and
        # nothing written.
        phenotypes = workspace["sim"] / "phenotypes.csv"
        if sparse:
            lines = phenotypes.read_text().splitlines()
            phenotypes = tmp_path / "sparse.csv"
            # the header and two thirds of the records
            phenotypes.write_text("\n".join(
                line for i, line in enumerate(lines) if i % 3 != 1) + "\n")
        if start[0] == "ka":
            labels = workspace["env_labels"]
            dist_path = tmp_path / "dist.csv"
            dist = random_distance(3, seed=62, mean_off=4.0)
            gio.write_matrix_csv(dist_path, dist.values, labels, labels)
            start = start + ["--dist", str(dist_path)]
        rc = main([
            "fit", "--phenotypes", str(phenotypes),
            "--kinship", str(workspace["sim"] / "kinship.csv"),
            "--structure", *start, "--out", str(tmp_path / "out"),
        ])
        assert rc == 3
        assert capsys.readouterr().err.splitlines() == [
            f"gxe-reml: numerical failure: {message}"
        ]
        assert not (tmp_path / "out").exists()

    def test_malformed_phenotype_value(self, tmp_path, workspace, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("genotype,environment,value\ng1,E0,abc\n")
        rc = main([
            "fit", "--phenotypes", str(bad),
            "--kinship", str(workspace["sim"] / "kinship.csv"),
            "--structure", "cor1", "--corr", str(workspace["corr"]),
            "--out", str(tmp_path / "out"),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert "row 2" in err and "value" in err and "abc" in err

    def test_wrong_phenotype_header(self, tmp_path, workspace, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("geno,env,val\ng1,E0,1.0\n")
        rc = main([
            "fit", "--phenotypes", str(bad),
            "--kinship", str(workspace["sim"] / "kinship.csv"),
            "--structure", "cor1", "--corr", str(workspace["corr"]),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert "genotype,environment,value" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, workspace, capsys):
        rc = main([
            "fit", "--phenotypes", str(tmp_path / "nope.csv"),
            "--kinship", str(workspace["sim"] / "kinship.csv"),
            "--structure", "cor1", "--corr", str(workspace["corr"]),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_non_psd_correlation(self, tmp_path, workspace, capsys):
        corr_path = tmp_path / "bad_corr.csv"
        labels = workspace["env_labels"]
        values = np.array([
            [1.0, 1.2, 0.0], [1.2, 1.0, 0.0], [0.0, 0.0, 1.0]
        ])
        gio.write_matrix_csv(corr_path, values, labels, labels)
        rc = main([
            "fit", "--phenotypes", str(workspace["sim"] / "phenotypes.csv"),
            "--kinship", str(workspace["sim"] / "kinship.csv"),
            "--structure", "cor1", "--corr", str(corr_path),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert "positive semidefinite" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["kern1", "kernP", "ka"])
    def test_all_zero_distances(self, tmp_path, workspace, capsys, kind):
        # No positive distance means no bandwidth scale to start from.
        dist_path = tmp_path / "zero_dist.csv"
        labels = workspace["env_labels"]
        gio.write_matrix_csv(dist_path, np.zeros((3, 3)), labels, labels)
        rc = main([
            "fit", "--phenotypes", str(workspace["sim"] / "phenotypes.csv"),
            "--kinship", str(workspace["sim"] / "kinship.csv"),
            "--structure", kind, "--dist", str(dist_path),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 2
        assert "no positive off-diagonal" in capsys.readouterr().err

    def test_label_mismatch(self, tmp_path, workspace, capsys):
        corr = gaussian_reference_corr(3, seed=61)
        corr_path = tmp_path / "renamed.csv"
        gio.write_matrix_csv(
            corr_path, corr.values, ["X", "Y", "Z"], ["X", "Y", "Z"]
        )
        rc = main([
            "fit", "--phenotypes", str(workspace["sim"] / "phenotypes.csv"),
            "--kinship", str(workspace["sim"] / "kinship.csv"),
            "--structure", "cor1", "--corr", str(corr_path),
            "--out", str(tmp_path / "out"),
        ])
        assert rc == 2


class TestPredictCommand:
    def test_round_trip_matches_fit(self, tmp_path, workspace):
        targets = tmp_path / "targets.csv"
        env = workspace["env_labels"]
        targets.write_text(
            "genotype,environment\n"
            f"G0001,{env[0]}\nG0013,{env[2]}\nG0005,{env[1]}\n"
        )
        out = tmp_path / "pred.csv"
        rc = main([
            "predict", "--fit", str(workspace["fit"]),
            "--targets", str(targets), "--out", str(out),
        ])
        assert rc == 0
        rows = read_csv_rows(out)
        assert rows[0] == ["genotype", "environment", "blup", "fitted"]
        assert len(rows) == 4
        stored = {
            (r[0], r[1]): float(r[2])
            for r in read_csv_rows(workspace["fit"] / "blups.csv")[1:]
        }
        intercept = float(params_value(workspace["fit"], "beta[intercept]"))
        for g, e, blup, fitted in rows[1:]:
            assert float(blup) == pytest.approx(stored[(g, e)], abs=1e-12), \
                "predictions must replay the stored conditional means"
            if e == env[0]:
                assert float(fitted) - float(blup) == pytest.approx(
                    intercept, abs=1e-12
                )

    def test_unknown_target_genotype(self, tmp_path, workspace, capsys):
        targets = tmp_path / "targets.csv"
        targets.write_text(f"genotype,environment\nnobody,{workspace['env_labels'][0]}\n")
        rc = main([
            "predict", "--fit", str(workspace["fit"]),
            "--targets", str(targets), "--out", str(tmp_path / "pred.csv"),
        ])
        assert rc == 2
        assert "nobody" in capsys.readouterr().err

    def test_missing_beta_row_is_data_error(self, tmp_path, workspace, capsys):
        fit_dir = tmp_path / "fit"
        fit_dir.mkdir()
        for name in ("blups.csv", "loglik.csv", "ai.csv"):
            (fit_dir / name).write_bytes((workspace["fit"] / name).read_bytes())
        dropped = f"beta[env:{workspace['env_labels'][1]}]"
        rows = read_csv_rows(workspace["fit"] / "params.csv")
        with open(fit_dir / "params.csv", "w", newline="") as handle:
            csv.writer(handle).writerows(r for r in rows if r[0] != dropped)
        targets = tmp_path / "targets.csv"
        targets.write_text(f"genotype,environment\nG0001,{workspace['env_labels'][0]}\n")
        rc = main([
            "predict", "--fit", str(fit_dir),
            "--targets", str(targets), "--out", str(tmp_path / "pred.csv"),
        ])
        err = capsys.readouterr().err
        assert rc == 2, "a fit directory without a beta row is a data error"
        assert "params.csv" in err and dropped in err

    def test_unknown_target_environment(self, tmp_path, workspace, capsys):
        targets = tmp_path / "targets.csv"
        targets.write_text("genotype,environment\nG0001,Mars\n")
        rc = main([
            "predict", "--fit", str(workspace["fit"]),
            "--targets", str(targets), "--out", str(tmp_path / "pred.csv"),
        ])
        assert rc == 2
        assert "Mars" in capsys.readouterr().err


class TestCvCommand:
    def test_real_data_mode(self, tmp_path, workspace):
        out = tmp_path / "report.csv"
        rc = main([
            "cv", "--phenotypes", str(workspace["sim"] / "phenotypes.csv"),
            "--kinship", str(workspace["sim"] / "kinship.csv"),
            "--models", "main,cor1", "--corr", str(workspace["corr"]),
            "--checks", "2", "--envs-per-variety", "1",
            "--replicates", "2", "--seed", "3", "--jobs", "1",
            "--out", str(out),
        ])
        assert rc == 0
        rows = read_csv_rows(out)
        assert rows[0][:4] == ["model", "replicate", "lambda", "mean_pearson"]
        assert len(rows) == 1 + 2 * 2, "two models times two replicates"
        assert {r[0] for r in rows[1:]} == {"main", "cor1"}
        assert all(r[6] in {"0", "1"} for r in rows[1:])

    def test_environment_order_follows_the_matrix(self, tmp_path, workspace):
        # The REML likelihood does not depend on which environment is the
        # reference level, so a reordered correlation file fits the same.
        values, labels, _ = gio.read_matrix_csv(workspace["corr"])
        reversed_corr = tmp_path / "corr_reversed.csv"
        gio.write_matrix_csv(
            reversed_corr, values[::-1, ::-1], labels[::-1], labels[::-1]
        )
        reports = []
        for corr in (workspace["corr"], reversed_corr):
            out = tmp_path / f"{corr.stem}.csv"
            rc = main([
                "cv", "--phenotypes", str(workspace["sim"] / "phenotypes.csv"),
                "--kinship", str(workspace["sim"] / "kinship.csv"),
                "--models", "main,cor1", "--corr", str(corr),
                "--checks", "2", "--envs-per-variety", "1",
                "--replicates", "2", "--seed", "3", "--out", str(out),
            ])
            assert rc == 0, f"cv with {corr.name} must succeed"
            reports.append(read_csv_rows(out)[1:])
        for row, other in zip(*reports):
            assert row[:3] == other[:3] and row[2] == "0"
            for col in (3, 4):  # mean_pearson, mean_rmse
                assert float(row[col]) == pytest.approx(float(other[col]), abs=1e-8)

    def test_distance_order_may_differ_from_correlation_order(self, tmp_path, workspace):
        # Environments follow --corr; the kern1 structure must take the
        # reversed --dist file in that order instead of failing the run.
        labels = workspace["env_labels"]
        dist = random_distance(3, seed=62, mean_off=4.0)
        dist_paths = [tmp_path / "dist.csv", tmp_path / "dist_reversed.csv"]
        gio.write_matrix_csv(dist_paths[0], dist.values, labels, labels)
        gio.write_matrix_csv(
            dist_paths[1], dist.values[::-1, ::-1], labels[::-1], labels[::-1]
        )
        reports = []
        for dist_path in dist_paths:
            out = tmp_path / f"{dist_path.stem}_report.csv"
            rc = main([
                "cv", "--phenotypes", str(workspace["sim"] / "phenotypes.csv"),
                "--kinship", str(workspace["sim"] / "kinship.csv"),
                "--models", "cor1,kern1", "--corr", str(workspace["corr"]),
                "--dist", str(dist_path),
                "--checks", "2", "--envs-per-variety", "1",
                "--replicates", "2", "--seed", "3", "--out", str(out),
            ])
            assert rc == 0, f"cv with {dist_path.name} must succeed"
            reports.append(read_csv_rows(out)[1:])
        assert len(reports[0]) == len(reports[1]) == 4
        for row, other in zip(*reports):
            assert row[:3] == other[:3] and row[6] == other[6]
            for col in (3, 4):  # mean_pearson, mean_rmse
                assert float(row[col]) == pytest.approx(float(other[col]), abs=1e-8)

    def test_simulation_mode(self, tmp_path, workspace):
        cfg = tmp_path / "truth.cfg"
        cfg.write_text(
            "structure = cor1\n"
            f"corr = {workspace['corr']}\n"
            "n_genotypes = 20\n"
            "n_markers = 80\n"
            "params = 1.0\n"
            "resid_var = 0.5\n"
            "seed = 9\n"
        )
        out = tmp_path / "report.csv"
        rc = main([
            "cv", "--sim-config", str(cfg), "--models", "cor1",
            "--checks", "2", "--envs-per-variety", "1",
            "--replicates", "2", "--seed", "4", "--jobs", "1",
            "--out", str(out),
        ])
        assert rc == 0
        rows = read_csv_rows(out)
        assert len(rows) == 1 + 2
        assert all(abs(float(r[3])) <= 1.0 for r in rows[1:]), \
            "mean Pearson must be a correlation"

    def test_sim_config_missing_key(self, tmp_path, capsys):
        cfg = tmp_path / "truth.cfg"
        cfg.write_text("structure = main\np_environments = 3\n")
        rc = main([
            "cv", "--sim-config", str(cfg), "--models", "main",
            "--replicates", "1", "--envs-per-variety", "1",
            "--checks", "2", "--out", str(tmp_path / "r.csv"),
        ])
        assert rc == 2
        assert "missing required key" in capsys.readouterr().err

    def test_sim_config_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "truth.cfg"
        cfg.write_text(
            "structure = main\np_environments = 3\nn_genotypes = 20\n"
            "n_markers = 80\nparams = 1.0\nresid_var = 0.5\nseeds = 5\n"
        )
        rc = main([
            "cv", "--sim-config", str(cfg), "--models", "main",
            "--replicates", "1", "--envs-per-variety", "1",
            "--checks", "2", "--out", str(tmp_path / "r.csv"),
        ])
        err = capsys.readouterr().err
        assert rc == 2, "a mistyped truth key must not be silently ignored"
        assert str(cfg) in err and "'seeds'" in err

    def test_sim_config_reads_simulate_config_files(self, tmp_path, workspace):
        cfg = tmp_path / "truth.cfg"
        cfg.write_text(
            "structure = corP\n"
            f"corr = {workspace['corr']}\n"
            "n_genotypes = 20\nn_markers = 80\nparams = 1.0,0.8,0.6\n"
            "resid_var = 0.5\nenv_means = 1,2,3\nseed = 4\n"
            f"out = {tmp_path / 'unused'}\n"
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
        rc = main([
            "cv", "--sim-config", str(cfg), "--models", "cor1",
            "--replicates", "1", "--envs-per-variety", "1",
            "--checks", "2", "--out", str(tmp_path / "r.csv"),
        ])
        assert rc == 0, "a file simulate accepts must be a valid --sim-config"
        assert not (tmp_path / "unused").exists(), "cv ignores the out key"

    @pytest.mark.parametrize("key, value", [
        ("env_means", "abc"),
        ("p_environments", "x"),
        ("grid", "abc"),
        ("structure", "cor1"),  # a correlation structure with no corr key
    ])
    def test_sim_config_malformed_value(self, tmp_path, capsys, key, value):
        entries = {
            "structure": "main", "p_environments": "3", "n_genotypes": "20",
            "n_markers": "80", "params": "1.0", "resid_var": "0.5",
        }
        entries[key] = value
        cfg = tmp_path / "truth.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        rc = main([
            "cv", "--sim-config", str(cfg), "--models", "main",
            "--replicates", "1", "--envs-per-variety", "1",
            "--checks", "2", "--out", str(tmp_path / "r.csv"),
        ])
        assert rc == 2, "a malformed simulation config is a data error"
        assert str(cfg) in capsys.readouterr().err


    @pytest.mark.parametrize("key, value, needle", [
        ("n_genotypes", "1", "--n-genotypes"),
        ("env_means", "1,2", "env_means"),
    ])
    def test_sim_config_checked_before_any_replicate(self, tmp_path, capsys,
                                                    monkeypatch, key, value, needle):
        simulated = []
        monkeypatch.setattr("gxe_reml.cv.simulate_met", simulated.append)
        entries = {
            "structure": "main", "p_environments": "3", "n_genotypes": "20",
            "n_markers": "80", "params": "1.0", "resid_var": "0.5",
        }
        entries[key] = value
        cfg = tmp_path / "truth.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        rc = main([
            "cv", "--sim-config", str(cfg), "--models", "main",
            "--replicates", "1", "--envs-per-variety", "1",
            "--checks", "2", "--out", str(tmp_path / "r.csv"),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(cfg) in err and needle in err
        assert simulated == [], "a bad truth file fails before replicate 0"

    def test_empty_lambdas_mean_lambda_zero(self, tmp_path, monkeypatch):
        seen = {}
        monkeypatch.setattr(
            "gxe_reml.cli.run_cv",
            lambda models, design, **kwargs: seen.update(kwargs) or [],
        )
        cfg = tmp_path / "truth.cfg"
        cfg.write_text(
            "structure = main\np_environments = 3\nn_genotypes = 20\n"
            "n_markers = 80\nparams = 1.0\nresid_var = 0.5\n"
        )
        rc = main([
            "cv", "--sim-config", str(cfg), "--models", "main", "--lambdas", "",
            "--out", str(tmp_path / "r.csv"),
        ])
        assert rc == 0
        assert seen["lambdas"] is None

class TestEnvProcessCommand:
    @staticmethod
    def write_weather(path, labels=("EA", "EB", "EC")):
        rain = (
            [1, 1, 1, 5, 5, 5, 5, 9],
            [2, 2, 2, 1, 1, 1, 1, 9],
            [4, 4, 4, 8, 8, 8, 8, 9],
        )
        lines = ["environment,day,t_min,t_max,rain"]
        for env, values in zip(labels, rain):
            for day, value in enumerate(values, start=1):
                lines.append(f"{env},{day},60,80,{value}")
        path.write_text("\n".join(lines) + "\n")

    def test_round_trip_into_fit(self, tmp_path):
        weather = tmp_path / "weather.csv"
        self.write_weather(weather)
        corr_path = tmp_path / "env_corr.csv"
        dist_path = tmp_path / "env_dist.csv"
        feat_path = tmp_path / "features.csv"
        rc = main([
            "env-process", "--weather", str(weather), "--variables", "rain",
            "--interval", "80", "--window", "0:160",
            "--out-corr", str(corr_path), "--out-dist", str(dist_path),
            "--out-features", str(feat_path),
        ])
        assert rc == 0
        corr = gio.read_correlation_csv(corr_path)
        dist = gio.read_distance_csv(dist_path)
        assert corr.labels == ["EA", "EB", "EC"]
        assert dist.labels == ["EA", "EB", "EC"]
        feat_rows = read_csv_rows(feat_path)
        assert len(feat_rows) == 3, "two heat-unit bins for one variable"
        assert all(r[0].startswith("rain@") for r in feat_rows[1:])

        rng = np.random.default_rng(62)
        phen = tmp_path / "phenotypes.csv"
        lines = ["genotype,environment,value"]
        for env in ("EA", "EB", "EC"):
            for g in range(4):
                lines.append(f"g{g},{env},{rng.normal():.6f}")
        phen.write_text("\n".join(lines) + "\n")
        kin_path = tmp_path / "kinship.csv"
        labels = [f"g{i}" for i in range(4)]
        gio.write_matrix_csv(kin_path, np.eye(4), labels, labels)
        rc = main([
            "fit", "--phenotypes", str(phen), "--kinship", str(kin_path),
            "--structure", "cor1", "--corr", str(corr_path),
            "--out", str(tmp_path / "fit"),
        ])
        assert rc == 0, "processed weather must feed straight into a fit"

    def test_empty_bin_is_data_error(self, tmp_path, capsys):
        weather = tmp_path / "weather.csv"
        self.write_weather(weather)
        rc = main([
            "env-process", "--weather", str(weather), "--variables", "rain",
            "--interval", "80", "--window", "0:320",
            "--out-corr", str(tmp_path / "c.csv"),
            "--out-dist", str(tmp_path / "d.csv"),
        ])
        assert rc == 2, "a heat-unit bin with no days is a data error"

    def test_repeated_variable_is_usage_error(self, tmp_path, capsys):
        weather = tmp_path / "weather.csv"
        self.write_weather(weather)
        rc = main([
            "env-process", "--weather", str(weather), "--variables", "rain,rain",
            "--interval", "80", "--window", "0:160",
            "--out-corr", str(tmp_path / "c.csv"), "--out-dist", str(tmp_path / "d.csv"),
            "--out-features", str(tmp_path / "f.csv"),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert "--variables: variable 'rain' is repeated" in err
        assert [path.name for path in tmp_path.iterdir()] == ["weather.csv"]

    def test_cv_warns_once_about_the_correlation_diagonal(self, tmp_path, caplog):
        weather = tmp_path / "weather.csv"
        self.write_weather(weather, labels=("E01", "E02", "E03"))
        corr_path = tmp_path / "env_corr.csv"
        assert main([
            "env-process", "--weather", str(weather), "--variables", "rain",
            "--interval", "80", "--window", "0:160",
            "--out-corr", str(corr_path), "--out-dist", str(tmp_path / "d.csv"),
        ]) == 0
        cfg = tmp_path / "truth.cfg"
        cfg.write_text(
            "structure = main\np_environments = 3\nn_genotypes = 20\n"
            "n_markers = 80\nparams = 1.0\nresid_var = 0.5\nseed = 3\n"
        )
        caplog.clear()
        with caplog.at_level("WARNING"):
            rc = main([
                "cv", "--sim-config", str(cfg), "--models", "main,cor1",
                "--corr", str(corr_path), "--lambdas", "0,0.5,0.9",
                "--checks", "2", "--envs-per-variety", "1",
                "--replicates", "3", "--out", str(tmp_path / "r.csv"),
            ])
        assert rc == 0
        warned = [r for r in caplog.records if "deviates from 1" in r.getMessage()]
        assert len(warned) == 1, \
            "one input matrix, one warning, whatever the replicates and lambdas"

    def test_diagonal_warning_comes_when_the_file_is_read(self, tmp_path, caplog):
        weather = tmp_path / "weather.csv"
        self.write_weather(weather, labels=("E01", "E02", "E03"))
        corr_path = tmp_path / "env_corr.csv"
        with caplog.at_level("WARNING"):
            assert main([
                "env-process", "--weather", str(weather), "--variables", "rain",
                "--interval", "80", "--window", "0:160",
                "--out-corr", str(corr_path), "--out-dist", str(tmp_path / "d.csv"),
            ]) == 0
        assert not [r for r in caplog.records if "deviates" in r.getMessage()], \
            "env-process must not warn about the matrix it writes"
        phen = tmp_path / "phenotypes.csv"
        rng = np.random.default_rng(63)
        phen.write_text("genotype,environment,value\n" + "".join(
            f"g{g},{env},{rng.normal():.6f}\n"
            for env in ("E01", "E02", "E03") for g in range(4)
        ))
        kin_path = tmp_path / "kinship.csv"
        labels = [f"g{i}" for i in range(4)]
        gio.write_matrix_csv(kin_path, np.eye(4), labels, labels)
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert main([
                "fit", "--phenotypes", str(phen), "--kinship", str(kin_path),
                "--structure", "cor1", "--corr", str(corr_path),
                "--out", str(tmp_path / "fit"),
            ]) == 0
        warned = [r.getMessage() for r in caplog.records]
        warned = [message for message in warned if "deviates" in message]
        assert len(warned) == 1 and str(corr_path) in warned[0]

    def test_unknown_variable(self, tmp_path, capsys):
        weather = tmp_path / "weather.csv"
        self.write_weather(weather)
        rc = main([
            "env-process", "--weather", str(weather), "--variables", "snow",
            "--interval", "80", "--window", "0:160",
            "--out-corr", str(tmp_path / "c.csv"),
            "--out-dist", str(tmp_path / "d.csv"),
        ])
        assert rc == 2
        assert "snow" in capsys.readouterr().err


class TestConfigFile:
    @pytest.fixture()
    def fit_config(self, tmp_path, workspace):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text(
            f"phenotypes = {workspace['sim'] / 'phenotypes.csv'}\n"
            f"kinship = {workspace['sim'] / 'kinship.csv'}\n"
            "structure = cor1\n"
            f"corr = {workspace['corr']}\n"
            f"out = {tmp_path / 'fit_out'}\n"
            "max_iter = 1  # starve the fit so the override is observable\n"
        )
        return cfg, tmp_path / "fit_out"

    def test_config_supplies_required_flags(self, fit_config):
        cfg, out = fit_config
        assert main(["fit", "--config", str(cfg)]) == 0
        assert params_value(out, "converged") == "0", \
            "config max_iter = 1 must starve the fit"

    def test_hash_inside_a_value_is_kept(self, fit_config, tmp_path):
        # '#' starts a comment only at the start of a line or after whitespace.
        cfg, _ = fit_config
        out = tmp_path / "results#1" / "fit"
        lines = [line for line in cfg.read_text().splitlines()
                 if not line.startswith(("out", "max_iter"))]
        cfg.write_text("\n".join(
            ["# a fit whose directory name holds a '#'", *lines,
             f"out = {out}", "max_iter = 10  # note"]
        ) + "\n")
        assert main(["fit", "--config", str(cfg)]) == 0, \
            "the trailing note must not reach --max-iter"
        assert (out / "params.csv").is_file()
        assert not (tmp_path / "results").exists()
        assert int(params_value(out, "iterations")) <= 10

    def test_explicit_flags_override_config(self, fit_config):
        cfg, out = fit_config
        assert main(["fit", "--config", str(cfg), "--max-iter", "100"]) == 0
        assert params_value(out, "converged") == "1", \
            "the command line must beat the config file"

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("bogus = 1\n")
        assert main(["fit", "--config", str(cfg)]) == 1
        assert "not a fit option" in capsys.readouterr().err

    def test_repeated_config_key(self, fit_config, capsys):
        cfg, out = fit_config
        cfg.write_text(cfg.read_text() + "max_iter = 200\n")
        assert main(["fit", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "'max_iter'" in err and "lines 6 and 7" in err
        assert not out.exists()

    def test_repeated_sim_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "truth.cfg"
        cfg.write_text(
            "structure = main\np_environments = 3\nn_genotypes = 20\n"
            "n_markers = 80\nparams = 1.0\nresid_var = 0.5\nn_genotypes = 30\n"
        )
        rc = main([
            "cv", "--sim-config", str(cfg), "--models", "main",
            "--replicates", "1", "--envs-per-variety", "1",
            "--checks", "2", "--out", str(tmp_path / "r.csv"),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(cfg) in err and "'n_genotypes'" in err and "lines 3 and 7" in err

    def test_bad_typed_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("max_iter = banana\n")
        assert main(["fit", "--config", str(cfg)]) == 1
        assert "banana" in capsys.readouterr().err

    def test_config_respects_choices(self, tmp_path, capsys):
        cfg = tmp_path / "fit.cfg"
        cfg.write_text("structure = fancy\n")
        assert main(["fit", "--config", str(cfg)]) == 1

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["fit", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "cannot read" in capsys.readouterr().err


    @pytest.mark.parametrize("key, flag", [("max_iter", "--max-iter"), ("tol", "--tol")])
    def test_config_values_pass_the_flag_checks(self, fit_config, capsys, key, flag):
        cfg, out = fit_config
        # the fixture's own max_iter line goes, since a key may appear once
        kept = [line for line in cfg.read_text().splitlines()
                if not line.startswith(f"{key} =")]
        cfg.write_text("\n".join(kept + [f"{key} = 0"]) + "\n")
        assert main(["fit", "--config", str(cfg)]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_negative_config_values_parse(self, tmp_path):
        # a config value that starts with '-' is not read as a flag
        env_cfg = tmp_path / "env.cfg"
        env_cfg.write_text(
            "weather = w.csv\nvariables = rain\nwindow = -100:100\n"
            "out_corr = c.csv\nout_dist = d.csv\n"
        )
        args = parse_args(["env-process", "--config", str(env_cfg)])
        assert args.window == (-100.0, 100.0)
        sim_cfg = tmp_path / "sim.cfg"
        sim_cfg.write_text(
            "structure = main\np_environments = 3\nn_genotypes = 10\n"
            "n_markers = 40\nparams = 1\nresid_var = 0.5\n"
            "env_means = -1,-2,-3\nout = o\n"
        )
        args = parse_args(["simulate", "--config", str(sim_cfg)])
        assert args.env_means == (-1.0, -2.0, -3.0)

class TestLogging:
    def test_unknown_level_warns(self, monkeypatch, caplog):
        monkeypatch.setenv("GXE_REML_LOG", "chatty")
        with caplog.at_level("WARNING"):
            assert main([]) == 1
        assert any("GXE_REML_LOG" in rec.message for rec in caplog.records)

    def test_known_level_is_quiet(self, monkeypatch, caplog):
        monkeypatch.setenv("GXE_REML_LOG", "debug")
        with caplog.at_level("WARNING"):
            assert main([]) == 1
        assert not any("GXE_REML_LOG" in rec.message for rec in caplog.records)


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gxe_reml.cli"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "subcommand is required" in proc.stderr
