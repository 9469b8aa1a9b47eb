"""The CSV tables of ``gxe_reml.io``: round trips, columns, and parse errors.

Every table is a header row followed by rows of the header's cell count.
Readers raise ``DataError`` naming the file, and the row and column where
there is one.
"""

import csv

import numpy as np
import pytest

from gxe_reml import (
    CellPrediction,
    CvRow,
    DataError,
    DiagonalVariance,
    GxeRemlError,
    MainEffect,
    PhenotypeRecord,
    SimConfig,
    fit,
    simulate_met,
)
from gxe_reml import io as gio

from helpers import make_dataset


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def write_text(path, *lines):
    path.write_text("".join(line + "\n" for line in lines))
    return path


@pytest.fixture(scope="module")
def fit_result():
    dataset = make_dataset(6, 3, seed=5)
    return fit(dataset, DiagonalVariance(3, dataset.environment_labels))


@pytest.fixture()
def fit_dir(tmp_path, fit_result):
    out = tmp_path / "fit"
    gio.write_fit_dir(out, fit_result)
    return out


class TestRoundTrips:
    def test_matrix(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(3, 2)) * 10.0 ** rng.integers(-8, 8, size=(3, 2))
        path = tmp_path / "m.csv"
        gio.write_matrix_csv(path, values, ["r1", "r2", "r3"], ["c1", "c2"])
        got, rows, cols = gio.read_matrix_csv(path)
        assert np.array_equal(got, values), "17 significant digits round-trip exactly"
        assert rows == ["r1", "r2", "r3"] and cols == ["c1", "c2"]
        assert read_rows(path)[0] == ["", "c1", "c2"]

    def test_phenotypes(self, tmp_path):
        records = [
            PhenotypeRecord("g1", "E1", 0.1),
            PhenotypeRecord("g2", "E1", -3.0e-12),
            PhenotypeRecord("g1", "E2", 12345.678901234567),
        ]
        path = tmp_path / "phen.csv"
        gio.write_phenotypes_csv(path, records)
        assert read_rows(path)[0] == ["genotype", "environment", "value"]
        assert gio.read_phenotypes_csv(path) == records

    def test_fit_dir(self, fit_dir, fit_result):
        stored = gio.read_fit_dir(fit_dir)
        assert stored.environment_labels == fit_result.environment_labels
        assert stored.genotype_labels == fit_result.genotype_labels
        assert np.array_equal(stored.blup_matrix, fit_result.blup_matrix)
        assert np.array_equal(stored.beta_hat, fit_result.beta_hat)
        assert np.array_equal(
            stored.environment_means(), fit_result.environment_means()
        )

    def test_fit_dir_files(self, fit_dir, fit_result):
        params = read_rows(fit_dir / "params.csv")
        assert params[0] == ["name", "value"]
        names = [row[0] for row in params[1:]]
        assert names == (
            fit_result.param_names
            + ["beta[intercept]", "beta[env:E1]", "beta[env:E2]"]
            + ["loglik", "converged", "iterations"]
        )
        assert params[-1] == ["iterations", str(fit_result.iterations)]
        loglik = read_rows(fit_dir / "loglik.csv")
        assert loglik[0] == ["iteration", "loglik"]
        assert [row[0] for row in loglik[1:]] == [
            str(i) for i in range(len(fit_result.loglik_trace))
        ]
        ai, labels, _ = gio.read_matrix_csv(fit_dir / "ai.csv")
        assert labels == fit_result.param_names
        assert np.array_equal(ai, fit_result.ai_matrix)


class TestWrittenColumns:
    def test_truth(self, tmp_path):
        config = SimConfig(
            n_genotypes=3, n_markers=12, structure=MainEffect(2),
            true_params=np.array([1.0]), resid_var=0.5, seed=4,
        )
        out = simulate_met(config)
        path = tmp_path / "truth.csv"
        gio.write_truth_csv(path, out, ["var"])
        rows = read_rows(path)
        assert rows[0] == ["name", "genotype", "environment", "value"]
        assert rows[1] == ["var", "", "", "1"]
        assert rows[2] == ["resid_var", "", "", "0.5"]
        genetic = rows[3:]
        assert len(genetic) == 3 * 2
        assert [r[:3] for r in genetic[:4]] == [
            ["genetic_value", "G0001", "E01"],
            ["genetic_value", "G0002", "E01"],
            ["genetic_value", "G0003", "E01"],
            ["genetic_value", "G0001", "E02"],
        ], "environment-major cells, genotype fastest"
        assert float(genetic[3][3]) == out.true_genetic_matrix[0, 1]

    def test_predictions(self, tmp_path):
        path = tmp_path / "pred.csv"
        gio.write_predictions_csv(path, [
            CellPrediction("g1", "E2", 0.25, 1.0 / 3.0),
        ])
        assert read_rows(path) == [
            ["genotype", "environment", "blup", "fitted"],
            ["g1", "E2", "0.25", "0.33333333333333331"],
        ]

    def test_cv_report(self, tmp_path):
        path = tmp_path / "cv.csv"
        gio.write_cv_report(path, [
            CvRow("corP", 3, 0.5, 0.75, 1.5, 0.125, True),
            CvRow("kern1", 4, 0.0, float("nan"), float("nan"), 2.0, False),
        ])
        assert read_rows(path) == [
            ["model", "replicate", "lambda", "mean_pearson", "mean_rmse",
             "fit_seconds", "converged"],
            ["corP", "3", "0.5", "0.75", "1.5", "0.125", "1"],
            ["kern1", "4", "0", "nan", "nan", "2", "0"],
        ]


WEATHER_HEADER = "environment,day,t_min,t_max,rain"


class TestReaderErrors:
    """For each reader: wrong header, wrong cell count, empty body, non-number."""

    def raises(self, read, path, *needles):
        with pytest.raises(DataError) as info:
            read(path)
        message = str(info.value)
        for needle in (str(path),) + needles:
            assert needle in message, f"expected {needle!r} in {message!r}"

    # phenotypes
    def test_phenotypes_header(self, tmp_path):
        path = write_text(tmp_path / "p.csv", "geno,env,val", "g1,E1,1.0")
        self.raises(gio.read_phenotypes_csv, path, "genotype,environment,value")

    def test_phenotypes_cell_count(self, tmp_path):
        path = write_text(tmp_path / "p.csv", "genotype,environment,value",
                          "g1,E1,1.0", "g2,E1,1.0,7")
        self.raises(gio.read_phenotypes_csv, path, "row 3", "4 cells")

    def test_phenotypes_empty_body(self, tmp_path):
        path = write_text(tmp_path / "p.csv", "genotype,environment,value")
        self.raises(gio.read_phenotypes_csv, path)

    def test_phenotypes_not_a_number(self, tmp_path):
        for bad in ("abc", "nan", "inf"):
            path = write_text(tmp_path / "p.csv", "genotype,environment,value",
                              "g1,E1,1.0", f"g2,E1,{bad}")
            self.raises(gio.read_phenotypes_csv, path, "row 3", "'value'", repr(bad))

    # weather
    def test_weather_header(self, tmp_path):
        path = write_text(tmp_path / "w.csv", "env,day,t_min,t_max", "E1,1,60,80")
        self.raises(gio.read_weather_csv, path, "environment,day,t_min,t_max")

    def test_weather_cell_count(self, tmp_path):
        path = write_text(tmp_path / "w.csv", WEATHER_HEADER, "E1,1,60,80")
        self.raises(gio.read_weather_csv, path, "row 2", "4 cells")

    def test_weather_empty_body(self, tmp_path):
        path = write_text(tmp_path / "w.csv", WEATHER_HEADER)
        self.raises(gio.read_weather_csv, path)

    def test_weather_not_a_number(self, tmp_path):
        for bad in ("wet", "nan", "inf"):
            path = write_text(tmp_path / "w.csv", WEATHER_HEADER,
                              "E1,1,60,80,0", f"E1,2,60,80,{bad}")
            self.raises(gio.read_weather_csv, path, "row 3", "'rain'", repr(bad))

    def test_weather_day_not_an_integer(self, tmp_path):
        path = write_text(tmp_path / "w.csv", WEATHER_HEADER, "E1,1.5,60,80,0")
        self.raises(gio.read_weather_csv, path, "row 2", "'day'", "1.5")

    def test_weather_extra_columns_are_covariates(self, tmp_path):
        path = write_text(tmp_path / "w.csv", WEATHER_HEADER + ",srad",
                          "E1,1,60,80,0.5,20")
        (record,) = gio.read_weather_csv(path)
        assert (record.environment, record.day, record.t_min, record.t_max) == \
            ("E1", 1, 60.0, 80.0)
        assert dict(record.covariates) == {"rain": 0.5, "srad": 20.0}

    def test_weather_duplicate_column(self, tmp_path):
        path = write_text(tmp_path / "w.csv", WEATHER_HEADER + ",rain",
                          "E1,1,60,80,1,7")
        self.raises(gio.read_weather_csv, path, "'rain'", "twice")

    # targets
    def test_targets_header(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "geno,env", "g1,E1")
        self.raises(gio.read_targets_csv, path, "genotype,environment")

    def test_targets_cell_count(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "genotype,environment", "g1,E1", "g2")
        self.raises(gio.read_targets_csv, path, "row 3", "1 cells")

    def test_targets_extra_cell(self, tmp_path):
        # Every table holds each row to its header's cell count.
        path = write_text(tmp_path / "t.csv", "genotype,environment", "g1,E1,x")
        self.raises(gio.read_targets_csv, path, "row 2", "3 cells")

    def test_targets_empty_body(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "genotype,environment")
        self.raises(gio.read_targets_csv, path)

    def test_targets_strip_labels(self, tmp_path):
        path = write_text(tmp_path / "t.csv", "genotype, environment", " g1 , E1")
        assert gio.read_targets_csv(path) == [("g1", "E1")]

    # fit directory: params.csv and blups.csv
    def break_fit_file(self, fit_dir, name, *lines):
        write_text(fit_dir / name, *lines)
        return fit_dir

    def test_params_header(self, fit_dir):
        self.break_fit_file(fit_dir, "params.csv", "key,value", "resid_var,1")
        self.raises(gio.read_fit_dir, fit_dir, "params.csv", "name,value")

    def test_params_cell_count(self, fit_dir):
        self.break_fit_file(fit_dir, "params.csv", "name,value", "resid_var,1,2")
        self.raises(gio.read_fit_dir, fit_dir, "params.csv", "row 2", "3 cells")

    def test_params_empty_body(self, fit_dir):
        self.break_fit_file(fit_dir, "params.csv", "name,value")
        self.raises(gio.read_fit_dir, fit_dir, "params.csv")

    def test_params_not_a_number(self, fit_dir):
        for bad in ("big", "nan", "inf"):
            self.break_fit_file(fit_dir, "params.csv", "name,value", f"resid_var,{bad}")
            self.raises(gio.read_fit_dir, fit_dir, "params.csv", "row 2", "'value'",
                        repr(bad))

    def test_params_duplicate_row(self, fit_dir):
        # A second row must not silently win: every prediction would shift.
        self.break_fit_file(fit_dir, "params.csv", "name,value", "resid_var,1",
                            "beta[intercept],1", "beta[intercept],99")
        self.raises(gio.read_fit_dir, fit_dir, "params.csv", "row 4", "duplicate",
                    "'beta[intercept]'")

    def test_blups_header(self, fit_dir):
        self.break_fit_file(fit_dir, "blups.csv", "genotype,environment,value",
                            "g000,E0,1")
        self.raises(gio.read_fit_dir, fit_dir, "blups.csv",
                    "genotype,environment,blup")

    def test_blups_cell_count(self, fit_dir):
        self.break_fit_file(fit_dir, "blups.csv", "genotype,environment,blup",
                            "g000,E0")
        self.raises(gio.read_fit_dir, fit_dir, "blups.csv", "row 2", "2 cells")

    def test_blups_empty_body(self, fit_dir):
        self.break_fit_file(fit_dir, "blups.csv", "genotype,environment,blup")
        self.raises(gio.read_fit_dir, fit_dir, "blups.csv")

    def test_blups_not_a_number(self, fit_dir):
        for bad in ("one", "nan", "inf"):
            self.break_fit_file(fit_dir, "blups.csv", "genotype,environment,blup",
                                "g000,E0,1", f"g001,E0,{bad}")
            self.raises(gio.read_fit_dir, fit_dir, "blups.csv", "row 3", "'blup'",
                        repr(bad))

    def test_blups_duplicate_cell(self, fit_dir):
        self.break_fit_file(fit_dir, "blups.csv", "genotype,environment,blup",
                            "g000,E0,1", "g000,E0,2")
        self.raises(gio.read_fit_dir, fit_dir, "blups.csv", "row 3", "duplicate")

    def test_blups_incomplete_grid(self, fit_dir):
        self.break_fit_file(fit_dir, "blups.csv", "genotype,environment,blup",
                            "g000,E0,1", "g001,E0,2", "g000,E1,3", "g002,E1,4")
        self.raises(gio.read_fit_dir, fit_dir, "blups.csv", "grid")

    # labelled matrix
    def test_matrix_cell_count(self, tmp_path):
        path = write_text(tmp_path / "m.csv", ",a,b", "a,1,0", "b,0")
        self.raises(gio.read_matrix_csv, path, "row 3", "2 cells")

    def test_matrix_duplicate_column(self, tmp_path):
        path = write_text(tmp_path / "m.csv", ",a,a", "a,1,0", "b,0,1")
        self.raises(gio.read_matrix_csv, path, "'a'", "twice")

    def test_matrix_duplicate_row_label(self, tmp_path):
        path = write_text(tmp_path / "m.csv", ",a,b", "x,1,2", "x,3,4")
        self.raises(gio.read_matrix_csv, path, "row label 'x'", "twice")

    def test_matrix_without_rows(self, tmp_path):
        path = write_text(tmp_path / "m.csv", ",a,b")
        self.raises(gio.read_matrix_csv, path)

    def test_matrix_not_a_number(self, tmp_path):
        for bad in ("x", "nan", "inf"):
            path = write_text(tmp_path / "m.csv", ",a,b", "a,1,0", f"b,0,{bad}")
            self.raises(gio.read_matrix_csv, path, "row 3", "'b'", repr(bad))

    def test_matrix_without_column_labels(self, tmp_path):
        path = write_text(tmp_path / "m.csv", "label", "a")
        self.raises(gio.read_matrix_csv, path, "expected a labeled matrix with a header row")

    @pytest.mark.parametrize("read, lines, message", [
        (gio.read_kinship_csv, [",A,B", "A,1,2", "B,2,1"],
         "relationship matrix is not positive semidefinite"),
        (gio.read_distance_csv, [",a,b", "a,1,2", "b,2,0"],
         "distance matrix diagonal must be zero"),
    ], ids=["kinship", "distance"])
    def test_matrix_check_names_the_file(self, tmp_path, read, lines, message):
        path = write_text(tmp_path / "m.csv", *lines)
        with pytest.raises(GxeRemlError) as info:
            read(path)
        assert str(info.value).startswith(f"{path}: {message}")

    def test_square_matrix_labels(self, tmp_path):
        path = write_text(tmp_path / "m.csv", ",a,b", "a,1,0", "c,0,1")
        self.raises(gio.read_kinship_csv, path, "row labels differ")

    def test_missing_file(self, tmp_path):
        self.raises(gio.read_phenotypes_csv, tmp_path / "nope.csv", "cannot read")


def test_config_line_without_equals_sign(tmp_path):
    path = write_text(tmp_path / "c.cfg", "out = fit", "structure main")
    with pytest.raises(DataError) as info:
        gio.read_config_file(path)
    assert str(info.value) == f"{path}: line 2: expected 'key = value', got 'structure main'"


def test_config_comment_starts_at_a_line_start_or_after_whitespace(tmp_path):
    path = write_text(tmp_path / "c.cfg", "# header", "  # indented", "",
                      "out = results#1/fit", "max_iter = 10  # note",
                      "tol = 1e-6\t# after a tab")
    assert gio.read_config_file(path) == {
        "out": "results#1/fit", "max_iter": "10", "tol": "1e-6"
    }
