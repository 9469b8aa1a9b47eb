"""CSV input/output for matrices, phenotypes, weather, and fit results.

All numeric output uses 17 significant digits so cross-run diffs are
meaningful.  Labeled square matrices share one format: the first row holds
column labels (with an empty corner cell), each following row starts with
its label.  Matrices read from disk may be asymmetric up to 1e-8 and are
symmetrized; anything worse is a data error.  Every parse error names the
file, row, and column.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .env_features import DailyWeatherRecord, EnvCorrelationMatrix, EnvDistanceMatrix
from .errors import DataError, GxeRemlError
from .reml_core import CellPrediction, FitResult, PhenotypeRecord, RelationshipMatrix

FLOAT_FORMAT = "%.17g"


def _fmt(x: float) -> str:
    return FLOAT_FORMAT % x


def _open_rows(path) -> list[list[str]]:
    try:
        with open(path, newline="") as handle:
            return [row for row in csv.reader(handle)]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def _parse_float(text: str, path, row: int, col: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataError(
            f"{path}: row {row}, column {col!r}: not a number: {text.strip()!r}"
        ) from None


def read_matrix_csv(path) -> tuple[np.ndarray, list[str], list[str]]:
    """Labeled matrix: header = column labels, first cell of each row = label."""
    rows = _open_rows(path)
    if len(rows) < 2 or len(rows[0]) < 2:
        raise DataError(f"{path}: expected a labeled matrix with a header row")
    col_labels = [c.strip() for c in rows[0][1:]]
    row_labels = []
    values = np.empty((len(rows) - 1, len(col_labels)))
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(col_labels) + 1:
            raise DataError(
                f"{path}: row {i} has {len(row)} cells, expected "
                f"{len(col_labels) + 1}"
            )
        row_labels.append(row[0].strip())
        for j, cell in enumerate(row[1:]):
            values[i - 2, j] = _parse_float(cell, path, i, col_labels[j])
    return values, row_labels, col_labels


def write_matrix_csv(path, values: np.ndarray, row_labels: Sequence[str],
                     col_labels: Sequence[str]) -> None:
    values = np.asarray(values)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([""] + list(col_labels))
        for label, row in zip(row_labels, values):
            writer.writerow([label] + [_fmt(v) for v in row])


def _cell_rows(matrix: np.ndarray, genotype_labels: Sequence[str],
               environment_labels: Sequence[str]) -> Iterable[list[str]]:
    """``[genotype, environment, value]`` rows of an n x p genotype-by-
    environment matrix, environment-major (genotype fastest)."""
    for j, env in enumerate(environment_labels):
        for i, gen in enumerate(genotype_labels):
            yield [gen, env, _fmt(matrix[i, j])]


def _read_square(path, what: str) -> tuple[np.ndarray, list[str]]:
    values, row_labels, col_labels = read_matrix_csv(path)
    if row_labels != col_labels:
        raise DataError(f"{path}: {what} row labels differ from column labels")
    if values.shape[0] != values.shape[1]:
        raise DataError(f"{path}: {what} must be square, got {values.shape}")
    return values, row_labels


def _wrap(path, build):
    try:
        return build()
    except GxeRemlError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def read_correlation_csv(path) -> EnvCorrelationMatrix:
    values, labels = _read_square(path, "correlation matrix")
    return _wrap(path, lambda: EnvCorrelationMatrix(values, labels))


def read_distance_csv(path) -> EnvDistanceMatrix:
    values, labels = _read_square(path, "distance matrix")
    return _wrap(path, lambda: EnvDistanceMatrix(values, labels))


def read_kinship_csv(path) -> RelationshipMatrix:
    values, labels = _read_square(path, "relationship matrix")
    return _wrap(path, lambda: RelationshipMatrix(values, labels))


def write_phenotypes_csv(path, records: Iterable[PhenotypeRecord]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["genotype", "environment", "value"])
        for rec in records:
            writer.writerow([rec.genotype, rec.environment, _fmt(rec.value)])


def read_phenotypes_csv(path) -> list[PhenotypeRecord]:
    """Phenotype CSV with header ``genotype,environment,value``."""
    rows = _open_rows(path)
    if not rows or [c.strip() for c in rows[0]] != ["genotype", "environment", "value"]:
        raise DataError(
            f"{path}: expected header 'genotype,environment,value'"
        )
    records = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise DataError(f"{path}: row {i} has {len(row)} cells, expected 3")
        value = _parse_float(row[2], path, i, "value")
        records.append(PhenotypeRecord(row[0].strip(), row[1].strip(), value))
    if not records:
        raise DataError(f"{path}: no phenotype records")
    return records


def read_weather_csv(path) -> list[DailyWeatherRecord]:
    """Weather CSV: environment, day, t_min, t_max, then covariate columns."""
    rows = _open_rows(path)
    if not rows:
        raise DataError(f"{path}: empty weather file")
    header = [c.strip() for c in rows[0]]
    required = ["environment", "day", "t_min", "t_max"]
    if header[: len(required)] != required:
        raise DataError(
            f"{path}: expected header starting 'environment,day,t_min,t_max', "
            f"got {','.join(header[:4])}"
        )
    extra = header[len(required):]
    records = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(
                f"{path}: row {i} has {len(row)} cells, expected {len(header)}"
            )
        try:
            day = int(row[1])
        except ValueError:
            raise DataError(
                f"{path}: row {i}, column 'day': not an integer: {row[1].strip()!r}"
            ) from None
        covariates = {
            name: _parse_float(cell, path, i, name)
            for name, cell in zip(extra, row[4:])
        }
        records.append(
            DailyWeatherRecord(
                environment=row[0].strip(),
                day=day,
                t_min=_parse_float(row[2], path, i, "t_min"),
                t_max=_parse_float(row[3], path, i, "t_max"),
                covariates=covariates,
            )
        )
    if not records:
        raise DataError(f"{path}: no weather records")
    return records


def read_targets_csv(path) -> list[tuple[str, str]]:
    """Target cells CSV with header ``genotype,environment``."""
    rows = _open_rows(path)
    if not rows or [c.strip() for c in rows[0][:2]] != ["genotype", "environment"]:
        raise DataError(f"{path}: expected header 'genotype,environment'")
    targets = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) < 2:
            raise DataError(f"{path}: row {i} has {len(row)} cells, expected 2")
        targets.append((row[0].strip(), row[1].strip()))
    if not targets:
        raise DataError(f"{path}: no target cells")
    return targets


def read_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` configuration; '#' starts a comment."""
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    out: dict[str, str] = {}
    for i, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise DataError(f"{path}: line {i}: expected 'key = value', got {text!r}")
        key, value = text.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _beta_names(environment_labels: Sequence[str]) -> list[str]:
    return ["beta[intercept]"] + [f"beta[env:{lab}]" for lab in environment_labels[1:]]


def write_fit_dir(out_dir, result: FitResult) -> None:
    """Write params.csv, blups.csv, loglik.csv, and ai.csv for one fit."""
    os.makedirs(out_dir, exist_ok=True)
    beta_names = _beta_names(result.environment_labels)
    with open(os.path.join(out_dir, "params.csv"), "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["name", "value"])
        for name, value in zip(result.param_names[:-1], result.kappa_hat):
            writer.writerow([name, _fmt(value)])
        writer.writerow(["resid_var", _fmt(result.resid_var_hat)])
        for name, value in zip(beta_names, result.beta_hat):
            writer.writerow([name, _fmt(value)])
        writer.writerow(["loglik", _fmt(result.loglik)])
        writer.writerow(["converged", str(int(result.converged))])
        writer.writerow(["iterations", str(result.iterations)])
    with open(os.path.join(out_dir, "blups.csv"), "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["genotype", "environment", "blup"])
        writer.writerows(_cell_rows(
            result.blup_matrix, result.genotype_labels, result.environment_labels
        ))
    with open(os.path.join(out_dir, "loglik.csv"), "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["iteration", "loglik"])
        for i, value in enumerate(result.loglik_trace):
            writer.writerow([str(i), _fmt(value)])
    write_matrix_csv(
        os.path.join(out_dir, "ai.csv"),
        result.ai_matrix,
        result.param_names,
        result.param_names,
    )


@dataclass
class StoredFit:
    """Fit directory contents needed to serve predictions."""

    environment_labels: list[str]
    genotype_labels: list[str]
    blup_matrix: np.ndarray
    beta_hat: np.ndarray

    # One rule for fitted and stored models: intercept plus environment effect.
    environment_means = FitResult.environment_means


def read_fit_dir(fit_dir) -> StoredFit:
    """Load a fit directory written by :func:`write_fit_dir`."""
    params_path = os.path.join(fit_dir, "params.csv")
    rows = _open_rows(params_path)
    if not rows or [c.strip() for c in rows[0]] != ["name", "value"]:
        raise DataError(f"{params_path}: expected header 'name,value'")
    params: dict[str, float] = {}
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise DataError(f"{params_path}: row {i} has {len(row)} cells, expected 2")
        params[row[0].strip()] = _parse_float(row[1], params_path, i, "value")
    blups_path = os.path.join(fit_dir, "blups.csv")
    rows = _open_rows(blups_path)
    if not rows or [c.strip() for c in rows[0]] != ["genotype", "environment", "blup"]:
        raise DataError(f"{blups_path}: expected header 'genotype,environment,blup'")
    genotype_labels: list[str] = []
    gen_seen: set[str] = set()
    environment_labels: list[str] = []
    cells_seen: set[tuple[str, str]] = set()
    triples = []
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise DataError(f"{blups_path}: row {i} has {len(row)} cells, expected 3")
        g, e = row[0].strip(), row[1].strip()
        if (g, e) in cells_seen:
            raise DataError(f"{blups_path}: row {i}: duplicate cell ({g!r}, {e!r})")
        cells_seen.add((g, e))
        if e not in environment_labels:
            environment_labels.append(e)
        if e == environment_labels[0] and g not in gen_seen:
            gen_seen.add(g)
            genotype_labels.append(g)
        triples.append((g, e, _parse_float(row[2], blups_path, i, "blup")))
    n, p = len(genotype_labels), len(environment_labels)
    if n * p != len(triples):
        raise DataError(
            f"{blups_path}: expected {n * p} rows for {n} genotypes x {p} "
            f"environments, got {len(triples)}"
        )
    gen_map = {g: i for i, g in enumerate(genotype_labels)}
    env_map = {e: j for j, e in enumerate(environment_labels)}
    blup_matrix = np.empty((n, p))
    for g, e, value in triples:
        try:
            blup_matrix[gen_map[g], env_map[e]] = value
        except KeyError:
            raise DataError(
                f"{blups_path}: unexpected cell ({g!r}, {e!r}); the file must "
                "cover a complete genotype-by-environment grid"
            ) from None
    beta_names = _beta_names(environment_labels)
    missing = [name for name in beta_names + ["resid_var"] if name not in params]
    if missing:
        raise DataError(f"{params_path}: missing required entries: {missing}")
    beta_hat = np.array([params[name] for name in beta_names])
    return StoredFit(environment_labels, genotype_labels, blup_matrix, beta_hat)


def write_cv_report(path, rows) -> None:
    """CV report CSV with one row per (model, replicate, lambda)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["model", "replicate", "lambda", "mean_pearson", "mean_rmse",
             "fit_seconds", "converged"]
        )
        for r in rows:
            writer.writerow(
                [r.model, str(r.replicate), _fmt(r.lam), _fmt(r.mean_pearson),
                 _fmt(r.mean_rmse), _fmt(r.fit_seconds), str(int(r.converged))]
            )


def write_truth_csv(path, sim_output, param_names: Sequence[str]) -> None:
    """Truth CSV for a simulation: parameter rows then per-cell genetic values."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["name", "genotype", "environment", "value"])
        for name, value in zip(param_names, sim_output.true_params):
            writer.writerow([name, "", "", _fmt(value)])
        writer.writerow(["resid_var", "", "", _fmt(sim_output.resid_var)])
        dataset = sim_output.dataset
        writer.writerows(
            ["genetic_value"] + row
            for row in _cell_rows(sim_output.true_genetic_matrix,
                                  dataset.genotype_labels, dataset.environment_labels)
        )


def write_predictions_csv(path, predictions: Iterable[CellPrediction]) -> None:
    """Cell predictions CSV with header ``genotype,environment,blup,fitted``."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["genotype", "environment", "blup", "fitted"])
        for c in predictions:
            writer.writerow([c.genotype, c.environment, _fmt(c.blup), _fmt(c.fitted)])
