"""CSV input/output for matrices, phenotypes, weather, and fit results.

Every file is one table format: a header row, then one or more rows with
exactly the header's cell count.  Readers check the header (the whole row,
or its leading columns for weather and targets, which allow more), that
no column name repeats, each row's cell count and a non-empty body; cells
are stripped of surrounding whitespace, and a numeric cell must hold a
finite number (not ``nan`` or ``inf``).  Labeled square matrices are such
a table whose header holds the column labels after an empty corner cell
and whose rows each start with their own label, none repeated.  Matrices
read from disk may be asymmetric up to 1e-8 and are symmetrized; anything
worse is a data error.  A correlation matrix whose diagonal deviates from 1
by more than 0.25 is read with a warning.  All numeric output uses 17
significant digits so cross-run diffs are meaningful.  Every parse error
names the file, and the row and column where there is one.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
import os
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .env_features import DailyWeatherRecord, EnvCorrelationMatrix, EnvDistanceMatrix
from .errors import DataError, GxeRemlError
from .reml_core import CellPrediction, FitResult, PhenotypeRecord, RelationshipMatrix

logger = logging.getLogger(__name__)

FLOAT_FORMAT = "%.17g"


def _fmt(x: float) -> str:
    return FLOAT_FORMAT % x


def _repeated(names: Sequence[str]) -> str | None:
    """The first name in ``names`` that an earlier one already took."""
    seen: set[str] = set()
    for name in names:
        if name in seen:
            return name
        seen.add(name)
    return None


def _read_table(path, header: Sequence[str],
                prefix: bool = False) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The stripped header and ``(row number, cells)`` body rows of a table.

    The header must equal ``header``, or start with it when ``prefix``, and
    name each column once.
    """
    try:
        with open(path, newline="") as handle:
            rows = [[cell.strip() for cell in row] for row in csv.reader(handle)]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    got = rows[0] if rows else []
    if (got[: len(header)] if prefix else got) != list(header):
        raise DataError(
            f"{path}: expected header{' starting' if prefix else ''} "
            f"'{','.join(header)}', got '{','.join(got)}'"
        )
    repeated = _repeated(got)
    if repeated is not None:
        raise DataError(f"{path}: column {repeated!r} appears twice in the header")
    body = list(enumerate(rows[1:], start=2))
    for i, row in body:
        if len(row) != len(got):
            raise DataError(f"{path}: row {i} has {len(row)} cells, expected {len(got)}")
    if not body:
        raise DataError(f"{path}: no rows after the header")
    return got, body


def _write_table(path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _parse_float(text: str, path, row: int, col: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DataError(
            f"{path}: row {row}, column {col!r}: not a finite number: {text!r}"
        )
    return value


def read_matrix_csv(path) -> tuple[np.ndarray, list[str], list[str]]:
    """Labeled matrix: header = column labels, first cell of each row = label."""
    header, rows = _read_table(path, [], prefix=True)
    col_labels = header[1:]
    if not col_labels:
        raise DataError(f"{path}: expected a labeled matrix with a header row")
    row_labels = [row[0] for _, row in rows]
    repeated = _repeated(row_labels)
    if repeated is not None:
        raise DataError(f"{path}: row label {repeated!r} appears twice")
    values = np.array([
        [_parse_float(cell, path, i, col) for col, cell in zip(col_labels, row[1:])]
        for i, row in rows
    ])
    return values, row_labels, col_labels


def write_matrix_csv(path, values: np.ndarray, row_labels: Sequence[str],
                     col_labels: Sequence[str]) -> None:
    _write_table(path, [""] + list(col_labels), (
        [label] + [_fmt(v) for v in row]
        for label, row in zip(row_labels, np.asarray(values))
    ))


def _cell_rows(matrix: np.ndarray, genotype_labels: Sequence[str],
               environment_labels: Sequence[str]) -> Iterable[list[str]]:
    """``[genotype, environment, value]`` rows of an n x p genotype-by-
    environment matrix, environment-major (genotype fastest)."""
    for j, env in enumerate(environment_labels):
        for i, gen in enumerate(genotype_labels):
            yield [gen, env, _fmt(matrix[i, j])]


def _read_labeled(path, cls):
    """A ``cls`` labelled matrix read from ``path``; its errors name the file."""
    values, row_labels, col_labels = read_matrix_csv(path)
    # Every row has the header's cell count, so equal labels make it square.
    if row_labels != col_labels:
        raise DataError(f"{path}: {cls._what} row labels differ from column labels")
    try:
        return cls(values, row_labels)
    except GxeRemlError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def read_correlation_csv(path) -> EnvCorrelationMatrix:
    """Correlation matrix CSV; logs a warning naming the file when its
    diagonal deviates from 1 by more than 0.25."""
    corr = _read_labeled(path, EnvCorrelationMatrix)
    diag_gap = float(np.max(np.abs(np.diag(corr.values) - 1.0), initial=0.0))
    if diag_gap > 0.25:
        logger.warning(
            "%s: correlation matrix diagonal deviates from 1 by up to %.3g",
            path, diag_gap,
        )
    return corr


def read_distance_csv(path) -> EnvDistanceMatrix:
    return _read_labeled(path, EnvDistanceMatrix)


def read_kinship_csv(path) -> RelationshipMatrix:
    return _read_labeled(path, RelationshipMatrix)


def write_phenotypes_csv(path, records: Iterable[PhenotypeRecord]) -> None:
    _write_table(path, ["genotype", "environment", "value"], (
        [rec.genotype, rec.environment, _fmt(rec.value)] for rec in records
    ))


def read_phenotypes_csv(path) -> list[PhenotypeRecord]:
    """Phenotype CSV with header ``genotype,environment,value``."""
    _, rows = _read_table(path, ["genotype", "environment", "value"])
    return [PhenotypeRecord(g, e, _parse_float(v, path, i, "value"))
            for i, (g, e, v) in rows]


def read_weather_csv(path) -> list[DailyWeatherRecord]:
    """Weather CSV: environment, day, t_min, t_max, then covariate columns."""
    header, rows = _read_table(
        path, ["environment", "day", "t_min", "t_max"], prefix=True
    )
    records = []
    for i, row in rows:
        try:
            day = int(row[1])
        except ValueError:
            raise DataError(
                f"{path}: row {i}, column 'day': not an integer: {row[1]!r}"
            ) from None
        t_min, t_max, *covariates = (
            _parse_float(cell, path, i, name)
            for name, cell in zip(header[2:], row[2:])
        )
        records.append(DailyWeatherRecord(
            row[0], day, t_min, t_max, dict(zip(header[4:], covariates))
        ))
    return records


def read_targets_csv(path) -> list[tuple[str, str]]:
    """Target cells CSV whose header starts ``genotype,environment``."""
    _, rows = _read_table(path, ["genotype", "environment"], prefix=True)
    return [(row[0], row[1]) for _, row in rows]


def read_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` configuration; no key may appear twice.  '#' starts
    a comment at the start of a line or after whitespace; elsewhere it is part
    of the value (``out = results#1``)."""
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    out: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for i, line in enumerate(lines, start=1):
        text = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise DataError(f"{path}: line {i}: expected 'key = value', got {text!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        if key in out:
            raise DataError(
                f"{path}: key {key!r} appears twice, on lines {line_of[key]} and {i}"
            )
        out[key], line_of[key] = value, i
    return out


def _beta_names(environment_labels: Sequence[str]) -> list[str]:
    return ["beta[intercept]"] + [f"beta[env:{lab}]" for lab in environment_labels[1:]]


def write_fit_dir(out_dir, result: FitResult) -> None:
    """Write params.csv, blups.csv, loglik.csv, and ai.csv for one fit."""
    os.makedirs(out_dir, exist_ok=True)
    params = [
        *zip(result.param_names[:-1], result.kappa_hat),
        ("resid_var", result.resid_var_hat),
        *zip(_beta_names(result.environment_labels), result.beta_hat),
        ("loglik", result.loglik),
    ]
    _write_table(os.path.join(out_dir, "params.csv"), ["name", "value"], [
        *([name, _fmt(v)] for name, v in params),
        ["converged", str(int(result.converged))],
        ["iterations", str(result.iterations)],
    ])
    _write_table(
        os.path.join(out_dir, "blups.csv"), ["genotype", "environment", "blup"],
        _cell_rows(result.blup_matrix, result.genotype_labels,
                   result.environment_labels),
    )
    _write_table(os.path.join(out_dir, "loglik.csv"), ["iteration", "loglik"], (
        [str(i), _fmt(v)] for i, v in enumerate(result.loglik_trace)
    ))
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
    _, rows = _read_table(params_path, ["name", "value"])
    params: dict[str, float] = {}
    for i, (name, v) in rows:
        if name in params:
            raise DataError(f"{params_path}: row {i}: duplicate entry {name!r}")
        params[name] = _parse_float(v, params_path, i, "value")
    blups_path = os.path.join(fit_dir, "blups.csv")
    _, rows = _read_table(blups_path, ["genotype", "environment", "blup"])
    cells: dict[tuple[str, str], float] = {}
    for i, (g, e, v) in rows:
        if (g, e) in cells:
            raise DataError(f"{blups_path}: row {i}: duplicate cell ({g!r}, {e!r})")
        cells[g, e] = _parse_float(v, blups_path, i, "blup")
    # Environments in order of first appearance; genotypes in the first one's order.
    environment_labels = list(dict.fromkeys(e for _, e in cells))
    genotype_labels = [g for g, e in cells if e == environment_labels[0]]
    if set(cells) != set(itertools.product(genotype_labels, environment_labels)):
        raise DataError(
            f"{blups_path}: the {len(cells)} cells do not cover a complete "
            f"genotype-by-environment grid ({len(genotype_labels)} genotypes x "
            f"{len(environment_labels)} environments)"
        )
    blup_matrix = np.array(
        [[cells[g, e] for e in environment_labels] for g in genotype_labels]
    )
    beta_names = _beta_names(environment_labels)
    missing = [name for name in beta_names + ["resid_var"] if name not in params]
    if missing:
        raise DataError(f"{params_path}: missing required entries: {missing}")
    beta_hat = np.array([params[name] for name in beta_names])
    return StoredFit(environment_labels, genotype_labels, blup_matrix, beta_hat)


def write_cv_report(path, rows) -> None:
    """CV report CSV with one row per (model, replicate, lambda)."""
    _write_table(path, ["model", "replicate", "lambda", "mean_pearson", "mean_rmse",
                        "fit_seconds", "converged"], (
        [r.model, str(r.replicate), _fmt(r.lam), _fmt(r.mean_pearson),
         _fmt(r.mean_rmse), _fmt(r.fit_seconds), str(int(r.converged))]
        for r in rows
    ))


def write_truth_csv(path, sim_output, param_names: Sequence[str]) -> None:
    """Truth CSV for a simulation: parameter rows then per-cell genetic values."""
    dataset = sim_output.dataset
    params = [*zip(param_names, sim_output.true_params),
              ("resid_var", sim_output.resid_var)]
    _write_table(path, ["name", "genotype", "environment", "value"], [
        *([name, "", "", _fmt(v)] for name, v in params),
        *(["genetic_value"] + row for row in _cell_rows(
            sim_output.true_genetic_matrix,
            dataset.genotype_labels, dataset.environment_labels,
        )),
    ])


def write_predictions_csv(path, predictions: Iterable[CellPrediction]) -> None:
    """Cell predictions CSV with header ``genotype,environment,blup,fitted``."""
    _write_table(path, ["genotype", "environment", "blup", "fitted"], (
        [c.genotype, c.environment, _fmt(c.blup), _fmt(c.fitted)] for c in predictions
    ))
