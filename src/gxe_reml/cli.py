"""Command-line interface: env-process, simulate, fit, predict, and cv.

One binary with subcommands.  Every subcommand accepts ``--config FILE``
pointing at flat ``key = value`` text whose keys match the flag names with
underscores (``max_iter = 200``); explicit flags override config values.
Exit status: 0 success, 1 usage error, 2 data error, 3 numerical failure.
The ``GXE_REML_LOG`` environment variable (error|warn|info|debug) sets the
stderr logging level.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import Sequence

import numpy as np

from . import io as gio
from .cv import SparseDesign, run_cv
from .env_features import process_weather
from .errors import DataError, InvalidInputError, NumericalError, UnknownLabelError
from .reml_core import Dataset, fit, lookup_cells
from .simulator import SimConfig, simulate_met
from .variance_structures import STRUCTURE_KINDS, build_structure, structure_class

logger = logging.getLogger(__name__)

# Matrix flags, keyed by the structure input (``needs``) each one supplies.
_MATRIX_FLAGS = {
    "corr": ("--corr", "correlation structures need a correlation matrix"),
    "dist": ("--dist", "kernel structures need a distance matrix"),
}


class UsageError(Exception):
    """Bad flags or flag combinations; exits with status 1."""


class _MissingOption(UsageError):
    """A required flag is absent; ``key`` is its config-file name."""

    def __init__(self, command: str, key: str):
        super().__init__(f"gxe-reml {command}: --{key.replace('_', '-')} is required")
        self.key = key


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map usage to 1
        raise UsageError(f"{self.prog}: {message}")


def _floats(text: str, flag: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"{flag}: expected comma-separated numbers, got {text!r}")


def _window(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"--window: expected 'lo:hi', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise UsageError(f"--window: expected numbers 'lo:hi', got {text!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="gxe-reml", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    env = sub.add_parser(
        "env-process", prog="gxe-reml env-process",
        help="weather CSV to feature, correlation, and distance matrices",
    )
    env.add_argument("--config", help="flat key = value defaults file")
    env.add_argument("--weather", help="daily weather CSV")
    env.add_argument("--variables", help="comma-separated variable names")
    env.add_argument("--interval", type=float, default=100.0,
                     help="heat-unit bin width (default 100)")
    env.add_argument("--window", help="heat-unit window 'lo:hi'")
    env.add_argument("--out-corr", help="output correlation matrix CSV")
    env.add_argument("--out-dist", help="output distance matrix CSV")
    env.add_argument("--out-features", help="optional standardized feature CSV")

    sim = sub.add_parser("simulate", prog="gxe-reml simulate",
                         help="simulate a multi-environment trial")
    sim.add_argument("--config", help="flat key = value truth description")
    sim.add_argument("--structure", choices=STRUCTURE_KINDS)
    sim.add_argument("--n-genotypes", type=int)
    sim.add_argument("--n-markers", type=int)
    sim.add_argument("--p-environments", type=int)
    sim.add_argument("--params", help="comma-separated true parameter values")
    sim.add_argument("--resid-var", type=float)
    sim.add_argument("--env-means", help="scalar or comma-separated p values")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--corr", help="correlation CSV (cor1/corP truth)")
    sim.add_argument("--dist", help="distance CSV (kernel truth)")
    sim.add_argument("--grid", help="comma-separated bandwidth grid (ka truth)")
    sim.add_argument("--out", help="output directory")

    fit_p = sub.add_parser("fit", prog="gxe-reml fit",
                           help="REML fit of one variance structure")
    fit_p.add_argument("--config", help="flat key = value defaults file")
    fit_p.add_argument("--phenotypes", help="phenotype CSV")
    fit_p.add_argument("--kinship", help="relationship matrix CSV")
    fit_p.add_argument("--structure", choices=STRUCTURE_KINDS)
    fit_p.add_argument("--corr", help="correlation CSV (cor1/corP)")
    fit_p.add_argument("--dist", help="distance CSV (kern1/kernP/ka)")
    fit_p.add_argument("--grid", help="comma-separated bandwidth grid (ka)")
    fit_p.add_argument("--init", help="comma-separated initial parameters")
    fit_p.add_argument("--resid-init", type=float)
    fit_p.add_argument("--max-iter", type=int, default=100)
    fit_p.add_argument("--tol", type=float, default=1e-6)
    fit_p.add_argument("--out", help="output directory")

    pred = sub.add_parser("predict", prog="gxe-reml predict",
                          help="cell predictions from a stored fit")
    pred.add_argument("--config", help="flat key = value defaults file")
    pred.add_argument("--fit", help="fit output directory")
    pred.add_argument("--targets", help="CSV of genotype,environment targets")
    pred.add_argument("--out", help="output CSV")

    cv_p = sub.add_parser("cv", prog="gxe-reml cv",
                          help="sparse-testing cross-validation")
    cv_p.add_argument("--config", help="flat key = value defaults file")
    cv_p.add_argument("--phenotypes", help="phenotype CSV (real-data mode)")
    cv_p.add_argument("--sim-config", help="truth config file (simulation mode)")
    cv_p.add_argument("--kinship", help="relationship matrix CSV")
    cv_p.add_argument("--models", help="comma-separated structure kinds")
    cv_p.add_argument("--checks", type=int, default=5)
    cv_p.add_argument("--envs-per-variety", type=int, default=2)
    cv_p.add_argument("--replicates", type=int, default=100)
    cv_p.add_argument("--seed", type=int, default=42)
    cv_p.add_argument("--lambdas", help="comma-separated blend weights")
    cv_p.add_argument("--corr", help="correlation CSV for cor1/corP models")
    cv_p.add_argument("--dist", help="distance CSV for kernel models")
    cv_p.add_argument("--grid", help="comma-separated bandwidth grid (ka)")
    cv_p.add_argument("--max-iter", type=int, default=100)
    cv_p.add_argument("--tol", type=float, default=1e-6)
    cv_p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (default 1: each fit already runs multithreaded "
             "BLAS, so more workers oversubscribe the cores and usually run slower)",
    )
    cv_p.add_argument("--out", help="output report CSV")
    return parser


def _apply_config(parser: _Parser, command: str, config: dict[str, str]) -> None:
    """Install config values as defaults on the matching subparser."""
    sub_actions = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    subparser = sub_actions[0].choices[command]
    known = {a.dest: a for a in subparser._actions}
    for key, raw in config.items():
        if key not in known:
            raise UsageError(f"config key {key!r} is not a {command} option")
        action = known[key]
        value = raw
        if action.type is not None:
            try:
                value = action.type(raw)
            except (TypeError, ValueError):
                raise UsageError(f"config key {key!r}: bad value {raw!r}")
        if action.choices is not None and value not in action.choices:
            raise UsageError(
                f"config key {key!r}: {value!r} is not one of "
                f"{', '.join(map(str, action.choices))}"
            )
        subparser.set_defaults(**{key: value})


def _scan_config_path(argv: Sequence[str]) -> str | None:
    for i, tok in enumerate(argv):
        if tok == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config: expected a file path")
            return argv[i + 1]
        if tok.startswith("--config="):
            return tok.split("=", 1)[1]
    return None


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise _MissingOption(args.command, name)


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Parse and validate argv into a run configuration.

    Raises:
        UsageError: For unknown flags, missing required inputs, out-of-range
            values, or structure/matrix mismatches.
    """
    parser = _build_parser()
    command = next((tok for tok in argv if not tok.startswith("-")), None)
    config_path = _scan_config_path(argv)
    if config_path is not None and command in _HANDLERS:
        _apply_config(parser, command, gio.read_config_file(config_path))
    args = parser.parse_args(list(argv))
    if args.command is None:
        raise UsageError("gxe-reml: a subcommand is required (see --help)")
    _validate(args)
    return args


def _check_structure_matrices(args: argparse.Namespace) -> None:
    kind = args.structure
    cls = structure_class(kind)
    for name, (flag, why) in _MATRIX_FLAGS.items():
        given = getattr(args, name) is not None
        if name == cls.needs and not given:
            raise UsageError(f"--structure {kind} requires {flag} ({why})")
        if name != cls.needs and given:
            if cls.needs not in _MATRIX_FLAGS:
                raise UsageError(f"--structure {kind} takes neither --corr nor --dist")
            needed, why = _MATRIX_FLAGS[cls.needs]
            raise UsageError(f"--structure {kind} takes {needed}, not {flag} ({why})")
    if args.grid is not None and not cls.takes_grid:
        raise UsageError("--grid applies only to kernel averaging (--structure ka)")


def _check_simulate(args: argparse.Namespace) -> None:
    """The simulate checks that do not concern --out (shared with --sim-config)."""
    _require(args, "structure", "n_genotypes", "n_markers", "params", "resid_var")
    if args.n_genotypes < 2 or args.n_markers < 2:
        raise UsageError("--n-genotypes and --n-markers must be >= 2")
    if structure_class(args.structure).needs == "p" and args.p_environments is None:
        raise UsageError(f"--structure {args.structure} requires --p-environments")
    _check_structure_matrices(args)


def _check_fit_controls(args: argparse.Namespace) -> None:
    """The --max-iter and --tol checks that fit and cv share."""
    if args.max_iter < 1:
        raise UsageError("--max-iter must be >= 1")
    if args.tol <= 0:
        raise UsageError("--tol must be positive")


def _validate(args: argparse.Namespace) -> None:
    cmd = args.command
    if cmd == "env-process":
        _require(args, "weather", "variables", "window", "out_corr", "out_dist")
        if args.interval <= 0:
            raise UsageError("--interval must be positive")
        args.window_parsed = _window(args.window)
        if args.window_parsed[0] >= args.window_parsed[1]:
            raise UsageError("--window: lo must be less than hi")
    elif cmd == "simulate":
        _check_simulate(args)
        _require(args, "out")
    elif cmd == "fit":
        _require(args, "phenotypes", "kinship", "structure", "out")
        _check_fit_controls(args)
        _check_structure_matrices(args)
    elif cmd == "predict":
        _require(args, "fit", "targets", "out")
    elif cmd == "cv":
        if (args.phenotypes is None) == (args.sim_config is None):
            raise UsageError("cv needs exactly one of --phenotypes or --sim-config")
        if args.phenotypes is not None and args.kinship is None:
            raise UsageError("--phenotypes mode requires --kinship")
        _require(args, "models", "out")
        if args.replicates < 1:
            raise UsageError("--replicates must be >= 1")
        if args.checks < 1:
            raise UsageError("--checks must be >= 1")
        if args.envs_per_variety < 1:
            raise UsageError("--envs-per-variety must be >= 1")
        _check_fit_controls(args)
        if args.jobs < 1:
            raise UsageError("--jobs must be >= 1")
        for kind in args.models.split(","):
            if kind.strip() not in STRUCTURE_KINDS:
                raise UsageError(
                    f"--models: unknown structure kind {kind.strip()!r}"
                )


def _structure_inputs(args: argparse.Namespace) -> dict:
    """The ``corr``, ``dist`` and ``grid`` inputs of build_structure, from the flags."""
    return {
        "corr": gio.read_correlation_csv(args.corr) if args.corr else None,
        "dist": gio.read_distance_csv(args.dist) if args.dist else None,
        "grid": tuple(_floats(args.grid, "--grid")) if args.grid else None,
    }


def _read_dataset(args: argparse.Namespace) -> tuple[Dataset, dict]:
    """``--phenotypes`` and ``--kinship`` as a Dataset, plus the matrix flags.

    Environments take the label order of the supplied correlation or
    distance matrix, else their order of first appearance in the phenotypes.
    """
    # data files are read before the matrices so CSV errors surface first
    records = gio.read_phenotypes_csv(args.phenotypes)
    kinship = gio.read_kinship_csv(args.kinship)
    inputs = _structure_inputs(args)
    matrix = inputs["corr"] if inputs["corr"] is not None else inputs["dist"]
    env_labels = (
        matrix.labels if matrix is not None
        else list(dict.fromkeys(rec.environment for rec in records))
    )
    return Dataset(records, kinship, env_labels), inputs


def _sim_config(args: argparse.Namespace) -> SimConfig:
    """The simulation truth described by a validated simulate namespace."""
    structure = build_structure(
        args.structure, p=args.p_environments, **_structure_inputs(args)
    )
    env_means: float | list[float] = 0.0
    if args.env_means is not None:
        values = _floats(args.env_means, "--env-means")
        env_means = values[0] if len(values) == 1 else values
    return SimConfig(
        n_genotypes=args.n_genotypes,
        n_markers=args.n_markers,
        structure=structure,
        true_params=np.array(_floats(args.params, "--params")),
        resid_var=args.resid_var,
        env_means=env_means,
        seed=args.seed,
    )


def _read_sim_config(path) -> SimConfig:
    """``cv --sim-config``: the file is read as ``simulate --config`` reads it.

    Every key is a simulate option (``out`` is not needed); any failure is
    a DataError naming the file.
    """
    parser = _build_parser()
    try:
        _apply_config(parser, "simulate", gio.read_config_file(path))
        args = parser.parse_args(["simulate"])
        _check_simulate(args)
        return _sim_config(args)
    except _MissingOption as exc:
        raise DataError(f"{path}: missing required key {exc.key!r}") from None
    except (UsageError, ValueError) as exc:
        # InvalidInputError from build_structure or SimConfig is a ValueError.
        raise DataError(f"{path}: {exc}") from None


def _cmd_env_process(args: argparse.Namespace) -> None:
    records = gio.read_weather_csv(args.weather)
    variables = [v.strip() for v in args.variables.split(",") if v.strip()]
    features, corr, dist = process_weather(
        records, variables, args.interval, args.window_parsed
    )
    gio.write_matrix_csv(args.out_corr, corr.values, corr.labels, corr.labels)
    gio.write_matrix_csv(args.out_dist, dist.values, dist.labels, dist.labels)
    if args.out_features:
        gio.write_matrix_csv(
            args.out_features, features.values,
            features.variable_labels, features.environment_labels,
        )
    logger.info(
        "processed %d environments, %d feature rows", features.p, features.q
    )


def _cmd_simulate(args: argparse.Namespace) -> None:
    config = _sim_config(args)
    out = simulate_met(config)
    os.makedirs(args.out, exist_ok=True)
    gio.write_phenotypes_csv(
        os.path.join(args.out, "phenotypes.csv"), out.dataset.records
    )
    gio.write_matrix_csv(
        os.path.join(args.out, "kinship.csv"),
        out.dataset.kinship.values,
        out.dataset.genotype_labels,
        out.dataset.genotype_labels,
    )
    gio.write_truth_csv(
        os.path.join(args.out, "truth.csv"), out, config.structure.param_names()
    )
    logger.info(
        "simulated %d genotypes x %d environments into %s",
        out.dataset.n, out.dataset.p, args.out,
    )


def _cmd_fit(args: argparse.Namespace) -> None:
    dataset, inputs = _read_dataset(args)
    structure = build_structure(
        args.structure, env_labels=dataset.environment_labels, **inputs
    )
    init = np.array(_floats(args.init, "--init")) if args.init else None
    result = fit(
        dataset, structure,
        init=init, resid_init=args.resid_init,
        max_iter=args.max_iter, tol=args.tol,
    )
    if not result.converged:
        logger.warning(
            "fit did not converge (stopped after %d of at most %d iterations); "
            "results written anyway", result.iterations, args.max_iter,
        )
    if result.boundary_params:
        logger.warning(
            "clamped at lower boundary: %s", ", ".join(result.boundary_params)
        )
    gio.write_fit_dir(args.out, result)
    logger.info("fit written to %s (loglik %.6f)", args.out, result.loglik)


def _cmd_predict(args: argparse.Namespace) -> None:
    stored = gio.read_fit_dir(args.fit)
    targets = gio.read_targets_csv(args.targets)
    try:
        predictions = lookup_cells(stored, targets)
    except UnknownLabelError as exc:
        raise DataError(f"{args.targets}: {exc}") from None
    gio.write_predictions_csv(args.out, predictions)
    logger.info("%d predictions written to %s", len(targets), args.out)


def _cmd_cv(args: argparse.Namespace) -> None:
    sim_config = dataset = None
    if args.sim_config is not None:
        sim_config = _read_sim_config(args.sim_config)
        inputs = _structure_inputs(args)
    else:
        dataset, inputs = _read_dataset(args)
    design = SparseDesign(
        n_checks=args.checks,
        envs_per_variety=args.envs_per_variety,
        replicates=args.replicates,
        seed=args.seed,
    )
    lambdas = _floats(args.lambdas, "--lambdas") if args.lambdas else None
    rows = run_cv(
        [k.strip() for k in args.models.split(",")], design,
        sim_config=sim_config, dataset=dataset, **inputs, lambdas=lambdas,
        max_iter=args.max_iter, tol=args.tol, jobs=args.jobs,
    )
    gio.write_cv_report(args.out, rows)
    n_failed = sum(1 for r in rows if not r.converged)
    logger.info(
        "cv report with %d rows written to %s (%d non-converged)",
        len(rows), args.out, n_failed,
    )


_HANDLERS = {
    "env-process": _cmd_env_process,
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "cv": _cmd_cv,
}


_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _setup_logging() -> None:
    raw = os.environ.get("GXE_REML_LOG", "warn").lower()
    level = _LOG_LEVELS.get(raw)
    if level is None:
        level = logging.WARNING
    logging.basicConfig(
        stream=sys.stderr, level=level,
        format="%(levelname)s %(name)s: %(message)s",
    )
    if raw not in _LOG_LEVELS:
        logging.getLogger(__name__).warning(
            "GXE_REML_LOG=%s not recognized; using 'warn'", raw
        )


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point; returns the process exit status."""
    _setup_logging()
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        _HANDLERS[args.command](args)
    except UsageError as exc:  # also a malformed number list, found while running
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, InvalidInputError) as exc:
        print(f"gxe-reml: error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"gxe-reml: numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
