"""Command-line interface: env-process, simulate, fit, predict, and cv.

One binary with subcommands.  Every subcommand accepts ``--config FILE``
pointing at flat ``key = value`` text whose keys match the flag names with
underscores (``max_iter = 200``).  Each line is spelled as the flag
``--max-iter=200`` ahead of the command line, so config values pass the same
checks as flags and explicit flags override them.
Exit status: 0 success, 1 usage error, 2 data error, 3 numerical failure.
The ``GXE_REML_LOG`` environment variable (error|warn|info|debug) sets the
stderr logging level.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import Callable, Sequence

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


def _bounded(convert: Callable, holds: Callable, wording: str) -> Callable:
    """An argparse ``type``: ``convert`` the text, then require ``holds``."""
    def parse(text: str):
        value = convert(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"must be {wording}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


_count = _bounded(int, lambda v: v >= 1, ">= 1")
_size = _bounded(int, lambda v: v >= 2, ">= 2")
_seed = _bounded(int, lambda v: v >= 0, ">= 0")
_positive = _bounded(float, lambda v: 0 < v < np.inf, "finite and positive")
_nonnegative = _bounded(float, lambda v: 0 <= v < np.inf, "finite and >= 0")


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


def _distinct(items: Sequence, what: str) -> Sequence:
    for i, item in enumerate(items):
        if item in items[:i]:
            raise argparse.ArgumentTypeError(f"{what} {item!r} is repeated")
    return items


_finite_floats = _bounded(_floats, lambda v: np.isfinite(v).all(),
                          "comma-separated finite numbers")
_unit_floats = _bounded(_floats, lambda v: all(0 <= lam <= 1 for lam in v),
                        "comma-separated numbers in [0, 1]")


def _lambdas(text: str) -> tuple[float, ...]:
    return _distinct(_unit_floats(text), "lambda")


def _variables(text: str) -> list[str]:
    return _distinct([v.strip() for v in text.split(",") if v.strip()], "variable")


def _window(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError:  # a bad number, or not two of them
        raise argparse.ArgumentTypeError(
            f"expected numbers 'lo:hi', got {text!r}"
        ) from None
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise argparse.ArgumentTypeError(f"lo and hi must be finite, got {text!r}")
    if lo >= hi:
        raise argparse.ArgumentTypeError("lo must be less than hi")
    return lo, hi


def _models(text: str) -> list[str]:
    kinds = [kind.strip() for kind in text.split(",")]
    for kind in kinds:
        if kind not in STRUCTURE_KINDS:
            raise argparse.ArgumentTypeError(f"unknown structure kind {kind!r}")
    return _distinct(kinds, "structure kind")


def _build_parser() -> _Parser:
    parser = _Parser(prog="gxe-reml", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    # Flags that several subcommands share, each declared once.
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="flat key = value defaults file")
    matrices = argparse.ArgumentParser(add_help=False)
    matrices.add_argument("--corr", help="correlation CSV (cor1/corP)")
    matrices.add_argument("--dist", help="distance CSV (kern1/kernP/ka)")
    matrices.add_argument("--grid", type=_finite_floats,
                          help="comma-separated bandwidth grid (ka)")
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--phenotypes", help="phenotype CSV")
    data.add_argument("--kinship", help="relationship matrix CSV")
    controls = argparse.ArgumentParser(add_help=False)
    controls.add_argument("--max-iter", type=_count, default=100)
    controls.add_argument("--tol", type=_positive, default=1e-6)

    env = sub.add_parser(
        "env-process", prog="gxe-reml env-process", parents=[config],
        help="weather CSV to feature, correlation, and distance matrices",
    )
    env.add_argument("--weather", help="daily weather CSV")
    env.add_argument("--variables", type=_variables,
                     help="comma-separated variable names")
    env.add_argument("--interval", type=_positive, default=100.0,
                     help="heat-unit bin width (default 100)")
    env.add_argument("--window", type=_window, help="heat-unit window 'lo:hi'")
    env.add_argument("--out-corr", help="output correlation matrix CSV")
    env.add_argument("--out-dist", help="output distance matrix CSV")
    env.add_argument("--out-features", help="optional standardized feature CSV")

    sim = sub.add_parser("simulate", prog="gxe-reml simulate",
                         parents=[config, matrices],
                         help="simulate a multi-environment trial")
    sim.add_argument("--structure", choices=STRUCTURE_KINDS)
    sim.add_argument("--n-genotypes", type=_size)
    sim.add_argument("--n-markers", type=_size)
    sim.add_argument("--p-environments", type=_count)
    sim.add_argument("--params", type=_finite_floats,
                     help="comma-separated true parameter values")
    sim.add_argument("--resid-var", type=_nonnegative)
    sim.add_argument("--env-means", type=_finite_floats, default=0.0,
                     help="scalar or comma-separated p values (default 0)")
    sim.add_argument("--seed", type=_seed, default=0)
    sim.add_argument("--out", help="output directory")

    fit_p = sub.add_parser("fit", prog="gxe-reml fit",
                           parents=[config, data, matrices, controls],
                           help="REML fit of one variance structure")
    fit_p.add_argument("--structure", choices=STRUCTURE_KINDS)
    fit_p.add_argument("--init", type=_finite_floats,
                       help="comma-separated initial parameters")
    fit_p.add_argument("--resid-init", type=_positive)
    fit_p.add_argument("--out", help="output directory")

    pred = sub.add_parser("predict", prog="gxe-reml predict", parents=[config],
                          help="cell predictions from a stored fit")
    pred.add_argument("--fit", help="fit output directory")
    pred.add_argument("--targets", help="CSV of genotype,environment targets")
    pred.add_argument("--out", help="output CSV")

    cv_p = sub.add_parser("cv", prog="gxe-reml cv",
                          parents=[config, data, matrices, controls],
                          help="sparse-testing cross-validation")
    cv_p.add_argument("--sim-config", help="truth config file (simulation mode)")
    cv_p.add_argument("--models", type=_models,
                      help="comma-separated structure kinds")
    cv_p.add_argument("--checks", type=_count, default=5)
    cv_p.add_argument("--envs-per-variety", type=_count, default=2)
    cv_p.add_argument("--replicates", type=_count, default=100)
    cv_p.add_argument("--seed", type=_seed, default=42)
    cv_p.add_argument("--lambdas", type=_lambdas,
                      help="comma-separated blend weights")
    cv_p.add_argument(
        "--jobs", type=_count, default=1,
        help="worker processes (default 1: each fit already runs multithreaded "
             "BLAS, so more workers oversubscribe the cores and usually run slower)",
    )
    cv_p.add_argument("--out", help="output report CSV")
    return parser


def _config_flags(parser: _Parser, command: str, path) -> list[str]:
    """The ``key = value`` lines of a config file as ``--key=value`` flags.

    The ``=`` form keeps a value that starts with '-' (``window = -100:100``)
    attached to its flag.
    """
    known = vars(parser.parse_args([command]))
    flags = []
    for key, value in gio.read_config_file(path).items():
        if key not in known:
            raise UsageError(f"config key {key!r} is not a {command} option")
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


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
    argv = list(argv)
    args = parser.parse_args(argv)
    if args.command is None:
        raise UsageError("gxe-reml: a subcommand is required (see --help)")
    if args.config is not None:
        at = argv.index(args.command) + 1
        config = _config_flags(parser, args.command, args.config)
        args = parser.parse_args(argv[:at] + config + argv[at:])
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
    if structure_class(args.structure).needs == "p" and args.p_environments is None:
        raise UsageError(f"--structure {args.structure} requires --p-environments")
    _check_structure_matrices(args)


def _validate(args: argparse.Namespace) -> None:
    cmd = args.command
    if cmd == "env-process":
        _require(args, "weather", "variables", "window", "out_corr", "out_dist")
    elif cmd == "simulate":
        _check_simulate(args)
        _require(args, "out")
    elif cmd == "fit":
        _require(args, "phenotypes", "kinship", "structure", "out")
        _check_structure_matrices(args)
    elif cmd == "predict":
        _require(args, "fit", "targets", "out")
    elif cmd == "cv":
        if (args.phenotypes is None) == (args.sim_config is None):
            raise UsageError("cv needs exactly one of --phenotypes or --sim-config")
        if args.phenotypes is not None and args.kinship is None:
            raise UsageError("--phenotypes mode requires --kinship")
        _require(args, "models", "out")
        classes = [structure_class(kind) for kind in args.models]
        if args.grid is not None and not any(cls.takes_grid for cls in classes):
            raise UsageError("--grid applies only to kernel averaging (--models ka)")
        if args.phenotypes is not None:  # else run_cv takes a missing matrix from the truth
            for cls in classes:
                if cls.needs in _MATRIX_FLAGS and getattr(args, cls.needs) is None:
                    flag, why = _MATRIX_FLAGS[cls.needs]
                    raise UsageError(f"--models {cls.kind} requires {flag} ({why})")


def _structure_inputs(args: argparse.Namespace) -> dict:
    """The ``corr``, ``dist`` and ``grid`` inputs of build_structure, from the flags."""
    return {
        "corr": gio.read_correlation_csv(args.corr) if args.corr else None,
        "dist": gio.read_distance_csv(args.dist) if args.dist else None,
        "grid": args.grid or None,
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
    return SimConfig(
        n_genotypes=args.n_genotypes,
        n_markers=args.n_markers,
        structure=structure,
        true_params=np.array(args.params),
        resid_var=args.resid_var,
        env_means=args.env_means,
        seed=args.seed,
    )


def _read_sim_config(path) -> SimConfig:
    """``cv --sim-config``: the file is read as ``simulate --config`` reads it.

    Every key is a simulate option (``out`` is not needed); any failure is
    a DataError naming the file.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(["simulate", *_config_flags(parser, "simulate", path)])
        _check_simulate(args)
        return _sim_config(args)
    except _MissingOption as exc:
        raise DataError(f"{path}: missing required key {exc.key!r}") from None
    except (UsageError, ValueError) as exc:
        # InvalidInputError from build_structure or SimConfig is a ValueError.
        raise DataError(f"{path}: {exc}") from None


def _cmd_env_process(args: argparse.Namespace) -> None:
    records = gio.read_weather_csv(args.weather)
    features, corr, dist = process_weather(
        records, args.variables, args.interval, args.window
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
    init = np.array(args.init) if args.init else None
    result = fit(
        dataset, structure,
        init=init, resid_init=args.resid_init,
        max_iter=args.max_iter, tol=args.tol,
    )
    if not result.converged:
        logger.warning(
            "fit did not converge (%s after %d of at most %d iterations); "
            "results written anyway", result.termination, result.iterations,
            args.max_iter,
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
    rows = run_cv(
        args.models, design,
        sim_config=sim_config, dataset=dataset, **inputs,
        lambdas=args.lambdas or None,  # "" is lambda 0 alone
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
    logging.basicConfig(
        stream=sys.stderr, level=_LOG_LEVELS.get(raw, logging.WARNING),
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
    except UsageError as exc:
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
