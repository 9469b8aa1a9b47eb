"""The three workloads: their inputs, one unit of timed work, and checks.

A unit is what a user waits for: the trial's two fits, one ``gxe-reml cv``
call, or one batch of simulate-then-fit replicates.  ``run_unit`` times it
from outside; everything else here runs outside the timed region.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gxe_reml as gx
import gxe_reml.cli as gx_cli

import gen
import oracle
from spans import END, KEY, NAME, PARENT, START

SCALES = {
    "full": {
        "trial-kernP": {"n": 246, "p": 15, "checks": 6, "per_variety": 3},
        "sparse-cv": {"n": 277, "markers": 1000, "checks": 5, "per_variety": 2,
                      "replicates": 2},
        "complete-recovery": {"n": 100, "p": 5, "replicates": 10},
    },
    "small": {
        "trial-kernP": {"n": 60, "p": 6, "checks": 3, "per_variety": 2},
        "sparse-cv": {"n": 60, "markers": 200, "checks": 5, "per_variety": 2,
                      "replicates": 2},
        "complete-recovery": {"n": 30, "p": 5, "replicates": 8},
    },
}

# A recovery estimate further than this many standard errors from the
# truth means a broken estimator, not sampling noise.
RECOVERY_Z_LIMIT = 6.0

clock = time.perf_counter


@dataclass
class Fit:
    model: str
    key: str  # which fit of the unit: the same key in every unit is the same work
    seconds: float
    converged: bool


@dataclass
class Unit:
    wall: float
    fits: list[Fit]
    rows: list[dict] = field(default_factory=list)


def _fit(dataset, structure, model: str, key: str, fits: list[Fit]):
    """Fit once, appending the timing; a fit that raises is a failed fit."""
    started = clock()
    try:
        result = gx.fit(dataset, structure)
    except gx.GxeRemlError:
        fits.append(Fit(model, key, clock() - started, False))
        return None
    fits.append(Fit(model, key, clock() - started, result.converged))
    return result


def _trace_problems(name: str, trace) -> list[str]:
    steps = np.diff(np.asarray(trace))
    if np.any(steps < 0.0):
        return [f"{name}: loglik_trace decreases (worst step {steps.min():.3e})"]
    return []


class Workload:
    name = ""
    tracer = None

    def _key(self, key: str) -> None:
        if self.tracer is not None:
            self.tracer.key = key

    def traced_setup(self) -> None:
        """Setup work the traced run should also see."""

    def point_evals(self) -> tuple[float, float]:
        return 0.0, 0.0

    def loglik_kernP(self) -> float:
        return 0.0

    def recovery_z(self) -> float:
        return 0.0

    def compare(self, untraced: Unit, traced: Unit) -> list[str]:
        return []

    def label_spans(self, spans) -> None:
        """Refine span keys once the traced unit has finished."""


class TrialKernP(Workload):
    """kernP then kern1 on one sparse split at trial scale."""

    name = "trial-kernP"

    def __init__(self, seed: int, scale: str, workdir: Path):
        cfg = SCALES[scale][self.name]
        n, p, inst = cfg["n"], cfg["p"], gen.TRIAL_INSTANCE
        k = gen.kinship_values(n, [inst, 1])
        d = gen.distance_values(p, [inst, 2], 5.0)
        sd = np.sqrt(np.linspace(0.6, 2.4, p))
        sigma = np.outer(sd, sd) * np.exp(-0.15 * d)
        rng = np.random.default_rng([inst, 3])
        u = np.linalg.cholesky(k) @ rng.standard_normal((n, p)) @ np.linalg.cholesky(sigma).T
        y = u + rng.standard_normal((n, p))
        observed = np.zeros((n, p), dtype=bool)
        checks = rng.choice(n, size=cfg["checks"], replace=False)
        observed[checks] = True
        for g in np.setdiff1d(np.arange(n), checks):
            observed[g, rng.choice(p, size=cfg["per_variety"], replace=False)] = True

        pres = gen.Presentation(seed, self.name, n, p)
        go, eo = pres.genotype_order, pres.environment_order
        glab, elab = pres.genotype_labels, pres.environment_labels
        cells = np.argwhere(observed)
        cells = cells[pres.rng.permutation(len(cells))]
        self.records = [(glab[g], elab[e], float(y[g, e])) for g, e in cells]
        self.genotype_labels = [glab[g] for g in go]
        self.environment_labels = [elab[e] for e in eo]
        self.kinship = k[np.ix_(go, go)]
        dist = gx.EnvDistanceMatrix(d[np.ix_(eo, eo)], self.environment_labels)
        self.dataset = gx.Dataset(
            [gx.PhenotypeRecord(*r) for r in self.records],
            gx.RelationshipMatrix(self.kinship, self.genotype_labels),
            self.environment_labels,
        )
        self.models = {"kernP": gx.KernelMultiVar(dist), "kern1": gx.KernelSingleVar(dist)}
        self.truth = u[np.ix_(go, eo)]
        self.test_cells = ~observed[np.ix_(go, eo)]
        self.inputs = gen.fingerprint(self.kinship, dist.values, self.records)
        self.results: dict = {}

    def run_unit(self, jobs: int) -> Unit:
        fits: list[Fit] = []
        results = {}
        started = clock()
        for model, structure in self.models.items():
            self._key(model)
            results[model] = _fit(self.dataset, structure, model, model, fits)
        wall = clock() - started
        self.results = results
        return Unit(wall, fits)

    def accuracy(self) -> float:
        kern_p = self.results["kernP"]
        if kern_p is None:
            return math.nan
        return oracle.within_env_pearson(kern_p.blup_matrix, self.truth, self.test_cells)

    def loglik_kernP(self) -> float:
        kern_p = self.results["kernP"]
        return kern_p.loglik if kern_p is not None else math.nan

    def check(self) -> list[str]:
        problems = []
        for model, result in self.results.items():
            if result is None:
                problems.append(f"{model}: fit raised")
                continue
            problems += _trace_problems(model, result.loglik_trace)
        kern_p, kern_1 = self.results["kernP"], self.results["kern1"]
        if kern_p is None or kern_1 is None:
            return problems
        sigma = self.models["kernP"].sigma(kern_p.kappa_hat)
        dense = oracle.dense_reml(self.records, self.genotype_labels, self.environment_labels,
                                  self.kinship, sigma, kern_p.resid_var_hat)
        if abs(dense - kern_p.loglik) > 1e-8 * max(1.0, abs(dense)):
            problems.append(f"kernP loglik {kern_p.loglik!r} differs from the dense oracle {dense!r}")
        # kern1 is kernP with equal variances, so its optimum cannot be higher.
        if kern_p.loglik < kern_1.loglik - 1e-8 * abs(kern_1.loglik):
            problems.append(f"kernP loglik {kern_p.loglik!r} is below kern1's {kern_1.loglik!r}")
        return problems

    def point_evals(self) -> tuple[float, float]:
        """Median seconds of reml_loglik and of score_and_ai at the fitted
        kernP point; their difference is the derivative cost."""
        kern_p = self.results["kernP"]
        args = (self.dataset, self.models["kernP"], kern_p.kappa_hat, kern_p.resid_var_hat)
        out = []
        for func in (gx.reml_loglik, gx.score_and_ai):
            times = []
            for _ in range(3):
                started = clock()
                func(*args)
                times.append(clock() - started)
            out.append(float(np.median(times)))
        return out[0], out[1]


class SparseCv(Workload):
    """``gxe-reml cv`` called in-process, the way a user runs it."""

    name = "sparse-cv"
    ROW_FIELDS = ("model", "replicate", "lambda", "mean_pearson", "mean_rmse", "converged")
    MODELS = ("cor1", "corP")
    LAMBDAS = ("0", "0.75")

    def __init__(self, seed: int, scale: str, workdir: Path):
        cfg = SCALES[scale][self.name]
        p = 4
        pres = gen.Presentation(seed, self.name, cfg["n"], p)
        labels = pres.environment_labels
        corr = np.exp(-0.25 * gen.distance_values(p, [gen.CV_INSTANCE, 1], 3.0))
        workdir.mkdir(parents=True, exist_ok=True)
        corr_path = workdir / "corr.csv"
        with open(corr_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([""] + labels)
            for label, row in zip(labels, corr):
                writer.writerow([label] + ["%.17g" % v for v in row])
        sim_text = (
            f"structure = corP\ncorr = {corr_path}\nn_genotypes = {cfg['n']}\n"
            f"n_markers = {cfg['markers']}\nparams = 4.0,2.0,1.0,0.5\n"
            f"resid_var = 1.0\nseed = {gen.CV_INSTANCE}\n"
        )
        self.sim_path = workdir / "sim.cfg"
        self.sim_path.write_text(sim_text)
        self.workdir = workdir
        self.cfg = cfg
        self.inputs = gen.fingerprint(corr, labels, sorted(cfg.items()))
        self.status = 0
        self.rows: list[dict] = []

    def argv(self, jobs: int, out: Path) -> list[str]:
        return [
            "cv", "--sim-config", str(self.sim_path),
            "--models", ",".join(self.MODELS), "--lambdas", ",".join(self.LAMBDAS),
            "--checks", str(self.cfg["checks"]),
            "--envs-per-variety", str(self.cfg["per_variety"]),
            "--replicates", str(self.cfg["replicates"]), "--seed", "42",
            "--jobs", str(jobs), "--out", str(out),
        ]

    def run_unit(self, jobs: int) -> Unit:
        out = self.workdir / f"cv-jobs{jobs}.csv"
        out.unlink(missing_ok=True)
        self._key("cli-cv")
        started = clock()
        status = gx_cli.main(self.argv(jobs, out))
        wall = clock() - started
        rows = []
        if status == 0:
            with open(out, newline="") as handle:
                rows = list(csv.DictReader(handle))
        self.status = status
        self.rows = rows
        fits = [Fit(r["model"], f"rep{r['replicate']}/lambda{r['lambda']}",
                    float(r["fit_seconds"]), r["converged"] == "1") for r in rows]
        missing = len(self.MODELS) * len(self.LAMBDAS) * self.cfg["replicates"] - len(fits)
        fits += [Fit("missing", "missing", wall, False)] * max(missing, 0)
        return Unit(wall, fits, rows)

    def accuracy(self) -> float:
        values = [float(r["mean_pearson"]) for r in self.rows if r["converged"] == "1"]
        return float(np.mean(values)) if values else math.nan

    def check(self) -> list[str]:
        if self.status != 0:
            return [f"gxe-reml cv exited with status {self.status}"]
        problems = []
        expected = {(m, lam) for m in self.MODELS for lam in self.LAMBDAS}
        for rep in range(self.cfg["replicates"]):
            got = [(r["model"], "%g" % float(r["lambda"])) for r in self.rows
                   if int(r["replicate"]) == rep]
            if len(got) != len(expected) or set(got) != expected:
                problems.append(f"replicate {rep}: rows {got}, expected {sorted(expected)}")
        for r in self.rows:
            if r["converged"] == "1" and not (
                math.isfinite(float(r["mean_pearson"])) and math.isfinite(float(r["mean_rmse"]))
            ):
                problems.append(f"converged row has non-finite accuracy: {r}")
        return problems

    def compare(self, untraced: Unit, traced: Unit) -> list[str]:
        """The traced jobs=1 rows must equal the untraced pool rows exactly."""
        def key(rows):
            return [tuple(r[f] for f in self.ROW_FIELDS) for r in rows]

        if key(untraced.rows) != key(traced.rows):
            return ["CV rows differ between the pool run and the jobs=1 run"]
        return []

    def label_spans(self, spans) -> None:
        """Key each span inside run_cv by the replicate it belongs to; in
        simulation mode every replicate starts with a simulate_met call."""
        for i, span in enumerate(spans):
            if span[NAME] != "cv.run_cv":
                continue
            rep = -1
            for later in spans[i + 1:]:
                if later[START] > span[END]:
                    break
                if later[NAME] == "simulator.simulate_met" and spans[later[PARENT]][NAME] == "cv.run_cv":
                    rep += 1
                if rep >= 0:
                    later[KEY] = f"{span[KEY]}/rep{rep}"


class CompleteRecovery(Workload):
    """Simulate a complete trial, then fit kern1, R times."""

    name = "complete-recovery"
    VARIABLES = ("t_min", "t_max", "rain", "srad")

    def __init__(self, seed: int, scale: str, workdir: Path):
        cfg = SCALES[scale][self.name]
        n, p, inst = cfg["n"], cfg["p"], gen.RECOVERY_INSTANCE
        pres = gen.Presentation(seed, self.name, n, p)
        self.environment_labels = pres.environment_labels
        by_env: dict[int, list] = {}
        for e, day, t_min, t_max, rain, srad in gen.weather_rows(p, [inst, 1]):
            by_env.setdefault(e, []).append(gx.DailyWeatherRecord(
                self.environment_labels[e], day, t_min, t_max, {"rain": rain, "srad": srad}))
        # Environments reach process_weather in the seed's order; the
        # distance matrix goes back to the instance's order, on which the
        # simulated draws depend.
        self.weather = [rec for e in pres.environment_order for rec in by_env[e]]
        self.dist = self.build_distance()
        kinship = gx.RelationshipMatrix(gen.kinship_values(n, [inst, 2]), pres.genotype_labels)
        d = self.dist.values
        theta = 0.5 / float(d[~np.eye(p, dtype=bool)].mean())
        self.truth = np.array([theta, 1.0, 0.5])
        self.structure = gx.KernelSingleVar(self.dist)
        self.configs = [
            gx.SimConfig(n_genotypes=n, n_markers=4 * n, structure=self.structure,
                         true_params=self.truth[:2], resid_var=0.5,
                         seed=[inst, 3, rep], kinship=kinship)
            for rep in range(cfg["replicates"])
        ]
        self.inputs = gen.fingerprint(d, kinship.values, pres.genotype_labels,
                                      [(r.environment, r.day) for r in self.weather[:3]])
        self.results: list = []

    def build_distance(self):
        _, _, dist = gx.process_weather(self.weather, self.VARIABLES, 100.0, (0.0, 1500.0))
        idx = [list(dist.labels).index(label) for label in self.environment_labels]
        return gx.EnvDistanceMatrix(dist.values[np.ix_(idx, idx)], self.environment_labels)

    def traced_setup(self) -> None:
        self._key("setup")
        self.build_distance()

    def run_unit(self, jobs: int) -> Unit:
        fits: list[Fit] = []
        results = []
        started = clock()
        for rep, config in enumerate(self.configs):
            self._key(f"rep{rep}")
            out = gx.simulate_met(config)
            results.append((out, _fit(out.dataset, self.structure, "kern1", f"rep{rep}", fits)))
        wall = clock() - started
        self.results = results
        return Unit(wall, fits)

    def accuracy(self) -> float:
        values = [
            oracle.within_env_pearson(r.blup_matrix, out.true_genetic_matrix,
                                      np.ones(out.true_genetic_matrix.shape, dtype=bool))
            for out, r in self.results if r is not None
        ]
        return float(np.mean(values)) if values else math.nan

    def recovery_z(self) -> float:
        """Worst |z| of the mean bandwidth, variance and residual estimates."""
        est = np.array([[r.kappa_hat[0], r.kappa_hat[1], r.resid_var_hat]
                        for _, r in self.results if r is not None])
        if len(est) < 2:
            return math.inf
        se = est.std(axis=0, ddof=1) / np.sqrt(len(est))
        return float(np.max(np.abs(est.mean(axis=0) - self.truth) / se))

    def check(self) -> list[str]:
        problems = []
        for rep, (_, result) in enumerate(self.results):
            if result is None:
                problems.append(f"rep{rep}: fit raised")
            else:
                problems += _trace_problems(f"rep{rep}", result.loglik_trace)
        z = self.recovery_z()
        if not z <= RECOVERY_Z_LIMIT:
            problems.append(f"recovery |z| {z:.2f} exceeds {RECOVERY_Z_LIMIT}")
        return problems


WORKLOADS = {w.name: w for w in (TrialKernP, SparseCv, CompleteRecovery)}
