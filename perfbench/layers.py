"""Per-layer metrics computed from the spans of one traced unit.

Layer ``busy_s`` is self time: the time spent in that layer's own code,
with the spans it calls subtracted.  A named function's ``busy_s`` is the
time spent inside its calls, callees included.  Metrics of a layer a
workload never reaches read 0.
"""

from __future__ import annotations

from spans import FAILED, KEY, LAYERS, OUT, SIZE, SpanTable

# Function-level metrics: metric prefix -> span name.
FUNCTIONS = {
    "reml_core.fit": "reml_core.fit",
    "reml_core.cholesky": "reml_core.cholesky",
    "reml_core.potri": "reml_core.potri",
    "reml_core.predict_cells": "reml_core.predict_cells",
    "reml_core.Dataset": "reml_core.Dataset",
    "cv.sparse_split": "cv.sparse_split",
    "simulator.simulate_met": "simulator.simulate_met",
    "variance_structures.evaluate": "variance_structures.VarianceStructure.evaluate",
    "env_features.process_weather": "env_features.process_weather",
}
IO_FUNCTIONS = ("read_config_file", "read_matrix_csv", "write_cv_report")


def metrics(table: SpanTable, wl, untraced, traced) -> tuple[dict, dict]:
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = table.layer_calls(layer)
        m[f"{layer}.busy_s"] = table.layer_busy(layer)
        m[f"{layer}.failures"] = table.layer_failures(layer)
    for prefix, span in FUNCTIONS.items():
        m[f"{prefix}.calls"] = table.calls(span)
        m[f"{prefix}.busy_s"] = table.inclusive(span)
    for name in IO_FUNCTIONS:
        m[f"io.{name}.busy_s"] = table.inclusive(f"io.{name}")

    fits = table.named("reml_core.fit")
    iterations = [table.spans[i][OUT] for i in fits]
    chol_in_fits = sum(table.descendants(i, "reml_core.cholesky") for i in fits)
    m["reml_core.fit.iterations"] = sum(iterations)
    m["reml_core.cholesky_per_iter"] = (
        chol_in_fits / (sum(iterations) + len(fits)) if fits else 0.0
    )
    orders = [table.spans[i][SIZE] for i in table.named("reml_core.cholesky")]
    gflop = sum(n ** 3 / 3.0 for n in orders) / 1e9
    m["reml_core.cholesky.gflop"] = gflop
    busy = m["reml_core.cholesky.busy_s"]
    m["reml_core.cholesky.gflops"] = gflop / busy if busy > 0 else 0.0
    m["reml_core.predict_cells.cholesky_calls"] = sum(
        table.descendants(i, "reml_core.cholesky") for i in table.named("reml_core.predict_cells")
    )
    m["reml_core.point_eval_s"], m["reml_core.score_ai_s"] = wl.point_evals()
    m["reml_core.loglik_kernP"] = wl.loglik_kernP()
    m["simulator.recovery_z"] = wl.recovery_z()
    m["cv.self_s"] = table.self_busy("cv.run_cv")
    m["cli.self_s"] = table.self_busy("cli.main")
    is_cv = wl.name == "sparse-cv"
    m["cv.serial_s"] = traced.wall if is_cv else 0.0
    m["cv.pool_speedup"] = traced.wall / untraced.wall if is_cv else 0.0
    m["trace.wall_untraced_s"] = untraced.wall
    m["trace.wall_traced_s"] = traced.wall
    # At sparse-cv the traced unit runs at jobs=1 and the untraced one in the
    # pool, so their difference is not the tracing cost.
    m["trace.overhead_s"] = 0.0 if is_cv else traced.wall - untraced.wall

    counters = {
        "iterations_per_fit": iterations,
        "records_per_fit": [table.spans[i][SIZE] for i in fits],
        "cholesky_per_fit": [table.descendants(i, "reml_core.cholesky") for i in fits],
        "potri_per_fit": [table.descendants(i, "reml_core.potri") for i in fits],
        "predict_cells_calls": m["reml_core.predict_cells.calls"],
        "spans": len(table.spans),
    }
    return m, counters


def problems(table: SpanTable) -> list[str]:
    """A traced fit without a factorisation means the tracing missed it."""
    found = []
    for i in table.named("reml_core.fit"):
        if table.descendants(i, "reml_core.cholesky") == 0 and not table.spans[i][FAILED]:
            found.append(f"traced fit {table.spans[i][KEY]!r} recorded no factorisation")
    return found
