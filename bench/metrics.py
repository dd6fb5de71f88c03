"""Names and units of every metric the benchmark reports.

``END_TO_END`` and ``PER_LAYER`` are the metrics of the last output line
(tracing off and on); ``BENCHMARK.json`` lists the same names.  The
workload-specific end-to-end metrics in ``REPORTED`` go on the report line
before it, on the workloads that define them.
"""

from __future__ import annotations

from tracing import summarize

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

#: end-to-end metrics printed on the report line, by workload
REPORTED = {
    "search": {"genomes_per_s": "1/s"},
    "gates": {"grape_s": "s", "simulate_s": "s", "process_infidelity": "1"},
    "analysis": {"rate_rel_err": "1"},
}
#: printed on every workload's report line
REPORTED_ALL = {"ops_failed_frac": "1"}

STRATEGIES = ("nsga2", "spea2", "ibea", "moead")
VERBS = (
    "fluxonium",
    "evaluate",
    "optimize",
    "aggregate",
    "classify",
    "bounds",
    "grape",
    "simulate",
    "truncation-study",
)

#: span name -> which of calls / s / self_s to report
_SPAN_METRICS = {
    "circuit.diagonalize_circuit": ("calls", "s"),
    "evaluation.evaluate_genome": ("calls", "s", "self_s"),
    "floquet.assemble_floquet_matrix": ("calls", "s"),
    "floquet.solve_floquet": ("calls", "s"),
    "floquet.compute_filter_weights": ("calls", "s"),
    "noise.decoherence_rates": ("calls", "s"),
    **{f"pareto.environmental_select.{s}": ("calls", "s") for s in STRATEGIES},
    **{f"pareto.run_stage1.{s}": ("s",) for s in STRATEGIES},
    "pareto.non_dominated_sort": ("calls", "s"),
    "pareto.aggregate_fronts": ("calls", "s"),
    "floquet.reference_floquet_via_propagator": ("calls", "s"),
    "dss.classify_point": ("calls", "s"),
    "dss.quasienergy_sensitivity_fd": ("calls",),
    "dss.evaluate_bounds": ("calls", "s"),
    "gates.rotating_frame_trajectory": ("calls", "s"),
    "lindblad.evolve_density": ("calls", "s"),
    "lindblad.process_tomography.1q": ("s",),
    "lindblad.process_tomography.2q": ("s",),
    **{f"workbench.{v}": ("s",) for v in VERBS},
}

#: the four parts of one evaluation; ``evaluate_genome.self_s`` is its time
#: outside them, the Python glue around the four parts
EVALUATION_PARTS = {
    "floquet.assemble_floquet_matrix",
    "floquet.solve_floquet",
    "floquet.compute_filter_weights",
    "noise.decoherence_rates",
}

_UNITS = {"calls": "count", "s": "s", "self_s": "s"}

PER_LAYER = {
    f"{span}.{kind}": _UNITS[kind]
    for span, kinds in _SPAN_METRICS.items()
    for kind in kinds
}
PER_LAYER.update(
    {
        "workbench.import_s": "s",
        "evaluation.feasible_frac": "1",
        "gates.optimize_pulse.1q.ms_per_iter": "ms",
        "gates.optimize_pulse.2q.ms_per_iter": "ms",
        "workbench.write_bytes.calls": "count",
        "workbench.write_bytes.bytes": "bytes",
        "workbench.write_bytes.s": "s",
        "workbench.numpy_repr_fields": "count",
        "dss.bound_violations": "count",
        "pareto.front_drift": "1",
        "gates.fidelity_drift": "1",
        "lindblad.process_fidelity_drift": "1",
        "floquet.truncation_drift": "1",
        "trace.overhead_frac": "1",
    }
)


def per_layer_values(spans: list, counters: dict, extra: dict) -> dict:
    """Every ``PER_LAYER`` value from the spans, the tracer's counters and
    the values measured outside the spans.

    A layer the workload does not call reads 0 calls and 0 s.
    """
    summary = summarize(spans)
    glue = summarize(spans, layers=EVALUATION_PARTS).get("evaluation.evaluate_genome")
    if glue:
        summary["evaluation.evaluate_genome"]["self_s"] = glue["self_s"]
    values = {}
    for span, kinds in _SPAN_METRICS.items():
        entry = summary.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for kind in kinds:
            values[f"{span}.{kind}"] = entry[kind]
    evals = summary.get("evaluation.evaluate_genome", {}).get("calls", 0)
    values["evaluation.feasible_frac"] = (
        counters.get("evaluation.feasible", 0) / evals if evals else 0.0
    )
    for q in ("1q", "2q"):
        span = summary.get(f"gates.optimize_pulse.{q}", {"s": 0.0})
        iters = counters.get(f"gates.optimize_pulse.{q}.iterations", 0)
        values[f"gates.optimize_pulse.{q}.ms_per_iter"] = (
            1e3 * span["s"] / iters if iters else 0.0
        )
    writes = summary.get(
        "workbench.RunDirectory.write_bytes", {"calls": 0, "s": 0.0}
    )
    values["workbench.write_bytes.calls"] = writes["calls"]
    values["workbench.write_bytes.s"] = writes["s"]
    values["workbench.write_bytes.bytes"] = counters.get(
        "workbench.write_bytes.bytes", 0
    )
    values.update(extra)
    missing = set(PER_LAYER) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics not measured: {sorted(missing)}")
    return {name: values[name] for name in PER_LAYER}
