"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from fingerprints import _rel  # noqa: E402
from tracing import Tracer, self_times, summarize  # noqa: E402

TIMES = {"dss-1": (877.0, 2036.0)}


# ------------------------------------------------------------------ self time


def test_self_time_subtracts_children():
    spans = [
        ("root", 0.0, 10.0, -1, 1),
        ("a", 1.0, 4.0, 0, 1),
        ("b", 5.0, 6.0, 0, 1),
        ("a.leaf", 2.0, 3.0, 1, 1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        ("root", 0.0, 10.0, -1, 1),
        ("t1", 1.0, 5.0, 0, 1),
        ("t2", 3.0, 7.0, 0, 1),
        ("t3", 4.0, 6.0, 0, 1),
        ("late", 9.0, 12.0, 0, 1),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_against_named_layers():
    spans = [
        ("eval", 0.0, 10.0, -1, 1),
        ("glue", 1.0, 9.0, 0, 1),
        ("part", 2.0, 4.0, 1, 1),
        ("part", 5.0, 8.0, 1, 1),
        ("inner", 6.0, 7.0, 3, 1),
    ]
    assert self_times(spans, layers={"part"})[0] == pytest.approx(5.0)
    out = summarize(spans)
    assert out["part"]["calls"] == 2
    assert out["part"]["s"] == pytest.approx(5.0)
    assert out["part"]["self_s"] == pytest.approx(4.0)


def test_tracer_wraps_and_restores():
    import fluxspot.dss
    import fluxspot.evaluation
    import fluxspot.floquet
    import fluxspot.workbench
    from fluxspot.reference import BENCHMARK_POINTS
    from fluxspot.workbench import build_context, load_config

    original = fluxspot.floquet.solve_floquet
    tracer = Tracer()
    tracer.install()
    try:
        assert fluxspot.dss.solve_floquet is fluxspot.evaluation.solve_floquet
        assert fluxspot.evaluation.solve_floquet is not original
        bench = BENCHMARK_POINTS[1]
        ctx = build_context(load_config(None), phi_ac=bench.phi_ac)
        fluxspot.workbench.evaluate_genome(bench.genome, ctx)
    finally:
        tracer.uninstall()
    assert fluxspot.evaluation.solve_floquet is original
    assert fluxspot.dss.solve_floquet is original
    names = [s[0] for s in tracer.spans]
    assert names.count("evaluation.evaluate_genome") == 1
    assert names.count("floquet.solve_floquet") == 1
    assert tracer.counters["evaluation.feasible"] == 1
    root = names.index("evaluation.evaluate_genome")
    part = names.index("floquet.solve_floquet")
    ancestors, idx = [], tracer.spans[part][3]
    while idx >= 0:
        ancestors.append(idx)
        idx = tracer.spans[idx][3]
    assert root in ancestors


# ----------------------------------------------------------- float parsing


def test_parse_float_accepts_both_forms():
    assert checks.parse_float("0.25") == (0.25, False)
    assert checks.parse_float("np.float64(39.5)") == (39.5, True)
    assert checks.parse_float(" np.float64(1e-05) ") == (1e-05, True)
    assert checks.parse_float("inf")[0] == math.inf
    for bad in ("np.float32(1.0)", "", "abc", "np.float64()"):
        with pytest.raises(ValueError):
            checks.parse_float(bad)


def test_read_csv_counts_numpy_repr(tmp_path):
    path = tmp_path / "front_nsga2.csv"
    path.write_text(
        "gamma1_per_us,gammaz_per_us,tphi_us,strategy\n"
        "0.001,0.02,np.float64(39.5),nsga2\n"
        "0.002,0.01,40.0,nsga2\n"
    )
    rows, count = checks.read_csv(path)
    assert count == 1
    assert rows[0]["tphi_us"] == 39.5
    assert rows[1]["strategy"] == "nsga2"


# ---------------------------------------------------- failure classification


def _front(tmp_path, name, objs):
    lines = ["gamma1_per_us,gammaz_per_us,strategy"]
    lines += [f"{a},{b},nsga2" for a, b in objs]
    (tmp_path / name).write_text("\n".join(lines) + "\n")


def _classify(tmp_path, artifacts, code=0, bad=()):
    return checks.classify_invocation(code, tmp_path, artifacts, list(bad), TIMES)[0]


def test_clean_invocation_has_no_failure(tmp_path):
    _front(tmp_path, "front_nsga2.csv", [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)])
    (tmp_path / "pulse_x.json").write_text(json.dumps({"fidelity": 0.999}))
    assert _classify(tmp_path, ["front_nsga2.csv", "pulse_x.json"]) == []


def test_nonzero_exit_fails(tmp_path):
    (tmp_path / "bounds.csv").write_text("t1_us,ok\n1.0,0\n")
    assert _classify(tmp_path, ["bounds.csv"], code=3) == ["exit code 3"]


def test_manifest_mismatch_fails(tmp_path):
    reasons = _classify(tmp_path, [], bad=[{"path": "front_nsga2.csv"}])
    assert reasons == ["front_nsga2.csv: fails manifest check"]


def test_missing_and_unparsable_artifacts_fail(tmp_path):
    (tmp_path / "truncation.csv").write_text("n,k_max\n1,garbage\n")
    (tmp_path / "simulate_x.json").write_text("{not json")
    reasons = _classify(tmp_path, ["absent.json", "truncation.csv", "simulate_x.json"])
    assert reasons[0] == "absent.json: missing"
    assert reasons[1].startswith("truncation.csv: does not parse")
    assert reasons[2].startswith("simulate_x.json: does not parse")


def test_non_finite_grape_fidelity_fails(tmp_path):
    (tmp_path / "pulse_sqrt_iswap.json").write_text('{"fidelity": -Infinity}')
    reasons = _classify(tmp_path, ["pulse_sqrt_iswap.json"])
    assert reasons == ["pulse_sqrt_iswap.json: non-finite fidelity -inf"]


def test_dominated_front_member_fails(tmp_path):
    _front(tmp_path, "front_aggregated.csv", [(1.0, 3.0), (2.0, 2.0), (2.5, 2.0)])
    assert _classify(tmp_path, ["front_aggregated.csv"]) == [
        "front_aggregated.csv: rows [2] are dominated"
    ]
    assert checks.dominated_members([(1.0, 1.0), (1.0, 1.0)]) == []


def test_benchmark_times_outside_tolerance_fail(tmp_path):
    header = "gamma1_per_us,gammaz_per_us,t1_us,tphi_us,strategy\n"
    (tmp_path / "rates_dss-1.csv").write_text(
        header + "0.001,0.0005,877.0,np.float64(2300.0),evaluate\n"
    )
    assert _classify(tmp_path, ["rates_dss-1.csv"]) == []
    (tmp_path / "rates_dss-1.csv").write_text(
        header + "0.001,0.0005,700.0,2036.0,evaluate\n"
    )
    reasons = _classify(tmp_path, ["rates_dss-1.csv"])
    assert len(reasons) == 1 and "T1 700.0 us outside 15%" in reasons[0]


# ------------------------------------------------------------------ metrics


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == ["bench"]


def test_every_per_layer_metric_is_emitted_with_a_unit():
    extra = {
        name: 0.0
        for name in metrics.PER_LAYER
        if name.startswith(("workbench.import", "workbench.numpy", "trace."))
        or name.endswith(("drift", "violations"))
    }
    spans = [
        ("workbench.grape", 0.0, 3.0, -1, 1),
        ("gates.optimize_pulse.2q", 0.5, 2.5, 0, 1),
        ("evaluation.evaluate_genome", 2.5, 2.9, 0, 1),
        ("floquet.solve_floquet", 2.6, 2.7, 2, 1),
    ]
    counters = {"gates.optimize_pulse.2q.iterations": 100, "evaluation.feasible": 1}
    values = metrics.per_layer_values(spans, counters, extra)
    assert list(values) == list(metrics.PER_LAYER)
    assert values["gates.optimize_pulse.2q.ms_per_iter"] == pytest.approx(20.0)
    assert values["gates.optimize_pulse.1q.ms_per_iter"] == 0.0
    assert values["evaluation.evaluate_genome.self_s"] == pytest.approx(0.3)
    assert values["evaluation.feasible_frac"] == 1.0
    assert all(metrics.PER_LAYER[name] for name in values)
    with pytest.raises(KeyError):
        metrics.per_layer_values(spans, counters, {})


def test_drift_of_changed_membership_is_one():
    assert _rel([[1.0, 2.0]], [[1.0, 2.0]]) == 0.0
    assert _rel([[1.0, 2.0 + 2e-12]], [[1.0, 2.0]]) == pytest.approx(1e-12)
    assert _rel([[1.0, 2.0]], [[1.0, 2.0], [3.0, 0.5]]) == 1.0


# -------------------------------------------------------------- end to end


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", trace, "--smoke")
    assert out.returncode == 0, out.stderr
    *_, report_line, result_line = out.stdout.strip().splitlines()
    result, report = json.loads(result_line), json.loads(report_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)
    want = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    reported = dict(metrics.REPORTED_ALL)
    if trace == "0":
        reported.update(metrics.REPORTED[workload])
    for name in reported:
        assert name in report and name in report["units"]
    assert {"nproc", "cpu_model", "blas_name", "numpy", "scipy"} <= set(report["machine"])


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    out = _run(tmp_path, "--workload", "search", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
