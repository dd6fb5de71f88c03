"""Benchmark of the fluxspot workbench.

Run from the root of a checkout:

    python3 bench/run.py --workload search --seed 1 --seconds 20 --trace 0

``--trace 0`` drives the ``fluxspot`` CLI, one verb per fresh process, and
reports the end-to-end metrics.  ``--trace 1`` calls ``fluxspot.cli.main``
in-process with every public function wrapped in a span and reports the
per-layer metrics.  ``--smoke`` runs the workload at toy size in seconds.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the full report (workload metrics, failures, machine record), which is also
written to ``.bench_out/``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported here or in any child process: at two
# threads evaluate_genome is slower and noisier and artifact bytes change.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import compileall
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import fingerprints
import metrics
import workloads
from tracing import Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
DATA = workloads.DATA

#: fresh processes timed for setup_s, and fresh imports for import_s
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
#: every child process must end before this many seconds into the run
RUN_LIMIT_S = 170.0


class Bench:
    """State of one benchmark run: counts, failures and timing samples."""

    def __init__(self, args) -> None:
        self.args = args
        self.start = time.perf_counter()
        self.attempted = 0
        self.failures: list = []
        self.repr_fields = 0  # np.float64(...) cells written by the last pass
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        from fluxspot.reference import BENCHMARK_POINTS

        self.times = {b.name: b.times_us for b in BENCHMARK_POINTS}

    # ---------------------------------------------------------- running

    def remaining(self) -> float:
        return max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.start))

    def run_process(self, cmd: list, log: Path) -> tuple[int, float]:
        """Exit code and wall seconds of one child process.

        ``Popen.wait(timeout)`` polls in steps of up to 50 ms, which would
        quantize the timings; a blocking wait with a watchdog that kills the
        child at the run's deadline does not.
        """
        with open(log, "ab") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fh, stderr=fh, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(self.remaining(), proc.kill)
            watchdog.start()
            try:
                code = proc.wait()
            finally:
                watchdog.cancel()
            return code, time.perf_counter() - t0

    def verb_subprocess(self, inv, cfg_path: Path, run_dir: Path) -> tuple[int, float]:
        cmd = [sys.executable, "-m", "fluxspot.cli", "--config", str(cfg_path),
               "--out", str(run_dir)] + inv.args
        return self.run_process(cmd, run_dir.parent / "verbs.log")

    @staticmethod
    def verb_inprocess(inv, cfg_path: Path, run_dir: Path) -> tuple[int, float]:
        from fluxspot import cli

        argv = ["--config", str(cfg_path), "--out", str(run_dir)] + inv.args
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a verb process would exit 1 on this
            print(f"{inv.verb}: {exc!r}", file=sys.stderr)
            code = 1
        return code, time.perf_counter() - t0

    def check(self, inv, code: int, run_dir: Path) -> int:
        """Apply the failure rule to one invocation; returns the count of
        ``np.float64(...)`` cells in its artifacts."""
        from fluxspot.workbench import RunDirectory

        self.attempted += 1
        try:
            bad = RunDirectory(run_dir, {}).verify()
        except ValueError as exc:
            bad = [{"path": f"manifest.json ({exc})"}]
        reasons, repr_fields = checks.classify_invocation(
            code, run_dir, inv.artifacts, bad, self.times
        )
        if reasons:
            self.failures.append({"verb": inv.verb, "reasons": reasons})
        return repr_fields

    def run_pass(self, wl, cfg_path: Path, pass_dir: Path, runner) -> dict:
        """One pass of the workload's verbs; wall seconds per verb."""
        workloads.prepare_pass(wl, pass_dir)
        walls: dict = {}
        self.repr_fields = 0
        for inv in wl.invocations:
            code, wall = runner(inv, cfg_path, pass_dir)
            self.repr_fields += self.check(inv, code, pass_dir)
            walls[inv.verb] = walls.get(inv.verb, 0.0) + wall
        return walls


def write_config(wl, work: Path) -> Path:
    path = work / f"{wl.name}.json"
    path.write_text(json.dumps(wl.config, indent=2))
    return path


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {
            v: os.environ[v]
            for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ------------------------------------------------------------ workload metrics


def _json(path: Path):
    return json.loads(path.read_text())


def rate_rel_err(run_dir: Path) -> float:
    """Largest relative error of the Gamma1/Gammaz ``evaluate`` wrote for the
    benchmark points, against the converged reference."""
    ref = _json(DATA / "reference_rates.json")["rates_per_us"]
    worst = 0.0
    for point in workloads.DSS_POINTS:
        row = checks.read_csv(run_dir / f"rates_{point}.csv")[0][0]
        for col, key in (("gamma1_per_us", "gamma_1"), ("gammaz_per_us", "gamma_z")):
            worst = max(worst, abs(row[col] - ref[point][key]) / ref[point][key])
    return worst


def _from_artifacts(fn, *args):
    """``fn(*args)``, or None when a failed verb left an artifact missing or
    broken (the failure itself is counted by the checks)."""
    try:
        return fn(*args)
    except (OSError, ValueError, KeyError, IndexError):
        return None


def process_infidelity(run_dir: Path, wl) -> float:
    return max(
        1.0 - _json(run_dir / f"simulate_{job['name']}.json")["process_fidelity"]
        for job in wl.config["gates"]
    )


def workload_metrics(wl, passes: list, run_dir: Path) -> dict:
    """The workload-specific end-to-end metrics of the report line."""
    def med(verb):
        return statistics.median(p[verb] for p in passes)

    if wl.name == "search":
        opt = wl.config["optimizer"]
        genomes = opt["population_m"] * (opt["generations_n"] + 1) * len(
            metrics.STRATEGIES
        )
        return {"genomes_per_s": genomes / med("optimize")}
    if wl.name == "gates":
        return {
            "grape_s": med("grape"),
            "simulate_s": med("simulate"),
            "process_infidelity": _from_artifacts(process_infidelity, run_dir, wl),
        }
    return {"rate_rel_err": _from_artifacts(rate_rel_err, run_dir)}


# ---------------------------------------------------------------- the runs


def timed_run(bench: Bench, wl, cfg_path: Path, work: Path) -> tuple[dict, dict]:
    setup = []
    flux = workloads.Invocation(["fluxonium"], ["fluxonium.json"])
    for i in range(SETUP_REPEATS):
        run_dir = work / f"setup{i}"
        run_dir.mkdir()
        code, wall = bench.verb_subprocess(flux, cfg_path, run_dir)
        bench.check(flux, code, run_dir)
        setup.append(wall)

    passes = []
    t0 = time.perf_counter()
    while True:
        pass_dir = work / f"pass{len(passes)}"
        passes.append(bench.run_pass(wl, cfg_path, pass_dir, bench.verb_subprocess))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(passes) > bench.args.seconds:
            break
    walls = [sum(p.values()) for p in passes]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    end_to_end = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    report = workload_metrics(wl, passes, pass_dir)
    report["workbench.numpy_repr_fields"] = bench.repr_fields
    report["samples"] = {"setup_s": setup, "wall_s": walls, "passes": passes}
    return end_to_end, report


def traced_run(bench: Bench, wl, cfg_path: Path, work: Path) -> tuple[dict, dict]:
    imports = []
    for _ in range(IMPORT_REPEATS):
        cmd = [sys.executable, "-c", "import fluxspot"]
        code, wall = bench.run_process(cmd, work / "import.log")
        imports.append(wall)
        bench.attempted += 1
        if code != 0:
            bench.failures.append({"verb": "import", "reasons": [f"exit code {code}"]})

    plain = bench.run_pass(wl, cfg_path, work / "plain", bench.verb_inprocess)
    tracer = Tracer()
    tracer.install()
    try:
        def traced_verb(inv, cfg, run_dir):
            tracer.run_id += 1
            idx = tracer.begin(f"workbench.{inv.verb}")
            try:
                return bench.verb_inprocess(inv, cfg, run_dir)
            finally:
                tracer.end(idx)

        traced = bench.run_pass(wl, cfg_path, work / "traced", traced_verb)
    finally:
        tracer.uninstall()
    repr_fields = bench.repr_fields

    try:
        prints = fingerprints.compute(work / "fingerprints")
        drift = fingerprints.drift(prints, _json(DATA / "fingerprints.json"))
        fingerprint_error = None
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        drift = dict.fromkeys(fingerprints.DRIFT_METRICS, 1.0)
        fingerprint_error = repr(exc)
    try:
        violations = fingerprints.bound_violations(work / "bound_defect")
        bound_defect_error = None
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        violations = -1
        bound_defect_error = repr(exc)
    extra = {
        "dss.bound_violations": violations,
        "workbench.import_s": statistics.median(imports),
        "workbench.numpy_repr_fields": repr_fields,
        "trace.overhead_frac": sum(traced.values()) / sum(plain.values()) - 1.0,
        **drift,
    }
    per_layer = metrics.per_layer_values(tracer.spans, tracer.counters, extra)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{bench.args.seed}.json"
    tracer.write(spans_path)
    report = {
        "untraced_inprocess_s": plain,
        "traced_inprocess_s": traced,
        "drift_tol": fingerprints.DRIFT_TOL,
        "drift_within_tol": all(v <= fingerprints.DRIFT_TOL for v in drift.values()),
        "fingerprint_error": fingerprint_error,
        "bound_defect_error": bound_defect_error,
        "spans": str(spans_path.relative_to(ROOT)),
        "span_count": len(tracer.spans),
    }
    return per_layer, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size workload")
    args = parser.parse_args(argv)

    if not (SRC / "fluxspot" / "cli.py").is_file():
        print(f"no fluxspot sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("compiling the fluxspot sources failed", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args)
        wl = workloads.build(args.workload, args.seed, work, smoke=args.smoke)
        cfg_path = write_config(wl, work)
        run = traced_run if args.trace else timed_run
        values, report = run(bench, wl, cfg_path, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = dict(metrics.PER_LAYER if args.trace else metrics.END_TO_END)
    report_units = {**units, **metrics.REPORTED_ALL}
    if not args.trace:
        report_units.update(metrics.REPORTED[wl.name])
    failed = len(bench.failures)
    report.update(
        workload=wl.name,
        seed=args.seed,
        trace=args.trace,
        smoke=args.smoke,
        ops_failed_frac=failed / bench.attempted,
        units=report_units,
        metrics=values,
        failures=bench.failures,
        machine=machine_record(),
    )
    OUT.mkdir(exist_ok=True)
    name = f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
