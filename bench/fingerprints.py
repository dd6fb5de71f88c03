"""Physics fingerprints: small fixed-seed outputs compared with the values
recorded at the seed commit (``data/fingerprints.json``).

A speed-up must leave these at round-off.  The drift of each group is the
largest relative difference from the recorded values; it is reported, not
gated, because a deliberate accuracy change (adaptive truncation) moves it.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import checks
from metrics import STRATEGIES
from workloads import DATA

#: Stated drift tolerance.  Round-off measured at the seed: front objectives
#: move by <= 5.3e-11 relative between 1 and 2 OpenBLAS threads, and the
#: process fidelity by <= 3e-12 between RK4 and an exact step superoperator.
DRIFT_TOL = 1e-9

_JOB = {"point": "dss-2", "steps": 100, "frame_substeps": 256, "iterations": 20}
CONFIG = {
    "seed": 7,
    "optimizer": {"population_m": 12, "generations_n": 3, "n": 4},
    "gates": [
        {"name": "x", "gate": "x", **_JOB},
        {"name": "sqrt_iswap", "gate": "sqrt_iswap", **_JOB},
    ],
    "truncation": {"orders": [1, 2]},
}
VERBS = (["optimize"], ["grape"], ["simulate", "x"], ["truncation-study"])
DRIFT_METRICS = (
    "pareto.front_drift",
    "gates.fidelity_drift",
    "lindblad.process_fidelity_drift",
    "floquet.truncation_drift",
)


def compute(run_dir: Path) -> dict:
    """Run the fingerprint verbs in-process into ``run_dir``; their outputs."""
    from fluxspot import cli

    run_dir.mkdir(parents=True)
    cfg_path = run_dir / "fingerprint-config.json"
    cfg_path.write_text(json.dumps(CONFIG))
    for verb in VERBS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--config", str(cfg_path), "--out", str(run_dir), *verb])
        if code != 0:
            raise RuntimeError(f"fingerprint verb {verb} exited {code}")

    def load(name):
        return json.loads((run_dir / name).read_text())

    fronts = {}
    for s in STRATEGIES:
        rows = checks.read_csv(run_dir / f"front_{s}.csv")[0]
        fronts[s] = sorted([r["gamma1_per_us"], r["gammaz_per_us"]] for r in rows)
    return {
        "front_objectives": fronts,
        "fidelity_history": {
            j["name"]: load(f"pulse_{j['name']}.json")["fidelity_history"]
            for j in CONFIG["gates"]
        },
        "process_fidelity": [load("simulate_x.json")["process_fidelity"]],
        "mode_infidelity": [
            r["mode_infidelity"] for r in checks.read_csv(run_dir / "truncation.csv")[0]
        ],
    }


def _rel(new, ref) -> float:
    """Largest elementwise relative difference of two nested lists; 1.0 when
    their shapes differ (a front changed its membership)."""
    if isinstance(ref, list):
        if not isinstance(new, list) or len(new) != len(ref):
            return 1.0
        return max((_rel(a, b) for a, b in zip(new, ref)), default=0.0)
    return abs(new - ref) / abs(ref) if ref else abs(new)


def drift(new: dict, ref: dict) -> dict:
    """The ``DRIFT_METRICS`` of fingerprints ``new`` against ``ref``."""
    # Mode infidelities span many decades down to round-off, so they are
    # compared relative to the largest one of the study.
    modes_new, modes_ref = new["mode_infidelity"], ref["mode_infidelity"]
    if len(modes_new) == len(modes_ref):
        scale = max(abs(x) for x in modes_ref)
        truncation = max(abs(a - b) for a, b in zip(modes_new, modes_ref)) / scale
    else:
        truncation = 1.0
    return {
        "pareto.front_drift": max(
            _rel(new["front_objectives"][s], ref["front_objectives"][s])
            for s in STRATEGIES
        ),
        "gates.fidelity_drift": max(
            _rel(new["fidelity_history"][j], ref["fidelity_history"][j])
            for j in ref["fidelity_history"]
        ),
        "lindblad.process_fidelity_drift": _rel(
            new["process_fidelity"], ref["process_fidelity"]
        ),
        "floquet.truncation_drift": truncation,
    }


def bound_violations(run_dir: Path) -> int:
    """Points of the stored ``data/bound_defect`` front that ``bounds``
    flags (seed defect 3): ``aggregate`` then ``bounds`` in-process."""
    from fluxspot import cli

    run_dir.mkdir(parents=True)
    for s in STRATEGIES:
        name = f"front_{s}.csv"
        (run_dir / name).write_bytes((DATA / "bound_defect" / name).read_bytes())
    cfg_path = run_dir / "bound-defect-config.json"
    cfg_path.write_text(json.dumps({"optimizer": {"n": 4}}))
    for verb, ok_codes in (("aggregate", (0,)), ("bounds", (0, 3))):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--config", str(cfg_path), "--out", str(run_dir), verb])
        if code not in ok_codes:
            raise RuntimeError(f"bound-defect verb {verb} exited {code}")
    rows = checks.read_csv(run_dir / "bounds.csv")[0]
    return sum(1 for r in rows if not r["ok"])
