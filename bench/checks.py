"""Output checks of the benchmark: artifact parsing and the failure rule.

A verb invocation counts as failed when any of these holds:

* it exits non-zero (``bounds`` returning 3 on a violated bound included);
* ``RunDirectory.verify()`` flags an artifact;
* an expected artifact is missing or does not parse;
* a ``grape`` job writes a non-finite fidelity;
* a benchmark point's T1/Tphi lies outside the validated tolerance of
  ``BenchmarkPoint.times_us``;
* an output front is not mutually non-dominated.

The CSV parser accepts both plain floats and the ``np.float64(...)`` text the
workbench writes into some columns at the seed; it counts the latter.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

#: relative tolerance on the validated (T1, Tphi) of the benchmark points
TIMES_TOL = 0.15

#: columns of front and rates CSVs that hold text, not numbers
TEXT_COLUMNS = {"strategy", "dss_label"}

_NUMPY_REPR = re.compile(r"^np\.float64\((.*)\)$")


def parse_float(text: str) -> tuple[float, bool]:
    """Parse one CSV cell; returns (value, was_numpy_repr).

    Raises ValueError for text that is neither form.
    """
    text = text.strip()
    match = _NUMPY_REPR.match(text)
    if match:
        return float(match.group(1)), True
    return float(text), False


def read_csv(path: Path) -> tuple[list[dict], int]:
    """Rows of a workbench CSV with numeric cells parsed, and the count of
    cells written as ``np.float64(...)``."""
    rows, repr_fields = [], 0
    with open(path, newline="") as fh:
        for raw in csv.DictReader(fh):
            row = {}
            for key, text in raw.items():
                if key in TEXT_COLUMNS:
                    row[key] = text
                    continue
                row[key], was_repr = parse_float(text)
                repr_fields += was_repr
            rows.append(row)
    return rows, repr_fields


def dominated_members(objectives) -> list[int]:
    """Indices of points that another point of the set dominates
    (minimization of every objective)."""
    pts = [tuple(o) for o in objectives]
    bad = []
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            if i != j and all(x <= y for x, y in zip(b, a)) and b != a:
                bad.append(i)
                break
    return bad


def check_artifact(path: Path, benchmark_times: dict) -> tuple[list[str], int]:
    """Problems found in one artifact, and its ``np.float64(...)`` count.

    ``benchmark_times`` maps a benchmark point name to its validated
    (T1, Tphi) in us.
    """
    name = path.name
    if not path.exists():
        return [f"{name}: missing"], 0
    problems: list[str] = []
    repr_fields = 0
    try:
        if name.endswith(".json"):
            data = json.loads(path.read_text())
        else:
            rows, repr_fields = read_csv(path)
        if name.startswith("pulse_"):
            if not math.isfinite(float(data["fidelity"])):
                problems.append(f"{name}: non-finite fidelity {data['fidelity']}")
        elif name.startswith("front_") and name != "front_classified.csv":
            objs = [(r["gamma1_per_us"], r["gammaz_per_us"]) for r in rows]
            dominated = dominated_members(objs)
            if dominated:
                problems.append(f"{name}: rows {dominated} are dominated")
        elif name.startswith("rates_"):
            point = name[len("rates_") : -len(".csv")]
            for label, col, want in zip(
                ("T1", "Tphi"), ("t1_us", "tphi_us"), benchmark_times.get(point, ())
            ):
                got = rows[0][col]
                if not abs(got - want) <= TIMES_TOL * want:
                    problems.append(
                        f"{name}: {label} {got:.1f} us outside "
                        f"{TIMES_TOL:.0%} of {want:.1f} us"
                    )
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"{name}: does not parse ({exc!r})"], repr_fields
    return problems, repr_fields


def classify_invocation(
    returncode: int,
    run_dir: Path,
    artifacts: list[str],
    verify_bad: list,
    benchmark_times: dict,
) -> tuple[list[str], int]:
    """Failure reasons of one verb invocation (empty when it succeeded) and
    the ``np.float64(...)`` count of its artifacts.

    ``verify_bad`` is what ``RunDirectory.verify()`` returned after the verb.
    """
    reasons = []
    if returncode != 0:
        reasons.append(f"exit code {returncode}")
    reasons += [f"{e['path']}: fails manifest check" for e in verify_bad]
    repr_fields = 0
    for name in artifacts:
        problems, count = check_artifact(Path(run_dir) / name, benchmark_times)
        reasons += problems
        repr_fields += count
    return reasons, repr_fields
