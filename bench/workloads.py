"""Workload definitions: run configurations and the verb sequence of a pass.

* ``search`` -- ``fluxonium`` then ``optimize`` over all four strategies at
  the paper's population of 100, drive order n = 4 (50x50 Floquet matrices).
  Evaluation and environmental selection do the work; ``gates`` and
  ``lindblad`` do none.
* ``gates`` -- ``grape`` for a 1-qubit ``x`` and a 2-qubit ``sqrt_iswap`` job
  at dss-2, then ``simulate`` on both pulses.  GRAPE gradients, frame
  integration and the RK4 channel do the work; Floquet evaluates one genome
  per verb.
* ``analysis`` -- a stored input front through ``aggregate``, ``classify``,
  ``bounds`` and ``truncation-study``, then ``evaluate`` on dss-1..3.  The
  same Floquet code as ``search`` but one genome at a time, seven short
  processes, so start-up is a large share of it.

The seed of a run becomes the config seed: it draws the initial population
(search), the initial pulses (gates) and the truncation-study drives
(analysis).  The analysis front is fixed (``data/front_*.csv``), so a change
to the search leaves its input unchanged.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from metrics import STRATEGIES

DATA = Path(__file__).resolve().parent / "data"

WORKLOADS = ("search", "gates", "analysis")
DSS_POINTS = ("dss-1", "dss-2", "dss-3")

#: generations of the search; a pass (fluxonium + optimize) takes about 5 s
#: on one core of the reference machine, so a run holds several passes
SEARCH_GENERATIONS = 3
SEARCH_POPULATION = 100

#: GRAPE iterations of each gate job: the library default.  At 250 the
#: 2-qubit job never met the amplitude bound on most seeds and wrote
#: -Infinity; its first accepted pulse came at iterations 72 to 445 over 32
#: seeds (README.md, "Seed defects").  A gates pass takes about 40 s.
GATE_ITERATIONS = 600
GATES = ("x", "sqrt_iswap")


@dataclass
class Invocation:
    """One verb process: its arguments and the artifacts it must write."""

    args: list
    artifacts: list

    @property
    def verb(self) -> str:
        return self.args[0]


@dataclass
class Workload:
    name: str
    config: dict
    invocations: list = field(default_factory=list)
    inputs: list = field(default_factory=list)  # files copied into each pass dir


def _gate_jobs(smoke: bool) -> list:
    jobs = []
    for gate in GATES:
        job = {"name": gate, "gate": gate, "point": "dss-2", "iterations": GATE_ITERATIONS}
        if smoke:
            job.update(steps=100, frame_substeps=128)
        jobs.append(job)
    return jobs


def build(name: str, seed: int, work: Path, smoke: bool = False) -> Workload:
    """The workload ``name`` for ``seed``; writes its genome files to ``work``."""
    if name == "search":
        pop, gens = (8, 1) if smoke else (SEARCH_POPULATION, SEARCH_GENERATIONS)
        cfg = {
            "seed": seed,
            "optimizer": {"population_m": pop, "generations_n": gens, "n": 4,
                          "snapshot_every": 1},
        }
        fronts = [f"front_{s}.csv" for s in STRATEGIES]
        histories = [f"history_{s}.csv" for s in STRATEGIES]
        return Workload(name, cfg, [
            Invocation(["fluxonium"], ["fluxonium.json"]),
            Invocation(["optimize"], fronts + histories),
        ])
    if name == "gates":
        jobs = _gate_jobs(smoke)
        cfg = {"seed": seed, "gates": jobs}
        invs = [Invocation(["grape"], [f"pulse_{j['name']}.json" for j in jobs])]
        invs += [
            Invocation(["simulate", j["name"]], [f"simulate_{j['name']}.json"])
            for j in jobs
        ]
        return Workload(name, cfg, invs)
    if name == "analysis":
        cfg = {"seed": seed}
        if smoke:
            cfg["truncation"] = {"orders": [1]}
        invs = [
            Invocation(["aggregate"], ["front_aggregated.csv"]),
            Invocation(["classify"], ["front_classified.csv"]),
            Invocation(["bounds"], ["bounds.csv"]),
            Invocation(["truncation-study"], ["truncation.csv"]),
        ]
        for point in DSS_POINTS:
            genome_file = work / f"{point}.json"
            genome_file.write_text(json.dumps({"benchmark": point}))
            invs.append(Invocation(["evaluate", str(genome_file)], [f"rates_{point}.csv"]))
        inputs = [DATA / f"front_{s}.csv" for s in STRATEGIES]
        return Workload(name, cfg, invs, inputs)
    raise ValueError(f"unknown workload {name!r}")


def prepare_pass(workload: Workload, pass_dir: Path) -> None:
    """Fresh run directory holding the workload's input files."""
    pass_dir.mkdir(parents=True)
    for src in workload.inputs:
        shutil.copyfile(src, pass_dir / src.name)
