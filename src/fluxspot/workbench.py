"""Config-driven end-to-end runs with persisted, hash-manifested artifacts.

All randomness in a run derives from the single config seed; artifacts are
written atomically and carry no timestamps, so identical config + seed gives
byte-identical files (timestamps live only in the manifest).

``optimize`` runs its strategies concurrently, on one thread per usable CPU
and at most one per strategy.  The bytes do not depend on the thread count:
each strategy run has its own seed and its own arrays, and the files are
written from the calling thread in config order.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
import warnings
from dataclasses import asdict, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .dss import classify_front, classify_point
from .evaluation import (
    EvaluationContext,
    Genome,
    _INFEASIBLE,
    _drive_order,
    _row_point,
    evaluate_genome,
    evaluate_population,
)
from .exceptions import (
    ConfigError,
    DegenerateGapError,
    DependencyError,
    FluxspotError,
    InvalidParameterError,
    check_finite,
)
from .floquet import (
    DriveSpec,
    _su2_matrices,
    mode_infidelity,
    reference_floquet_via_propagator,
)
from .gates import (
    TARGETS,
    ControlContext,
    GrapeSettings,
    PulseSpec,
    gate_target,
    optimize_pulse,
    rotating_frame_trajectory,
)
from .lindblad import (
    LindbladModel,
    _pulse_superoperator,
    average_gate_fidelity,
    process_matrix,
)
from .pareto import (
    STRATEGIES,
    Individual,
    OptimizerConfig,
    aggregate_fronts,
    run_stage1,
)
from .reference import BENCHMARK_POINTS, REFERENCE, _sweet_spot_qubit
from .reference import build_circuit, build_context
from .units import TWO_PI

__all__ = [
    "DEFAULT_CONFIG",
    "load_config",
    "build_context",
    "RunDirectory",
    "cmd_fluxonium",
    "cmd_evaluate",
    "cmd_optimize",
    "cmd_aggregate",
    "cmd_classify",
    "cmd_bounds",
    "cmd_grape",
    "cmd_simulate",
    "cmd_truncation_study",
]

#: Each row is ``(kind, default[, choices])``.  A kind is a JSON type, a
#: one-element list ``[kind]`` of its elements, or a nested table, which is
#: filled from ``{}`` when absent and may stand alone as its row.  A callable
#: default is worked out from the rows filled before it, a default of None
#: also takes null, and a default of ``...`` marks a key that must be given.
_CONFIG = {
    "version": (int, 1, (1,)),
    "seed": (int, 2024),
    "output_dir": (str, "fluxspot-out"),
    # circuit, flux and noise: the reference run, one row per value
    **{name: {k: (type(v), v) for k, v in values.items()}
       for name, values in REFERENCE.items()},
    "optimizer": {
        "population_m": (int, 32),
        "generations_n": (int, 200),
        "strategies": ([str], list(STRATEGIES), STRATEGIES),
        "crossover_rate": (float, 0.9),
        "mutation_rate": (float, None),   # null: 1 / genome length
        "mutation_sigma": (float, 0.1),
        "n": (int, 4),
        "snapshot_every": (int, 10),
    },
    "gates": ([dict], []),
    "truncation": {"orders": ([int], [1, 2, 3, 4, 5]), "substeps": (int, 49152)},
}

_POINTS = {bench.name: bench for bench in BENCHMARK_POINTS}

_QUBITS = {gate: len(unitary).bit_length() - 1 for gate, unitary in TARGETS.items()}

_GATE_JOB = {
    "gate": (str, "x", TARGETS),
    "name": (str, lambda job: job["gate"]),
    "n_freq": (int, lambda job: 9 if _QUBITS[job["gate"]] == 1 else 31),
    "duration_ns": (float, 10.0),
    "steps": (int, 500),
    "f_max_mhz": (float, 100.0),
    "point": ((str, dict), "dss-2", _POINTS),
    "iterations": (int, 600),
    "seed_offset": (int, 0),
    "coupling_j_mhz": (float, 48.0),
    "frame_substeps": (int, 1024),
}

#: The keys of :class:`Genome`.
_GENOME = {
    "p0": (float, ...),
    "p_re": ([float], ...),
    "p_im": ([float], ...),
    "omega_d_frac": (float, ...),
}

_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", list: "a list",
               dict: "a JSON object", (str, dict): "a point name or a JSON object"}


def _typed(value, kind, path: str, choices=()):
    """``value`` checked against a row's ``kind`` and ``choices``; a float
    row stores an integer as a float."""
    if isinstance(kind, list):
        items = enumerate(_typed(value, list, path))
        return [_typed(v, kind[0], f"{path}[{i}]", choices) for i, v in items]
    if isinstance(kind, dict):
        return _filled(_typed(value, dict, path), kind, path + ".")
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{path} must be {_KIND_NAMES[kind]}, got {value!r}")
    if choices and not isinstance(value, dict) and value not in choices:
        raise ConfigError(f"{path} {value!r} is not one of {list(choices)}")
    return value


def _filled(obj: dict, table: dict, where: str) -> dict:
    """``obj`` with every row of ``table`` checked and every absent key
    given its default; ``where`` prefixes each key in an error."""
    unknown = set(obj) - set(table)
    if unknown:
        name = where.rstrip(".: ") or "config root"
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")
    out = {}
    for key, row in table.items():
        kind, default, *choices = row if isinstance(row, tuple) else (row, {})
        if key in obj:
            value = obj[key]
        elif default is ...:
            raise ConfigError(f"{where}{key} is missing")
        else:
            value = default(out) if callable(default) else default
        null = value is None and default is None
        out[key] = None if null else _typed(value, kind, where + key, *choices)
    return out


DEFAULT_CONFIG = _filled({}, _CONFIG, "")


def _check_artifact_name(name: str, where: str) -> None:
    """Reject a name that is not one plain file-name component: it becomes
    part of an artifact's file name."""
    if name in ("", ".", "..") or set(name) & set("/\\\0"):
        raise ConfigError(f"{where} {name!r} is not one plain file-name component")


def _gate_job(job: dict, phi_ac: float) -> dict:
    """A gate job filled from its table; a filled job comes back equal.  A
    point object is a ``front_index`` or a genome with its ``phi_ac``
    (default ``phi_ac``)."""
    where = f"gate job {job.get('name', job.get('gate', 'x'))!r}: "
    job = _filled(job, _GATE_JOB, where)
    _check_artifact_name(job["name"], where + "name")
    if isinstance(job["point"], dict):
        if "front_index" in job["point"]:
            table = {"front_index": (int, ...)}
        else:
            table = {"genome": (_GENOME, ...), "phi_ac": (float, phi_ac)}
        job["point"] = _typed(job["point"], table, where + "point")
    return job


def _read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object stored in ``path``.  A file that cannot be read, text
    that is not JSON and a value that is not an object each raise
    :class:`ConfigError` naming ``what``."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"{what} {path} cannot be read: {exc.strerror}") from exc
    except ValueError as exc:   # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(
            f"{what} {path} must hold a JSON object, not {type(raw).__name__}"
        )
    return raw


def load_config(path: str | Path | None = None) -> dict:
    """Load a run configuration, check every value and fill every default.

    ``_CONFIG`` and ``_GATE_JOB`` hold one row per key.  An integer row takes
    only a JSON integer; a float row takes an integer or a float and stores a
    float (NaN and infinities too: the library rejects them); ``true`` and
    ``false`` are not numbers; a list row checks every element.  A wrong
    type, an unknown key or choice raises :class:`ConfigError` naming the
    key.  Ranges are the library's to check, except those of ``seed`` and
    ``snapshot_every``; ``optimizer.strategies`` must name at least one
    strategy and none twice, and two gate jobs may not share a ``name``.
    """
    raw = {} if path is None else _read_json_object(path, "config file")
    cfg = _filled(raw, _CONFIG, "")
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg['seed']}")
    if cfg["optimizer"]["snapshot_every"] < 1:
        raise ConfigError("optimizer.snapshot_every must be at least 1")
    strategies = cfg["optimizer"]["strategies"]
    if not strategies:
        raise ConfigError("optimizer.strategies must name at least one strategy")
    cfg["gates"] = [_gate_job(job, cfg["flux"]["phi_ac"]) for job in cfg["gates"]]
    # each strategy writes front_<strategy>.csv and each gate job
    # pulse_<name>.json, which aggregate and simulate read back by name
    for what, names in (("optimizer.strategies", strategies),
                        ("gate job names", [job["name"] for job in cfg["gates"]])):
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise ConfigError(f"{what} must differ; repeated: {repeated}")
    return cfg


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))   # np.float64 would print as "np.float64(...)"
    return str(x)


def _atomic_write(target: Path, data: bytes) -> None:
    tmp = target.with_suffix(target.suffix + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, target)


class RunDirectory:
    """Output directory with an integrity manifest."""

    def __init__(self, root: str | Path, cfg: dict):
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:   # a file in the way, or no permission
            raise ConfigError(
                f"output directory {root} cannot be created: {exc.strerror}"
            ) from exc
        self.cfg = cfg
        self.manifest_path = self.root / "manifest.json"
        if self.manifest_path.exists():
            try:
                self.manifest = _read_json_object(self.manifest_path, "manifest")
            except ConfigError as exc:   # the manifest is upstream output
                raise DependencyError(str(exc)) from exc
            entries = self.manifest.get("entries")
            if not isinstance(entries, list):
                raise DependencyError(f"{self.manifest_path} has no entries list")
            for i, entry in enumerate(entries):
                if not isinstance(entry, dict) or not all(
                    isinstance(entry.get(key), str) for key in ("path", "sha256")
                ):
                    raise DependencyError(
                        f"{self.manifest_path} entry {i} must be an object with "
                        f"string path and sha256, got {entry!r}"
                    )
        else:
            self.manifest = {
                "tool_version": __version__,
                "config_hash": hashlib.sha256(_json_bytes(cfg)).hexdigest(),
                "created_utc": datetime.now(timezone.utc).isoformat(),
                "entries": [],
            }

    def write_bytes(self, name: str, data: bytes, command: str) -> Path:
        target = self.root / name
        _atomic_write(target, data)
        digest = hashlib.sha256(data).hexdigest()
        entries = [e for e in self.manifest["entries"] if e["path"] != name]
        entries.append({"command": command, "path": name, "sha256": digest})
        self.manifest["entries"] = sorted(entries, key=lambda e: e["path"])
        _atomic_write(self.manifest_path, _json_bytes(self.manifest))
        return target

    def write_json(self, name: str, obj, command: str) -> Path:
        return self.write_bytes(name, _json_bytes(obj), command)

    def write_csv(self, name: str, header: list, rows: list, command: str) -> Path:
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])
        return self.write_bytes(name, buf.getvalue().encode(), command)

    def require(self, name: str, producer: str) -> Path:
        p = self.root / name
        if not p.exists():
            raise DependencyError(
                f"missing artifact {name!r}; run the {producer!r} command first"
            )
        return p

    def verify(self) -> list:
        """Return the manifest entries whose files are missing or modified."""
        bad = []
        for entry in self.manifest["entries"]:
            p = self.root / entry["path"]
            if not p.exists():
                bad.append(entry)
                continue
            digest = hashlib.sha256(p.read_bytes()).hexdigest()
            if digest != entry["sha256"]:
                bad.append(entry)
        return bad


# ---------------------------------------------------------------- commands


def cmd_fluxonium(cfg: dict, run: RunDirectory) -> Path:
    """Diagonalize the circuit and persist the effective-qubit fixture."""
    circuit = build_circuit(cfg)
    qubit = _sweet_spot_qubit(circuit)
    fixture = {
        "delta_rad_per_us": qubit.delta,
        "phi_ge": qubit.phi_ge,
        "spectrum_rad_per_us": list(qubit.spectrum),
        "fock_dim": circuit.fock_dim,
        "phi_ext_over_pi": 1.0,
    }
    return run.write_json("fluxonium.json", fixture, "fluxonium")


def front_columns(n: int) -> list:
    cols = ["gamma1_per_us", "gammaz_per_us", "t1_us", "tphi_us", "p0"]
    cols += [f"p{k}_re" for k in range(1, n + 1)]
    cols += [f"p{k}_im" for k in range(1, n + 1)]
    cols += ["omega_d", "gz0_abs", "double_dss_metric", "strategy", "seed"]
    return cols


def _individual_row(ind: Individual, point, report, omega_ge: float) -> list:
    """The :func:`front_columns` row of ``ind``, stamped ``(strategy, seed)``,
    with the times of its ``point`` and its sensitivity ``report``, as
    :func:`classify_front` gives them; it evaluates and classifies nothing.
    An infeasible genome, with a ``point`` and a ``report`` of None, gets NaN
    in its derived columns."""
    if point is None:
        t1 = t_phi = gz0 = metric = np.nan
    else:
        t1, t_phi = point.rates.t1, point.rates.t_phi
        gz0, metric = report.gz0_abs, report.double_dss_metric
    g = ind.genome
    strategy, seed = ind.provenance
    return [
        *ind.objectives, t1, t_phi, g.p0, *g.p_re, *g.p_im,
        g.omega_d_frac * omega_ge, gz0, metric, strategy, seed,
    ]


def _cell(row: dict, where: str, column: str, convert=float):
    """``convert`` of one CSV cell, or :class:`DependencyError` naming it."""
    try:
        return convert(row[column])
    except (KeyError, TypeError, ValueError) as exc:
        raise DependencyError(
            f"{where}, column {column}: cannot read {row.get(column)!r}"
        ) from exc


def _read_front_csv(
    cfg: dict, run: RunDirectory, name: str, producer: str, context: EvaluationContext
) -> tuple:
    """The rows of the front CSV ``name`` that the ``producer`` verb wrote,
    as a tuple of :class:`Individual`, each stamped ``(strategy, seed)``.
    They are read at the drive order ``optimize`` wrote them at,
    ``optimizer.n``, checked before any file is read; a header of another
    order raises :class:`DependencyError`.  The context gives the ``omega_d``
    scale; nothing checks that the rows are mutually non-dominated."""
    n = _drive_order(cfg["optimizer"]["n"])
    path = run.require(name, producer)
    members = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != front_columns(n):
            raise DependencyError(
                f"front CSV {path.name}: header not of drive order optimizer.n = {n}"
            )
        for i, row in enumerate(reader):
            cell = partial(_cell, row, f"front CSV {path.name} row {i}")
            genome = Genome(
                p0=cell("p0"),
                p_re=tuple(cell(f"p{k}_re") for k in range(1, n + 1)),
                p_im=tuple(cell(f"p{k}_im") for k in range(1, n + 1)),
                omega_d_frac=cell("omega_d") / context.omega_ge,
            )
            objectives = (cell("gamma1_per_us"), cell("gammaz_per_us"))
            provenance = (cell("strategy", str), cell("seed", int))
            members.append(Individual(genome, objectives, provenance))
    return tuple(members)


def cmd_evaluate(cfg: dict, run: RunDirectory, genome_file: str | Path) -> Path:
    """Evaluate one genome file (or a named benchmark point) to a rates row."""
    spec = _read_json_object(genome_file, "genome file")
    where = f"genome file {genome_file}: "
    if "benchmark" in spec:
        spec = _filled(spec, {"benchmark": (str, ..., _POINTS)}, where)
        bench = _POINTS[spec["benchmark"]]
        genome, phi_ac, name = bench.genome, bench.phi_ac, bench.name
    else:
        table = {**_GENOME, "name": (str, "genome"), "phi_ac": (float, None)}
        spec = _filled(spec, table, where)
        name, phi_ac = spec.pop("name"), spec.pop("phi_ac")
        _check_artifact_name(name, where + "name")
        genome = Genome(**spec)
    context = build_context(cfg, phi_ac)
    _, point = evaluate_genome(genome, context)
    ind = Individual(
        genome=genome,
        objectives=point.objectives if point else (np.inf, np.inf),
        provenance=("evaluate", cfg["seed"]),
    )
    report = classify_point(point, context) if point else None
    rows = [_individual_row(ind, point, report, context.omega_ge)]
    return run.write_csv(
        f"rates_{name}.csv", front_columns(genome.n), rows, "evaluate"
    )


def cmd_optimize(cfg: dict, run: RunDirectory) -> list:
    """Stage-I runs for every configured strategy; one front CSV and one
    history CSV per run.

    The search keeps only its population's genomes and objectives; each
    front row is evaluated once more, by :func:`classify_front`, which
    builds its one ``PointResult``, sensitivity report and bounds, as for
    every other verb that writes a front.

    The runs are concurrent: a pool of one thread per usable CPU
    (``os.sched_getaffinity``), and never more threads than strategies,
    runs them while numpy's LAPACK calls release the interpreter lock.  The
    bytes do not depend on the thread count: each run draws from its own
    seed, ``seed + 7919 * index``, and shares only the read-only context,
    and the main thread writes the files in config order.  The first run
    that fails raises as a serial loop would: the files of the runs before
    it are written, none after it, and the runs not yet started are
    cancelled.
    """
    # imported here: concurrent.futures loads logging, which every other
    # verb would pay for at start-up
    from concurrent.futures import ThreadPoolExecutor

    opt = cfg["optimizer"]
    context = build_context(cfg)
    settings = {k: opt[k] for k in opt.keys() - {"strategies", "snapshot_every"}}
    configs = [
        OptimizerConfig(**settings, strategy=strategy, seed=cfg["seed"] + 7919 * idx)
        for idx, strategy in enumerate(opt["strategies"])
    ]

    def search(oc: OptimizerConfig) -> tuple:
        snapshots = []

        def hook(gen: int, objs: np.ndarray) -> None:
            if gen % opt["snapshot_every"] == 0 or gen == oc.generations_n:
                finite = objs[np.all(np.isfinite(objs), axis=1)]
                if finite.size:
                    snapshots.append([gen, len(finite), *finite.min(axis=0).tolist()])

        front = run_stage1(oc, context, generation_hook=hook)
        rows = [
            _individual_row(ind, point, r, context.omega_ge)
            for ind, point, r, _ in classify_front(front, context)
        ]
        return rows, snapshots

    pool = ThreadPoolExecutor(min(len(configs), len(os.sched_getaffinity(0))))
    paths = []
    try:
        futures = [pool.submit(search, oc) for oc in configs]
        for oc, future in zip(configs, futures):
            rows, snapshots = future.result()
            paths.append(
                run.write_csv(
                    f"front_{oc.strategy}.csv", front_columns(oc.n), rows, "optimize"
                )
            )
            run.write_csv(
                f"history_{oc.strategy}.csv",
                ["generation", "feasible", "best_gamma1_per_us", "best_gammaz_per_us"],
                snapshots,
                "optimize",
            )
    finally:
        # after a failure: drop the runs not yet started, join the running
        pool.shutdown(cancel_futures=True)
    return paths


def cmd_aggregate(cfg: dict, run: RunDirectory) -> Path:
    """Merge all run-level fronts into the aggregated front.  A row that is
    infeasible on re-evaluation raises ``DegenerateGapError`` naming it, and
    nothing is written."""
    context = build_context(cfg)
    fronts = [
        _read_front_csv(cfg, run, f"front_{strategy}.csv", "optimize", context)
        for strategy in cfg["optimizer"]["strategies"]
    ]
    members = classify_front(aggregate_fronts(fronts), context)
    rows = [_individual_row(ind, p, r, context.omega_ge) for ind, p, r, _ in members]
    return run.write_csv(
        "front_aggregated.csv", front_columns(cfg["optimizer"]["n"]), rows, "aggregate"
    )


def _aggregated_front(cfg: dict, run: RunDirectory) -> tuple:
    """The config's context and the rows of ``front_aggregated.csv``."""
    context = build_context(cfg)
    front = _read_front_csv(cfg, run, "front_aggregated.csv", "aggregate", context)
    return context, front


def cmd_classify(cfg: dict, run: RunDirectory) -> Path:
    """Annotate the aggregated front with sweet-spot labels and bounds."""
    context, front = _aggregated_front(cfg, run)
    header = front_columns(cfg["optimizer"]["n"]) + [
        "dss_label",
        "t_ub_general_us",
        "t_ub_dss_us",
        "d_omega_dc",
        "d_omega_ac",
    ]
    rows = [
        _individual_row(ind, p, r, context.omega_ge)
        + [r.label, b.t_ub_general, b.t_ub_dss, r.d_omega_d_phi_dc, r.d_omega_d_phi_ac]
        for ind, p, r, b in classify_front(front, context)
    ]
    return run.write_csv("front_classified.csv", header, rows, "classify")


def cmd_bounds(cfg: dict, run: RunDirectory) -> tuple:
    """Evaluate the relaxation-time bounds over the aggregated front; the
    second value counts the rows whose verdict is not ok.  Without both
    noise channels every bound is inf, which one ``UserWarning`` per call
    reports, naming the missing channel."""
    context, front = _aggregated_front(cfg, run)
    noise = context.noise
    missing = [
        f"{name} (noise.{key})"
        for name, key, amp in (("flux noise", "delta_f", noise.a_f),
                               ("dielectric loss", "tan_delta_c", noise.a_d))
        if amp == 0.0
    ]
    if missing:
        warnings.warn(
            f"T1 bounds undefined without {' and '.join(missing)}: every bound is inf",
            stacklevel=2,
        )
    bounds = [b for *_, b in classify_front(front, context)]
    rows = [
        [b.t1, b.t_ub_general, b.t_ub_dss, b.margin_general, b.margin_dss, int(b.ok)]
        for b in bounds
    ]
    out = run.write_csv(
        "bounds.csv",
        ["t1_us", "t_ub_general_us", "t_ub_dss_us", "margin_general", "margin_dss", "ok"],
        rows,
        "bounds",
    )
    return out, sum(not b.ok for b in bounds)


def _resolve_gate_point(cfg, run, job):
    """Genome, ``phi_ac`` and name of a filled gate job's ``point``."""
    point = job["point"]
    if isinstance(point, str):
        bench = _POINTS[point]
        return bench.genome, bench.phi_ac, bench.name
    if "front_index" in point:
        _, front = _aggregated_front(cfg, run)
        idx = point["front_index"]
        if not 0 <= idx < len(front):
            raise ConfigError(
                f"gate job {job['name']!r}: point.front_index {idx} out of range"
            )
        return front[idx].genome, cfg["flux"]["phi_ac"], f"front{idx}"
    return Genome(**point["genome"]), point["phi_ac"], "custom"


def _complex_parts(z: np.ndarray) -> list:
    """``[re, im]``: the real and the imaginary parts of ``z`` as lists of
    plain floats."""
    return [z.real.tolist(), z.imag.tolist()]


def _from_parts(parts: np.ndarray) -> np.ndarray:
    """The complex array whose real and imaginary parts are the rows of
    ``parts``, bit for bit (``re + 1j * im`` can flip the sign of a zero)."""
    z = np.empty(parts.shape[1:], dtype=complex)
    z.real, z.imag = parts
    return z


def cmd_grape(cfg: dict, run: RunDirectory, jobs: list) -> list:
    """Optimize each of ``jobs`` and persist one pulse artifact per job; the
    artifact paths, in job order.

    Each job is filled from the gate-job table as :func:`load_config` fills
    it, so a hand-built job such as ``{"gate": "x"}`` gets every default.
    Jobs with one frame -- the same genome, ``phi_ac``, duration, steps and
    substeps -- share one evaluation of the working point and one
    integration of the frame.  Each artifact stores the entries (a, b) of
    every frame sample ``[[a, -b*], [b, a*]]``, ``frame_a`` and ``frame_b``
    each as its list of real parts and its list of imaginary parts, so that
    ``simulate`` replays the pulse in that frame.
    """
    frames = {}
    return [_grape_job(cfg, run, job, frames) for job in jobs]


def _grape_job(cfg: dict, run: RunDirectory, job: dict, frames: dict) -> Path:
    """One job of :func:`cmd_grape`; ``frames`` holds the evaluated point
    and the frame samples of each frame met so far in the pass, by its
    key."""
    job = _gate_job(job, cfg["flux"]["phi_ac"])
    name, n_qubits = job["name"], _QUBITS[job["gate"]]
    seed = cfg["seed"] + job["seed_offset"]
    if seed < 0:
        raise ConfigError(
            f"gate job {name!r}: seed + seed_offset must be non-negative, got {seed}"
        )
    target = gate_target(job["gate"])
    f_max = TWO_PI * job["f_max_mhz"] * 1e-3
    coupling = TWO_PI * job["coupling_j_mhz"] * 1e-3
    settings = GrapeSettings(iterations=job["iterations"], seed=seed)
    duration, steps, substeps = job["duration_ns"], job["steps"], job["frame_substeps"]
    # checked before the frame is integrated over the duration; a 1-qubit
    # job has no coupling, yet a non-finite one is rejected there too
    check_finite(coupling_j=coupling)
    coupling = coupling if n_qubits == 2 else 0.0
    spec = PulseSpec(duration=duration, steps=steps, f_max=f_max,
                     n_freq=job["n_freq"], n_controls=n_qubits)

    genome, phi_ac, point_name = _resolve_gate_point(cfg, run, job)
    # the context is the config's at phi_ac, so within one pass the genome
    # and phi_ac stand for the point and its frame
    key = (genome, phi_ac, duration, steps, substeps)
    if key not in frames:
        context_eval = build_context(cfg, phi_ac)
        _, point = evaluate_genome(genome, context_eval)
        if point is None:
            raise FluxspotError(
                f"gate job {name!r}: point {point_name!r} is {_INFEASIBLE}"
            )
        frames[key] = point, rotating_frame_trajectory(
            point.drive, context_eval.coefficients, duration, steps, substeps
        )
    point, samples = frames[key]
    frame = ControlContext(samples, duration / steps, n_qubits, coupling)
    result = optimize_pulse(spec, frame, target, settings)

    spectrum_re, spectrum_im = _complex_parts(np.fft.rfft(result.waveforms))
    artifact = {
        "gate": job["gate"],
        "name": name,
        "point": point_name,
        "genome": asdict(genome),
        "phi_ac": phi_ac,
        "duration_ns": duration,
        "steps": steps,
        "n_freq": job["n_freq"],
        "n_qubits": n_qubits,
        "f_max_rad_per_ns": f_max,
        "coupling_j_rad_per_ns": coupling,
        "frame_substeps": job["frame_substeps"],
        "frame_a": _complex_parts(frame.frame[:, 0, 0]),
        "frame_b": _complex_parts(frame.frame[:, 1, 0]),
        "theta": result.theta.tolist(),
        "samples": result.waveforms.tolist(),
        "spectrum_re": spectrum_re,
        "spectrum_im": spectrum_im,
        "fidelity": result.fidelity,
        "fidelity_history": result.fidelity_history.tolist(),
        "converged": result.converged,
        "rates_per_us": {
            "gamma_1": point.rates.gamma_1,
            "gamma_z": point.rates.gamma_z,
        },
    }
    return run.write_json(f"pulse_{name}.json", artifact, "grape")


def cmd_simulate(cfg: dict, run: RunDirectory, pulse_name: str) -> Path:
    """Open-system replay of a stored pulse artifact.

    The artifact holds all that the replay needs: the waveforms, the rates,
    and the frame samples that ``grape`` integrated.  So ``simulate`` reads
    no ``circuit``, ``flux`` or ``noise`` table of ``cfg``, builds no
    evaluation context, diagonalizes no circuit and integrates no frame.
    It reads only the keys it replays: ``gate``, ``n_qubits``,
    ``duration_ns``, ``steps``, ``coupling_j_rad_per_ns``, ``rates_per_us``,
    ``samples``, ``frame_a`` and ``frame_b``.  Every structural defect of
    these raises :class:`DependencyError` naming it: a missing key, a value
    of the wrong kind, an unknown gate, a qubit count that is not the
    gate's, fewer than 1 step, waveforms or frame entries of the wrong
    shape, and frame samples that are not finite or not in SU(2).  A
    non-finite rate or sample is the library's to reject.  A
    ``pulse_name`` that is not one plain file-name component raises
    :class:`ConfigError`.
    """
    _check_artifact_name(pulse_name, "pulse")
    path = run.require(f"pulse_{pulse_name}.json", "grape")
    where = f"pulse artifact {path.name}"
    try:
        art = json.loads(path.read_text())
        duration, steps = float(art["duration_ns"]), int(art["steps"])
        n_qubits = int(art["n_qubits"])
        coupling = float(art["coupling_j_rad_per_ns"])
        g1, gz = (float(art["rates_per_us"][k]) for k in ("gamma_1", "gamma_z"))
        waveforms = np.array(art["samples"], dtype=float)
        a, b = (np.array(art[k], dtype=float) for k in ("frame_a", "frame_b"))
        gate = _typed(art["gate"], str, f"{where}: gate", TARGETS)
    except ConfigError as exc:   # the artifact is upstream output, not config
        raise DependencyError(str(exc)) from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise DependencyError(f"{where}: {exc!r}") from exc
    if n_qubits != _QUBITS[gate]:
        raise DependencyError(
            f"{where}: gate {gate!r} acts on {_QUBITS[gate]} qubit(s), "
            f"n_qubits is {n_qubits}"
        )
    if steps < 1:
        raise DependencyError(f"{where}: steps must be at least 1, got {steps}")
    shapes = {"samples": (waveforms, (n_qubits, steps)),
              "frame_a": (a, (2, steps)), "frame_b": (b, (2, steps))}
    for key, (value, shape) in shapes.items():
        if value.shape != shape:
            raise DependencyError(
                f"{where}: {key} must have shape {shape}, got {value.shape}"
            )
    try:
        samples = _su2_matrices(_from_parts(a), _from_parts(b))
        frame = ControlContext(samples, duration / steps, n_qubits, coupling)
    except InvalidParameterError as exc:
        raise DependencyError(f"{where}: {exc}") from exc
    model = LindbladModel(rates=tuple((g1, gz) for _ in range(n_qubits)))
    s = _pulse_superoperator(frame, waveforms, model)
    chi_re, chi_im = _complex_parts(process_matrix(s))
    out = {
        "pulse": pulse_name,
        "gate": gate,
        # the average gate fidelity, under the key the benchmark reads
        "process_fidelity": average_gate_fidelity(s, gate_target(gate).unitary),
        "chi_re": chi_re,
        "chi_im": chi_im,
        "rates_per_us": art["rates_per_us"],
    }
    return run.write_json(f"simulate_{pulse_name}.json", out, "simulate")


def cmd_truncation_study(cfg: dict, run: RunDirectory) -> Path:
    """Mode infidelity of the truncated solver against the propagator
    reference, swept over the harmonic truncation for each drive order.
    Each truncation is a one-row :func:`evaluate_population` at that
    ``k_max``; an infeasible row raises ``DegenerateGapError`` naming it."""
    orders = cfg["truncation"]["orders"]
    if min(orders, default=0) < 0:
        raise InvalidParameterError(
            f"truncation.orders must be >= 0, got drive order {min(orders)}"
        )
    context = build_context(cfg)
    coeffs, substeps = context.coefficients, cfg["truncation"]["substeps"]
    rng = np.random.default_rng(cfg["seed"])
    rows = []
    for n in orders:
        p0 = rng.uniform(0.0, 1.0)
        p = [complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(n)]
        vector = Genome(p0, [z.real for z in p], [z.imag for z in p], 1.1).to_vector()
        drive = DriveSpec(1.1 * context.omega_ge, (p0, *p))
        ref = reference_floquet_via_propagator(drive, coeffs, substeps, k_max=3 * n + 4)
        for k_max in range(n, 3 * n + 3):
            _, solved = evaluate_population([vector], replace(context, k_max=k_max))
            point = _row_point(solved, 0, context)
            if point is None:
                raise DegenerateGapError(
                    f"drive order {n} at k_max={k_max} is {_INFEASIBLE}"
                )
            rows.append([n, k_max, mode_infidelity(ref, point.solution)])
    return run.write_csv(
        "truncation.csv", ["n", "k_max", "mode_infidelity"], rows, "truncation-study"
    )
