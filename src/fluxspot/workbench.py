"""Config-driven end-to-end runs with persisted, hash-manifested artifacts.

All randomness in a run derives from the single config seed; artifacts are
written atomically and carry no timestamps, so identical config + seed gives
byte-identical files (timestamps live only in the manifest).
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
from .circuit import CircuitParams, diagonalize_circuit
from .dss import (
    DSS_THRESHOLD,
    amplitude_sensitivity,
    classify_point,
    evaluate_bounds,
)
from .evaluation import (
    EvaluationContext,
    Genome,
    _INFEASIBLE,
    evaluate_genome,
    genome_to_drive,
)
from .exceptions import ConfigError, DependencyError, FluxspotError
from .floquet import (
    DriveSpec,
    mode_infidelity,
    reference_floquet_via_propagator,
    solve_floquet,
    assemble_floquet_matrix,
)
from .gates import (
    TARGETS,
    GrapeSettings,
    PulseSpec,
    gate_target,
    optimize_pulse,
    rotating_frame_trajectory,
)
from .lindblad import (
    LindbladModel,
    channel_from_simulation,
    chi_from_unitary,
    process_fidelity,
    process_tomography,
)
from .noise import NoiseModel
from .pareto import (
    STRATEGIES,
    Individual,
    OptimizerConfig,
    ParetoFront,
    _with_points,
    aggregate_fronts,
    run_stage1,
)
from .reference import BENCHMARK_POINTS
from .units import TWO_PI, ghz

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
    "circuit": {
        "e_c_ghz": (float, 1.0),
        "e_l_ghz": (float, 0.79),
        "e_j_ghz": (float, 4.43),
        "fock_dim": (int, 110),
    },
    "flux": {"phi_dc_over_pi": (float, 1.03), "phi_ac": (float, 0.05)},
    "noise": {
        "delta_f": (float, 1.8e-6),
        "tan_delta_c": (float, 1.1e-6),
        "temperature_k": (float, 0.015),
        "omega_ir_hz": (float, 1.0),
        "omega_uv_ghz": (float, 3.0),
        "dephasing_log_factor": (float, 4.0),
        "dephasing_scale": (float, 4.0),
    },
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
    "n_qubits": (int, lambda job: _QUBITS[job["gate"]]),
    "n_freq": (int, lambda job: 9 if job["n_qubits"] == 1 else 31),
    "duration_ns": (float, 10.0),
    "steps": (int, 500),
    "f_max_mhz": (float, 100.0),
    "point": ((str, dict), "dss-2", _POINTS),
    "iterations": (int, 600),
    "learning_rate": (float, 0.08),
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
    """A gate job filled from its table.  A point object is a
    ``front_index`` or a genome with its ``phi_ac`` (default ``phi_ac``)."""
    where = f"gate job {job.get('name', job.get('gate', 'x'))!r}: "
    job = _filled(job, _GATE_JOB, where)
    _check_artifact_name(job["name"], where + "name")
    qubits = _QUBITS[job["gate"]]
    if job["n_qubits"] != qubits:
        raise ConfigError(f"{where}gate {job['gate']!r} acts on {qubits} qubit(s), "
                          f"n_qubits is {job['n_qubits']}")
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
    key.  Ranges are the library's to check, except ``snapshot_every``'s.
    """
    raw = {} if path is None else _read_json_object(path, "config file")
    if "threads" in raw:
        warnings.warn(
            "config key 'threads' is ignored: the search runs serially",
            stacklevel=2,
        )
        raw = {k: v for k, v in raw.items() if k != "threads"}
    cfg = _filled(raw, _CONFIG, "")
    if cfg["optimizer"]["snapshot_every"] < 1:
        raise ConfigError("optimizer.snapshot_every must be at least 1")
    cfg["gates"] = [_gate_job(job, cfg["flux"]["phi_ac"]) for job in cfg["gates"]]
    return cfg


def build_circuit(cfg: dict) -> CircuitParams:
    c = cfg["circuit"]
    return CircuitParams(
        e_c=ghz(c["e_c_ghz"]),
        e_l=ghz(c["e_l_ghz"]),
        e_j=ghz(c["e_j_ghz"]),
        fock_dim=c["fock_dim"],
    )


def build_context(cfg: dict, phi_ac: float | None = None) -> EvaluationContext:
    circuit = build_circuit(cfg)
    qubit = diagonalize_circuit(circuit, np.pi)
    n = cfg["noise"]
    noise = NoiseModel.from_loss_params(
        delta_f=n["delta_f"],
        tan_delta_c=n["tan_delta_c"],
        e_l=circuit.e_l,
        e_c=circuit.e_c,
        phi_ge=qubit.phi_ge,
        temperature=n["temperature_k"],
        omega_ir=TWO_PI * n["omega_ir_hz"] * 1e-6,
        omega_uv=ghz(n["omega_uv_ghz"]),
        dephasing_log_factor=n["dephasing_log_factor"],
        dephasing_scale=n["dephasing_scale"],
    )
    flux = cfg["flux"]
    return EvaluationContext(
        qubit=qubit,
        e_l=circuit.e_l,
        phi_dc=flux["phi_dc_over_pi"] * np.pi,
        phi_ac=phi_ac if phi_ac is not None else flux["phi_ac"],
        noise=noise,
        n=cfg["optimizer"]["n"],
    )


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
        self.root.mkdir(parents=True, exist_ok=True)
        self.cfg = cfg
        self.manifest_path = self.root / "manifest.json"
        if self.manifest_path.exists():
            self.manifest = json.loads(self.manifest_path.read_text())
        else:
            self.manifest = {
                "tool_version": __version__,
                "config_hash": hashlib.sha256(_json_bytes(cfg)).hexdigest(),
                "created_utc": datetime.now(timezone.utc).isoformat(),
                "entries": [],
            }

    def path(self, name: str) -> Path:
        return self.root / name

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
    qubit = diagonalize_circuit(circuit, np.pi)
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


def _individual_row(ind: Individual, context: EvaluationContext) -> list:
    """A front CSV row; an individual without a point (an infeasible genome)
    gets NaN in its derived columns."""
    point = ind.point
    g = ind.genome
    gz0 = abs(point.weights.g_z0) if point is not None else np.nan
    metric = (
        abs(amplitude_sensitivity(point.weights, point.drive))
        if point is not None
        else np.nan
    )
    strategy, seed, _ = ind.provenance if ind.provenance else ("-", -1, 0)
    rates = point.rates if point is not None else None
    return (
        [
            ind.objectives[0],
            ind.objectives[1],
            rates.t1 if rates else np.nan,
            rates.t_phi if rates else np.nan,
            g.p0,
        ]
        + list(g.p_re)
        + list(g.p_im)
        + [
            g.omega_d_frac * context.omega_ge,
            gz0,
            metric,
            strategy,
            seed,
        ]
    )


def _cell(row: dict, where: str, column: str, convert=float):
    """``convert`` of one CSV cell, or :class:`DependencyError` naming it."""
    try:
        return convert(row[column])
    except (KeyError, TypeError, ValueError) as exc:
        raise DependencyError(
            f"{where}, column {column}: cannot read {row.get(column)!r}"
        ) from exc


def _read_front_csv(path: Path, context: EvaluationContext, n: int) -> ParetoFront:
    points = []
    with open(path, newline="") as fh:
        for i, row in enumerate(csv.DictReader(fh)):
            cell = partial(_cell, row, f"front CSV {path.name} row {i}")
            genome = Genome(
                p0=cell("p0"),
                p_re=tuple(cell(f"p{k}_re") for k in range(1, n + 1)),
                p_im=tuple(cell(f"p{k}_im") for k in range(1, n + 1)),
                omega_d_frac=cell("omega_d") / context.omega_ge,
            )
            objectives = (cell("gamma1_per_us"), cell("gammaz_per_us"))
            provenance = (cell("strategy", str), cell("seed", int), 0)
            points.append(Individual(genome, objectives, provenance=provenance))
    return ParetoFront(points=tuple(points))


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
    context = build_context(cfg, phi_ac=phi_ac)
    if genome.n != context.n:
        context = replace(context, n=genome.n)
    _, point = evaluate_genome(genome, context)
    ind = Individual(
        genome=genome,
        objectives=point.objectives if point else (np.inf, np.inf),
        point=point,
        provenance=("evaluate", cfg["seed"], 0),
    )
    rows = [_individual_row(ind, context)]
    return run.write_csv(
        f"rates_{name}.csv", front_columns(genome.n), rows, "evaluate"
    )


def cmd_optimize(cfg: dict, run: RunDirectory) -> list:
    """Stage-I runs for every configured strategy; one front CSV per run.

    The search carries its population as arrays and builds a ``PointResult``
    only for each front row, from the arrays it computed for that genome, so
    no front point is evaluated again.
    """
    opt = cfg["optimizer"]
    context = build_context(cfg)
    settings = {k: opt[k] for k in opt.keys() - {"strategies", "snapshot_every"}}
    paths = []
    for idx, strategy in enumerate(opt["strategies"]):
        run_seed = cfg["seed"] + 7919 * idx
        oc = OptimizerConfig(**settings, strategy=strategy, seed=run_seed)
        snapshots = []

        def hook(gen: int, objs: np.ndarray) -> None:
            if gen % opt["snapshot_every"] == 0 or gen == oc.generations_n:
                finite = objs[np.all(np.isfinite(objs), axis=1)]
                if finite.size:
                    snapshots.append(
                        [
                            gen,
                            len(finite),
                            float(finite[:, 0].min()),
                            float(finite[:, 1].min()),
                        ]
                    )

        front = run_stage1(oc, context, generation_hook=hook)
        rows = [_individual_row(ind, context) for ind in front.points]
        paths.append(
            run.write_csv(
                f"front_{strategy}.csv", front_columns(oc.n), rows, "optimize"
            )
        )
        run.write_csv(
            f"history_{strategy}.csv",
            ["generation", "feasible", "best_gamma1_per_us", "best_gammaz_per_us"],
            snapshots,
            "optimize",
        )
    return paths


def cmd_aggregate(cfg: dict, run: RunDirectory) -> Path:
    """Merge all run-level fronts into the aggregated front."""
    context = build_context(cfg)
    n = cfg["optimizer"]["n"]
    fronts = []
    for strategy in cfg["optimizer"]["strategies"]:
        path = run.require(f"front_{strategy}.csv", "optimize")
        fronts.append(_read_front_csv(path, context, n))
    combined = aggregate_fronts(fronts)
    rows = [_individual_row(ind, context) for ind in _with_points(combined, context)]
    return run.write_csv(
        "front_aggregated.csv", front_columns(n), rows, "aggregate"
    )


def cmd_classify(cfg: dict, run: RunDirectory) -> Path:
    """Annotate the aggregated front with sweet-spot labels and bounds."""
    context = build_context(cfg)
    n = cfg["optimizer"]["n"]
    path = run.require("front_aggregated.csv", "aggregate")
    front = _read_front_csv(path, context, n)
    header = front_columns(n) + [
        "dss_label",
        "t_ub_general_us",
        "t_ub_dss_us",
        "d_omega_dc",
        "d_omega_ac",
    ]
    rows = []
    for ind in _with_points(front, context, "front row"):
        report = classify_point(ind.point, context)
        bounds = evaluate_bounds(ind.point, context.noise, context.qubit.delta)
        rows.append(
            _individual_row(ind, context)
            + [
                report.label,
                bounds.t_ub_general,
                bounds.t_ub_dss,
                report.d_omega_d_phi_dc,
                report.d_omega_d_phi_ac,
            ]
        )
    return run.write_csv("front_classified.csv", header, rows, "classify")


def cmd_bounds(cfg: dict, run: RunDirectory) -> tuple:
    """Evaluate the relaxation-time bounds over the aggregated front."""
    context = build_context(cfg)
    n = cfg["optimizer"]["n"]
    path = run.require("front_aggregated.csv", "aggregate")
    front = _read_front_csv(path, context, n)
    rows = []
    violations = 0
    for ind in _with_points(front, context, "front row"):
        b = evaluate_bounds(ind.point, context.noise, context.qubit.delta)
        gz0 = abs(ind.point.weights.g_z0)
        dss_ok = b.t1 <= b.t_ub_dss * (1 + 1e-9) if gz0 < DSS_THRESHOLD else True
        ok = b.t1 <= b.t_ub_general * (1 + 1e-9) and dss_ok
        violations += 0 if ok else 1
        rows.append(
            [b.t1, b.t_ub_general, b.t_ub_dss, b.margin_general, b.margin_dss, int(ok)]
        )
    out = run.write_csv(
        "bounds.csv",
        ["t1_us", "t_ub_general_us", "t_ub_dss_us", "margin_general", "margin_dss", "ok"],
        rows,
        "bounds",
    )
    return out, violations


def _resolve_gate_point(cfg, run, job, context):
    """Genome, ``phi_ac`` and name of a filled gate job's ``point``."""
    point = job["point"]
    if isinstance(point, str):
        bench = _POINTS[point]
        return bench.genome, bench.phi_ac, bench.name
    if "front_index" in point:
        path = run.require("front_aggregated.csv", "aggregate")
        front = _read_front_csv(path, context, cfg["optimizer"]["n"])
        idx = point["front_index"]
        if not 0 <= idx < len(front.points):
            raise ConfigError(
                f"gate job {job['name']!r}: point.front_index {idx} out of range"
            )
        return front.points[idx].genome, cfg["flux"]["phi_ac"], f"front{idx}"
    return Genome(**point["genome"]), point["phi_ac"], "custom"


def cmd_grape(cfg: dict, run: RunDirectory, job: dict) -> Path:
    """Optimize one gate job, as :func:`load_config` fills it, and persist
    the pulse artifact."""
    name, n_qubits = job["name"], job["n_qubits"]
    target = gate_target(job["gate"])
    f_max = TWO_PI * job["f_max_mhz"] * 1e-3
    coupling = TWO_PI * job["coupling_j_mhz"] * 1e-3 if n_qubits == 2 else 0.0
    settings = GrapeSettings(
        iterations=job["iterations"],
        learning_rate=job["learning_rate"],
        seed=cfg["seed"] + job["seed_offset"],
    )

    context_eval = build_context(cfg)
    genome, phi_ac, point_name = _resolve_gate_point(cfg, run, job, context_eval)
    context_eval = replace(context_eval, phi_ac=phi_ac)
    _, point = evaluate_genome(genome, context_eval)
    if point is None:
        raise FluxspotError(f"gate job {name!r}: point {point_name!r} is {_INFEASIBLE}")

    frame = rotating_frame_trajectory(
        point.drive,
        context_eval.coefficients,
        context_eval.qubit.delta,
        job["duration_ns"],
        steps=job["steps"],
        substeps=job["frame_substeps"],
        n_qubits=n_qubits,
        coupling_j=coupling,
    )
    spec = PulseSpec(
        duration=job["duration_ns"],
        steps=job["steps"],
        f_max=f_max,
        n_freq=job["n_freq"],
        n_controls=n_qubits,
    )
    result = optimize_pulse(spec, frame, target, settings)

    spectra = [np.fft.rfft(wf) for wf in result.waveforms]
    artifact = {
        "gate": job["gate"],
        "name": name,
        "point": point_name,
        "genome": asdict(genome),
        "phi_ac": phi_ac,
        "duration_ns": job["duration_ns"],
        "steps": job["steps"],
        "n_freq": job["n_freq"],
        "n_qubits": n_qubits,
        "f_max_rad_per_ns": f_max,
        "coupling_j_rad_per_ns": coupling,
        "frame_substeps": job["frame_substeps"],
        "theta": [float(x) for x in result.theta],
        "samples": [[float(x) for x in wf] for wf in result.waveforms],
        "spectrum_re": [[float(x.real) for x in s] for s in spectra],
        "spectrum_im": [[float(x.imag) for x in s] for s in spectra],
        "fidelity": result.fidelity,
        "fidelity_history": [float(x) for x in result.fidelity_history],
        "converged": result.converged,
        "rates_per_us": {
            "gamma_1": point.rates.gamma_1,
            "gamma_z": point.rates.gamma_z,
        },
    }
    return run.write_json(f"pulse_{name}.json", artifact, "grape")


def cmd_simulate(cfg: dict, run: RunDirectory, pulse_name: str) -> Path:
    """Open-system evaluation of a stored pulse artifact."""
    path = run.require(f"pulse_{pulse_name}.json", "grape")
    try:
        art = json.loads(path.read_text())
        frame = {
            "duration": float(art["duration_ns"]),
            "steps": int(art["steps"]),
            "substeps": int(art["frame_substeps"]),
            "n_qubits": int(art["n_qubits"]),
            "coupling_j": float(art["coupling_j_rad_per_ns"]),
        }
        g1, gz = (float(art["rates_per_us"][k]) for k in ("gamma_1", "gamma_z"))
        waveforms = np.array(art["samples"], dtype=float)
        phi_ac, spec, gate = float(art["phi_ac"]), art["genome"], art["gate"]
    except (ValueError, KeyError, TypeError) as exc:
        raise DependencyError(f"pulse artifact {path.name}: {exc!r}") from exc
    genome = Genome(**_typed(spec, _GENOME, f"pulse artifact {path.name}: genome"))
    context_eval = build_context(cfg, phi_ac=phi_ac)
    drive = genome_to_drive(genome, context_eval)
    frame = rotating_frame_trajectory(
        drive, context_eval.coefficients, context_eval.qubit.delta, **frame
    )
    model = LindbladModel(rates=tuple((g1, gz) for _ in range(frame.n_qubits)))
    channel = channel_from_simulation(frame, waveforms, model)
    chi = process_tomography(channel, frame.dimension)
    target_chi = chi_from_unitary(gate_target(gate).unitary)
    fid = process_fidelity(chi, target_chi)
    out = {
        "pulse": pulse_name,
        "gate": gate,
        "process_fidelity": fid,
        "chi_re": [[float(x.real) for x in row] for row in chi.chi],
        "chi_im": [[float(x.imag) for x in row] for row in chi.chi],
        "rates_per_us": art["rates_per_us"],
    }
    return run.write_json(f"simulate_{pulse_name}.json", out, "simulate")


def cmd_truncation_study(cfg: dict, run: RunDirectory) -> Path:
    """Mode infidelity of the truncated solver against the propagator
    reference, swept over the harmonic truncation for each drive order."""
    context = build_context(cfg)
    coeffs = context.coefficients
    delta = context.qubit.delta
    substeps = cfg["truncation"]["substeps"]
    rng = np.random.default_rng(cfg["seed"])
    rows = []
    for n in cfg["truncation"]["orders"]:
        p = [complex(rng.uniform(0.0, 1.0), 0.0)]
        p += [
            complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(n)
        ]
        drive = DriveSpec(
            phi_dc=context.phi_dc,
            phi_ac=context.phi_ac,
            omega_d=1.1 * context.omega_ge,
            p=tuple(p),
        )
        k_ref = 3 * n + 4
        ref = reference_floquet_via_propagator(
            drive, coeffs, delta, substeps=substeps, k_max=k_ref
        )
        for k_max in range(n, 3 * n + 3):
            sol = solve_floquet(
                assemble_floquet_matrix(drive, coeffs, delta, k_max), drive.omega_d
            )
            rows.append([n, k_max, mode_infidelity(ref, sol)])
    return run.write_csv(
        "truncation.csv", ["n", "k_max", "mode_infidelity"], rows, "truncation-study"
    )
