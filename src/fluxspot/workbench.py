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
import warnings
from dataclasses import replace
from datetime import datetime, timezone
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
    evaluate_population,
    genome_to_drive,
)
from .exceptions import ConfigError, DegenerateGapError, DependencyError, FluxspotError
from .floquet import (
    DriveSpec,
    mode_infidelity,
    reference_floquet_via_propagator,
    solve_floquet,
    assemble_floquet_matrix,
)
from .gates import (
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
    Individual,
    OptimizerConfig,
    ParetoFront,
    aggregate_fronts,
    run_stage1,
)
from .reference import BENCHMARK_POINTS, BenchmarkPoint
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

DEFAULT_CONFIG = {
    "version": 1,
    "seed": 2024,
    "output_dir": "fluxspot-out",
    "circuit": {"e_c_ghz": 1.0, "e_l_ghz": 0.79, "e_j_ghz": 4.43, "fock_dim": 110},
    "flux": {"phi_dc_over_pi": 1.03, "phi_ac": 0.05},
    "noise": {
        "delta_f": 1.8e-6,
        "tan_delta_c": 1.1e-6,
        "temperature_k": 0.015,
        "omega_ir_hz": 1.0,
        "omega_uv_ghz": 3.0,
        "dephasing_log_factor": 4.0,
        "dephasing_scale": 4.0,
    },
    "optimizer": {
        "population_m": 32,
        "generations_n": 200,
        "strategies": ["nsga2", "spea2", "ibea", "moead"],
        "crossover_rate": 0.9,
        "mutation_rate": None,
        "mutation_sigma": 0.1,
        "n": 4,
        "snapshot_every": 10,
    },
    "gates": [],
    "truncation": {"orders": [1, 2, 3, 4, 5], "substeps": 49152},
}

_GATE_JOB_KEYS = {
    "name",
    "gate",
    "duration_ns",
    "steps",
    "n_freq",
    "f_max_mhz",
    "point",
    "iterations",
    "learning_rate",
    "seed_offset",
    "n_qubits",
    "coupling_j_mhz",
    "frame_substeps",
}


def _check_keys(section, allowed, where: str) -> None:
    """Reject a section that is not a JSON object or has unknown keys."""
    if not isinstance(section, dict):
        raise ConfigError(
            f"{where} must be a JSON object, not {type(section).__name__}"
        )
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _check_artifact_name(name, where: str) -> None:
    """Reject a name that is not one plain file-name component: it becomes
    part of an artifact's file name."""
    if not isinstance(name, str) or name in ("", ".", "..") or set(name) & set("/\\\0"):
        raise ConfigError(f"{where} {name!r}: not one plain file-name component")


def _merged(defaults: dict, override: dict, where: str) -> dict:
    _check_keys(override, defaults.keys(), where)
    out = dict(defaults)
    out.update(override)
    return out


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
    """Load, schema-check and default-fill a run configuration."""
    raw = {} if path is None else _read_json_object(path, "config file")
    if "threads" in raw:
        warnings.warn(
            "config key 'threads' is ignored: the search runs serially",
            stacklevel=2,
        )
        raw = {k: v for k, v in raw.items() if k != "threads"}
    _check_keys(raw, DEFAULT_CONFIG.keys(), "config root")
    if raw.get("version", 1) != 1:
        raise ConfigError(f"unsupported config version {raw.get('version')}")

    cfg = {k: v for k, v in DEFAULT_CONFIG.items() if not isinstance(v, dict)}
    cfg["gates"] = list(DEFAULT_CONFIG["gates"])
    for key in ("circuit", "flux", "noise", "optimizer", "truncation"):
        cfg[key] = _merged(DEFAULT_CONFIG[key], raw.get(key, {}), key)
    for key in ("version", "seed", "output_dir"):
        if key in raw:
            cfg[key] = raw[key]
    if "gates" in raw:
        if not isinstance(raw["gates"], list):
            raise ConfigError("gates must be a list of job objects")
        for i, job in enumerate(raw["gates"]):
            _check_keys(job, _GATE_JOB_KEYS, f"gates[{i}]")
            if "name" in job:
                _check_artifact_name(job["name"], "gate job")
        cfg["gates"] = raw["gates"]
    if not isinstance(cfg["seed"], int):
        raise ConfigError("seed must be an integer")
    return cfg


def build_circuit(cfg: dict) -> CircuitParams:
    c = cfg["circuit"]
    return CircuitParams(
        e_c=ghz(c["e_c_ghz"]),
        e_l=ghz(c["e_l_ghz"]),
        e_j=ghz(c["e_j_ghz"]),
        fock_dim=int(c["fock_dim"]),
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
        n=int(cfg["optimizer"]["n"]),
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


def _genome_from_row(row: dict, n: int, context: EvaluationContext) -> Genome:
    return Genome(
        p0=float(row["p0"]),
        p_re=tuple(float(row[f"p{k}_re"]) for k in range(1, n + 1)),
        p_im=tuple(float(row[f"p{k}_im"]) for k in range(1, n + 1)),
        omega_d_frac=float(row["omega_d"]) / context.omega_ge,
    )


def _genome_from_json(spec, where: str) -> Genome:
    """Genome from its JSON object form (the keys of :class:`Genome`)."""
    try:
        return Genome(
            p0=spec["p0"],
            p_re=tuple(spec["p_re"]),
            p_im=tuple(spec["p_im"]),
            omega_d_frac=spec["omega_d_frac"],
        )
    except KeyError as exc:
        raise ConfigError(f"{where} misses genome key {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"{where} is not a genome object: {exc}") from exc


def _benchmark_point(name: str) -> BenchmarkPoint:
    for bench in BENCHMARK_POINTS:
        if bench.name == name:
            return bench
    raise ConfigError(f"unknown benchmark point {name!r}")


def _read_front_csv(path: Path, context: EvaluationContext, n: int) -> ParetoFront:
    points = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            genome = _genome_from_row(row, n, context)
            ind = Individual(
                genome=genome,
                objectives=(float(row["gamma1_per_us"]), float(row["gammaz_per_us"])),
                provenance=(row["strategy"], int(row["seed"]), 0),
            )
            points.append(ind)
    return ParetoFront(points=tuple(points))


def cmd_evaluate(cfg: dict, run: RunDirectory, genome_file: str | Path) -> Path:
    """Evaluate one genome file (or a named benchmark point) to a rates row."""
    spec = _read_json_object(genome_file, "genome file")
    name = spec.get("name", "genome")
    phi_ac = spec.get("phi_ac")
    if "benchmark" in spec:
        bench = _benchmark_point(spec["benchmark"])
        genome, phi_ac, name = bench.genome, bench.phi_ac, bench.name
    else:
        _check_artifact_name(name, "genome file name")
        genome = _genome_from_json(spec, "genome file")
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

    Each front row is written from the ``PointResult`` the search computed
    for that genome, so no front point is evaluated again.
    """
    opt = cfg["optimizer"]
    context = build_context(cfg)
    paths = []
    snapshot_every = int(opt["snapshot_every"])
    for idx, strategy in enumerate(opt["strategies"]):
        run_seed = int(cfg["seed"]) + 7919 * idx
        oc = OptimizerConfig(
            population_m=int(opt["population_m"]),
            generations_n=int(opt["generations_n"]),
            strategy=strategy,
            crossover_rate=float(opt["crossover_rate"]),
            mutation_rate=opt["mutation_rate"],
            mutation_sigma=float(opt["mutation_sigma"]),
            seed=run_seed,
            n=int(opt["n"]),
        )
        snapshots = []

        def hook(gen: int, objs: np.ndarray) -> None:
            if gen % snapshot_every == 0 or gen == oc.generations_n:
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
    n = int(cfg["optimizer"]["n"])
    fronts = []
    for strategy in cfg["optimizer"]["strategies"]:
        path = run.require(f"front_{strategy}.csv", "optimize")
        fronts.append(_read_front_csv(path, context, n))
    combined = aggregate_fronts(fronts)
    rows = [_individual_row(ind, context) for ind in _with_points(combined, context)]
    return run.write_csv(
        "front_aggregated.csv", front_columns(n), rows, "aggregate"
    )


def _with_points(front: ParetoFront, context: EvaluationContext) -> list:
    """The front's individuals carrying the ``PointResult`` of one
    :func:`evaluate_population` call over all rows (``None`` for an
    infeasible row)."""
    results = evaluate_population([ind.genome for ind in front.points], context)
    return [replace(ind, point=point) for ind, (_, point) in zip(front.points, results)]


def _evaluated_rows(front: ParetoFront, context: EvaluationContext) -> list:
    """:func:`_with_points` of a front read from CSV; an infeasible row
    raises ``DegenerateGapError`` naming the row."""
    rows = _with_points(front, context)
    for row, ind in enumerate(rows):
        if ind.point is None:
            raise DegenerateGapError(f"front row {row} is {_INFEASIBLE}")
    return rows


def cmd_classify(cfg: dict, run: RunDirectory) -> Path:
    """Annotate the aggregated front with sweet-spot labels and bounds."""
    context = build_context(cfg)
    n = int(cfg["optimizer"]["n"])
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
    for ind in _evaluated_rows(front, context):
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
    n = int(cfg["optimizer"]["n"])
    path = run.require("front_aggregated.csv", "aggregate")
    front = _read_front_csv(path, context, n)
    rows = []
    violations = 0
    for ind in _evaluated_rows(front, context):
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


def _job_number(job: dict, key: str, default, convert, name: str):
    """``convert`` of the job's ``key`` (``default`` when absent); a value
    that does not convert raises :class:`ConfigError` naming the job."""
    value = job.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"gate job {name!r}: {key} must be a number, got {value!r}"
        ) from exc


def _resolve_gate_point(cfg, run, job, context, name):
    point_spec = job.get("point", "dss-2")
    if isinstance(point_spec, str):
        bench = _benchmark_point(point_spec)
        return bench.genome, bench.phi_ac, bench.name
    if isinstance(point_spec, dict) and "front_index" in point_spec:
        n = int(cfg["optimizer"]["n"])
        path = run.require("front_aggregated.csv", "aggregate")
        front = _read_front_csv(path, context, n)
        idx = _job_number(point_spec, "front_index", None, int, name)
        if not 0 <= idx < len(front.points):
            raise ConfigError(f"front_index {idx} out of range")
        return front.points[idx].genome, cfg["flux"]["phi_ac"], f"front{idx}"
    if isinstance(point_spec, dict) and "genome" in point_spec:
        genome = _genome_from_json(point_spec["genome"], "gate job point")
        return genome, point_spec.get("phi_ac", cfg["flux"]["phi_ac"]), "custom"
    raise ConfigError(
        f"gate job {name!r}: point must be a benchmark name, front_index or genome"
    )


def cmd_grape(cfg: dict, run: RunDirectory, job: dict) -> Path:
    """Optimize one gate job and persist the pulse artifact."""
    gate_name = job.get("gate", "x")
    target = gate_target(gate_name)
    name = job.get("name", gate_name)
    gate_qubits = target.dim.bit_length() - 1
    n_qubits = _job_number(job, "n_qubits", gate_qubits, int, name)
    if n_qubits != gate_qubits:
        raise ConfigError(
            f"gate job {name!r}: gate {gate_name!r} acts on {gate_qubits} "
            f"qubit(s), n_qubits is {n_qubits}"
        )
    duration = _job_number(job, "duration_ns", 10.0, float, name)
    steps = _job_number(job, "steps", 500, int, name)
    n_freq = _job_number(job, "n_freq", 9 if n_qubits == 1 else 31, int, name)
    f_max = TWO_PI * _job_number(job, "f_max_mhz", 100.0, float, name) * 1e-3
    coupling = TWO_PI * _job_number(job, "coupling_j_mhz", 48.0, float, name) * 1e-3
    substeps = _job_number(job, "frame_substeps", 1024, int, name)
    settings = GrapeSettings(
        iterations=_job_number(job, "iterations", 600, int, name),
        learning_rate=_job_number(job, "learning_rate", 0.08, float, name),
        seed=int(cfg["seed"]) + _job_number(job, "seed_offset", 0, int, name),
    )

    context_eval = build_context(cfg)
    genome, phi_ac, point_name = _resolve_gate_point(
        cfg, run, job, context_eval, name
    )
    context_eval = replace(context_eval, phi_ac=phi_ac)
    _, point = evaluate_genome(genome, context_eval)
    if point is None:
        raise FluxspotError(
            f"gate job {name!r}: point {point_name!r} is {_INFEASIBLE}"
        )

    frame = rotating_frame_trajectory(
        point.drive,
        context_eval.coefficients,
        context_eval.qubit.delta,
        duration,
        steps=steps,
        substeps=substeps,
        n_qubits=n_qubits,
        coupling_j=coupling if n_qubits == 2 else 0.0,
    )
    spec = PulseSpec(
        duration=duration,
        steps=steps,
        f_max=f_max,
        n_freq=n_freq,
        n_controls=n_qubits,
    )
    result = optimize_pulse(spec, frame, target, settings)

    spectra = [np.fft.rfft(wf) for wf in result.waveforms]
    artifact = {
        "gate": gate_name,
        "name": name,
        "point": point_name,
        "genome": {
            "p0": genome.p0,
            "p_re": list(genome.p_re),
            "p_im": list(genome.p_im),
            "omega_d_frac": genome.omega_d_frac,
        },
        "phi_ac": phi_ac,
        "duration_ns": duration,
        "steps": steps,
        "n_freq": n_freq,
        "n_qubits": n_qubits,
        "f_max_rad_per_ns": f_max,
        "coupling_j_rad_per_ns": coupling if n_qubits == 2 else 0.0,
        "frame_substeps": substeps,
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
    art = json.loads(path.read_text())
    context_eval = build_context(cfg, phi_ac=art["phi_ac"])
    genome = _genome_from_json(art["genome"], f"pulse artifact {pulse_name!r}")
    drive = genome_to_drive(genome, context_eval)
    n_qubits = int(art["n_qubits"])
    frame = rotating_frame_trajectory(
        drive,
        context_eval.coefficients,
        context_eval.qubit.delta,
        float(art["duration_ns"]),
        steps=int(art["steps"]),
        substeps=int(art["frame_substeps"]),
        n_qubits=n_qubits,
        coupling_j=float(art["coupling_j_rad_per_ns"]),
    )
    waveforms = np.array(art["samples"], dtype=float)
    g1 = float(art["rates_per_us"]["gamma_1"])
    gz = float(art["rates_per_us"]["gamma_z"])
    model = LindbladModel(rates=tuple((g1, gz) for _ in range(n_qubits)))
    channel = channel_from_simulation(frame, waveforms, model)
    chi = process_tomography(channel, frame.dimension)
    target_chi = chi_from_unitary(gate_target(art["gate"]).unitary)
    fid = process_fidelity(chi, target_chi)
    out = {
        "pulse": pulse_name,
        "gate": art["gate"],
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
    substeps = int(cfg["truncation"]["substeps"])
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
