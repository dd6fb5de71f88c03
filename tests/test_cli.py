"""End-to-end tests of the command-line workbench on a tiny configuration."""

import csv
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import fluxspot
from fluxspot import cli, reference
from fluxspot.floquet import PAULI_X
from fluxspot.lindblad import _pulse_superoperator
from fluxspot.reference import REFERENCE
from fluxspot.workbench import (
    _CONFIG,
    _GATE_JOB,
    _GENOME,
    DEFAULT_CONFIG,
    RunDirectory,
    _gate_job,
    build_context,
    cmd_grape,
    cmd_truncation_study,
    front_columns,
    load_config,
)

from conftest import solve_row

TINY = {
    "seed": 5,
    "optimizer": {
        "population_m": 8,
        "generations_n": 2,
        "n": 2,
        "snapshot_every": 1,
    },
    "gates": [
        {
            "name": "x",
            "gate": "x",
            "point": "dss-2",
            "steps": 16,
            "frame_substeps": 8,
            "iterations": 3,
        }
    ],
    "truncation": {"orders": [1]},
}
GENOME = {
    "name": "custom",
    "p0": 0.4,
    "p_re": [0.3, -0.2],
    "p_im": [0.1, 0.0],
    "omega_d_frac": 1.1,
}


def without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


GENOME_KEYS = without(GENOME, "name")
CHAIN = (
    ["fluxonium"],
    ["evaluate", "{benchmark}"],
    ["evaluate", "{genome}"],
    ["optimize"],
    ["aggregate"],
    ["classify"],
    ["bounds"],
    ["grape"],
    ["simulate", "x"],
    ["truncation-study"],
)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return path


def run_cli(config, out, *verb):
    return cli.main(["--config", str(config), "--out", str(out), *verb])


def run_chain(root):
    root.mkdir()
    files = {
        "config": write_json(root / "config.json", TINY),
        "benchmark": write_json(root / "dss2.json", {"benchmark": "dss-2"}),
        "genome": write_json(root / "genome.json", GENOME),
    }
    out = root / "out"
    codes = {}
    for verb in CHAIN:
        args = [a.format(**files) for a in verb]
        codes[" ".join(verb)] = run_cli(files["config"], out, *args)
    return out, codes


@pytest.fixture(scope="module")
def chain_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("chain")
    return run_chain(base / "a"), run_chain(base / "b")


def artifacts(out):
    return {
        p.name: p.read_bytes()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


def test_chain_exit_codes(chain_runs):
    (out, codes), _ = chain_runs
    assert all(code == 0 for verb, code in codes.items() if verb != "bounds"), codes
    with open(out / "bounds.csv", newline="") as fh:
        oks = [row["ok"] for row in csv.DictReader(fh)]
    assert oks and set(oks) <= {"0", "1"}
    assert codes["bounds"] == (3 if "0" in oks else 0)
    assert json.loads((out / "pulse_x.json").read_text())["frame_substeps"] == 8
    for artifact, key in (("pulse_x.json", "fidelity"), ("simulate_x.json", "process_fidelity")):
        fidelity = json.loads((out / artifact).read_text())[key]
        assert math.isfinite(fidelity) and 0.0 <= fidelity <= 1.0, artifact


def test_same_seed_gives_byte_identical_artifacts(chain_runs):
    (out_a, _), (out_b, _) = chain_runs
    a, b = artifacts(out_a), artifacts(out_b)
    assert {"rates_dss-2.csv", "rates_custom.csv", "front_moead.csv"} <= set(a)
    assert {"front_classified.csv", "bounds.csv"} <= set(a)
    assert {"pulse_x.json", "simulate_x.json", "truncation.csv"} <= set(a)
    assert a == b


def test_csvs_hold_plain_numbers(chain_runs):
    (out, _), _ = chain_runs
    csvs = [p for p in out.iterdir() if p.suffix == ".csv"]
    assert csvs
    for path in csvs:
        assert "np." not in path.read_text(), path.name


def test_manifest_covers_artifacts_and_verify_flags_tampering(chain_runs):
    (out, _), _ = chain_runs
    run = RunDirectory(out, load_config(out.parent / "config.json"))
    assert {e["path"] for e in run.manifest["entries"]} == set(artifacts(out))
    assert run.verify() == []
    assert not list(out.glob("*.tmp"))
    target = out / "front_nsga2.csv"
    original = target.read_bytes()
    try:
        target.write_bytes(original + b"0\n")
        assert [e["path"] for e in run.verify()] == ["front_nsga2.csv"]
    finally:
        target.write_bytes(original)


@pytest.mark.parametrize("job", ["1", "-1"])
def test_grape_job_out_of_range_exits_2(tmp_path, job):
    config = write_json(tmp_path / "config.json", TINY)
    assert run_cli(config, tmp_path / "out", "grape", "--job", job) == 2


@pytest.mark.parametrize(
    "override, code",
    [
        ({"frame_substeps": 0}, 3),
        ({"steps": 0}, 3),
        ({"iterations": 0}, 3),
        ({"name": "a/b"}, 2),
        ({"f_max_mhz": 0}, 3),
        ({"f_max_mhz": -100}, 3),
        ({"f_max_mhz": math.nan}, 3),
        ({"f_max_mhz": 1e160}, 3),
        ({"f_max_mhz": 1e300}, 3),
        ({"f_max_mhz": 1e-170}, 3),
        ({"point": 5}, 2),
        ({"duration_ns": "ten"}, 2),
        ({"steps": "many"}, 2),
        ({"gate": "z"}, 2),
        ({"steps": 16.9}, 2),
        ({"gate": ["x"]}, 2),
        ({"point": {"genome": GENOME_KEYS, "phi_ac": "abc"}}, 2),
        ({"point": {"genome": GENOME_KEYS, "phi_acc": 0.06}}, 2),
        ({"point": {"genome": dict(GENOME_KEYS, p0="a")}}, 2),
        ({"point": {"genome": dict(GENOME_KEYS, p_re="ab")}}, 2),
        ({"point": {"genome": dict(GENOME_KEYS, omega_d_frac=None)}}, 2),
        ({"learning_rate": 0.08}, 2),
        ({"duration_ns": 0}, 3),
        ({"duration_ns": -10}, 3),
        ({"duration_ns": math.nan}, 3),
        ({"duration_ns": math.inf}, 3),
    ],
    ids=[
        "substeps-0",
        "steps-0",
        "iterations-0",
        "name-with-slash",
        "f_max-0",
        "f_max-negative",
        "f_max-nan",
        "f_max-square-overflows",
        "f_max-near-the-float-limit",
        "f_max-square-underflows",
        "point-not-an-object",
        "duration-not-a-number",
        "steps-not-a-number",
        "unknown-gate",
        "steps-not-an-integer",
        "gate-not-a-string",
        "point-phi_ac-not-a-number",
        "point-unknown-key",
        "genome-p0-not-a-number",
        "genome-p_re-not-a-list",
        "genome-omega_d_frac-null",
        "learning_rate-not-a-key",
        "duration-0",
        "duration-negative",
        "duration-nan",
        "duration-inf",
    ],
)
def test_bad_gate_job_exits_with_one_line(tmp_path, capsys, override, code):
    job = dict(TINY["gates"][0], **override)
    config = write_json(tmp_path / "config.json", dict(TINY, gates=[job]))
    out = tmp_path / "out"
    assert run_cli(config, out, "grape") == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    if code == 2:
        assert f"gate job {job['name']!r}" in err, err
    if "f_max_mhz" in override:
        assert "f_max must be" in err, err
    assert not list(out.glob("pulse_*.json"))


def test_grape_at_a_tiny_f_max_warns_nothing(tmp_path):
    # at f_max 6.3e-153 rad/ns (its square is still positive) the amplitude
    # stage saturates; f_max tanh(x / f_max) does so without the overflow of
    # exp(-2 x / f_max) in the sigmoid's other form
    job = dict(TINY["gates"][0], f_max_mhz=1e-150, iterations=2)
    config = write_json(tmp_path / "config.json", dict(TINY, gates=[job]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(config, tmp_path / "out", "grape") == 0
    pulse = json.loads((tmp_path / "out" / "pulse_x.json").read_text())
    assert len(pulse["fidelity_history"]) == 2


def test_grape_on_an_infeasible_point_exits_3(tmp_path, capsys):
    # at the unbiased sweet spot the resonant undriven genome has no labeled
    # gap, so there is no point to design a gate at
    genome = {"p0": 0, "p_re": [0], "p_im": [0], "omega_d_frac": 1.0}
    job = dict(TINY["gates"][0], point={"phi_ac": 0.05, "genome": genome})
    cfg = dict(
        TINY,
        flux={"phi_dc_over_pi": 1.0},
        optimizer=dict(TINY["optimizer"], n=1),
        gates=[job],
    )
    config = write_json(tmp_path / "config.json", cfg)
    out = tmp_path / "out"
    assert run_cli(config, out, "grape") == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert "gate job 'x': point 'custom' is infeasible" in err, err
    assert not list(out.glob("pulse_*.json"))


def test_evaluate_on_an_infeasible_genome_exits_3(tmp_path, capsys):
    # the genome grape rejects above: evaluate stops on it the same way and
    # names its file, where it wrote a row of inf rates and nan times
    genome = {"p0": 0, "p_re": [0], "p_im": [0], "omega_d_frac": 1.0, "phi_ac": 0.05}
    config = write_json(tmp_path / "config.json", {"flux": {"phi_dc_over_pi": 1.0}})
    genome_file = write_json(tmp_path / "g.json", genome)
    out = tmp_path / "out"
    assert run_cli(config, out, "evaluate", str(genome_file)) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert f"genome file {genome_file} is infeasible: " in err, err
    assert not list(out.glob("rates_*.csv"))


def test_malformed_gate_genome_exits_2(tmp_path):
    bad = dict(TINY, gates=[{"name": "bad", "point": {"genome": {"p0": 0.5}}}])
    config = write_json(tmp_path / "config.json", bad)
    assert run_cli(config, tmp_path / "out", "grape", "--job", "0") == 2


@pytest.mark.parametrize(
    "spec",
    [
        {"p0": 0.5},
        dict(GENOME, p0="a"),
        dict(GENOME, p_re="ab"),
        dict(GENOME, omega_d_frac=None),
        dict(GENOME, phi_ac="x"),
        dict(GENOME, phi_acc=0.06),
    ],
    ids=[
        "missing-keys",
        "p0-not-a-number",
        "p_re-not-a-list",
        "omega_d_frac-null",
        "phi_ac-not-a-number",
        "unknown-key",
    ],
)
def test_malformed_genome_file_exits_2(tmp_path, capsys, spec):
    config = write_json(tmp_path / "config.json", TINY)
    genome = write_json(tmp_path / "genome.json", spec)
    assert run_cli(config, tmp_path / "out", "evaluate", str(genome)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert f"genome file {genome}" in err, err


@pytest.mark.parametrize(
    "content",
    [None, "{not json", "[0.4, 0.3]"],
    ids=["missing", "not-json", "not-an-object"],
)
def test_unreadable_genome_file_exits_2_with_one_line(tmp_path, capsys, content):
    config = write_json(tmp_path / "config.json", TINY)
    genome = tmp_path / "genome.json"
    if content is not None:
        genome.write_text(content)
    out = tmp_path / "out"
    assert run_cli(config, out, "evaluate", str(genome)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert "genome file" in err and str(genome) in err, err
    assert not list(out.glob("rates_*.csv"))


def test_genome_file_name_with_slash_exits_2(tmp_path, capsys):
    config = write_json(tmp_path / "config.json", TINY)
    genome = write_json(tmp_path / "genome.json", dict(GENOME, name="a/b"))
    out = tmp_path / "out"
    assert run_cli(config, out, "evaluate", str(genome)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'a/b'" in err, err
    assert not list(out.glob("rates_*.csv"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_genome_exits_3_naming_the_field(tmp_path, capsys):
    config = write_json(tmp_path / "config.json", TINY)
    genome = write_json(tmp_path / "genome.json", dict(GENOME, p_re=[math.nan, -0.2]))
    out = tmp_path / "out"
    assert run_cli(config, out, "evaluate", str(genome)) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert "p_1 must be finite" in err, err
    assert not list(out.glob("rates_*.csv"))


#: (table, key, verb, parameter): each float config value that enters the
#: library as a physical quantity, the verb that reads it, and the library
#: parameter that rejects it when it is not finite
PHYSICAL_KEYS = [
    ("circuit", "e_c_ghz", "fluxonium", "e_c"),
    ("circuit", "e_l_ghz", "fluxonium", "e_l"),
    ("circuit", "e_j_ghz", "fluxonium", "e_j"),
    ("flux", "phi_dc_over_pi", "evaluate", "phi_dc"),
    ("flux", "phi_ac", "evaluate", "phi_ac"),
    ("noise", "delta_f", "evaluate", "delta_f"),
    ("noise", "tan_delta_c", "evaluate", "tan_delta_c"),
    ("noise", "temperature_k", "evaluate", "temperature"),
    ("noise", "omega_ir_hz", "evaluate", "omega_ir"),
    ("noise", "omega_uv_ghz", "evaluate", "omega_uv"),
    ("noise", "dephasing_log_factor", "evaluate", "dephasing_log_factor"),
    ("noise", "dephasing_scale", "evaluate", "dephasing_scale"),
    ("gates", "coupling_j_mhz", "grape", "coupling_j"),
    # a job of the 1-qubit gate x, which has no coupling
    ("gates.x", "coupling_j_mhz", "grape", "coupling_j"),
    ("gates", "duration_ns", "grape", "duration"),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize(
    "table, key, verb, name",
    PHYSICAL_KEYS,
    ids=[f"{table}.{key}" for table, key, *_ in PHYSICAL_KEYS],
)
def test_non_finite_physical_value_exits_3_naming_it(
    tmp_path, capsys, table, key, verb, name, bad
):
    # a NaN or an infinity passes every range check, so each is rejected
    # where it enters the library, before any numerical warning or artifact
    if table.startswith("gates"):
        # a 2-qubit job, unless the table names the gate
        gate = table.partition(".")[2] or "sqrt_iswap"
        job = dict(TINY["gates"][0], name="job", gate=gate, **{key: bad})
        cfg = dict(TINY, gates=[job])
    else:
        cfg = dict(TINY, **{table: {key: bad}})
    config = write_json(tmp_path / "config.json", cfg)
    genome = write_json(tmp_path / "genome.json", GENOME)
    out = tmp_path / "out"
    args = [verb, str(genome)] if verb == "evaluate" else [verb]
    assert run_cli(config, out, *args) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert f"{name} must be finite, got {bad}" in err, err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("verb", ["evaluate", "optimize", "truncation-study", "grape"])
@pytest.mark.parametrize(
    "flux, name",
    [({"phi_ac": 1e308}, "a_coef"), ({"phi_dc_over_pi": 1e306}, "b_coef")],
    ids=["phi_ac", "phi_dc_over_pi"],
)
def test_overflowing_working_point_exits_3_naming_it(tmp_path, capsys, flux, name, verb):
    # a finite phi_dc or phi_ac can still overflow the model's A or B, which
    # failed an eigensolve with a traceback, or blamed omega_d
    job = dict(TINY["gates"][0], point={"genome": GENOME_KEYS})
    config = write_json(tmp_path / "config.json", dict(TINY, flux=flux, gates=[job]))
    genome = write_json(tmp_path / "genome.json", GENOME)
    out = tmp_path / "out"
    args = [verb, str(genome)] if verb == "evaluate" else [verb]
    assert run_cli(config, out, *args) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert f"{name} must be finite, got inf" in err, err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("key", ["dephasing_log_factor", "dephasing_scale"])
def test_negative_dephasing_factor_exits_3_naming_it(tmp_path, capsys, key):
    # a negative factor gave a negative dephasing rate and an infinite Tphi
    config = write_json(tmp_path / "config.json", dict(TINY, noise={key: -4.0}))
    benchmark = write_json(tmp_path / "dss2.json", {"benchmark": "dss-2"})
    out = tmp_path / "out"
    assert run_cli(config, out, "evaluate", str(benchmark)) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert f"{key} must be >= 0, got -4.0" in err, err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_simulate_rejects_non_finite_rate(tmp_path, capsys, bad):
    config = write_json(tmp_path / "config.json", TINY)
    out = tmp_path / "out"
    assert run_cli(config, out, "grape") == 0
    pulse = out / "pulse_x.json"
    art = json.loads(pulse.read_text())
    art["rates_per_us"]["gamma_1"] = bad
    pulse.write_text(json.dumps(art))
    capsys.readouterr()
    assert run_cli(config, out, "simulate", "x") == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "finite" in err, err
    assert not (out / "simulate_x.json").exists()


@pytest.mark.parametrize(
    "override",
    [
        {"workers": 2},
        {"circuit": 5},
        {"gates": [5]},
        {"circuit": {"fock_dim": "abc"}},
        {"circuit": {"e_c_ghz": "1"}},
        {"circuit": {"e_c_ghz": 10**400}},
        {"noise": {"delta_f": "x"}},
        {"optimizer": {"snapshot_every": 0}},
        {"optimizer": {"snapshot_every": -1}},
        {"flux": {"phi_ac": "a"}},
        {"truncation": {"orders": "12"}},
        {"circuit": {"fock_dim": 110.7}},
        {"optimizer": {"population_m": "8"}},
        {"optimizer": {"strategies": [5]}},
        {"optimizer": {"strategies": ["foo"]}},
        {"gates": [{"gate": ["x"]}]},
    ],
    ids=[
        "unknown-key",
        "section-not-an-object",
        "gate-job-not-an-object",
        "fock_dim-not-a-number",
        "e_c-a-string",
        "e_c-beyond-the-float-range",
        "delta_f-not-a-number",
        "snapshot_every-0",
        "snapshot_every-negative",
        "phi_ac-not-a-number",
        "orders-a-string",
        "fock_dim-not-an-integer",
        "population_m-a-string",
        "strategy-not-a-string",
        "strategy-unknown",
        "bad-gate-job-on-every-verb",
    ],
)
def test_unknown_config_key_exits_2(tmp_path, capsys, override):
    config = write_json(tmp_path / "config.json", dict(TINY, **override))
    assert run_cli(config, tmp_path / "out", "fluxonium") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err


@pytest.mark.parametrize(
    "table, key",
    [
        ("optimizer", "crossover_rate"),
        ("optimizer", "mutation_rate"),
        ("optimizer", "mutation_sigma"),
        ("truncation", "substeps"),
    ],
)
def test_removed_config_keys_exit_2_naming_the_key(tmp_path, capsys, table, key):
    # the variation rates and the reference's step count are constants now;
    # a config that still sets one is told so, not silently run
    config = write_json(tmp_path / "config.json", dict(TINY, **{table: {key: 1}}))
    assert run_cli(config, tmp_path / "out", "fluxonium") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert f"unknown keys in {table}: ['{key}']" in err, err


_RANDOM_VERBS = ("optimize", "grape", "truncation-study")


@pytest.mark.parametrize(
    "verb, seed, cli_seed, named",
    [(verb, -3, None, "seed") for verb in _RANDOM_VERBS]
    + [(verb, 5, "-1", "--seed") for verb in _RANDOM_VERBS]
    + [("grape", 5, "0", "gate job 'x': seed + seed_offset")],
    ids=[f"config-seed-{verb}" for verb in _RANDOM_VERBS]
    + [f"cli-seed-{verb}" for verb in _RANDOM_VERBS]
    + ["job-seed-after-cli-seed"],
)
def test_negative_seed_exits_2_with_one_line(
    tmp_path, capsys, verb, seed, cli_seed, named
):
    # each verb that draws random numbers; the gate job's effective seed is
    # 0 + (-1) once --seed 0 replaces the config seed 5
    job = dict(TINY["gates"][0], seed_offset=-1)
    config = write_json(tmp_path / "config.json", dict(TINY, seed=seed, gates=[job]))
    out = tmp_path / "out"
    args = ["--config", str(config), "--out", str(out)]
    args += [] if cli_seed is None else ["--seed", cli_seed]
    assert cli.main(args + [verb]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert named in err, err
    assert not [p for p in out.glob("*") if p.name != "manifest.json"]


def test_strategies_not_a_list_exits_2(tmp_path, capsys):
    # a string would be read as a list of one-letter strategy names
    optimizer = dict(TINY["optimizer"], strategies="nsga2")
    config = write_json(tmp_path / "config.json", dict(TINY, optimizer=optimizer))
    out = tmp_path / "out"
    assert run_cli(config, out, "optimize") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert "optimizer.strategies" in err, err
    assert not list(out.glob("front_*.csv"))


@pytest.mark.parametrize(
    "strategies, named",
    [
        (["nsga2", "ibea", "nsga2"], "optimizer.strategies must differ; repeated: ['nsga2']"),
        ([], "optimizer.strategies must name at least one strategy"),
    ],
    ids=["repeated", "empty"],
)
def test_repeated_or_empty_strategies_exit_2_with_one_line(
    tmp_path, capsys, strategies, named
):
    # a repeat would run the strategy twice into one front CSV, which
    # aggregate would read twice; no strategy would write no front at all
    optimizer = dict(TINY["optimizer"], strategies=strategies)
    config = write_json(tmp_path / "config.json", dict(TINY, optimizer=optimizer))
    out = tmp_path / "out"
    for verb in ("optimize", "aggregate"):
        assert run_cli(config, out, verb) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        assert named in err, err
    assert not out.exists() or not list(out.iterdir())


def test_aggregate_before_optimize_exits_4(tmp_path):
    config = write_json(tmp_path / "config.json", TINY)
    assert run_cli(config, tmp_path / "out", "aggregate") == 4


@pytest.mark.parametrize(
    "verb, read, written",
    [
        ("aggregate", "front_nsga2.csv", "front_aggregated.csv"),
        ("classify", "front_aggregated.csv", "front_classified.csv"),
        ("bounds", "front_aggregated.csv", "bounds.csv"),
    ],
    ids=["aggregate", "classify", "bounds"],
)
def test_degenerate_front_row_exits_3(tmp_path, capsys, verb, read, written):
    # at the unbiased sweet spot an undriven genome at omega_d = omega_ge
    # puts the gap on the zone edge; optimize writes only feasible rows, so
    # only a hand-edited front CSV holds such a row
    flux = dict(REFERENCE["flux"], phi_dc_over_pi=1.0)
    optimizer = dict(TINY["optimizer"], strategies=["nsga2"])
    config = write_json(
        tmp_path / "config.json", dict(TINY, flux=flux, optimizer=optimizer)
    )
    out = tmp_path / "out"
    out.mkdir()
    omega_ge = build_context(load_config(config)).omega_ge
    row = [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, omega_ge, 0.0, 0.0, "nsga2", 5]
    with open(out / read, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows([front_columns(2), row])
    assert run_cli(config, out, verb) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "front row 0 is infeasible" in err, err
    assert not (out / written).exists()


@pytest.mark.parametrize(
    "verb, written, header",
    [
        ("classify", "front_classified.csv", "gamma1_per_us,"),
        ("bounds", "bounds.csv", "t1_us,t_ub_general_us,"),
    ],
    ids=["classify", "bounds"],
)
def test_header_only_front_writes_a_header_only_file(
    tmp_path, capsys, verb, written, header
):
    # an empty front is annotated without any evaluation
    config = write_json(tmp_path / "config.json", TINY)
    out = tmp_path / "out"
    out.mkdir()
    (out / "front_aggregated.csv").write_text(",".join(front_columns(2)) + "\n")
    assert run_cli(config, out, verb) == 0
    assert capsys.readouterr().err == ""
    lines = (out / written).read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith(header), lines


@pytest.mark.parametrize("verb", ["aggregate", "classify", "bounds"])
@pytest.mark.parametrize(
    "column, value, message",
    [
        ("p0", 1.5, "p_0 must lie in [0, 1], got 1.5"),
        ("p1_im", "nan", "p_1 must be finite"),
        ("gamma1_per_us", "nan", "gamma_1 must be finite, got nan"),
        ("gammaz_per_us", "inf", "gamma_z must be finite, got inf"),
    ],
    ids=["p0-outside", "p1-nan", "gamma1-nan", "gammaz-inf"],
)
def test_front_row_outside_the_box_exits_3_naming_the_field(
    tmp_path, capsys, verb, column, value, message
):
    # a front read from CSV passes the drive's box and finiteness checks, and
    # its objectives the finiteness check of Individual: a NaN row is never
    # dominated, so it would lead the aggregated front
    config = write_json(tmp_path / "config.json", TINY)
    out = write_fronts(config, tmp_path / "out", {column: value})
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run_cli(config, out, verb) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert message in err, err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("stored, n", [(4, 2), (2, 4)], ids=["fewer", "more"])
@pytest.mark.parametrize(
    "verb, read",
    [
        ("aggregate", "front_nsga2.csv"),
        ("classify", "front_aggregated.csv"),
        ("bounds", "front_aggregated.csv"),
    ],
)
def test_front_of_another_drive_order_exits_4_naming_it(
    tmp_path, capsys, verb, read, stored, n
):
    # a front read at a lower optimizer.n than it was written at would drop
    # its higher harmonics, row by row, and its times would contradict its
    # rates; only a header of front_columns(optimizer.n) is read
    optimizer = dict(TINY["optimizer"], n=n)
    config = write_json(tmp_path / "config.json", dict(TINY, optimizer=optimizer))
    out = tmp_path / "out"
    out.mkdir()
    row = dict.fromkeys(front_columns(stored), 0.1)
    cfg = load_config(config)
    row.update(strategy="nsga2", seed=5, omega_d=build_context(cfg).omega_ge)
    names = [f"front_{s}.csv" for s in cfg["optimizer"]["strategies"]]
    for name in names + ["front_aggregated.csv"]:
        with open(out / name, "w", newline="") as fh:
            writer = csv.DictWriter(fh, front_columns(stored), lineterminator="\n")
            writer.writeheader()
            writer.writerow(row)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run_cli(config, out, verb) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert f"front CSV {read}: " in err and f"optimizer.n = {n}" in err, err
    # nothing is written: the manifest and every output keep their bytes
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def write_fronts(config, out, cells):
    """Every front CSV that aggregate, classify and bounds read, each one
    feasible row with ``cells`` put in."""
    out.mkdir()
    cfg = load_config(config)
    row = dict.fromkeys(front_columns(2), 0.1)
    row.update(gamma1_per_us=1.0, gammaz_per_us=1.0, strategy="nsga2", seed=5)
    row.update({"omega_d": build_context(cfg).omega_ge * 1.1, **cells})
    names = [f"front_{s}.csv" for s in cfg["optimizer"]["strategies"]]
    for name in names + ["front_aggregated.csv"]:
        with open(out / name, "w", newline="") as fh:
            writer = csv.DictWriter(fh, front_columns(2), lineterminator="\n")
            writer.writeheader()
            writer.writerow(row)
    return out


#: the keys ``simulate`` reads from a pulse artifact
PULSE = {
    "gate": "x",
    "duration_ns": 10.0,
    "coupling_j_rad_per_ns": 0.0,
    "samples": [[0.0] * 16],
    # the identity frame: a = 1 and b = 0 at every step
    "frame_a": [[1.0] * 16, [0.0] * 16],
    "frame_b": [[0.0] * 16, [0.0] * 16],
    "rates_per_us": {"gamma_1": 0.01, "gamma_z": 0.01},
}


@pytest.mark.parametrize(
    "verb, content, named",
    [
        ("simulate", "{not json", "pulse artifact pulse_x.json: JSONDecodeError"),
        ("aggregate", "abc", "front_nsga2.csv row 0, column p0: cannot read 'abc'"),
        ("classify", "abc", "front_aggregated.csv row 0, column p0: cannot read"),
        ("bounds", "abc", "front_aggregated.csv row 0, column p0: cannot read"),
    ],
    ids=[
        "pulse-not-json",
        "aggregate-cell-not-a-number",
        "classify-cell-not-a-number",
        "bounds-cell-not-a-number",
    ],
)
def test_unreadable_artifact_exits_4_with_one_line(
    tmp_path, capsys, verb, content, named
):
    config = write_json(tmp_path / "config.json", TINY)
    out = tmp_path / "out"
    if verb == "simulate":
        out.mkdir()
        (out / "pulse_x.json").write_text(content)
    else:
        write_fronts(config, out, {"p0": content})
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run_cli(config, out, verb, *(["x"] if verb == "simulate" else [])) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert named in err, err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def table_rows(table, path=()):
    """(key path, kind, default, choices) of each row, nested tables too."""
    for key, row in table.items():
        kind, default, *choices = row if isinstance(row, tuple) else (row, {})
        yield path + (key,), kind, default, choices
        if isinstance(kind, dict):
            yield from table_rows(kind, path + (key,))


def bad_values(kind, default, choices):
    """Values a row must reject: one of a wrong JSON type, ``true`` and a
    fraction for a number, a list with one wrong element after a good one,
    and a value outside the choices."""
    wrong = {int: "1", float: "0.5", str: 5, dict: 5, (str, dict): 5}
    if isinstance(kind, dict):
        return [5]
    if isinstance(kind, list):
        has_one = isinstance(default, list) and default
        good = default[:1] if has_one else [{float: 0.5, dict: {}}[kind[0]]]
        values = ["1", good + [wrong[kind[0]]]]
        outside = good + ["nope"]
    else:
        values = [wrong[kind]]
        if kind in (int, float):
            values.append(True)
        if kind is int:
            values.append(1.5)
        outside = 2 if kind is int else "nope"
    return values + [outside] if choices else values


def bad_row_case(place, path, value, case):
    """Config, verb and the name the error must give, for ``value`` in the
    row ``path`` of the table that ``place`` reads."""
    key, job = path[-1], TINY["gates"][0]
    if place == "config":
        for k in reversed(path):
            value = {k: value}
        return dict(TINY, **value), ["fluxonium"], ".".join(path)
    if place == "gate-job":
        label = value if key == "name" else "x"
        cfg = dict(TINY, gates=[dict(job, **{key: value})])
        return cfg, ["fluxonium"], f"gate job {label!r}: {key}"
    genome = dict(GENOME_KEYS, **{key: value})
    if place == "genome-file":
        path = write_json(case / "genome.json", genome)
        return TINY, ["evaluate", str(path)], f"genome file {path}: {key}"
    cfg = dict(TINY, gates=[dict(job, point={"genome": genome})])
    return cfg, ["fluxonium"], f"gate job 'x': point.genome.{key}"


@pytest.mark.parametrize("place", ["config", "gate-job", "genome-file", "point-genome"])
def test_every_table_row_rejects_a_bad_value_with_one_line(tmp_path, capsys, place):
    table = {"config": _CONFIG, "gate-job": _GATE_JOB}.get(place, _GENOME)
    cases = [
        (path, value)
        for path, kind, default, choices in table_rows(table)
        for value in bad_values(kind, default, choices)
    ]
    assert {path[0] for path, _ in cases} == set(table)
    for i, (path, value) in enumerate(cases):
        case = tmp_path / str(i)
        case.mkdir()
        cfg, args, named = bad_row_case(place, path, value, case)
        out = case / "out"
        before = sorted(out.iterdir()) if out.exists() else []
        code = run_cli(write_json(case / "config.json", cfg), out, *args)
        err = capsys.readouterr().err
        assert code == 2, (path, value, err)
        assert err.count("\n") == 1 and "Traceback" not in err, (path, value, err)
        assert named in err, (path, value, err)
        assert (sorted(out.iterdir()) if out.exists() else []) == before, (path, value)


def test_load_config_fills_every_gate_job_key(tmp_path):
    raw = {
        "flux": {"phi_ac": 0.07},
        "gates": [{"gate": "sqrt_iswap"}, {"point": {"genome": GENOME_KEYS}}],
    }
    jobs = load_config(write_json(tmp_path / "config.json", raw))["gates"]
    expected = {
        "gate": "sqrt_iswap",
        "name": "sqrt_iswap",
        "n_freq": 31,
        "duration_ns": 10.0,
        "steps": 500,
        "f_max_mhz": 100.0,
        "point": "dss-2",
        "iterations": 600,
        "seed_offset": 0,
        "coupling_j_mhz": 48.0,
        "frame_substeps": 1024,
    }
    # JSON text tells an integer from a float
    assert json.dumps(jobs[0], sort_keys=True) == json.dumps(expected, sort_keys=True)
    assert (jobs[1]["gate"], jobs[1]["name"]) == ("x", "x")
    assert jobs[1]["n_freq"] == 9
    assert jobs[1]["point"] == {"genome": GENOME_KEYS, "phi_ac": 0.07}


def test_gate_job_leaves_a_filled_job_unchanged(tmp_path):
    raw = {"gates": [{"gate": "sqrt_iswap"}, {"point": {"genome": GENOME_KEYS}}]}
    for job in load_config(write_json(tmp_path / "config.json", raw))["gates"]:
        assert _gate_job(job, 0.07) == job


def test_cmd_grape_fills_a_hand_built_job(tmp_path):
    cfg = load_config(write_json(tmp_path / "config.json", TINY))
    job = {"gate": "x", "iterations": 2, "steps": 16, "frame_substeps": 8}
    (path,) = cmd_grape(cfg, RunDirectory(tmp_path / "out", cfg), [job])
    art = json.loads(path.read_text())
    assert path.name == "pulse_x.json"
    assert (art["point"], len(art["samples"]), art["n_freq"]) == ("dss-2", 1, 9)
    assert len(art["fidelity_history"]) == 2


def test_pulse_dict_replays(tmp_path):
    # the cases below change one key of a pulse that simulate accepts; a
    # pulse that still stores steps and n_qubits, as pulses once did,
    # replays to the same bytes, for simulate reads neither key
    config = write_json(tmp_path / "config.json", TINY)
    written = []
    for extra in ({}, {"steps": 16, "n_qubits": 1}):
        out = tmp_path / f"out{len(written)}"
        out.mkdir()
        write_json(out / "pulse_x.json", dict(PULSE, **extra))
        assert run_cli(config, out, "simulate", "x") == 0
        written.append((out / "simulate_x.json").read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize(
    "change, named",
    [
        ({"samples": [[0.0] * 15]}, "samples must have shape (1, 16), got (1, 15)"),
        ({"samples": [[0.0] * 16] * 2}, "samples must have shape (1, 16), got (2, 16)"),
        ({"gate": "zz"}, "gate 'zz' is not one of"),
        ({"frame_a": None}, "KeyError('frame_a')"),
        ({"frame_b": None}, "KeyError('frame_b')"),
        # frame_a gives the step count, so the other arrays no longer fit
        ({"frame_a": [[1.0] * 15, [0.0] * 15]}, "frame_b must have shape (2, 15), got (2, 16)"),
        ({"frame_b": [[0.0] * 17, [0.0] * 17]}, "frame_b must have shape (2, 16), got (2, 17)"),
        ({"frame_a": [1.0] * 16}, "frame_a must have shape (2, 16), got (16,)"),
        ({"frame_a": [[], []], "frame_b": [[], []], "samples": [[]]},
         "frame must have shape (steps >= 1, 2, 2), got (0, 2, 2)"),
        ({"frame_a": [[0.6] * 16, [0.0] * 16]}, "frame samples must be unitary"),
        ({"frame_b": [[0.0] * 16, [math.nan] * 16]}, "frame samples must be finite"),
        ({"duration_ns": math.inf}, "duration must be finite, got inf"),
    ],
    ids=[
        "samples-short",
        "samples-two-rows",
        "unknown-gate",
        "no-frame_a",
        "no-frame_b",
        "frame_a-short",
        "frame_b-long",
        "frame_a-not-2d",
        "frame-empty",
        "frame-not-su2",
        "frame-not-finite",
        "duration-infinite",
    ],
)
def test_simulate_exits_4_on_a_structural_defect(tmp_path, capsys, change, named):
    pulse = {k: v for k, v in dict(PULSE, **change).items() if v is not None}
    out = tmp_path / "out"
    out.mkdir()
    write_json(out / "pulse_x.json", pulse)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run_cli(write_json(tmp_path / "config.json", TINY), out, "simulate", "x") == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert f"pulse artifact pulse_x.json: {named}" in err, err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_simulate_replays_the_stored_frame_bit_for_bit(tmp_path):
    config = write_json(tmp_path / "config.json", TINY)
    out = tmp_path / "out"
    assert run_cli(config, out, "grape") == 0
    assert run_cli(config, out, "simulate", "x") == 0
    art = json.loads((out / "pulse_x.json").read_text())
    bench = next(b for b in fluxspot.BENCHMARK_POINTS if b.name == "dss-2")
    context = build_context(load_config(config), phi_ac=bench.phi_ac)
    samples = fluxspot.rotating_frame_trajectory(
        fluxspot.evaluate_genome(bench.genome, context)[1].drive,
        context.coefficients,
        art["duration_ns"],
        steps=len(art["samples"][0]),
        substeps=art["frame_substeps"],
    )
    fresh = fluxspot.ControlContext(samples, duration=art["duration_ns"])
    a, b = samples[:, 0, 0], samples[:, 1, 0]
    assert art["frame_a"] == [a.real.tolist(), a.imag.tolist()]
    assert art["frame_b"] == [b.real.tolist(), b.imag.tolist()]
    rates = tuple(art["rates_per_us"][k] for k in ("gamma_1", "gamma_z"))
    s = _pulse_superoperator(fresh, art["samples"], *rates)
    simulated = json.loads((out / "simulate_x.json").read_text())
    assert simulated["process_fidelity"] == fluxspot.average_gate_fidelity(s, PAULI_X)
    chi = fluxspot.process_matrix(s)
    assert [simulated["chi_re"], simulated["chi_im"]] == [chi.real.tolist(), chi.imag.tolist()]


def test_simulate_artifacts_keep_their_keys(tmp_path):
    # the benchmark reads process_fidelity by name: a renamed key fails here
    jobs = [{"name": g, "gate": g, "point": "dss-2", "iterations": 1, "steps": 16,
             "frame_substeps": 8} for g in ("x", "sqrt_iswap")]
    config = write_json(tmp_path / "config.json", {"seed": 1, "gates": jobs})
    out = tmp_path / "out"
    assert run_cli(config, out, "grape") == 0
    for name in ("x", "sqrt_iswap"):
        assert run_cli(config, out, "simulate", name) == 0
        keys = json.loads((out / f"simulate_{name}.json").read_text()).keys()
        assert set(keys) == {
            "pulse", "gate", "process_fidelity", "chi_re", "chi_im", "rates_per_us"
        }


def test_pulse_artifacts_keep_their_keys(tmp_path):
    # the benchmark reads fidelity and fidelity_history, and simulate the
    # frame, samples and rates; the samples give the step count and the
    # gate the qubit count, so neither is stored; two keys still repeat
    # others, so that no reader needs the pulse pipeline: converged (the
    # fidelity at the target) and samples (theta through the pipeline)
    jobs = [{"name": "x", "gate": "x", "point": "dss-2", "iterations": 1, "steps": 16,
             "frame_substeps": 8}]
    config = write_json(tmp_path / "config.json", {"seed": 1, "gates": jobs})
    out = tmp_path / "out"
    assert run_cli(config, out, "grape") == 0
    assert set(json.loads((out / "pulse_x.json").read_text())) == {
        "gate", "name", "point", "genome", "phi_ac", "duration_ns",
        "n_freq", "f_max_rad_per_ns", "coupling_j_rad_per_ns",
        "frame_substeps", "frame_a", "frame_b", "theta", "samples", "fidelity",
        "fidelity_history", "converged", "rates_per_us",
    }


@pytest.mark.parametrize(
    "superoperator, message",
    [
        (lambda s: 0.9 * s, "channel is not trace preserving on |"),
        # rho -> rho^T preserves trace and Hermiticity, but is not
        # completely positive
        (lambda s: np.eye(4).reshape(2, 2, 2, 2).transpose(0, 1, 3, 2).reshape(4, 4),
         "chi not positive semidefinite"),
    ],
    ids=["trace-leak", "not-completely-positive"],
)
def test_simulate_exits_3_on_an_unphysical_superoperator(
    tmp_path, capsys, monkeypatch, superoperator, message
):
    original = fluxspot.workbench._pulse_superoperator
    monkeypatch.setattr(
        fluxspot.workbench, "_pulse_superoperator",
        lambda *args: superoperator(original(*args)),
    )
    out = tmp_path / "out"
    out.mkdir()
    write_json(out / "pulse_x.json", PULSE)
    assert run_cli(write_json(tmp_path / "config.json", TINY), out, "simulate", "x") == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert f"numerical failure: {message}" in err, err
    assert not (out / "simulate_x.json").exists()


def test_simulate_exits_3_on_a_channel_that_overflows(tmp_path, capsys):
    # finite samples, but 1e300 rad/ns needs some 1000 squarings of the
    # step exponential, whose round-off overflows to inf and NaN
    out = tmp_path / "out"
    out.mkdir()
    write_json(out / "pulse_x.json", dict(PULSE, samples=[[1e300] * 16]))
    assert run_cli(write_json(tmp_path / "config.json", TINY), out, "simulate", "x") == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: superoperator is not finite\n", err
    assert not (out / "simulate_x.json").exists()


# finite samples of 1.7e308 rad/ns: over 62.5 ns steps the step generators
# themselves overflow; over 1 ns steps they stay finite, but their 1-norm
# (two entries per column) does not
@pytest.mark.parametrize("duration_ns", [1000.0, 16.0])
def test_simulate_exits_3_on_step_generators_that_overflow(tmp_path, capsys, duration_ns):
    out = tmp_path / "out"
    out.mkdir()
    pulse = dict(PULSE, duration_ns=duration_ns, samples=[[1.7e308] * 16])
    write_json(out / "pulse_x.json", pulse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(write_json(tmp_path / "config.json", TINY), out, "simulate", "x") == 3
    err = capsys.readouterr().err
    assert err == "numerical failure: the step generators overflow (1-norm inf)\n", err
    assert not (out / "simulate_x.json").exists()


def test_simulate_replays_a_pulse_cut_down_to_the_keys_it_reads(tmp_path):
    config = write_json(tmp_path / "config.json", TINY)
    out, cut = tmp_path / "out", tmp_path / "cut"
    assert run_cli(config, out, "grape") == 0
    assert run_cli(config, out, "simulate", "x") == 0
    art = json.loads((out / "pulse_x.json").read_text())
    cut.mkdir()
    write_json(cut / "pulse_x.json", {key: art[key] for key in PULSE})
    assert run_cli(config, cut, "simulate", "x") == 0
    replay = (cut / "simulate_x.json").read_bytes()
    assert replay == (out / "simulate_x.json").read_bytes()


def counted(monkeypatch, module, name):
    """Count the calls of ``module.name`` from here on; a list of one count."""
    calls = [0]
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_a_grape_pass_integrates_each_frame_once(tmp_path, monkeypatch):
    # the benchmark's gates jobs at 1 iteration: x and sqrt_iswap share a
    # frame, so one evaluation of the point and one integration
    jobs = [{"name": g, "gate": g, "point": "dss-2", "iterations": 1}
            for g in ("x", "sqrt_iswap")]
    config = write_json(tmp_path / "config.json", {"seed": 1, "gates": jobs})
    out = tmp_path / "out"
    frames = counted(monkeypatch, fluxspot.gates, "_sampled_propagators")
    points = counted(monkeypatch, fluxspot.workbench, "evaluate_genome")
    assert run_cli(config, out, "grape") == 0
    assert (frames, points) == ([1], [1])

    # simulate replays the stored frame: no point, no frame, no circuit
    reference._sweet_spot_qubit.cache_clear()
    circuits = counted(monkeypatch, reference, "diagonalize_circuit")
    for name in ("x", "sqrt_iswap"):
        assert run_cli(config, out, "simulate", name) == 0
    assert (frames, points, circuits) == ([1], [1], [0])

    # a job at 12 ns has a frame of its own: two evaluations and two
    # integrations, not one
    jobs[1]["duration_ns"] = 12.0
    config = write_json(tmp_path / "config.json", {"seed": 1, "gates": jobs})
    assert run_cli(config, tmp_path / "out12", "grape") == 0
    assert (frames, points) == ([3], [3])


def test_each_front_verb_annotates_each_written_row_once(tmp_path, monkeypatch):
    # classify_front is the one place a front row gets its sensitivity
    # report and its bounds: one of each per row that a verb writes
    config = write_json(tmp_path / "config.json", TINY)
    out = tmp_path / "out"
    assert run_cli(config, out, "optimize") == 0
    for verb, written in (("aggregate", "front_aggregated.csv"),
                          ("classify", "front_classified.csv"),
                          ("bounds", "bounds.csv")):
        calls = {}
        for name in ("classify_point", "evaluate_bounds"):
            calls[name] = counted(monkeypatch, fluxspot.dss, name)
            # a copy of the name imported into workbench counts too
            if hasattr(fluxspot.workbench, name):
                wrapper = getattr(fluxspot.dss, name)
                monkeypatch.setattr(fluxspot.workbench, name, wrapper)
        # bounds exits 3 when a row breaks a bound, having written its rows
        assert run_cli(config, out, verb) in (0, 3)
        with open(out / written, newline="") as fh:
            rows = len(list(csv.DictReader(fh)))
        assert rows > 0
        assert calls == dict.fromkeys(calls, [rows]), verb
        monkeypatch.undo()


def test_a_missing_noise_channel_is_reported_once_by_bounds_alone(tmp_path):
    # without dielectric loss every T1 bound is inf: a property of the run,
    # which bounds reports once, and of which the other verbs say nothing,
    # even with warnings turned into errors
    noise = dict(REFERENCE["noise"], tan_delta_c=0.0)
    config = write_json(tmp_path / "config.json", dict(TINY, noise=noise))
    benchmark = write_json(tmp_path / "dss2.json", {"benchmark": "dss-2"})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for verb in (["evaluate", str(benchmark)], ["optimize"], ["aggregate"],
                     ["classify"]):
            assert run_cli(config, out, *verb) == 0, verb
    with pytest.warns(UserWarning) as record:
        assert run_cli(config, out, "bounds") == 0
    assert [str(w.message) for w in record] == [
        "T1 bounds undefined without dielectric loss (noise.tan_delta_c): "
        "every bound is inf"
    ]
    with open(out / "bounds.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(float(r["t_ub_general_us"]) == math.inf for r in rows)


CONCURRENT_RUNS = """
import json, os, sys, threading
from pathlib import Path
from fluxspot import cli, workbench

config, root = Path(sys.argv[1]), Path(sys.argv[2])
cfg = json.loads(config.read_text())
# switch threads as often as the interpreter allows, so that a race between
# the runs has every chance to show in the bytes
sys.setswitchinterval(1e-6)
threads = {}
run_stage1 = workbench.run_stage1

def traced(oc, *args, **kwargs):
    threads[oc.strategy] = threading.current_thread().name
    return run_stage1(oc, *args, **kwargs)

workbench.run_stage1 = traced
codes, names = [], {}
for workers in (1, 4):
    os.sched_getaffinity = lambda pid, k=workers: set(range(k))
    codes.append(cli.main(["--config", str(config), "--out", str(root / f"w{workers}"),
                           "optimize"]))
    names[workers] = len(set(threads.values()))
for idx, strategy in enumerate(cfg["optimizer"]["strategies"]):
    alone = dict(cfg, seed=cfg["seed"] + 7919 * idx,
                 optimizer=dict(cfg["optimizer"], strategies=[strategy]))
    (root / f"{strategy}.json").write_text(json.dumps(alone))
    codes.append(cli.main(["--config", str(root / f"{strategy}.json"),
                           "--out", str(root / strategy), "optimize"]))
print(json.dumps({"codes": codes, "threads": names}))
"""


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_concurrent_strategies_write_the_bytes_of_serial_runs(tmp_path, blas_threads):
    # all four strategies at 1 and at 4 worker threads, and each strategy
    # alone at its own run seed: every front and history CSV has one set of
    # bytes, at 1 and at 2 BLAS threads (a fresh process, since BLAS reads
    # its thread count at start-up)
    optimizer = dict(TINY["optimizer"], strategies=list(fluxspot.pareto.STRATEGIES))
    config = write_json(tmp_path / "config.json", dict(TINY, optimizer=optimizer))
    src = str(Path(fluxspot.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = blas_threads
    proc = subprocess.run(
        [sys.executable, "-c", CONCURRENT_RUNS, str(config), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0] * 6
    assert report["threads"]["1"] == 1 and report["threads"]["4"] > 1, report
    for strategy in optimizer["strategies"]:
        for name in (f"front_{strategy}.csv", f"history_{strategy}.csv"):
            alone = (tmp_path / strategy / name).read_bytes()
            for workers in ("w1", "w4"):
                assert (tmp_path / workers / name).read_bytes() == alone, (workers, name)


@pytest.mark.parametrize("workers", [1, 4])
def test_a_failing_strategy_writes_the_runs_before_it_only(
    tmp_path, capsys, monkeypatch, workers
):
    # spea2 fails: nsga2's files are written, nothing of spea2 or of the runs
    # after it, whether those wait behind it (1 worker) or run alongside it
    # (4 workers), and the pool is joined before the verb returns
    original = fluxspot.workbench.run_stage1

    def failing(oc, *args, **kwargs):
        if oc.strategy == "spea2":
            raise fluxspot.exceptions.DegenerateGapError("spea2 run failed")
        return original(oc, *args, **kwargs)

    monkeypatch.setattr(fluxspot.workbench, "run_stage1", failing)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
    optimizer = dict(TINY["optimizer"], strategies=list(fluxspot.pareto.STRATEGIES))
    config = write_json(tmp_path / "config.json", dict(TINY, optimizer=optimizer))
    out = tmp_path / "out"
    threads = set(threading.enumerate())
    assert run_cli(config, out, "optimize") == 3
    assert set(threading.enumerate()) == threads
    assert capsys.readouterr().err == "numerical failure: spea2 run failed\n"
    written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert written == ["front_nsga2.csv", "history_nsga2.csv"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert [e["path"] for e in manifest["entries"]] == written
    assert not RunDirectory(out, {}).verify()


def test_default_config_is_filled_from_the_tables():
    expected = {
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
            "n": 4,
            "snapshot_every": 10,
        },
        "gates": [],
        "truncation": {"orders": [1, 2, 3, 4, 5]},
    }
    # JSON text tells an integer from a float
    assert json.dumps(DEFAULT_CONFIG, sort_keys=True) == json.dumps(
        expected, sort_keys=True
    )
    assert load_config(None) == DEFAULT_CONFIG


def test_cli_and_reference_helpers_build_one_context():
    # the default config's tables are REFERENCE, so the CLI's default
    # context is the reference context; == on the frozen dataclasses
    # compares every field's value
    assert {name: DEFAULT_CONFIG[name] for name in REFERENCE} == REFERENCE
    assert build_context(load_config(None)) == build_context(REFERENCE)
    assert fluxspot.build_context is build_context
    assert fluxspot.REFERENCE is REFERENCE


def test_search_and_gate_job_defaults_are_the_library_defaults():
    # OptimizerConfig() is the CLI's default budget, and a gate job's steps
    # and iterations are PulseSpec's and GrapeSettings' own
    search = DEFAULT_CONFIG["optimizer"]
    fields = dataclasses.fields(fluxspot.OptimizerConfig)
    shared = {f.name: f.default for f in fields if f.name in search}
    assert set(shared) == set(search) - {"strategies", "snapshot_every"}
    assert {name: search[name] for name in shared} == shared
    job = _gate_job({}, 0.05)
    assert job["steps"] == fluxspot.PulseSpec().steps
    assert job["iterations"] == fluxspot.GrapeSettings().iterations


@pytest.mark.parametrize(
    "verb, artifact",
    [
        ("optimize", "front_nsga2.csv"),
        ("aggregate", "front_aggregated.csv"),
        ("classify", "front_classified.csv"),
        ("bounds", "bounds.csv"),
    ],
)
def test_drive_order_below_zero_exits_3_with_one_line(
    tmp_path, capsys, chain_runs, verb, artifact
):
    # the verb's inputs are all there, so only the order can stop it
    (chain_out, _), _ = chain_runs
    out = shutil.copytree(chain_out, tmp_path / "out")
    (out / artifact).unlink()
    optimizer = dict(TINY["optimizer"], n=-1)
    config = write_json(tmp_path / "config.json", dict(TINY, optimizer=optimizer))
    assert run_cli(config, out, verb) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert "drive order n must be >= 0, got -1" in err, err
    assert not (out / artifact).exists()
    # the order is checked before any input is looked for
    assert run_cli(config, tmp_path / "empty", verb) == 3


def test_drive_order_zero_is_searched(tmp_path, capsys):
    optimizer = dict(TINY["optimizer"], n=0, strategies=["nsga2"])
    config = write_json(tmp_path / "config.json", dict(TINY, optimizer=optimizer))
    out = tmp_path / "out"
    assert run_cli(config, out, "optimize") == 0
    assert capsys.readouterr().err == "" and (out / "front_nsga2.csv").exists()


def test_negative_generation_count_exits_3_with_one_line(tmp_path, capsys):
    optimizer = dict(TINY["optimizer"], generations_n=-3)
    config = write_json(tmp_path / "config.json", dict(TINY, optimizer=optimizer))
    out = tmp_path / "out"
    assert run_cli(config, out, "optimize") == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert "generations_n must be >= 0, got -3" in err, err
    assert not list(out.glob("front_*.csv")) and not list(out.glob("history_*.csv"))


@pytest.mark.parametrize(
    "genome",
    [fluxspot.BENCHMARK_POINTS[1].genome, fluxspot.Genome(**GENOME_KEYS)],
    ids=["dss-2", "order-2"],
)
def test_a_genome_reads_the_same_bits_whatever_the_search_order(genome):
    # optimizer.n sets the search box only; a genome's truncation is its own
    readings = []
    for n in (2, 4):
        cfg = load_config(None)
        cfg["optimizer"]["n"] = n
        context = build_context(cfg)
        objs, point = fluxspot.evaluate_genome(genome, context)
        phi_ac = fluxspot.calibrate_amplitude(genome, context)
        front = (fluxspot.Individual(genome, objs),)
        [(_, member_point, report, bounds)] = fluxspot.classify_front(front, context)
        g_z = [p.weights.g_z.tobytes() for p in (point, member_point)]
        readings.append((objs, g_z, phi_ac, report, bounds))
    assert readings[0] == readings[1]


@pytest.mark.parametrize("orders", [[-1], [1, -2]])
def test_negative_truncation_order_exits_3_with_one_line(tmp_path, capsys, orders):
    truncation = dict(TINY["truncation"], orders=orders)
    config = write_json(tmp_path / "config.json", dict(TINY, truncation=truncation))
    out = tmp_path / "out"
    assert run_cli(config, out, "truncation-study") == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert f"truncation.orders must be >= 0, got drive order {min(orders)}" in err, err
    assert not (out / "truncation.csv").exists()


@pytest.mark.parametrize("seed", [5, 11])
def test_truncation_rows_are_the_stacked_solve_against_the_reference(tmp_path, seed):
    # each row is a one-row evaluate_population at its k_max; its mode is
    # the stacked solve's, bit for bit, at the default orders and substeps
    config = write_json(tmp_path / "config.json", {"seed": seed})
    out = tmp_path / "out"
    assert run_cli(config, out, "truncation-study") == 0
    with open(out / "truncation.csv", newline="") as fh:
        got = [
            (int(r["n"]), int(r["k_max"]), float(r["mode_infidelity"]))
            for r in csv.DictReader(fh)
        ]
    cfg = load_config(config)
    context = build_context(cfg)
    coeffs = context.coefficients
    rng = np.random.default_rng(seed)
    want = []
    for n in cfg["truncation"]["orders"]:
        p = [complex(rng.uniform(0.0, 1.0), 0.0)]
        p += [complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(n)]
        drive = fluxspot.DriveSpec(1.1 * context.omega_ge, tuple(p))
        ref = fluxspot.reference_floquet_via_propagator(drive, coeffs, k_max=3 * n + 4)
        want += [
            (n, k, fluxspot.mode_infidelity(ref, solve_row(drive, coeffs, k)))
            for k in range(n, 3 * n + 3)
        ]
    assert [row[:2] for row in got] == [row[:2] for row in want]
    assert got == want


def test_infeasible_truncation_row_raises_naming_order_and_k_max(tmp_path, monkeypatch):
    # the stacked solve is made to fail its mode check at k_max = 2 only
    import fluxspot.evaluation

    solve = fluxspot.evaluation.solve_floquet

    def failing_at_two(stack, omega_d):
        *solved, ok = solve(stack, omega_d)
        return (*solved, ok & (stack.shape[-1] != 2 * (2 * 2 + 1)))

    monkeypatch.setattr(fluxspot.evaluation, "solve_floquet", failing_at_two)
    cfg = load_config(write_json(tmp_path / "config.json", TINY))
    run = RunDirectory(tmp_path / "out", cfg)
    with pytest.raises(
        fluxspot.exceptions.DegenerateGapError,
        match=r"^drive order 1 at k_max=2 is infeasible: ",
    ):
        cmd_truncation_study(cfg, run)
    assert not (tmp_path / "out" / "truncation.csv").exists()


def test_repeated_gate_job_name_exits_2_with_one_line(tmp_path, capsys):
    job = TINY["gates"][0]
    jobs = [dict(job, name="a", gate="x"), dict(job, name="a", gate="y")]
    config = write_json(tmp_path / "config.json", dict(TINY, gates=jobs))
    out = tmp_path / "out"
    assert run_cli(config, out, "grape") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert "repeated: ['a']" in err, err
    assert not list(out.glob("pulse_*.json"))


@pytest.mark.parametrize(
    "content, named",
    [
        ("{bad", "is not valid JSON"),
        ("[1, 2]", "must hold a JSON object, not list"),
        (json.dumps({"tool_version": "0.1.0"}), "has no entries list"),
        (json.dumps({"entries": [1]}), "entry 0 must be an object"),
        (json.dumps({"entries": [{"path": "a.csv"}]}), "string path and sha256"),
        (
            json.dumps({"entries": [{"path": "a", "sha256": "0"}, {"path": 3, "sha256": "0"}]}),
            "entry 1 must be an object",
        ),
    ],
    ids=["not-json", "not-an-object", "no-entries", "entry-not-an-object",
         "entry-without-sha256", "entry-path-not-a-string"],
)
def test_unreadable_manifest_exits_4_with_one_line(tmp_path, capsys, content, named):
    config = write_json(tmp_path / "config.json", TINY)
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text(content)
    assert run_cli(config, out, "fluxonium") == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert "manifest.json" in err and named in err, err
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    assert (out / "manifest.json").read_text() == content


def test_grape_evaluates_its_point_at_the_genome_order(tmp_path):
    # an order-2 genome under optimizer.n = 4: grape stores the rates that
    # evaluate gives, at the genome's own harmonic truncation
    job = dict(TINY["gates"][0], point={"genome": GENOME_KEYS})
    cfg = dict(TINY, optimizer=dict(TINY["optimizer"], n=4), gates=[job])
    config = write_json(tmp_path / "config.json", cfg)
    genome = write_json(tmp_path / "genome.json", GENOME)
    out = tmp_path / "out"
    assert run_cli(config, out, "evaluate", str(genome)) == 0
    assert run_cli(config, out, "grape") == 0
    with open(out / "rates_custom.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    rates = json.loads((out / "pulse_x.json").read_text())["rates_per_us"]
    assert rates == {
        "gamma_1": float(row["gamma1_per_us"]),
        "gamma_z": float(row["gammaz_per_us"]),
    }


def test_grape_on_a_front_index_stores_that_rows_rates(tmp_path, capsys):
    jobs = [dict(TINY["gates"][0], name=f"f{i}", point={"front_index": i}) for i in (0, 99)]
    config = write_json(tmp_path / "config.json", dict(TINY, gates=jobs))
    out = tmp_path / "out"
    for verb in ("optimize", "aggregate"):
        assert run_cli(config, out, verb) == 0
    assert run_cli(config, out, "grape", "--job", "0") == 0
    with open(out / "front_aggregated.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    rates = json.loads((out / "pulse_f0.json").read_text())["rates_per_us"]
    assert rates == {
        "gamma_1": float(row["gamma1_per_us"]),
        "gamma_z": float(row["gammaz_per_us"]),
    }
    capsys.readouterr()
    assert run_cli(config, out, "grape", "--job", "1") == 2
    assert "point.front_index 99 out of range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, named",
    [
        ({"threads": 4}, "unknown keys in config root: ['threads']"),
        # the gate fixes the qubit count, even when the count agrees
        ({"gates": [dict(TINY["gates"][0], n_qubits=1)]},
         "unknown keys in gate job 'x': ['n_qubits']"),
    ],
    ids=["threads", "gate-job-n_qubits"],
)
def test_a_key_no_run_reads_exits_2(tmp_path, capsys, override, named):
    config = write_json(tmp_path / "config.json", dict(TINY, **override))
    assert run_cli(config, tmp_path / "out", "fluxonium") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and named in err, err


@pytest.mark.parametrize("name", ["a/b", ".."])
def test_simulate_pulse_name_not_a_file_name_exits_2(tmp_path, capsys, name):
    # a valid pulse artifact sits at pulse_<name>.json, yet simulate_<name>
    # could not be written beside it
    out = tmp_path / "out"
    (out / f"pulse_{name}.json").parent.mkdir(parents=True)
    write_json(out / f"pulse_{name}.json", PULSE)
    before = sorted(out.rglob("*"))
    assert run_cli(write_json(tmp_path / "config.json", TINY), out, "simulate", name) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert f"pulse {name!r} is not one plain file-name component" in err, err
    assert sorted(out.rglob("*")) == before


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, out):
    (tmp_path / "file").write_text("not a directory\n")
    config = write_json(tmp_path / "config.json", TINY)
    assert run_cli(config, tmp_path / out, "fluxonium") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert f"output directory {tmp_path / out} cannot be created" in err, err
    assert (tmp_path / "file").read_text() == "not a directory\n"


COLD_START = """
import json, sys
from fluxspot import cli, reference
config, out, benchmark = sys.argv[1:]
codes = [
    cli.main(["--config", config, "--out", out, *verb])
    for verb in (["fluxonium"], ["evaluate", benchmark], ["grape"], ["simulate", "x"])
]
dss2 = reference.BENCHMARK_POINTS[1]
reference.calibrate_amplitude(
    dss2.genome, reference.build_context(reference.REFERENCE, dss2.phi_ac)
)
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
)}))
"""


def test_cold_start_loads_no_scipy(tmp_path):
    # a fresh process: the test session itself has scipy loaded
    config = write_json(tmp_path / "config.json", TINY)
    benchmark = write_json(tmp_path / "dss2.json", {"benchmark": "dss-2"})
    src = str(Path(fluxspot.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START]
        + [str(config), str(tmp_path / "out"), str(benchmark)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"codes": [0, 0, 0, 0], "scipy": []}
