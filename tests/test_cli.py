"""End-to-end tests of the command-line workbench on a tiny configuration."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fluxspot
from fluxspot import cli
from fluxspot.workbench import RunDirectory, build_context, front_columns, load_config

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
        ({"n_qubits": 2}, 2),
        ({"gate": "sqrt_iswap", "n_qubits": 1}, 2),
        ({"name": "a/b"}, 2),
        ({"f_max_mhz": 0}, 3),
        ({"f_max_mhz": -100}, 3),
        ({"f_max_mhz": math.nan}, 3),
        ({"point": 5}, 2),
        ({"duration_ns": "ten"}, 2),
        ({"steps": "many"}, 2),
        ({"gate": "z"}, 2),
    ],
    ids=[
        "substeps-0",
        "steps-0",
        "iterations-0",
        "x-on-2-qubits",
        "sqrt_iswap-on-1-qubit",
        "name-with-slash",
        "f_max-0",
        "f_max-negative",
        "f_max-nan",
        "point-not-an-object",
        "duration-not-a-number",
        "steps-not-a-number",
        "unknown-gate",
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
    assert not list(out.glob("pulse_*.json"))


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


def test_malformed_gate_genome_exits_2(tmp_path):
    bad = dict(TINY, gates=[{"name": "bad", "point": {"genome": {"p0": 0.5}}}])
    config = write_json(tmp_path / "config.json", bad)
    assert run_cli(config, tmp_path / "out", "grape", "--job", "0") == 2


def test_malformed_genome_file_exits_2(tmp_path):
    config = write_json(tmp_path / "config.json", TINY)
    genome = write_json(tmp_path / "genome.json", {"p0": 0.5})
    assert run_cli(config, tmp_path / "out", "evaluate", str(genome)) == 2


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
    [{"workers": 2}, {"circuit": 5}, {"gates": [5]}],
    ids=["unknown-key", "section-not-an-object", "gate-job-not-an-object"],
)
def test_unknown_config_key_exits_2(tmp_path, capsys, override):
    config = write_json(tmp_path / "config.json", dict(TINY, **override))
    assert run_cli(config, tmp_path / "out", "fluxonium") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err


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


def test_aggregate_before_optimize_exits_4(tmp_path):
    config = write_json(tmp_path / "config.json", TINY)
    assert run_cli(config, tmp_path / "out", "aggregate") == 4


@pytest.mark.parametrize("verb", ["classify", "bounds"])
def test_degenerate_front_row_exits_3(tmp_path, capsys, verb):
    # an undriven genome at omega_d = omega_ge puts the gap on the zone edge
    config = write_json(tmp_path / "config.json", TINY)
    out = tmp_path / "out"
    out.mkdir()
    omega_ge = build_context(load_config(config)).omega_ge
    row = [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, omega_ge, 0.0, 0.0, "nsga2", 5]
    with open(out / "front_aggregated.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerows([front_columns(2), row])
    assert run_cli(config, out, verb) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "front row 0" in err, err


@pytest.mark.parametrize("verb", ["aggregate", "classify", "bounds"])
@pytest.mark.parametrize(
    "column, value, message",
    [
        ("p0", 1.5, "p_0 must lie in [0, 1], got 1.5"),
        ("p1_im", "nan", "p_1 must be finite"),
    ],
    ids=["p0-outside", "p1-nan"],
)
def test_front_row_outside_the_box_exits_3_naming_the_field(
    tmp_path, capsys, verb, column, value, message
):
    # a front read from CSV passes the drive's box and finiteness checks
    config = write_json(tmp_path / "config.json", TINY)
    out = tmp_path / "out"
    out.mkdir()
    cfg = load_config(config)
    row = dict.fromkeys(front_columns(2), 0.1)
    row.update(gamma1_per_us=1.0, gammaz_per_us=1.0, strategy="nsga2", seed=5)
    row.update({"omega_d": build_context(cfg).omega_ge * 1.1, column: value})
    names = [f"front_{s}.csv" for s in cfg["optimizer"]["strategies"]]
    for name in names + ["front_aggregated.csv"]:
        with open(out / name, "w", newline="") as fh:
            writer = csv.DictWriter(fh, front_columns(2), lineterminator="\n")
            writer.writeheader()
            writer.writerow(row)
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run_cli(config, out, verb) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    assert message in err, err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_threads_key_is_ignored_with_a_warning(tmp_path):
    config = write_json(tmp_path / "config.json", dict(TINY, threads=4))
    with pytest.warns(UserWarning, match="'threads' is ignored"):
        cfg = load_config(config)
    assert "threads" not in cfg
    with pytest.warns(UserWarning, match="'threads' is ignored"):
        assert run_cli(config, tmp_path / "out", "fluxonium") == 0


COLD_START = """
import json, sys
from fluxspot import cli
config, out, benchmark = sys.argv[1:]
codes = [
    cli.main(["--config", config, "--out", out, *verb])
    for verb in (["fluxonium"], ["evaluate", benchmark], ["grape"], ["simulate", "x"])
]
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
