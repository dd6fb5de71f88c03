"""Command-line workbench; ``fluxspot --help`` lists the verbs.

Exit codes: 0 success; 2 an unknown key, a wrong JSON type, an unknown
choice, a negative seed, ``snapshot_every`` below 1, an empty or repeated
``optimizer.strategies``, two gate jobs with one name, a ``simulate`` pulse
name that is not one plain file-name component, or an output path that
cannot be made a directory; 3 a well-typed value the library rejects, such
as a non-finite front objective, or a numerical failure, such as an
infeasible genome in ``evaluate`` or ``grape``; 4 a missing or unreadable
upstream artifact, the manifest included, or one with a structural defect:
a front CSV of another drive order than ``optimizer.n``, or a pulse
artifact that ``simulate`` reads with a key missing, an unknown gate,
waveforms or frame entries of the wrong shape, frame samples that are not
finite or not in SU(2), or a duration that is not finite and positive.
"""

from __future__ import annotations

import argparse
import sys

from .exceptions import ConfigError, DependencyError, FluxspotError
from .workbench import (
    RunDirectory,
    cmd_aggregate,
    cmd_bounds,
    cmd_classify,
    cmd_evaluate,
    cmd_fluxonium,
    cmd_grape,
    cmd_optimize,
    cmd_simulate,
    cmd_truncation_study,
    load_config,
)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxspot",
        description="Dynamical-sweet-spot workbench for flux-modulated qubits",
    )
    parser.add_argument("--config", help="path to the JSON run configuration")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fluxonium", help="diagonalize the circuit, write the fixture")
    p_eval = sub.add_parser("evaluate", help="rates of one genome file")
    p_eval.add_argument("genome", help="JSON genome or {'benchmark': name} file")
    sub.add_parser("optimize", help="run the evolutionary searches")
    sub.add_parser("aggregate", help="aggregate run-level fronts")
    sub.add_parser("classify", help="label sweet spots on the aggregated front")
    sub.add_parser("bounds", help="check relaxation-time bounds on the front")
    p_grape = sub.add_parser("grape", help="optimize the configured gate jobs")
    p_grape.add_argument("--job", type=int, default=None, help="gate job index")
    p_sim = sub.add_parser("simulate", help="open-system run of a stored pulse")
    p_sim.add_argument("pulse", help="pulse artifact name (without pulse_/.json)")
    sub.add_parser("truncation-study", help="solver-vs-propagator error sweep")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed must be non-negative, got {args.seed}")
            cfg["seed"] = args.seed
        out_dir = args.out if args.out else cfg["output_dir"]
        run = RunDirectory(out_dir, cfg)

        if args.command == "fluxonium":
            path = cmd_fluxonium(cfg, run)
        elif args.command == "evaluate":
            path = cmd_evaluate(cfg, run, args.genome)
        elif args.command == "optimize":
            path = cmd_optimize(cfg, run)[-1]
        elif args.command == "aggregate":
            path = cmd_aggregate(cfg, run)
        elif args.command == "classify":
            path = cmd_classify(cfg, run)
        elif args.command == "bounds":
            path, violations = cmd_bounds(cfg, run)
            print(f"wrote {path} ({violations} violations)")
            return 0 if violations == 0 else 3
        elif args.command == "grape":
            jobs = cfg["gates"]
            if not jobs:
                raise ConfigError("config contains no gate jobs")
            if args.job is not None and not 0 <= args.job < len(jobs):
                raise ConfigError(
                    f"--job {args.job} out of range: the config has "
                    f"{len(jobs)} gate job(s)"
                )
            picked = jobs if args.job is None else [jobs[args.job]]
            for path in cmd_grape(cfg, run, picked):
                print(f"wrote {path}")
            return 0
        elif args.command == "simulate":
            path = cmd_simulate(cfg, run, args.pulse)
        elif args.command == "truncation-study":
            path = cmd_truncation_study(cfg, run)
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigError(f"unknown command {args.command}")
        print(f"wrote {path}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DependencyError as exc:
        print(f"dependency error: {exc}", file=sys.stderr)
        return 4
    except FluxspotError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
