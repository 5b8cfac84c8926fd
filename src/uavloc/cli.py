"""Command-line front end: config loading, experiment dispatch, CSV emission.

Exit codes: 0 success, 2 usage error, 3 configuration error, 4 computation
error, 5 output I/O error, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, load_config
from .experiments import (
    WorkerPoolError,
    optimize_altitude,
    run_crlb_comparison,
    run_sweep,
    write_crlb_table,
    write_results,
)
from .localization import DegenerateGeometryError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_COMPUTE = 4
EXIT_IO = 5

_VARIABLE_BY_COMMAND = {
    "altitude-sweep": "altitude",
    "distance-sweep": "inter_distance",
    "count-sweep": "anchor_count",
    "crlb": "altitude",
    "optimize": "altitude",
}
_COMMANDS = tuple(_VARIABLE_BY_COMMAND)

_EPILOG = """\
exit codes:
  0  success
  2  usage error (unknown command or flag)
  3  configuration error (unreadable file, unknown key, constraint violation)
  4  computation error (degenerate geometry, invalid experiment input or a
     worker process that died)
  5  output I/O error
  1  unexpected failure
"""


@dataclass(frozen=True)
class RunManifest:
    """One resolved CLI invocation."""

    command: str
    output_path: str
    config_path: str | None = None
    seed_override: int | None = None
    preset: str | None = None
    threads: int = 1
    r_values: tuple[float, ...] = (500.0,)
    repetitions: int = 10_000

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise ValueError(f"command must be one of {_COMMANDS}")
        if not self.output_path:
            raise ValueError("output path must be non-empty")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavloc",
        description="Monte Carlo studies of RSS localization with aerial anchors.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", default=None,
                        help="YAML study config; file values win over --preset")
    common.add_argument("--preset", choices=("urban", "suburban"), default=None,
                        help="environment preset when the config names none")
    common.add_argument("--seed", type=int, default=None, metavar="N",
                        help="master seed override (wins over the config seed)")
    common.add_argument("--out", required=True, metavar="PATH",
                        help="output CSV path; a .meta.json sidecar is written too")
    common.add_argument("--threads", type=int, default=1, metavar="N",
                        help="worker processes; 0 selects the CPU count")

    sub.add_parser("altitude-sweep", parents=[common],
                   help="mean localization error of the node population vs altitude")
    sub.add_parser("distance-sweep", parents=[common],
                   help="localization error of the evaluation ring vs triangle side")
    sub.add_parser("count-sweep", parents=[common],
                   help="localization error of the evaluation ring vs anchor count")
    crlb = sub.add_parser("crlb", parents=[common],
                          help="ranging bound vs Monte Carlo estimator spread")
    crlb.add_argument("--r", type=float, action="append", default=None,
                      metavar="METERS",
                      help="horizontal node distance; repeat for several (default 500)")
    crlb.add_argument("--repetitions", type=int, default=10_000, metavar="N",
                      help="Monte Carlo repetitions per (r, h) point")
    sub.add_parser("optimize", parents=[common],
                   help="altitude-grid argmin of the mean localization error")
    return parser


def manifest_from_args(args: argparse.Namespace) -> RunManifest:
    extra = {}
    if args.command == "crlb":
        extra["r_values"] = tuple(args.r) if args.r else (500.0,)
        extra["repetitions"] = args.repetitions
    return RunManifest(
        command=args.command,
        output_path=args.out,
        config_path=args.config,
        seed_override=args.seed,
        preset=args.preset,
        threads=args.threads,
        **extra,
    )


def dispatch(manifest: RunManifest) -> int:
    """Run the selected experiment; returns the process exit code."""
    try:
        cfg = load_config(path=manifest.config_path,
                          preset=manifest.preset,
                          seed_override=manifest.seed_override,
                          variable=_VARIABLE_BY_COMMAND[manifest.command])
        # The library functions are looked up here, at call time, so that
        # a caller may wrap them (`perfbench/study.py` traces them so).
        if manifest.command == "optimize":
            opt = optimize_altitude(cfg, threads=manifest.threads)
            write_results(opt.result, manifest.output_path)
            print(f"optimize: h_opt = {opt.h_opt:g} m, error_at_opt = "
                  f"{opt.error_at_opt:.3f} m, theta_opt = "
                  f"{math.degrees(opt.theta_opt):.1f} deg; "
                  f"wrote {manifest.output_path}")
        elif manifest.command == "crlb":
            points = run_crlb_comparison(cfg, manifest.r_values,
                                         repetitions=manifest.repetitions,
                                         threads=manifest.threads)
            write_crlb_table(points, cfg.seed, manifest.output_path)
            gaps = [abs(p.mle_sigma - p.crlb_sigma) / p.crlb_sigma for p in points]
            print(f"crlb: max relative gap {max(gaps):.1%} over {len(points)} "
                  f"points; wrote {manifest.output_path}")
        else:
            result = run_sweep(cfg, threads=manifest.threads)
            write_results(result, manifest.output_path)
            idx = int(np.argmin(result.mean_error))
            print(f"{result.sweep_variable} sweep: min mean error "
                  f"{result.mean_error[idx]:.3f} m at {result.sweep_variable} = "
                  f"{result.sweep_values[idx]:g}; wrote {manifest.output_path}")
    except ConfigError as exc:
        print(f"uavloc: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"uavloc: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DegenerateGeometryError, WorkerPoolError, ValueError, ArithmeticError) as exc:
        print(f"uavloc: computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except Exception as exc:  # pragma: no cover - last-resort diagnostics
        print(f"uavloc: unexpected failure: {exc}", file=sys.stderr)
        return 1
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        manifest = manifest_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))  # exits with code 2
    return dispatch(manifest)


if __name__ == "__main__":
    sys.exit(main())
