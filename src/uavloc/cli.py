"""Command-line front end: config loading, experiment dispatch, CSV emission.

Exit codes: 0 success, 2 usage error, 3 configuration error, 4 computation
error, 5 output I/O error, 1 unexpected failure.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .config import ConfigError, load_config
from .experiments import (
    MAX_THREADS,
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

_EPILOG = f"""\
exit codes:
  0  success
  2  usage error (unknown command or flag, or --threads outside 0-{MAX_THREADS})
  3  configuration error (unreadable file, unknown or unread key, constraint violation)
  4  computation error (degenerate geometry, invalid experiment input, a
     study too large for memory or a worker process that died)
  5  output I/O error
  1  unexpected failure
"""


def _worker_count(text: str) -> int:
    count = int(text)
    if not 0 <= count <= MAX_THREADS:
        raise argparse.ArgumentTypeError(f"must be in [0, {MAX_THREADS}], got {count}")
    return count


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
                        help="output CSV path; a .meta.json sidecar is written next to it")
    common.add_argument("--threads", type=_worker_count, default=1, metavar="N",
                        help=f"worker processes, at most {MAX_THREADS}; 0 selects the CPU count")

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


def dispatch(args: argparse.Namespace) -> int:
    """Run the selected experiment; returns the process exit code."""
    try:
        cfg = load_config(path=args.config,
                          preset=args.preset,
                          seed_override=args.seed,
                          command=args.command)
        # The library functions are looked up here, at call time, so that
        # a caller may wrap them (`perfbench/study.py` traces them so).
        if args.command == "optimize":
            opt = optimize_altitude(cfg, threads=args.threads)
            write_results(opt.result, args.out)
            print(f"optimize: h_opt = {opt.h_opt:g} m, error_at_opt = "
                  f"{opt.error_at_opt:.3f} m, theta_opt = "
                  f"{math.degrees(opt.theta_opt):.1f} deg; "
                  f"wrote {args.out}")
        elif args.command == "crlb":
            table = run_crlb_comparison(cfg, args.r or (500.0,),
                                        repetitions=args.repetitions,
                                        threads=args.threads)
            write_crlb_table(table, args.out)
            gaps = [abs(p.mle_sigma - p.crlb_sigma) / p.crlb_sigma
                    for p in table.points if p.crlb_sigma]
            print(f"crlb: max relative gap {max(gaps, default=0.0):.1%} over {len(gaps)} "
                  f"points; wrote {args.out}")
        else:
            result = run_sweep(cfg, threads=args.threads)
            write_results(result, args.out)
            idx = int(np.argmin(result.mean_error))
            print(f"{result.sweep_variable} sweep: min mean error "
                  f"{result.mean_error[idx]:.3f} m at {result.sweep_variable} = "
                  f"{result.sweep_values[idx]:g}; wrote {args.out}")
    except ConfigError as exc:
        print(f"uavloc: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"uavloc: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (DegenerateGeometryError, WorkerPoolError, ValueError, ArithmeticError,
            MemoryError) as exc:
        print(f"uavloc: computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except Exception as exc:  # pragma: no cover - last-resort diagnostics
        print(f"uavloc: unexpected failure: {exc}", file=sys.stderr)
        return 1
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.out:
        parser.error("output path must be non-empty")  # exits with code 2
    return dispatch(args)


if __name__ == "__main__":
    sys.exit(main())
