"""Command-line entry point.

    cfmimo run --config cfg.json --drops N --fading-trials M --seed S --out DIR
    cfmimo summarize --in DIR

Exit code 0 on success; on failure, one machine-readable line
"ERROR <kind>: <message>" goes to stderr and the exit code is nonzero.
A run with --fading-trials 1 also prints one "WARNING ..." line on stderr
once its campaign has run: a one-trial upper bound has no standard error
and falls below the lower bound for about half the users.
"""

from __future__ import annotations

import argparse
import sys

from .config import SystemConfig
from .errors import CfmimoError
from .harness import SUMMARY_COLUMNS, emit_cdf, run_experiment, summarize


def _build_parser():
    p = argparse.ArgumentParser(prog="cfmimo")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a simulation campaign")
    run.add_argument("--config", required=True, help="JSON scenario file")
    run.add_argument("--drops", type=int, default=100)
    run.add_argument("--fading-trials", type=int, default=100)
    run.add_argument("--seed", type=int, default=None,
                     help="override the config's rng_seed")
    run.add_argument("--out", required=True, help="output directory")

    summ = sub.add_parser("summarize", help="print the percentile table")
    summ.add_argument("--in", dest="in_dir", required=True)
    return p


def _cmd_run(args):
    cfg = SystemConfig.from_json(args.config)
    if args.seed is not None:
        cfg.rng_seed = args.seed
    result = run_experiment(cfg, args.drops, args.fading_trials)
    if args.fading_trials == 1:
        print("WARNING --fading-trials 1: the upper bound's standard error is "
              "undefined at 1 trial, and single-trial upper bounds fall below "
              "the lower bound for about half the users", file=sys.stderr)
    files = emit_cdf(result, args.out)
    for f in files:
        print(f)


def _cmd_summarize(args):
    rows = summarize(args.in_dir)
    print("  ".join(f"{c:>14s}" for c in SUMMARY_COLUMNS))
    for r in rows:
        print("  ".join(f"{r.get(c, ''):>14s}" for c in SUMMARY_COLUMNS))


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            _cmd_run(args)
        else:
            _cmd_summarize(args)
    except CfmimoError as e:
        print(f"ERROR {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"ERROR IOError: {e}", file=sys.stderr)
        return 3
    except Exception as e:                      # noqa: BLE001 - CLI boundary
        print(f"ERROR InternalError: {type(e).__name__}: {e}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
