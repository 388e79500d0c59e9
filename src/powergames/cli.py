"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 memory-budget error (a
``BudgetError``, or running out of memory), 4 LP solve without a certified
answer (``SolverStallError``). The POWERGAMES_LOG environment variable sets
the log level (e.g. DEBUG, INFO); there is no logging flag.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .communication import FORMULATIONS
from .config import _number, key_reader, load_config
from .errors import BudgetError, ConfigError, SolverStallError
from .regret import RULES
from . import experiments

# --regret-rule spells the conditional rule (the first of RULES) "std"
REGRET_RULE_FLAGS = {"std": RULES[0], **{r: r for r in RULES[1:]}}


def _write_or_print(payload: dict, out_path: str | None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _flag(read, parse=int):
    """argparse ``type``: ``parse`` the text, then check it with ``read``."""
    def convert(text):
        try:
            return read(parse(text))
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    convert.__name__ = parse.__name__  # argparse names it in "invalid int value"
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powergames",
        description="Equilibrium solvers for finite wireless power-control games.",
    )
    parser.add_argument("-c", "--config", required=True, help="path to a JSON config")
    sub = parser.add_subparsers(dest="command", required=True)

    game = sub.add_parser("game", help="inspect the configured game")
    game_sub = game.add_subparsers(dest="game_command", required=True)
    game_dump = game_sub.add_parser("dump", help="dump grids, channel and payoffs")
    game_dump.add_argument("--out", help="write JSON here instead of stdout")

    nash = sub.add_parser("nash", help="enumerate pure Nash equilibria")
    nash.add_argument("--out")

    ce = sub.add_parser("ce", help="correlated equilibrium by LP")
    group = ce.add_mutually_exclusive_group()
    group.add_argument("--welfare", action="store_true",
                       help="maximize social welfare (default)")
    group.add_argument("--direction", type=_flag(lambda v: _number(v, "THETA"), float),
                       metavar="THETA",
                       help="maximize cos(THETA) u1 + sin(THETA) u2 (radians)")
    ce.add_argument("--out")

    commeq = sub.add_parser("commeq", help="communication equilibrium by LP")
    commeq.add_argument("--formulation", type=_flag(key_reader("solver.formulation"), str),
                        help=f"one of {', '.join(FORMULATIONS)}")
    commeq.add_argument("--out")

    regret = sub.add_parser("regret", help="regret-matching run")
    regret.add_argument("--steps", type=_flag(key_reader("learning.steps")))
    regret.add_argument("--seed", type=_flag(key_reader("learning.seed")))
    regret.add_argument("--regret-rule", choices=REGRET_RULE_FLAGS)
    regret.add_argument("--out")
    regret.add_argument("--trace-out", help="write the step trace CSV here")

    region = sub.add_parser("region", help="export 2-player payoff regions")
    region.add_argument("--directions", type=_flag(key_reader("solver.directions")))
    region.add_argument("--out-dir")

    sweep = sub.add_parser("sweep", help="channel-state / action-set sweeps")
    sweep.add_argument("--enumerate", action="store_true",
                       help="force full channel-grid enumeration")
    sweep.add_argument("--workers", type=_flag(key_reader("sweep.workers")))
    sweep.add_argument("--out-dir")
    return parser


def run(args) -> int:
    cfg = load_config(args.config)
    if args.command == "game":
        _write_or_print(experiments.game_dump(cfg), args.out)
    elif args.command == "nash":
        _write_or_print(experiments.run_nash(cfg), args.out)
    elif args.command == "ce":
        _write_or_print(experiments.run_ce(cfg, args.direction), args.out)
    elif args.command == "commeq":
        _write_or_print(experiments.run_commeq(cfg, args.formulation), args.out)
    elif args.command == "regret":
        rule = REGRET_RULE_FLAGS.get(args.regret_rule)
        result = experiments.run_regret(cfg, args.steps, args.seed, rule)
        if args.trace_out:
            from .regret import trace_to_csv

            experiments.write_csv(
                Path(args.trace_out), result["meta"],
                trace_to_csv([tuple(r) for r in result["trace"]]),
            )
        _write_or_print(result, args.out)
    elif args.command == "region":
        manifest = experiments.export_regions(cfg, out_dir=args.out_dir,
                                              directions=args.directions)
        print(json.dumps(manifest, indent=2, sort_keys=True))
    elif args.command == "sweep":
        report = experiments.run_equilibrium_sweep(
            cfg, force_enumerate=args.enumerate, workers=args.workers,
            out_dir=args.out_dir,
        )
        summary = {"meta": report["meta"]}
        if "channel_sweep" in report:
            summary["aggregate"] = report["channel_sweep"]["aggregate"]
            summary["states"] = len(report["channel_sweep"]["states"])
        if "action_sweep" in report:
            summary["action_rows"] = report["action_sweep"]["rows"]
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(args.command)
    return 0


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("POWERGAMES_LOG", "WARNING").upper(),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        # a computation inside every budget can still outgrow the memory the
        # process may use
        print("budget error: out of memory; shrink the action grid, the type "
              "space or the sweep", file=sys.stderr)
        return 3
    except SolverStallError as exc:
        print(f"solver stall: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
