"""Command-line interface.

Exit codes: 0 success, 1 stdout closed before the output was written, 2
configuration error (an output path that cannot be written among them), 3
memory-budget error (a ``BudgetError``, or running out of memory), 4 LP
solve without a certified answer (``SolverStallError``). The POWERGAMES_LOG
environment variable sets the log level (e.g. DEBUG, INFO), and an unknown
level exits 2; there is no logging flag.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys

# One BLAS thread unless the environment sets a count, before numpy loads
# (the package itself loads none). The LP work is many small products, where
# BLAS threads only contend, the more so under `sweep --workers`: on 2 cores
# the paper sweep with 2 workers takes 7 s with one thread a process and
# 54 s with OpenBLAS's default of one per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .communication import FORMULATIONS
from .config import _number, _text, key_reader, load_config
from .errors import BudgetError, ConfigError, SolverStallError
from .regret import RULES
from . import experiments


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
    path = _flag(lambda v: _text(v, "PATH"), str)  # nonempty, as --out-dir is
    sub = parser.add_subparsers(dest="command", required=True)

    game = sub.add_parser("game", help="inspect the configured game")
    game_sub = game.add_subparsers(dest="game_command", required=True)
    game_dump = game_sub.add_parser("dump", help="dump grids, channel and payoffs")
    game_dump.add_argument("--out", type=path, help="write JSON here instead of stdout")

    nash = sub.add_parser("nash", help="enumerate pure Nash equilibria")
    nash.add_argument("--out", type=path)

    ce = sub.add_parser("ce", help="correlated equilibrium by LP")
    group = ce.add_mutually_exclusive_group()
    group.add_argument("--welfare", action="store_true",
                       help="maximize social welfare (default)")
    group.add_argument("--direction", type=_flag(lambda v: _number(v, "THETA"), float),
                       metavar="THETA",
                       help="maximize cos(THETA) u1 + sin(THETA) u2 (radians)")
    ce.add_argument("--out", type=path)

    commeq = sub.add_parser("commeq", help="communication equilibrium by LP")
    commeq.add_argument("--formulation", type=_flag(key_reader("solver.formulation"), str),
                        help=f"one of {', '.join(FORMULATIONS)}")
    commeq.add_argument("--out", type=path)

    regret = sub.add_parser("regret", help="regret-matching run")
    regret.add_argument("--steps", type=_flag(key_reader("learning.steps")))
    regret.add_argument("--seed", type=_flag(key_reader("learning.seed")))
    regret.add_argument("--regret-rule", type=_flag(key_reader("learning.rule"), str),
                        help=f"one of {', '.join(RULES)}")
    regret.add_argument("--out", type=path)
    regret.add_argument("--trace-out", type=path, help="write the step trace CSV here")

    region = sub.add_parser("region", help="export 2-player payoff regions")
    region.add_argument("--directions", type=_flag(key_reader("solver.directions")))
    region.add_argument("--out-dir", type=_flag(key_reader("output_dir"), str))

    sweep = sub.add_parser("sweep", help="channel-state / action-set sweeps")
    sweep.add_argument("--enumerate", action="store_true",
                       help="force full channel-grid enumeration")
    sweep.add_argument("--workers", type=_flag(key_reader("sweep.workers")))
    sweep.add_argument("--out-dir", type=_flag(key_reader("output_dir"), str))
    return parser


def run(args) -> int:
    cfg = load_config(args.config)
    if args.command == "game":
        payload = experiments.game_dump(cfg)
    elif args.command == "nash":
        payload = experiments.run_nash(cfg)
    elif args.command == "ce":
        payload = experiments.run_ce(cfg, args.direction)
    elif args.command == "commeq":
        payload = experiments.run_commeq(cfg, args.formulation)
    elif args.command == "regret":
        payload = experiments.run_regret(cfg, args.steps, args.seed, args.regret_rule,
                                         args.trace_out)
    elif args.command == "region":
        payload = experiments.export_regions(cfg, out_dir=args.out_dir,
                                             directions=args.directions)
    elif args.command == "sweep":
        payload = experiments.sweep_summary(experiments.run_equilibrium_sweep(
            cfg, force_enumerate=args.enumerate, workers=args.workers,
            out_dir=args.out_dir,
        ))
    else:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(args.command)
    # region and sweep write their files to --out-dir and always print
    experiments.emit_json(payload, getattr(args, "out", None))
    return 0


def main(argv=None) -> int:
    level = os.environ.get("POWERGAMES_LOG", "WARNING")
    if not isinstance(logging.getLevelName(level.upper()), int):
        print(f"config error: POWERGAMES_LOG: unknown log level {level!r}; use one of "
              "DEBUG, INFO, WARNING, ERROR, CRITICAL", file=sys.stderr)
        return 2
    logging.basicConfig(
        level=level.upper(),
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
    except BrokenPipeError:
        # stdout closed early (`| head`); what is left unwritten goes to
        # devnull, so the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
