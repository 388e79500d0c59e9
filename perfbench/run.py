"""Benchmark of powergames at paper scale: one workload per invocation.

    python3 perfbench/run.py --workload lp --seed 1 --seconds 36 --trace 0

Runs whole rounds of the workload's operations until ``--seconds`` have
passed, checks the first round's answers with code independent of the
program, requires every later round to reproduce them bit for bit, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics, with the tracing overhead, and writes the spans to
``.bench_build/perfbench/``. Run it from the root of a source checkout.
"""
import os

# One BLAS thread, set before numpy loads: with a second busy process on a
# 2-core machine, a 140x140 solve went from 2 ms to 150 ms under the
# default of one OpenBLAS thread per core, and stays at 3 ms with one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5
WORKLOAD_NAMES = ("lp", "regret")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, load the config, make the inputs, and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


@dataclass(frozen=True)
class Failure:
    """An operation that raised; kept in place of its answer."""

    error: str
    message: str


def setup_seconds(argv) -> float:
    """Time from starting a fresh process that imports, loads the config and
    makes the inputs to the moment it is ready for the first operation. The
    process prints that moment as a wall-clock timestamp, so neither its
    exit nor the wait for it counts."""
    start = time.time()
    done = subprocess.run([sys.executable, __file__, *argv, "--setup-only"], check=True,
                          timeout=120, stdout=subprocess.PIPE, text=True)
    return float(done.stdout.split()[-1]) - start


def run_round(ops, tracer=None):
    """Each operation once; returns (seconds per op, answers by key)."""
    times, answers = [], {}
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        start = time.perf_counter()
        try:
            answer = op.run()
        except Exception as exc:  # a failed operation is counted, and reported below
            answer = Failure(type(exc).__name__, str(exc))
        times.append(time.perf_counter() - start)
        answers[op.key] = answer
    return times, answers


def digest(ops, answers) -> str:
    h = hashlib.sha256()
    for op in ops:
        answer = answers[op.key]
        h.update(op.key.encode())
        if isinstance(answer, Failure):
            h.update(f"{answer.error}: {answer.message}".encode())
        else:
            h.update(op.encode(answer))
    return h.hexdigest()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (ROOT / "src" / "powergames").is_dir():
        print(f"no powergames source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import checks
    import workloads
    from tracing import Tracer, layer_metrics

    ops = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    if args.setup_only:
        print(repr(time.time()))
        return 0
    tracer = Tracer() if args.trace else None
    walls = {False: [], True: []}
    op_times = [[] for _ in ops]
    digests, first_answers = [], None
    attempted = failed = 0
    failures = {}
    setup_times = []
    start = time.perf_counter()
    while True:
        # set-up probes between rounds, so that they sample the same stretch
        # of machine time as the rounds do
        if tracer is None:
            setup_times.append(setup_seconds(argv))
        traced = tracer is not None and len(digests) % 2 == 1
        if traced:
            tracer.install()
        try:
            times, answers = run_round(ops, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(sum(times))
        if not traced:
            for k, t in enumerate(times):
                op_times[k].append(t)
        digests.append(digest(ops, answers))
        first_answers = first_answers or answers
        attempted += len(answers)
        for op in ops:
            if isinstance(answers[op.key], Failure):
                failed += 1
                failures[op.key] = (op.about, answers[op.key])
        enough = time.perf_counter() - start >= args.seconds
        if enough and (tracer is None or len(digests) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while tracer is None and len(setup_times) < SETUP_PROBES:
        setup_times.append(setup_seconds(argv))

    problems = []
    if len(set(digests)) != 1:
        problems.append(f"rounds gave different answers: digests {sorted(set(digests))}")
    check_start = time.perf_counter()
    check_rng = np.random.default_rng([args.seed, 1])
    for op in ops:
        answer = first_answers[op.key]
        if isinstance(answer, Failure):
            continue
        try:
            op.check(answer, check_rng)
        except checks.CheckError as exc:
            problems.append(f"{op.key} ({op.about}): {exc}")

    check_s = time.perf_counter() - check_start
    rounds = len(digests)
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds of "
          f"{len(ops)} operations, attempted {attempted}, failed {failed}")
    print(f"checks took {check_s:.1f} s")
    print("round seconds: untraced " + " ".join(f"{w:.3f}" for w in walls[False])
          + (" traced " + " ".join(f"{w:.3f}" for w in walls[True]) if tracer else ""))
    for key, (about, failure) in failures.items():
        print(f"failed {key} ({about}): {failure.error}: {failure.message}")
    for problem in problems:
        print(f"WRONG {problem}")
    print(f"digest {args.workload} {digests[0]}")

    metrics = {}
    if tracer is None:
        # Means over rounds, not medians: this machine's speed flips between
        # two levels (about 2x apart for Python loops) every few seconds, and
        # a median over few rounds jumps between them while a mean follows
        # the share of time spent at each.
        per_op = [statistics.mean(ts) for ts in op_times]
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        metrics["wall_s"] = (statistics.mean(walls[False]), "s")
        metrics["op_s_p50"] = (float(np.percentile(per_op, 50)), "s")
        metrics["op_s_p75"] = (float(np.percentile(per_op, 75)), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    else:
        metrics.update(layer_metrics(tracer.spans, len(walls[True])))
        overhead = statistics.mean(walls[True]) - statistics.mean(walls[False])
        metrics["trace.overhead_s"] = (overhead, "s")
        tracer.write(ROOT / ".bench_build" / "perfbench" / f"{args.workload}-spans.jsonl")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
