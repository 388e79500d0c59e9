"""Spans around calls into powergames, installed from outside the package.

``Tracer.install`` replaces each public function in ``TRACED`` with a wrapper
in every loaded ``powergames`` module that holds a reference to it (modules
import each other's functions by name), and ``uninstall`` puts the originals
back. Spans (name, start, end, parent, operation) are kept in memory and
turned into the per-layer metrics by ``layer_metrics``.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import asdict, dataclass, field


def _solve_attrs(args, kwargs, result):
    prob = args[0]
    return {"pivots": result.iterations, "master_rows": prob.ineq_coeffs.shape[0]}


def _lp_size_attrs(args, kwargs, result):
    return {"rows": result.row_count, "cols": result.n}


def _steps_attrs(args, kwargs, result):
    return {"steps": kwargs["steps"] if "steps" in kwargs else args[1]}


# (module, attribute, attrs from (args, kwargs, result)); "A.b" is method b of class A
TRACED = (
    ("model", "build_payoff_tensor", None),
    ("nash", "enumerate_pure_nash", None),
    ("simplex", "solve_lp", _solve_attrs),
    ("correlated", "CePolytopeSolver.maximize", None),
    ("correlated", "ce_violation", None),
    ("communication", "build_commeq_lp", _lp_size_attrs),
    ("communication", "solve_commeq", None),
    ("communication", "commeq_violation", None),
    ("regret", "rm_run", _steps_attrs),
    ("regret", "empirical_distribution", None),
    ("experiments", "run_action_sweep", None),
    ("experiments", "run_commeq", None),
)


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; single-threaded use only."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1          # operation the next spans belong to
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.op, parent, time.perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def install(self):
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "powergames" or n.startswith("powergames.")]
        for module_name, attr, attrs in TRACED:
            home = sys.modules[f"powergames.{module_name}"]
            name = f"{module_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, attrs))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, attrs)
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _self_times(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.duration
    return [s.duration - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures per traced round: name -> (value, unit)."""
    self_time = dict(zip(map(id, spans), _self_times(spans)))

    def parent_name(span):
        return spans[span.parent].name if span.parent is not None else None

    def named(name, parent=None):
        return [s for s in spans if s.name == name
                and (parent is None or parent_name(s) == parent)]

    def total(items):
        return sum(s.duration for s in items) / rounds

    def count(items):
        return len(items) / rounds

    solves = named("simplex.solve_lp")
    solved = [s for s in solves if s.error is None]
    pivots = sum(s.attrs["pivots"] for s in solved)
    maximizes = named("correlated.maximize")
    masters = named("simplex.solve_lp", "correlated.maximize")
    comm_solves = named("simplex.solve_lp", "communication.solve_commeq")
    builds = named("communication.build_commeq_lp")
    runs = named("regret.rm_run")
    run_checks = (named("correlated.ce_violation", "regret.rm_run")
                  + named("regret.empirical_distribution", "regret.rm_run"))
    steps = sum(s.attrs["steps"] for s in runs)
    step_time = sum(s.duration for s in runs) - sum(s.duration for s in run_checks)
    verifies = [s for s in named("correlated.ce_violation") if parent_name(s) != "regret.rm_run"]
    sweeps = named("experiments.run_action_sweep") + named("experiments.run_commeq")

    def self_total(items):
        return sum(self_time[id(s)] for s in items) / rounds

    return {
        "model.build_calls": (count(named("model.build_payoff_tensor")), "count"),
        "model.build_s": (total(named("model.build_payoff_tensor")), "s"),
        "nash.enum_s": (total(named("nash.enumerate_pure_nash")), "s"),
        "simplex.solves": (count(solves), "count"),
        "simplex.pivots": (pivots / rounds, "count"),
        "simplex.solve_s": (total(solves), "s"),
        "simplex.us_per_pivot": (1e6 * sum(s.duration for s in solved) / pivots
                                 if pivots else 0.0, "us"),
        "simplex.stalls": (count([s for s in solves if s.error == "SolverStallError"]), "count"),
        "correlated.maximize_calls": (count(maximizes), "count"),
        "correlated.rounds": (count(masters), "count"),
        "correlated.rounds_per_maximize": (len(masters) / len(maximizes) if maximizes else 0.0,
                                           "rounds/call"),
        "correlated.master_rows_max": (max((s.attrs.get("master_rows", 0) for s in masters),
                                           default=0), "count"),
        "correlated.self_s": (self_total(maximizes), "s"),
        "correlated.verify_s": (total(verifies), "s"),
        "communication.build_s": (total(builds), "s"),
        "communication.lp_rows": (sum(s.attrs.get("rows", 0) for s in builds) / rounds, "count"),
        "communication.lp_cols": (sum(s.attrs.get("cols", 0) for s in builds) / rounds, "count"),
        "communication.solve_s": (total(comm_solves), "s"),
        "communication.pivots": (sum(s.attrs.get("pivots", 0) for s in comm_solves) / rounds,
                                 "count"),
        "communication.verify_s": (total(named("communication.commeq_violation")), "s"),
        "regret.steps": (steps / rounds, "count"),
        "regret.us_per_step": (1e6 * step_time / steps if steps else 0.0, "us"),
        "regret.trace_s": (total(run_checks), "s"),
        "experiments.self_s": (self_total(sweeps), "s"),
    }
