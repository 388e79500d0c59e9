"""Equilibrium toolkit for finite wireless power-control games.

The names below, and their modules, load on first use, so importing the
package loads no numpy; ``powergames.cli`` relies on that to choose the BLAS
thread count before numpy loads.
"""
from importlib import import_module

__version__ = "0.1.0"

# module -> the names it exports here
_EXPORTS = {
    "errors": ("BudgetError", "ConfigError", "MuTooSmallError",
               "PowergamesError", "SolverStallError"),
    "model": ("ChannelMatrix", "GameInstance", "PayoffTensor", "PowerGrid",
              "build_payoff_tensor", "build_power_grid", "efficiency",
              "grid_from_levels", "sinr", "utility"),
    "simplex": ("LpProblem", "LpSolution", "dump_problem", "make_problem",
                "solve_lp"),
    "nash": ("enumerate_pure_nash", "mixed_nash_2x2"),
    "correlated": ("CePolytopeSolver", "EquilibriumReport",
                   "JointDistribution", "ce_payoff_region", "ce_violation",
                   "mediator_sample", "solve_directional_ce",
                   "solve_welfare_ce"),
    "communication": ("CommDevice", "GameFamily", "TypeSpace",
                      "build_commeq_lp", "build_type_space",
                      "commeq_violation", "conditional_prior",
                      "run_mediator_session", "solve_commeq"),
    "regret": ("RegretState", "empirical_distribution", "rm_init", "rm_run",
               "rm_step"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
