"""Exception types shared across the package."""


class PowergamesError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(PowergamesError):
    """Invalid or malformed experiment configuration."""


class MuTooSmallError(PowergamesError, ValueError):
    """Regret matching's mu is below what the game's payoff spread needs: the
    switch probabilities of a step sum past 1."""


class BudgetError(PowergamesError):
    """A requested computation exceeds the configured memory budget."""


class SolverStallError(PowergamesError):
    """An LP-based solve produced no certified answer: the simplex hit its
    iteration cap, met a singular basis or could not certify its optimal
    point, an LP known to have an optimum reported another status, or an
    answer failed its independent verification."""
