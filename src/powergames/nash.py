"""Pure Nash enumeration and the 2x2 mixed-equilibrium closed form."""
from __future__ import annotations

import numpy as np

from .model import PayoffTensor


def enumerate_pure_nash(tensor: PayoffTensor) -> list[tuple[int, ...]]:
    """All profiles where every player's action is a best response.

    Sorted by mixed-radix profile index; equality is exact on stored values.
    """
    mask = np.ones(tensor.dims, dtype=bool)
    for i in range(tensor.players):
        u = tensor.player_payoffs(i)
        mask &= u == u.max(axis=i, keepdims=True)
    return [tuple(int(a) for a in prof) for prof in np.argwhere(mask)]


def mixed_nash_2x2(tensor: PayoffTensor):
    """All equilibria of a 2x2 game: pure NE plus the interior indifference
    point when it exists. The ``nash`` command and the region export emit
    these for 2x2 games.

    Returns a list of ``((p0, p1), (u0, u1))`` where ``p_i`` is player i's
    mixed strategy and ``u_i`` its expected payoff. Games with a degenerate
    indifference system (a continuum of equilibria) yield only the pure NE
    and any well-defined interior point.
    """
    if tensor.dims != (2, 2):
        raise ValueError("mixed_nash_2x2 needs a 2x2 tensor")
    a = tensor.player_payoffs(0)
    b = tensor.player_payoffs(1)
    out = []
    for prof in enumerate_pure_nash(tensor):
        p = np.zeros(2)
        q = np.zeros(2)
        p[prof[0]] = 1.0
        q[prof[1]] = 1.0
        out.append(((p, q), (float(a[prof]), float(b[prof]))))

    # interior point: p makes player 1 indifferent, q makes player 0 indifferent
    den_p = b[0, 0] - b[1, 0] - b[0, 1] + b[1, 1]
    den_q = a[0, 0] - a[0, 1] - a[1, 0] + a[1, 1]
    if abs(den_p) > 0 and abs(den_q) > 0:
        p0 = (b[1, 1] - b[1, 0]) / den_p
        q0 = (a[1, 1] - a[0, 1]) / den_q
        if -1e-12 <= p0 <= 1 + 1e-12 and -1e-12 <= q0 <= 1 + 1e-12:
            p0 = min(max(p0, 0.0), 1.0)
            q0 = min(max(q0, 0.0), 1.0)
            interior = 0.0 < p0 < 1.0 or 0.0 < q0 < 1.0
            if interior:
                p = np.array([p0, 1.0 - p0])
                q = np.array([q0, 1.0 - q0])
                u0 = float(p @ a @ q)
                u1 = float(p @ b @ q)
                out.append(((p, q), (u0, u1)))
    return out
