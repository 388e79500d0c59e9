"""README's "Library use" snippet runs as written, at a reduced size.

The snippet is read from README.md itself, so a documented call that stops
working, or a name it imports that goes away, fails here.
"""
import re
from pathlib import Path

import numpy as np

from powergames.geometry import convex_hull_ccw

README = Path(__file__).parent.parent / "README.md"
# the paper-scale figures of the snippet, and the reduced ones run here
REDUCED = {
    "build_power_grid(-20.0, 20.0, 25)": "build_power_grid(-20.0, 20.0, 6)",
    "ce_payoff_region(tensor, 64)": "ce_payoff_region(tensor, 16)",
    "steps=100_000": "steps=2_000",
}


def library_snippet() -> str:
    section = README.read_text().split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_snippet_runs(capsys):
    code = library_snippet()
    for paper, reduced in REDUCED.items():
        assert code.count(paper) == 1, paper
        code = code.replace(paper, reduced)
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    tensor = scope["tensor"]
    assert tensor.dims == (6, 6)
    assert capsys.readouterr().out.startswith("[")  # the pure NE list
    report = scope["report"]
    assert report.max_violation <= 1e-8
    assert report.welfare == sum(report.per_player_value)
    polygon = scope["polygon"]
    assert len(polygon) >= 3 and convex_hull_ccw(polygon) == polygon
    learned = scope["learned"]
    assert learned.trace[-1][0] == 2_000
    assert abs(float(learned.empirical.probs.sum()) - 1.0) <= 1e-9
    assert np.all(learned.empirical.probs >= 0.0)
