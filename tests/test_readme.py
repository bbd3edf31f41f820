"""The README's Python quick tour runs as written."""

import re
from pathlib import Path

import numpy as np

from glstar.projgeom import plucker_matrix

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library quick tour"):]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    scope = {}
    exec(compile(block, "README.md quick tour", "exec"), scope)
    *reports, dim = capsys.readouterr().out.splitlines()
    assert reports and all(r.startswith("CHECK ") and ": PASS " in r
                           for r in reports)
    assert dim == "3"
    # L, the parallel of the z-axis through (1, 1, 0), passes through it
    M = plucker_matrix(scope["L"].p[[3, 4, 5, 0, 1, 2]])
    assert np.linalg.norm(M @ [1.0, 1.0, 0.0, 0.0]) < 1e-9 * np.linalg.norm(M)
