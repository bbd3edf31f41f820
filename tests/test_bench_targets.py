"""The benchmark's tracer (bench/spans.py) wraps library callables by name;
a refactor that drops one of those names breaks its per-layer numbers.  And
each workload of bench/run.py must run and check its own outputs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import glstar

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(glstar.__file__).resolve().parents[1]

# Run apart from the test process: install() rebinds glstar's callables.
SCRIPT = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import numpy as np
from glstar.constructions import clifford, latitudinal, pencil_from_mu
from glstar.functions import as_fn1
from glstar import parallelism
from glstar.projgeom import join
from spans import Tracer

tracer = Tracer()
tracer.install()
par = parallelism.make_parallelism(clifford())
L = join((1.0, 0.1, 0.2, 0.3), (1.0, -0.4, 0.5, 0.1))
parallelism.parallel_class_of(par, L)
# a class from a raw spanning pair orthonormalizes it by Subspace.span
parallelism.class_from_hfd_line(par.hfd.span_at(0.3, 1.0)[0])
# sigma inverts a plain arc map below the equator, by its table inverse
star = latitudinal(pencil_from_mu(as_fn1(lambda th: th ** 2 * (2 / np.pi),
                                         domain=(0.0, np.pi / 2))))
star.sigma(np.array([[0.6, 0.0, -0.8], [0.0, 0.6, -0.8]]))
print(" ".join(sorted({span[2] for span in tracer.spans})))
# a profile star's query takes the search's float path for its one point
lat = parallelism.make_parallelism(star)
n = len(tracer.spans)
parallelism.parallel_class_of(lat, L)
print(" ".join(sorted({span[2] for span in tracer.spans[n:]})))
"""


def test_tracer_installs_and_records_subspace_spans():
    # and the table inverses of plain callables, as functions.inverse, and
    # a latitudinal query's search
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(SRC), str(BENCH)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    first, query = done.stdout.splitlines()
    names = set(first.split())
    assert {"projgeom.span", "parallelism.class_from_hfd_line",
            "parallelism.make_parallelism", "functions.inverse",
            "star.sigma"} <= names, names
    # the single-point search is booked to search.find_batch on a profile
    # star too
    assert {"search.find_batch", "star.sigma"} <= set(query.split()), query


@pytest.mark.parametrize("workload", ["verify-suite", "parallel-queries",
                                      "construct-export"])
def test_bench_workload_runs_correct(workload):
    # one short run of each workload (bench/run.py builds glstar from the
    # src/ beside it and writes only under bench/out/): every output check
    # passes and no operation fails
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
