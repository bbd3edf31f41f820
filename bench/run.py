"""glstar benchmark: three workloads against the public API and the in-process
CLI, every output checked against the benchmark's own geometry.

    python3 bench/run.py --workload verify-suite --seed 1 --seconds 15

``--trace 0`` prints the end-to-end metrics, timings scaled to a fixed host
speed by a reference kernel timed through the run (see REF_NOMINAL_S).
``--trace 1`` first runs the workload untraced for half the time, then wraps
glstar's public callables (see spans.py), builds the stars again and runs
traced for the other half; it prints the per-layer metrics, each per one
set-up plus one round, and the tracing overhead, and writes the spans to
``bench/out``.  The last line
of standard output is the JSON result.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
import warnings
from collections import defaultdict
from pathlib import Path

# One process, BLAS pinned to one thread; glstar's own check pool keeps its
# default size (GLSTAR_THREADS unset).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GLSTAR_THREADS", None)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

if not (SRC / "glstar" / "__init__.py").is_file():
    sys.exit(f"bench: no glstar sources at {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import glstar  # noqa: E402
from glstar import cli  # noqa: E402
from glstar import constructions as cons  # noqa: E402
from glstar import functions as fns  # noqa: E402
from glstar import parallelism as par  # noqa: E402
from glstar import verify as ver  # noqa: E402
from glstar.errors import NotZeroSecant  # noqa: E402
from glstar.projgeom import PLine  # noqa: E402

import geometry as geo  # noqa: E402
from spans import Tracer  # noqa: E402

if Path(glstar.__file__).resolve().parent != (SRC / "glstar").resolve():
    sys.exit(f"bench: imported glstar from {glstar.__file__}, not {SRC}")

# Set-ups timed before the first round, and the least time between two more
# set-ups timed between operations.  The host's speed drifts by some 20% over
# seconds to minutes; set-ups spread over the whole run see the same drift as
# the rounds.
SETUP_REPEATS = 3
SETUP_EVERY_S = 5.0

# Every REF_EVERY_S between operations the benchmark times a fixed reference
# kernel of its own, in the two kinds of work glstar's time goes to: small
# numpy calls in Python loops (set-up, single points) and passes over a
# 1.6 MB array (the batched search), about equal in time.  The drift slows
# the first kind more than the second.  Each timing metric is scaled by
# REF_NOMINAL_S over the run's median kernel time: the time the run would
# have taken on a host where the kernel takes REF_NOMINAL_S.  This takes out
# most of the host's drift between runs; the unscaled times are printed and
# recorded too.  The kernel's arrays add 3.3 MB to peak_rss_mb.
REF_EVERY_S = 0.4
REF_NOMINAL_S = 0.011
_REF_SMALL = np.random.default_rng(0).normal(size=(6, 6))
_REF_LARGE = np.random.default_rng(1).normal(size=(200, 1024))
_REF_OUT = np.empty_like(_REF_LARGE)
_now = time.perf_counter

# ---------------------------------------------------------------------------
# The star set


def build_stars():
    """The six acceptance stars and the off-centre (non-rotational) Clifford
    star.  builtin and parabola build sigma through tabulated inverses; the
    others are closed form."""
    quad = cons.pencil_from_mu(fns.as_fn1(
        lambda th: np.asarray(th) ** 2 * (2.0 / np.pi),
        domain=(0.0, np.pi / 2)))
    return {
        "clifford": cons.clifford(),
        "symmetric": cons.symmetric_star(fns.moebius01()),
        "fg": cons.fg_star(fns.power(2), fns.affine(1, -1), eps=-1),
        "builtin": cons.builtin_example(),
        "latitudinal": cons.latitudinal(quad),
        "parabola": cons.parabola_star(cons.example_parabola_sequence()),
        "clifford-off": cons.clifford((0.5, 0.0, 0.0)),
    }


def build_parallelisms():
    stars = build_stars()
    return stars, {name: par.make_parallelism(s) for name, s in stars.items()}


# Betten-Riesinger: 2 for the Clifford parallelism, 3 for every other
# rotational star.
EXPECTED_DIM = {"clifford": 2, "symmetric": 3, "fg": 3, "builtin": 3,
                "latitudinal": 3, "parabola": 3}


def vertical_chord_star():
    """(x, y, z) -> (x, y, -z): fixes the equator and leaves every point
    outside the cylinder x^2 + y^2 <= 1 uncovered."""
    flip = np.array([1.0, 1.0, -1.0])
    return glstar.GlStar(label="vertical-chord",
                         sigma_fn=lambda q: np.asarray(q, float) * flip)


# ---------------------------------------------------------------------------
# Operations and their bookkeeping


def reference_kernel():
    """Seconds the fixed reference work takes now (see REF_NOMINAL_S)."""
    start = _now()
    for _ in range(120):
        np.linalg.svd(_REF_SMALL[:4, :4])
        np.linalg.eigvalsh(_REF_SMALL @ _REF_SMALL.T)
        geo.plucker(_REF_SMALL[0, :4], _REF_SMALL[1, :4])
        x = 0
        for j in range(200):
            x += j * j
    for _ in range(8):
        np.multiply(_REF_LARGE, _REF_LARGE, out=_REF_OUT)
        np.add(_REF_OUT, 1.0, out=_REF_OUT)
        np.sqrt(_REF_OUT, out=_REF_OUT)
        _REF_OUT.sum(axis=1)
        np.argmin(_REF_OUT, axis=1)
    return _now() - start


class Between:
    """Work timed between two operations, spread over the whole run: a
    set-up every SETUP_EVERY_S and the reference kernel every REF_EVERY_S."""

    def __init__(self, workload, seed, setup_times):
        self.setup = lambda: setup_times.extend(
            timed_setup(workload, seed, 1)[0])
        self.ref_times = [reference_kernel()]
        self._setup_mark = self._ref_mark = _now()

    def __call__(self):
        if _now() - self._ref_mark >= REF_EVERY_S:
            self.ref_times.append(reference_kernel())
            self._ref_mark = _now()
        if _now() - self._setup_mark >= SETUP_EVERY_S:
            self.setup()
            self._setup_mark = _now()


class Run:
    """Operations of one phase of a run: latencies of the ones that
    completed, busy time per round, failures and output-check problems."""

    def __init__(self, tracer: Tracer | None = None, between=None):
        self.tracer = tracer
        self.between = between
        self.latencies = []
        self.round_busy = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.bytes_written = 0
        self._busy = 0.0
        self._reported = set()

    def op(self, name, fn, *args, known_fault=None, **kwargs):
        """Time one call of the program; returns (ok, result or exception).
        Every exception is a failed operation; any but ``known_fault`` is
        also a failed output check."""
        if self.between:
            self.between()
        self.attempted += 1
        start = _now()
        try:
            if self.tracer:
                result = self.tracer.span(name, fn, *args, **kwargs)
            else:
                result = fn(*args, **kwargs)
        except Exception as exc:
            self._busy += _now() - start
            self.failed += 1
            if known_fault is None or not isinstance(exc, known_fault):
                self.problems.append(f"{name} raised {type(exc).__name__}: "
                                     f"{exc}")
                key = (name, type(exc).__name__, str(exc)[:80])
                if key not in self._reported:
                    self._reported.add(key)
                    traceback.print_exc(file=sys.stderr)
            return False, exc
        elapsed = _now() - start
        self._busy += elapsed
        self.latencies.append(elapsed)
        return True, result

    def expect(self, condition, what):
        if not condition:
            self.problems.append(what)

    def measure(self, workload, state, seed, seconds, min_samples):
        """Whole rounds until both the time and the sample count are met."""
        start = _now()
        r = 0
        while True:
            before = self._busy
            workload.round(self, state, seed, r)
            self.round_busy.append(self._busy - before)
            r += 1
            if (_now() - start >= seconds
                    and len(self.latencies) >= min_samples):
                return


# ---------------------------------------------------------------------------
# verify-suite


# The checks' own sampling seed, the library default.  With other check seeds
# the coverage search misses star lines now and then (see CHANGES.md), which
# would fail runs on some benchmark seeds and not on others.
CHECK_SEED = 0


class VerifySuite:
    """Every applicable check at default sample counts and seed on each
    star, in seed-permuted order, with the library's own batching, plus the
    dimension and the known-bad inputs.  One operation is one check."""

    name = "verify-suite"
    tail_percentile = 85
    min_samples = 69

    def setup(self, seed):
        stars, pars = build_parallelisms()
        return stars, pars, vertical_chord_star()

    def round(self, run, state, seed, r):
        stars, pars, bad = state
        names = list(stars)
        order = np.random.default_rng([seed, r]).permutation(len(names))
        for name in (names[i] for i in order):
            star = stars[name]
            for check in ver.applicable_checks(star):
                ok, reps = run.op("check", ver.run_star_checks, star,
                                  checks=[check], seed=CHECK_SEED)
                if ok:
                    run.expect(reps[0].passed, f"{name}: {reps[0].render()}")
            P = pars[name]
            for fn, arg in ((par.check_zero_secants, P.hfd),
                            (par.check_hfd, P),
                            (par.check_torus_fixes_classes, P.es)):
                ok, rep = run.op("check", fn, arg, seed=CHECK_SEED)
                if ok:
                    run.expect(rep.passed, f"{name}: {rep.render()}")
            ok, dim = run.op("check", par.dim_parallelism, P.hfd,
                             seed=CHECK_SEED)
            if ok and name in EXPECTED_DIM:
                run.expect(dim == EXPECTED_DIM[name],
                           f"{name}: dim_parallelism {dim}, "
                           f"expected {EXPECTED_DIM[name]}")
        # Known-bad inputs: each check must be able to fail.  The flat map's
        # degenerate equator chords make the search divide by zero; those
        # warnings are expected here.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for check in ("coverage", "fixed_point_free"):
                ok, reps = run.op("check", ver.run_star_checks, bad,
                                  checks=[check], seed=CHECK_SEED)
                if ok:
                    run.expect(not reps[0].passed,
                               f"vertical-chord: {check} passed")
        ok, reps = run.op("check", ver.run_star_checks, stars["clifford-off"],
                          checks=["rotational"], seed=CHECK_SEED)
        if ok:
            run.expect(not reps[0].passed, "clifford-off: rotational passed")


# ---------------------------------------------------------------------------
# parallel-queries

# The reproduction of the class_from_hfd_line fault (see README), sent in
# every round to the stars where it fails with NotZeroSecant, and to
# clifford, where it succeeds and the closed form checks the answer.
FIXED_QUERY_FAILS = ("fg", "latitudinal", "clifford-off")
FIXED_QUERY_STARS = ("clifford", *FIXED_QUERY_FAILS)
FIXED_LINE = PLine(geo.plucker([1.0, 0.165440, 0.119572, -0.168525],
                               [1.0, -0.472403, 1.092162, -0.405832]))
FIXED_POINT = np.array([1.0, -0.037437, 0.588276, -0.462042])

# The same fault hits random lines whose class star line has t below about
# 0.0125 (or above 1 - 1e-6 on symmetric), on some (t, theta) and not on
# others: about 1 random line in 1000 on fg and latitudinal.  Such lines are
# left out of the seeded queries, so that the failed count does not depend on
# the seed; the fixed query keeps the fault in every round.
QUERY_T = (0.02, 0.98)


def seeded_query(P, rng, tracer):
    """L, the join of two normal points (the random-line model of
    check_hfd), drawn again while the star line of its class has t outside
    QUERY_T; a normal point p; a point x of L for the return query.  The
    class is looked up, untimed and untraced, with the parallelism's own
    search; a line with no or several star lines is kept, so that the query
    shows the fault."""
    while True:
        a, b = rng.normal(size=(2, 4))
        k = geo.plucker(a, b)
        with tracer.paused() if tracer else contextlib.nullcontext():
            hits = P.search.find(P.es.project_sphere_coords(k))
        if len(hits) != 1 or QUERY_T[0] <= hits[0].t <= QUERY_T[1]:
            break
    p, (u, v) = rng.normal(size=4), rng.normal(size=2)
    return PLine(k), p, u * a + v * b


def check_parallel(run, name, p, k_L, M):
    """Properties every answer must have, and the closed form on clifford."""
    k = M.p
    run.expect(geo.point_off_line(p, k) < 1e-8, f"{name}: answer misses p")
    run.expect(abs(geo.klein(k, k)) / float(k @ k) < 1e-12,
               f"{name}: answer off the Klein quadric")
    run.expect(abs(geo.klein(geo.unit(k), geo.unit(k_L))) > 1e-10,
               f"{name}: answer meets L")
    if name == "clifford":
        d = geo.line_distance(geo.clifford_parallel(p, k_L), k)
        run.expect(d < 1e-8, f"clifford: {d:.3g} from the quaternion parallel")


class ParallelQueries:
    """Closed loop, one caller: per star and round, the fixed query (on
    FIXED_QUERY_STARS), a seeded query and the return query through a
    point of L, each sent alone to parallel_through.  One operation is one
    query."""

    name = "parallel-queries"
    tail_percentile = 90
    min_samples = 100

    def setup(self, seed):
        return build_parallelisms()

    def round(self, run, state, seed, r):
        stars, pars = state
        rng = np.random.default_rng([seed, r])
        for name in stars:
            P = pars[name]
            if name in FIXED_QUERY_STARS:
                fault = NotZeroSecant if name in FIXED_QUERY_FAILS else None
                ok, M = run.op("query", par.parallel_through, P, FIXED_POINT,
                               FIXED_LINE, known_fault=fault)
                if ok:
                    check_parallel(run, name, FIXED_POINT, FIXED_LINE.p, M)
            L, p, x = seeded_query(P, rng, run.tracer)
            ok, M = run.op("query", par.parallel_through, P, p, L)
            if not ok:
                continue
            check_parallel(run, name, p, L.p, M)
            ok, back = run.op("query", par.parallel_through, P, x, M)
            if ok:
                d = geo.line_distance(back.p, L.p)
                run.expect(d < 1e-8, f"{name}: return query {d:.3g} from L")


# ---------------------------------------------------------------------------
# construct-export

# What each family's tags must say (criterion 7 of the acceptance suite).
EXPECTED_TAGS = {
    "clifford": {"rotational", "axial", "symmetric"},
    "symmetric": {"rotational", "symmetric"},
    "fg": {"rotational"},
    "builtin": {"rotational"},
    "latitudinal": {"rotational", "axial"},
    "parabola": {"rotational"},
    "clifford-off": set(),
}


def star_configs(seed):
    """JSON configs of the star set.  The quadratic arc map of the
    latitudinal star has no function kind, so it is tabulated at 33 knots."""
    seq = cons.example_parabola_sequence()
    knots = np.linspace(0.0, np.pi / 2, 33)
    phi = lambda r: {"kind": "phi_r", "r": r}  # noqa: E731
    configs = {
        "clifford": {"family": "clifford"},
        "symmetric": {"family": "symmetric", "a": {"kind": "moebius01"}},
        "fg": {"family": "fg", "f": {"kind": "power", "p": 2},
               "g": {"kind": "affine", "a": 1, "b": -1}, "eps": -1},
        "builtin": {"family": "param", "t": phi(1.5), "s": phi(2.0)},
        "latitudinal": {"family": "latitudinal", "mu": {
            "kind": "table", "knots": knots.tolist(),
            "values": (knots ** 2 * (2.0 / np.pi)).tolist()}},
        "parabola": {"family": "parabola", "parabolas": np.stack(
            [seq.alphas, seq.betas, seq.gammas], axis=1).tolist()},
        "clifford-off": {"family": "clifford", "center": [0.5, 0.0, 0.0]},
    }
    for c in configs.values():
        c["seed"] = seed
    return configs


def rejected_config():
    """symmetric with a(t) = 2t/sqrt(1-t^2), tabulated: the small-t limit of
    t^2(1+a^2)/a^2 is 1/4, not 1, so the paper's hypotheses reject it."""
    t = np.array([0.0, 1e-4, 1e-3, 1e-2, *np.linspace(0.05, 0.95, 19),
                  0.99, 0.9995])
    return {"family": "symmetric", "a": {
        "kind": "table", "knots": t.tolist(),
        "values": (2.0 * t / np.sqrt(1.0 - t * t)).tolist()}}


def cli_call(argv):
    """glstar.cli.main in process: (exit code, standard output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def command(run, op_name, argv, expect_code=0):
    """One CLI command; its output when it ran and exited as expected."""
    ok, result = run.op(op_name, cli_call, argv)
    if not ok:
        return None
    code, out = result
    run.expect(code == expect_code, f"{' '.join(argv)}: exit {code}, "
                                    f"expected {expect_code}: {out.strip()}")
    return out if code == expect_code else None


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.array([[float(v) for v in line.split(",")] for line in fh])
    return header, rows


def check_lines(run, name, rows, rotational):
    t, theta = rows[:, 0], rows[:, 1]
    q, m = rows[:, 2:5], rows[:, 5:8]
    run.expect(len(rows) == 512, f"{name}: {len(rows)} line rows, not 512")
    err = np.abs(q - geo.rotate_meridian(t, theta)).max()
    run.expect(err < 1e-12, f"{name}: first point {err:.3g} from R_theta p_t")
    for pts in (q, m):
        off = np.abs(np.linalg.norm(pts, axis=1) - 1.0).max()
        run.expect(off < 1e-12, f"{name}: endpoint {off:.3g} off the sphere")
    run.expect(np.linalg.norm(q - m, axis=1).min() > 0.05,
               f"{name}: a chord shorter than the fixed-point margin")
    if rotational:
        for tv in np.unique(t):
            sel = t == tv
            base = m[sel & (theta == 0.0)]
            if len(base) != 1:
                run.expect(False, f"{name}: no theta=0 row at t={tv}")
                continue
            err = np.abs(m[sel] - geo.rotate_z(base[0], theta[sel])).max()
            run.expect(err < 1e-9, f"{name}: rows at t={tv} are not "
                                   f"rotations of theta=0 ({err:.3g})")


def check_hfd_rows(run, name, hrows, lrows):
    """Each H-line lies in U, is g-orthogonal to the embedded chord exported
    for the same (t, theta), and carries a definite Klein form."""
    run.expect(len(hrows) == len(lrows) and np.array_equal(
        hrows[:, :2], lrows[:, :2]), f"{name}: hfd and line grids differ")
    margin = np.inf
    worst = 0.0
    for h, l in zip(hrows, lrows):
        span = np.vstack([h[2:8], h[8:14]])
        margin = min(margin, geo.definite_margin(span))
        chord = (geo.embed(np.r_[1.0, l[2:5]]), geo.embed(np.r_[1.0, l[5:8]]))
        worst = max(worst, max(abs(geo.klein(geo.unit(s), geo.unit(e)))
                               for s in span for e in chord))
        d = geo.DERIVED.T @ span.T  # derived coordinates; d5, d6 leave U
        worst = max(worst, float(np.abs(d[4:]).max() / np.abs(d).max()))
    run.expect(margin > 1e-6, f"{name}: an H-line is not definite "
                              f"(margin {margin:.3g})")
    run.expect(worst < 1e-9, f"{name}: an H-line is not the polar of its "
                             f"chord in U ({worst:.3g})")


def check_mesh(run, name, path):
    objects = []
    faces = []
    with open(path) as fh:
        for line in fh:
            tag, *vals = line.split()
            if tag == "o":
                objects.append([])
            elif tag == "v":
                objects[-1].append([float(v) for v in vals])
            elif tag == "f":
                faces.append([int(v) for v in vals])
    n_verts = sum(len(o) for o in objects)
    run.expect(objects and faces, f"{name}: empty mesh")
    f = np.array(faces)
    run.expect(f.min() >= 1 and f.max() <= n_verts,
               f"{name}: mesh face index out of range")
    for verts in objects:
        a, b, c2, res = geo.fit_revolution(np.array(verts))
        run.expect(res < 1e-9 and a > 0 and c2 > -1e-9,
                   f"{name}: mesh object is not a^2 r^2 = (z-b)^2 + c^2 "
                   f"(residual {res:.3g}, c^2 {c2:.3g})")


class ConstructExport:
    """Through glstar.cli.main: construct, then export --lines, --mesh
    (rotational stars) and --hfd for each config, and construct the
    rejected config.  One operation is one command."""

    name = "construct-export"
    tail_percentile = 75
    min_samples = 40

    def __init__(self):
        self.dir = OUT / "export"

    def setup(self, seed):
        """Write the configs and build each through the CLI's own parser and
        builder, which every command repeats."""
        self.dir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name, cfg in {**star_configs(seed),
                          "rejected": rejected_config()}.items():
            paths[name] = str(self.dir / f"{name}.json")
            text = json.dumps(cfg)
            with open(paths[name], "w") as fh:
                fh.write(text)
            if name != "rejected":
                cli.build_star(cli.parse_config(text))
        return paths

    def round(self, run, state, seed, r):
        paths = state
        names = list(EXPECTED_TAGS)
        order = np.random.default_rng([seed, r]).permutation(len(names))
        for name in (names[i] for i in order):
            cfg = ["--config", paths[name]]
            out = command(run, "cli.construct", ["construct", *cfg])
            if out is not None:
                tags = out.split("tags=")[-1].strip()
                got = set() if tags == "-" else set(tags.split(","))
                run.expect(out.startswith("OK ")
                           and got == EXPECTED_TAGS[name],
                           f"{name}: construct printed {out.strip()!r}")
            rotational = "rotational" in EXPECTED_TAGS[name]
            lines = self.dir / f"{name}-lines.csv"
            lrows = None
            if command(run, "cli.export_lines",
                       ["export", *cfg, "--lines", str(lines)]) is not None:
                run.bytes_written += lines.stat().st_size
                header, lrows = read_csv(lines)
                run.expect(header == ["t", "theta", "x1", "y1", "z1", "x2",
                                      "y2", "z2"], f"{name}: line header")
                check_lines(run, name, lrows, rotational)
            mesh = self.dir / f"{name}.obj"
            if rotational and command(run, "cli.export_mesh", [
                    "export", *cfg, "--mesh", str(mesh)]) is not None:
                run.bytes_written += mesh.stat().st_size
                check_mesh(run, name, mesh)
            hfd = self.dir / f"{name}-hfd.csv"
            if command(run, "cli.export_hfd",
                       ["export", *cfg, "--hfd", str(hfd)]) is not None:
                run.bytes_written += hfd.stat().st_size
                _, hrows = read_csv(hfd)
                if lrows is not None:
                    check_hfd_rows(run, name, hrows, lrows)
        out = command(run, "cli.construct",
                      ["construct", "--config", paths["rejected"]], 2)
        if out is not None:
            run.expect(out.startswith("CONSTRUCTION FAILED"),
                       f"rejected config printed {out.strip()!r}")


WORKLOADS = {w.name: w for w in (VerifySuite, ParallelQueries,
                                 ConstructExport)}

# ---------------------------------------------------------------------------
# Metrics

UNITS = {"setup_s": "s", "round_s": "s", "op_ms_p50": "ms",
         "op_ms_tail": "ms", "peak_rss_mb": "MiB"}


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass of each
    (i-1)/n..i/n step.  Latencies fall into modes (stars, search paths), and
    one order statistic jumps across the gaps between them from run to run;
    this weighted mean moves smoothly."""
    x = np.sort(np.asarray(values, float))
    n = x.size
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    u = np.linspace(0.0, 1.0, 20 * n + 1)
    with np.errstate(divide="ignore"):
        log_pdf = (a - 1.0) * np.log(u) + (b - 1.0) * np.log1p(-u)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate([[0.0], np.cumsum(pdf[1:] + pdf[:-1])])
    weights = np.diff(cdf[::20]) / cdf[-1]
    return float(weights @ x)


def end_to_end(workload, setup_times, run):
    return {
        "setup_s": statistics.median(setup_times),
        "round_s": statistics.fmean(run.round_busy),
        "op_ms_p50": 1e3 * quantile(run.latencies, 0.5),
        "op_ms_tail": 1e3 * quantile(run.latencies,
                                     workload.tail_percentile / 100.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


CHECKS = ("involution", "fixed_point_free", "no_exterior_meet", "coverage",
          "rotational", "axial", "symmetric")
PARALLELISM = ("make_parallelism", "check_hfd", "check_zero_secants",
               "check_torus_fixes_classes", "class_from_hfd_line",
               "spread_line_through")
SUBSPACE = ("projgeom.span", "projgeom.meet", "projgeom.polar",
            "projgeom.signature_on")

# name -> (unit, value from the span totals {name: [calls, n, useful,
# self seconds]} of one set-up plus one round).
PER_LAYER = {
    "constructions.build_s": ("s", lambda T: T["constructions.build"][3]),
    "verify.positive_root_count_calls":
        ("count", lambda T: T["verify.positive_root_count"][0]),
    "verify.positive_root_count_s":
        ("s", lambda T: T["verify.positive_root_count"][3]),
    "functions.inverse_solves": ("count", lambda T: T["functions.inverse"][0]),
    "functions.inverse_s": ("s", lambda T: T["functions.inverse"][3]),
    "star.sigma_calls": ("count", lambda T: T["star.sigma"][0]),
    "star.sigma_points": ("count", lambda T: T["star.sigma"][1]),
    "star.sigma_s": ("s", lambda T: T["star.sigma"][3]),
    "star.surface_mesh_s": ("s", lambda T: T["star.surface_mesh"][3]),
    "search.find_batch_calls": ("count", lambda T: T["search.find_batch"][0]),
    "search.points": ("count", lambda T: T["search.find_batch"][1]),
    "search.find_batch_s": ("s", lambda T: T["search.find_batch"][3]),
    "search.single_hit_ratio": ("ratio", lambda T: (
        T["search.find_batch"][2] / T["search.find_batch"][1]
        if T["search.find_batch"][1] else 0.0)),
    **{f"verify.{c}_s": ("s", lambda T, c=c: T[f"verify.{c}"][3])
       for c in CHECKS},
    **{f"parallelism.{f}_s": ("s", lambda T, f=f: T[f"parallelism.{f}"][3])
       for f in PARALLELISM},
    "parallelism.span_at_rows":
        ("count", lambda T: T["parallelism.span_at"][1]),
    "parallelism.span_at_s": ("s", lambda T: T["parallelism.span_at"][3]),
    "projgeom.subspace_span_calls": ("count", lambda T: T["projgeom.span"][0]),
    "projgeom.subspace_s": ("s", lambda T: sum(T[n][3] for n in SUBSPACE)),
    **{f"{c}_s": ("s", lambda T, c=c: T[c][3])
       for c in ("cli.construct", "cli.export_lines", "cli.export_mesh",
                 "cli.export_hfd")},
    "cli.bytes_written": ("B", lambda T: T["cli.bytes_written"][1]),
}


def per_layer(tracer, setup_end, run, base_run):
    """Values per one set-up (the spans before setup_end) plus one round
    (the rest, averaged over the traced rounds)."""
    rounds = len(run.round_busy)
    totals = defaultdict(lambda: [0, 0, 0, 0.0])
    for part, scale in ((tracer.layer_totals(0, setup_end), 1.0),
                        (tracer.layer_totals(setup_end), 1.0 / rounds)):
        for name, acc in part.items():
            totals[name] = [t + v * scale for t, v in zip(totals[name], acc)]
    totals["cli.bytes_written"][1] = run.bytes_written / rounds
    metrics = {name: (unit, float(fn(totals)))
               for name, (unit, fn) in PER_LAYER.items()}
    overhead = 100.0 * (statistics.median(run.round_busy)
                        / statistics.median(base_run.round_busy) - 1.0)
    metrics["trace.overhead_pct"] = ("%", overhead)
    return metrics


# ---------------------------------------------------------------------------


def timed_setup(workload, seed, repeats):
    times = []
    for _ in range(repeats):
        start = _now()
        state = workload.setup(seed)
        times.append(_now() - start)
    return times, state


def expected_names(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="FILE.jsonl",
                    help="also append the result, with workload and seed, "
                         "to this file (input of compare.py)")
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")
    OUT.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    setup_times, state = timed_setup(workload, args.seed, SETUP_REPEATS)
    if not args.trace:
        between = Between(workload, args.seed, setup_times)
        base = Run(between=between)
        base.measure(workload, state, args.seed, args.seconds,
                     workload.min_samples)
        unscaled = end_to_end(workload, setup_times, base)
        scale = REF_NOMINAL_S / statistics.median(between.ref_times)
        metrics = {n: (UNITS[n], v if UNITS[n] == "MiB" else v * scale)
                   for n, v in unscaled.items()}
        runs = [base]
    else:
        half = args.seconds / 2.0
        base = Run()
        base.measure(workload, state, args.seed, half, 1)
        tracer = Tracer()
        tracer.install()
        _, state = timed_setup(workload, args.seed, 1)
        setup_end = len(tracer.spans)
        traced = Run(tracer)
        traced.measure(workload, state, args.seed, half, 1)
        metrics = per_layer(tracer, setup_end, traced, base)
        unscaled = {}
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        runs = [base, traced]

    mismatch = expected_names(args.trace) ^ set(metrics)
    if mismatch:
        sys.exit(f"bench: metrics and BENCHMARK.json differ: "
                 f"{sorted(mismatch)}")
    problems = [p for r in runs for p in r.problems]
    for p in problems[:20]:
        print(f"bench: CHECK FAILED {p}", file=sys.stderr)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    rounds = sum(len(r.round_busy) for r in runs)
    print(f"{args.workload} seed={args.seed}: {len(setup_times)} set-ups, "
          f"{rounds} rounds, {attempted} operations attempted, "
          f"{failed} failed, {len(problems)} output checks failed")
    for name, (unit, value) in metrics.items():
        raw = (f" (unscaled {unscaled[name]:.6g})"
               if unscaled.get(name, value) != value else "")
        print(f"  {name} = {value:.6g} {unit}{raw}")
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {n: {"value": v, "unit": u}
                          for n, (u, v) in metrics.items()}}
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, **result,
                                 "unscaled": unscaled}) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
