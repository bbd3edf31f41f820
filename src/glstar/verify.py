"""Numerical property checkers for star axioms and symmetry classes.

Every check is deterministic for a fixed seed and returns a CheckReport.
Each check evaluates its whole sample set in one batched pass, so reports
are reproducible bit for bit; every sum over a row of coordinates goes
through ``projgeom.row_dot`` or ``row_norm``, numpy's bits at a fraction of
its cost per row.  ``_SUITE`` is the one table of the ten
checks (seven here, three Klein checks in ``parallelism``) in report order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvalError, InvalidInput
from .functions import as_fn1, count_roots
from .projgeom import (
    QuadricForm,
    join_batch,
    klein_form_batch,
    lines_meet_point,
    normalize,
    row_dot,
    row_norm,
)
from .search import LINE_TOL, StarLineSearch
from .star import (
    ROTATION_TOL,
    GlStar,
    fibonacci_sphere,
    meridian_point,
    rotation_defect,
)

_SPHERE = QuadricForm.unit_sphere()
# positive_root_count's default grid
_ROOT_GRID = np.geomspace(1e-4, 1e4, 512)
_ROOT_GRID.flags.writeable = False
# check_fixed_point_free's least displacement |sigma(q) - q|
_FIXED_POINT_MARGIN = 0.05
# check_pz_monotone's slopes a per height z
_PZ_SAMPLES = 256
# The largest tol a check takes: each known-bad star fails its check up to
# 1e-2, but at 0.1 two pass (involution 0.020, symmetric 0.026)
MAX_TOL = 1e-3


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    max_residual: float
    witness: tuple | None
    samples_used: int

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (f"CHECK {self.name}: {status} "
                f"max_residual={self.max_residual:.17g} "
                f"samples={self.samples_used}")
        if self.witness is not None:
            coords = ",".join(f"{v:.17g}" for v in np.ravel(self.witness))
            line += f" witness={coords}"
        return line


def _worst(name, values, passes, witness, n, pick=np.argmax):
    """The report of a check on sampled values.  The sample i that ``pick``
    names decides: the largest value by default, and a NaN before any other
    (np.argmax and np.argmin both name the first NaN).  The check passes when
    ``passes(values[i])``, what must hold, is True, which it never is on NaN;
    ``witness(i)`` is attached only when the check fails."""
    values = np.ravel(values)
    i = int(pick(values))
    passed = bool(passes(values[i]))
    return CheckReport(name, passed, float(values[i]),
                       None if passed else witness(i), n)


def _one_line_each(name, hits, points, n):
    """The report of a search check: each sampled point must lie on exactly
    one star line.  The first that does not is the witness, with its number
    of lines as max_residual; otherwise max_residual is the largest hit
    residual."""
    one = np.array([len(h) == 1 for h in hits])
    if not one.all():
        i = int(np.argmin(one))
        return CheckReport(name, False, float(len(hits[i])), tuple(points[i]),
                           n)
    return CheckReport(name, True, float(max((h[0].residual for h in hits),
                                             default=0.0)), None, n)


# ---------------------------------------------------------------------------
# Star axiom checks


def check_involution(star: GlStar, n: int = 1000, tol: float = 1e-9) -> CheckReport:
    """max |sigma(sigma(q)) - q| over a Fibonacci sphere grid.  sigma is
    applied again only to the finite images; a non-finite one is a NaN
    residual, which fails the check.  tol is absolute, on unit vectors."""
    check_sampling(n, tol)
    grid = fibonacci_sphere(n)
    image = star.sigma(grid)
    finite = np.all(np.isfinite(image), axis=1)
    res = np.full(n, np.nan)
    res[finite] = row_norm(star.sigma(image[finite]) - grid[finite])
    return _worst("involution", res, lambda r: r < tol,
                  lambda i: tuple(grid[i]), n)


def check_fixed_point_free(star: GlStar, n: int = 1000) -> CheckReport:
    """min |sigma(q) - q| over the grid; must stay above
    _FIXED_POINT_MARGIN (absolute, on unit vectors).

    max_residual reports the margin (the minimum displacement)."""
    check_sampling(n)
    grid = fibonacci_sphere(n)
    disp = row_norm(star.sigma(grid) - grid)
    return _worst("fixed_point_free", disp, lambda d: d > _FIXED_POINT_MARGIN,
                  lambda i: tuple(grid[i]), n, pick=np.argmin)


def check_no_exterior_meet(star: GlStar, n_pairs: int = 5000,
                           tol: float = 1e-8, seed: int = 0) -> CheckReport:
    """Sampled line pairs may only meet inside the sphere (or on it, at a
    shared sphere point).

    Every pair must have a finite Klein pairing: the first that does not
    is the witness (t, s, theta) and its pairing the max_residual.  Pairs
    are flagged as meeting when their Klein pairing vanishes within
    tol times |K1| |K2|, the product of their Plücker norms;
    ``lines_meet_point`` finds the meeting points W of all flagged pairs in
    one closed-form pass, from the Plücker vectors already at hand.  A meet
    with sphere value W^T S W / |W|^2 above 0 is a violation unless it lies
    on the sphere (value at most 1e-6) at an endpoint of both chords, which
    is tested on those meets alone.  The witness is the first pair whose
    value is within 1e-12 * max(1, largest) of the largest."""
    check_sampling(n_pairs, tol, seed)
    rng = np.random.default_rng(seed)
    t = rng.random(n_pairs)
    s = rng.random(n_pairs)
    th = rng.uniform(0.0, 2.0 * np.pi, n_pairs)
    A1, B1 = star.chord(t, np.zeros(n_pairs))
    A2, B2 = star.chord(s, th)
    K1 = join_batch(A1, B1)
    K2 = join_batch(A2, B2)
    g = klein_form_batch(K1, K2)
    finite = np.isfinite(g)
    if not finite.all():
        i = int(np.argmin(finite))
        return CheckReport("no_exterior_meet", False, float(g[i]),
                           (float(t[i]), float(s[i]), float(th[i])), n_pairs)
    norms = row_norm(K1) * row_norm(K2)
    flagged = np.nonzero((norms > 1e-12) & (np.abs(g) <= tol * norms))[0]
    pairs = flagged[~_same_line(K1[flagged], K2[flagged])]
    W, found = lines_meet_point(K1[pairs], K2[pairs])
    pairs, W = pairs[found], W[found]
    W = W / row_norm(W)[:, None]
    val = row_dot(W @ _SPHERE.matrix, W)
    bad = val > 0.0
    # a shared sphere point excuses a meet, tested on the meets near it only
    near = np.nonzero(bad & (val <= 1e-6))[0]
    i = pairs[near]
    bad[near] = ~_near_shared_endpoint(W[near], (A1[i], B1[i]), (A2[i], B2[i]))
    bad = np.nonzero(bad)[0]
    if bad.size == 0:
        return CheckReport("no_exterior_meet", True, 0.0, None, n_pairs)
    # values within rounding of the largest tie: the first of them is the
    # witness, however the meets were computed
    top = val[bad]
    j = bad[np.argmax(top >= top.max() - 1e-12 * max(1.0, top.max()))]
    i = pairs[j]
    witness = (float(t[i]), float(s[i]), float(th[i]),
               *(normalize(W[j]).coords + 0.0))  # + 0.0: no signed zeros
    return CheckReport("no_exterior_meet", False, float(val[j]), witness,
                       n_pairs)


def _same_line(K1, K2, tol=1e-9):
    """Rows where the Plücker vectors K1 and K2 are parallel within tol."""
    c = np.abs(row_dot(K1, K2)) / (row_norm(K1) * row_norm(K2))
    return 1.0 - np.minimum(c, 1.0) < tol


def _near_shared_endpoint(W, chord1, chord2, tol=1e-3):
    """Rows where the unit vector W is within tol (1 - |cos|) of an
    endpoint of each chord."""
    def near(P):
        c = np.abs(row_dot(W, P)) / row_norm(P)
        return 1.0 - np.minimum(c, 1.0) < tol

    return (near(chord1[0]) | near(chord1[1])) & (near(chord2[0])
                                                  | near(chord2[1]))


def exterior_samples(n: int, seed: int = 0):
    """Homogeneous exterior points: an affine shell 1.1 <= |w| <= 3 plus a
    tenth of them (at least one) at infinity."""
    rng = np.random.default_rng(seed)
    n_inf = max(1, int(round(n * 0.1)))
    n_aff = n - n_inf
    u = rng.normal(size=(n_aff, 3))
    u /= row_norm(u)[:, None]
    r = rng.uniform(1.1, 3.0, n_aff)
    W_aff = np.hstack([np.ones((n_aff, 1)), r[:, None] * u])
    v = rng.normal(size=(n_inf, 3))
    v /= row_norm(v)[:, None]
    W_inf = np.hstack([np.zeros((n_inf, 1)), v])
    return np.vstack([W_aff, W_inf])


def check_coverage(star: GlStar, n_points: int = 200,
                   tol: float = LINE_TOL, seed: int = 0) -> CheckReport:
    """Every sampled exterior point must lie on exactly one star line, to
    tol on the residual, the distance of w / |w| from it (relative to |w|)."""
    check_sampling(n_points, tol, seed)
    W = exterior_samples(n_points, seed=seed)
    return _one_line_each("coverage", StarLineSearch(star).find_batch(W, tol=tol),
                          W, n_points)


def check_rotational(star: GlStar, n: int = 100, tol: float = ROTATION_TOL,
                     seed: int = 0) -> CheckReport:
    """sigma commutes with rotations about Z on random (theta, q), to tol
    on |sigma(R q) - R sigma(q)|, absolute on unit vectors."""
    check_sampling(n, tol, seed)
    q, th, res = rotation_defect(star.sigma, n, seed)
    return _worst("rotational", res, lambda r: r < tol,
                  lambda i: tuple(q[i]) + (float(th[i]),), n)


def check_axial(star: GlStar, n: int = 256, tol: float = 1e-8) -> CheckReport:
    """(i) every sampled star line meets Z; (ii) the reflection about the
    plane y=0 commutes with sigma.  tol is relative to the Plücker norm |K|
    in (i), and absolute on unit vectors in (ii).  A tie between the two
    residuals goes to the line sample, whose witness is its t."""
    check_sampling(n, tol)
    t = np.linspace(0.0, 1.0, n)
    A, B = star.chord(t, np.linspace(0.0, 2.0 * np.pi, n, endpoint=False))
    K = join_batch(A, B)
    kz = np.zeros(6)
    kz[2] = 1.0
    # a chord with coincident endpoints has K = 0 and a NaN residual, which
    # fails the check
    with np.errstate(invalid="ignore"):
        pair = np.abs(klein_form_batch(K, kz)) / row_norm(K)
    grid = fibonacci_sphere(n)
    zeta = np.array([1.0, -1.0, 1.0])
    s = star.sigma(np.concatenate([grid * zeta, grid]))  # one call for both
    comm = row_norm(s[:n] - s[n:] * zeta)
    return _worst("axial", np.concatenate([pair, comm]), lambda r: r < tol,
                  lambda i: (float(t[i]),) if i < n else tuple(grid[i - n]), n)


def check_symmetric(star: GlStar, n: int = 256, tol: float = 1e-8) -> CheckReport:
    """Heights satisfy z(sigma(p_t)) = -t along the meridian, to tol,
    absolute on unit vectors."""
    check_sampling(n, tol)
    t = np.linspace(0.0, 1.0, n)
    m = star.sigma(meridian_point(t))
    return _worst("symmetric", np.abs(m[:, 2] + t), lambda r: r < tol,
                  lambda i: (float(t[i]),), n)


# ---------------------------------------------------------------------------
# Root counting


def descartes_bound(coeffs) -> int:
    """Sign changes of the coefficient sequence: an upper bound for the
    number of positive roots (Descartes)."""
    c = np.asarray(coeffs, float)
    c = c[c != 0.0]
    if c.size < 2:
        return 0
    return int(np.sum(np.diff(np.sign(c)) != 0))


def positive_root_count(fn, a_grid=None, n_probes: int | None = None):
    """Count positive roots of scalar functions over a log-spaced grid.

    ``fn`` is a vectorized callable of a, or a descending polynomial
    coefficient sequence (then the grid count is checked against the
    Descartes bound); either is one probe and the count comes back as an
    int.  With ``n_probes``, ``fn(a, k)`` evaluates probe k at a (the index
    and point arrays broadcast together) and the counts of all probes come
    back as an int array.  The counts are ``count_roots``': the roots
    ``bracket_roots`` would locate on the strictly increasing ``a_grid``,
    refining only the sign changes that could merge with a neighbour (on
    the default grid, a valid star refines none).
    """
    bound = None
    if n_probes is None:
        if not callable(fn):
            coeffs = np.asarray(fn, float)
            bound = descartes_bound(coeffs)
            one = lambda a: np.polyval(coeffs, np.asarray(a, float))
        else:
            one = fn
        fn = lambda a, k: np.asarray(one(np.ravel(a)), float).reshape(np.shape(a))
    n = 1 if n_probes is None else int(n_probes)
    if a_grid is None:
        a_grid = _ROOT_GRID
    a_grid = np.asarray(a_grid, float)
    if a_grid.ndim != 1 or not np.all(np.diff(a_grid) > 0.0):
        raise InvalidInput("a_grid must be a strictly increasing 1-d grid")
    v = np.asarray(fn(a_grid[None, :], np.arange(n)[:, None]), float)
    counts = count_roots(fn, a_grid, np.broadcast_to(v, (n, a_grid.size)))
    if n_probes is not None:
        return counts
    count = int(counts[0])
    if bound is not None and count > bound:
        raise EvalError(
            f"grid root count {count} exceeds the Descartes bound {bound}")
    return count


def check_pz_monotone(t_fn, s_fn, z_grid=None,
                      tol: float = 1e-12) -> CheckReport:
    """The covering profile p_z(a) = (a^2+1)/a^2 (z - t(a))(z + s(a)) must be
    strictly decreasing on (0, a_z) for every z != 0, where a_z bounds the
    interval on which p_z is positive.  All heights z are sampled in one
    (z, a) grid of _PZ_SAMPLES slopes each; each step of p_z along the
    grid must be below tol, absolute in p_z's own units."""
    t_fn = as_fn1(t_fn, (0.0, np.inf))
    s_fn = as_fn1(s_fn, (0.0, np.inf))
    if z_grid is None:
        base = np.array([0.1, 0.3, 0.5, 0.7, 0.9, 1.2, 1.5])
        z_grid = np.concatenate([base, -base])
    z = np.asarray(z_grid, float)
    z = z[z != 0.0]
    check_sampling(z.size)
    a_hi = np.full(z.shape, 1e4)
    up, down = (0.0 < z) & (z < 1.0), (-1.0 < z) & (z < 0.0)
    a_hi[up] = t_fn.inverse(z[up]) * (1.0 - 1e-9)
    a_hi[down] = s_fn.inverse(-z[down]) * (1.0 - 1e-9)
    a = np.geomspace(1e-4, a_hi, _PZ_SAMPLES, axis=1)
    zc = z[:, None]
    vals = (a * a + 1.0) / (a * a) * (zc - np.asarray(t_fn(a), float)) \
        * (zc + np.asarray(s_fn(a), float))
    d = np.diff(vals, axis=1)
    w = d.shape[1]
    return _worst("pz_monotone", d, lambda v: v < tol,
                  lambda i: (float(z[i // w]), float(a[i // w, i % w])), a.size)


# ---------------------------------------------------------------------------
# Suite runner

def _given(**kw):
    """The keyword arguments that are not None (the rest keep defaults)."""
    return {k: v for k, v in kw.items() if v is not None}


# The checks in report order, by name: the star tag each needs (None: any
# star), whether it is a Klein check (run on the star's parallelism P) and
# call(star or P, samples, tol, seed), which looks the check up on its
# module when it runs, so that a wrapper put on the attribute sees the call.
_SUITE = {
    "involution": (None, False, lambda s, n, tol, seed:
        check_involution(s, **_given(n=n, tol=tol))),
    "fixed_point_free": (None, False, lambda s, n, tol, seed:
        check_fixed_point_free(s, **_given(n=n))),
    "no_exterior_meet": (None, False, lambda s, n, tol, seed:
        check_no_exterior_meet(s, seed=seed, **_given(n_pairs=n, tol=tol))),
    "coverage": (None, False, lambda s, n, tol, seed:
        check_coverage(s, seed=seed, **_given(n_points=n, tol=tol))),
    "rotational": ("rotational", False, lambda s, n, tol, seed:
        check_rotational(s, seed=seed, **_given(n=n, tol=tol))),
    "axial": ("axial", False, lambda s, n, tol, seed:
        check_axial(s, **_given(n=n, tol=tol))),
    "symmetric": ("symmetric", False, lambda s, n, tol, seed:
        check_symmetric(s, **_given(n=n, tol=tol))),
    "zero_secants": (None, True, lambda P, n, tol, seed:
        _par.check_zero_secants(P.hfd, seed=seed, **_given(n=n))),
    "hfd": (None, True, lambda P, n, tol, seed:
        _par.check_hfd(P, seed=seed, **_given(n=n, tol=tol))),
    "torus_fixes_classes": (None, True, lambda P, n, tol, seed:
        _par.check_torus_fixes_classes(
            P.es, seed=seed, **_given(n=n, tol=tol))),
}
CHECKS = tuple(_SUITE)
KLEIN_CHECKS = tuple(k for k, (_, klein, _) in _SUITE.items() if klein)


def applicable_checks(star: GlStar):
    """The star checks (no Klein check) that apply to the star."""
    return [name for name, (tag, klein, _) in _SUITE.items()
            if not klein and (tag is None or tag in star.tags)]


def check_sampling(samples: int | None = None, tol: float | None = None,
                   seed: int | None = None):
    """Raise InvalidInput unless samples (when given) is at least 1, tol
    (when given) is positive and at most MAX_TOL and seed (when given) is
    an integer of at least 0."""
    if samples is not None and samples < 1:
        raise InvalidInput(f"samples must be at least 1, got {samples}")
    if tol is not None and not 0.0 < tol <= MAX_TOL:
        raise InvalidInput(f"tol must be positive and at most {MAX_TOL:g}, "
                           f"got {tol}")
    if seed is not None and not (isinstance(seed, (int, np.integer))
                                 and seed >= 0):
        raise InvalidInput(f"seed must be an integer of at least 0, got {seed}")


def run_star_checks(star: GlStar, checks=None, samples: int | None = None,
                    tol: float | None = None, seed: int = 0):
    """Run the named checks (default: the applicable star checks) in the
    order given; the Klein checks share one make_parallelism(star).

    ``samples`` and ``tol``, when given, replace every check's default."""
    check_sampling(samples, tol, seed)
    names = applicable_checks(star) if checks is None else list(checks)
    for name in names:
        if name not in _SUITE:
            raise InvalidInput(f"unknown check {name!r}")
    P = (_par.make_parallelism(star) if any(_SUITE[n][1] for n in names)
         else None)
    return [call(P if klein else star, samples, tol, seed)
            for _, klein, call in map(_SUITE.get, names)]


from . import parallelism as _par  # noqa: E402  (it imports this module)
