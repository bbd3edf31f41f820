"""Numerical property checkers for star axioms and symmetry classes.

Every check is deterministic for a fixed seed and returns a CheckReport.
Each check evaluates its whole sample set in one batched pass, so reports
are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvalError, InvalidInput
from .functions import bracket_roots
from .projgeom import (
    QuadricForm,
    join_batch,
    klein_form_batch,
    lines_meet_point,
    normalize,
)
from .search import StarLineSearch
from .star import GlStar, fibonacci_sphere, meridian_point, rotation_defect

_SPHERE = QuadricForm.unit_sphere()


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


# ---------------------------------------------------------------------------
# Star axiom checks


def check_involution(star: GlStar, n: int = 1000, tol: float = 1e-9) -> CheckReport:
    """max |sigma(sigma(q)) - q| over a Fibonacci sphere grid."""
    grid = fibonacci_sphere(n)
    res = np.linalg.norm(star.sigma(star.sigma(grid)) - grid, axis=-1)
    i = int(np.argmax(res))
    return CheckReport("involution", bool(res[i] < tol), float(res[i]),
                       tuple(grid[i]) if res[i] >= tol else None, n)


def check_fixed_point_free(star: GlStar, n: int = 1000,
                           threshold: float = 0.05) -> CheckReport:
    """min |sigma(q) - q| over the grid; must stay above the threshold.

    max_residual reports the margin (the minimum displacement)."""
    grid = fibonacci_sphere(n)
    disp = np.linalg.norm(star.sigma(grid) - grid, axis=-1)
    i = int(np.argmin(disp))
    return CheckReport("fixed_point_free", bool(disp[i] > threshold),
                       float(disp[i]),
                       tuple(grid[i]) if disp[i] <= threshold else None, n)


def check_no_exterior_meet(star: GlStar, n_pairs: int = 5000,
                           tol: float = 1e-8, seed: int = 0) -> CheckReport:
    """Sampled line pairs may only meet inside the sphere (or on it, at a
    shared sphere point).

    Pairs are flagged as meeting when their Klein pairing vanishes within
    tol times the product of norms; ``lines_meet_point`` finds the meeting
    points W of all flagged pairs in one closed-form pass.  A meet with
    sphere value W^T S W / |W|^2 above 0 is a violation unless it lies on
    the sphere (within 1e-6) at an endpoint of both chords.  The witness is
    the first pair whose value is within 1e-12 * max(1, largest) of the
    largest."""
    rng = np.random.default_rng(seed)
    t = rng.random(n_pairs)
    s = rng.random(n_pairs)
    th = rng.uniform(0.0, 2.0 * np.pi, n_pairs)
    A1, B1 = star.chord(t, np.zeros(n_pairs))
    A2, B2 = star.chord(s, th)
    K1 = join_batch(A1, B1)
    K2 = join_batch(A2, B2)
    g = klein_form_batch(K1, K2)
    norms = np.linalg.norm(K1, axis=1) * np.linalg.norm(K2, axis=1)
    flagged = np.nonzero((norms > 1e-12) & (np.abs(g) <= tol * norms))[0]
    pairs = flagged[~_same_line(K1[flagged], K2[flagged])]
    W, found = lines_meet_point((A1[pairs], B1[pairs]), (A2[pairs], B2[pairs]))
    pairs, W = pairs[found], W[found]
    W = W / np.linalg.norm(W, axis=1, keepdims=True)
    val = np.sum(W @ _SPHERE.matrix * W, axis=1)
    excused = (val <= 1e-6) & _near_shared_endpoint(
        W, (A1[pairs], B1[pairs]), (A2[pairs], B2[pairs]))
    bad = np.nonzero((val > 0.0) & ~excused)[0]
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
    c = np.abs(np.sum(K1 * K2, axis=-1)) / (np.linalg.norm(K1, axis=-1)
                                            * np.linalg.norm(K2, axis=-1))
    return 1.0 - np.minimum(c, 1.0) < tol


def _near_shared_endpoint(W, chord1, chord2, tol=1e-3):
    """Rows where the unit vector W is within tol (1 - |cos|) of an
    endpoint of each chord."""
    def near(P):
        c = np.abs(np.sum(W * P, axis=1)) / np.linalg.norm(P, axis=1)
        return 1.0 - np.minimum(c, 1.0) < tol

    return (near(chord1[0]) | near(chord1[1])) & (near(chord2[0])
                                                  | near(chord2[1]))


def exterior_samples(n: int, seed: int = 0, infinity_fraction: float = 0.1):
    """Homogeneous exterior points: an affine shell 1.1 <= |w| <= 3 plus a
    slice of points at infinity."""
    rng = np.random.default_rng(seed)
    n_inf = max(1, int(round(n * infinity_fraction)))
    n_aff = n - n_inf
    u = rng.normal(size=(n_aff, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = rng.uniform(1.1, 3.0, n_aff)
    W_aff = np.hstack([np.ones((n_aff, 1)), r[:, None] * u])
    v = rng.normal(size=(n_inf, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    W_inf = np.hstack([np.zeros((n_inf, 1)), v])
    return np.vstack([W_aff, W_inf])


def check_coverage(star: GlStar, n_points: int = 200, tol: float = 1e-8,
                   seed: int = 0) -> CheckReport:
    """Every sampled exterior point must lie on exactly one star line."""
    W = exterior_samples(n_points, seed=seed)
    hits = StarLineSearch(star).find_batch(W, tol=tol)
    counts = np.array([len(h) for h in hits])
    bad = np.nonzero(counts != 1)[0]
    max_res = max((h[0].residual for h in hits if h), default=0.0)
    if bad.size:
        i = int(bad[0])
        return CheckReport("coverage", False, float(counts[i]),
                           tuple(W[i]), n_points)
    return CheckReport("coverage", True, float(max_res), None, n_points)


def check_rotational(star: GlStar, n: int = 100, tol: float = 1e-9,
                     seed: int = 0) -> CheckReport:
    """sigma commutes with rotations about Z on random (theta, q)."""
    q, th, res = rotation_defect(star.sigma, n, seed)
    i = int(np.argmax(res))
    return CheckReport("rotational", bool(res[i] < tol), float(res[i]),
                       tuple(q[i]) + (float(th[i]),) if res[i] >= tol else None,
                       n)


def check_axial(star: GlStar, n: int = 256, tol: float = 1e-8) -> CheckReport:
    """(i) every sampled star line meets Z; (ii) the reflection about the
    plane y=0 commutes with sigma."""
    t = np.linspace(0.0, 1.0, n)
    A, B = star.chord(t, np.linspace(0.0, 2.0 * np.pi, n, endpoint=False))
    K = join_batch(A, B)
    kz = np.zeros(6)
    kz[2] = 1.0
    pair = np.abs(klein_form_batch(K, kz)) / np.linalg.norm(K, axis=1)
    grid = fibonacci_sphere(n)
    zeta = np.array([1.0, -1.0, 1.0])
    comm = np.linalg.norm(star.sigma(grid * zeta) - star.sigma(grid) * zeta,
                          axis=-1)
    res = max(float(np.max(pair)), float(np.max(comm)))
    if np.max(pair) >= np.max(comm):
        i = int(np.argmax(pair))
        witness = (float(t[i]),)
    else:
        i = int(np.argmax(comm))
        witness = tuple(grid[i])
    passed = res < tol
    return CheckReport("axial", bool(passed), res,
                       witness if not passed else None, n)


def check_symmetric(star: GlStar, n: int = 256, tol: float = 1e-8) -> CheckReport:
    """Heights satisfy z(sigma(p_t)) = -t along the meridian."""
    t = np.linspace(0.0, 1.0, n)
    m = star.sigma(meridian_point(t))
    res = np.abs(m[:, 2] + t)
    i = int(np.argmax(res))
    return CheckReport("symmetric", bool(res[i] < tol), float(res[i]),
                       (float(t[i]),) if res[i] >= tol else None, n)


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


def positive_root_count(fn, a_grid=None, refine_tol: float = 1e-12,
                        cluster_rtol: float = 1e-6, n_probes: int | None = None):
    """Count positive roots of scalar functions over a log-spaced grid.

    ``fn`` is a vectorized callable of a, or a descending polynomial
    coefficient sequence (then the grid count is checked against the
    Descartes bound); either is one probe and the count comes back as an
    int.  With ``n_probes``, ``fn(a, k)`` evaluates probe k at a (the index
    and point arrays broadcast together) and the counts of all probes come
    back as an int array.  The roots are located by ``bracket_roots``.
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
        a_grid = np.geomspace(1e-4, 1e4, 512)
    a_grid = np.asarray(a_grid, float)
    v = np.asarray(fn(a_grid[None, :], np.arange(n)[:, None]), float)
    k, _ = bracket_roots(fn, a_grid, np.broadcast_to(v, (n, a_grid.size)),
                         rtol=refine_tol, cluster_rtol=cluster_rtol)
    counts = np.bincount(k, minlength=n)
    if n_probes is not None:
        return counts
    count = int(counts[0])
    if bound is not None and count > bound:
        raise EvalError(
            f"grid root count {count} exceeds the Descartes bound {bound}")
    return count


def check_pz_monotone(t_fn, s_fn, z_grid=None, n_samples: int = 256,
                      tol: float = 1e-12) -> CheckReport:
    """The covering profile p_z(a) = (a^2+1)/a^2 (z - t(a))(z + s(a)) must be
    strictly decreasing on (0, a_z) for every z != 0, where a_z bounds the
    interval on which p_z is positive."""
    from .functions import as_fn1
    t_fn = as_fn1(t_fn, (0.0, np.inf))
    s_fn = as_fn1(s_fn, (0.0, np.inf))
    if z_grid is None:
        base = np.array([0.1, 0.3, 0.5, 0.7, 0.9, 1.2, 1.5])
        z_grid = np.concatenate([base, -base])
    worst = -np.inf
    witness = None
    total = 0
    for z in np.asarray(z_grid, float):
        if z == 0.0:
            continue
        if abs(z) >= 1.0:
            a_hi = 1e4
        elif z > 0.0:
            a_hi = float(t_fn.inverse(z)) * (1.0 - 1e-9)
        else:
            a_hi = float(s_fn.inverse(-z)) * (1.0 - 1e-9)
        a = np.geomspace(1e-4, a_hi, n_samples)
        vals = (a * a + 1.0) / (a * a) * (z - np.asarray(t_fn(a), float)) \
            * (z + np.asarray(s_fn(a), float))
        d = np.diff(vals)
        total += a.size
        i = int(np.argmax(d))
        if d[i] > worst:
            worst = float(d[i])
            witness = (float(z), float(a[i]))
    passed = worst < tol
    return CheckReport("pz_monotone", bool(passed), worst,
                       witness if not passed else None, total)


# ---------------------------------------------------------------------------
# Suite runner

GEOMETRY_CHECKS = ("involution", "fixed_point_free", "no_exterior_meet",
                   "coverage", "rotational", "axial", "symmetric")


def applicable_checks(star: GlStar):
    names = ["involution", "fixed_point_free", "no_exterior_meet", "coverage"]
    if "rotational" in star.tags:
        names.append("rotational")
    if "axial" in star.tags:
        names.append("axial")
    if "symmetric" in star.tags:
        names.append("symmetric")
    return names


def check_sampling(samples: int | None = None, tol: float | None = None,
                   seed: int | None = None):
    """Raise InvalidInput unless samples (when given) is at least 1, tol
    (when given) is finite and positive and seed (when given) is an
    integer of at least 0."""
    if samples is not None and samples < 1:
        raise InvalidInput(f"samples must be at least 1, got {samples}")
    if tol is not None and not (np.isfinite(tol) and tol > 0.0):
        raise InvalidInput(f"tol must be finite and positive, got {tol}")
    if seed is not None and not (isinstance(seed, (int, np.integer))
                                 and seed >= 0):
        raise InvalidInput(f"seed must be an integer of at least 0, got {seed}")


def run_star_checks(star: GlStar, checks=None, samples: int | None = None,
                    tol: float | None = None, seed: int = 0):
    """Run the named checks (default: all applicable ones) in a fixed order.

    ``samples`` and ``tol``, when given, replace every check's default."""
    check_sampling(samples, tol, seed)
    n = lambda default: default if samples is None else samples  # noqa: E731
    eps = lambda default: default if tol is None else tol  # noqa: E731
    names = list(checks) if checks else applicable_checks(star)
    reports = []
    for name in names:
        if name == "involution":
            reports.append(check_involution(star, n=n(1000), tol=eps(1e-9)))
        elif name == "fixed_point_free":
            reports.append(check_fixed_point_free(star, n=n(1000)))
        elif name == "no_exterior_meet":
            reports.append(check_no_exterior_meet(star, n_pairs=n(5000),
                                                  tol=eps(1e-8), seed=seed))
        elif name == "coverage":
            reports.append(check_coverage(star, n_points=n(200),
                                          tol=eps(1e-8), seed=seed))
        elif name == "rotational":
            reports.append(check_rotational(star, n=n(100), tol=eps(1e-9),
                                            seed=seed))
        elif name == "axial":
            reports.append(check_axial(star, n=n(256), tol=eps(1e-8)))
        elif name == "symmetric":
            reports.append(check_symmetric(star, n=n(256), tol=eps(1e-8)))
        else:
            raise InvalidInput(f"unknown check {name!r}")
    return reports
