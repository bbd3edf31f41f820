"""A 50-digit oracle for ``parallel_through`` on the benchmark's seven stars,
and for sigma on its two eqn-path stars (builtin and parabola).

Each star's meridian map m(u) = sigma(p_t(u)) is modelled in mpmath from the
family's closed forms, with no float code of the library on the way:

- clifford: m = -p_t;
- symmetric(moebius01): the second sphere point of the right ruling through
  p_t of a^2 r^2 - z^2 = c^2, a = t / (1 - t), c^2 = a^2 - t^2 (1 + a^2);
- fg(t^2, t - 1, eps -1): m = (g, -sqrt(1 - f^2 - g^2), -f);
- builtin and parabola, in the slope u = a of H_a: a^2 r^2 - (z - b)^2 = c^2,
  with circle height t(a) (phi_{3/2}, or the root of the interpolated
  parabola's quadratic) and m the second sphere point of the right ruling
  through p_t;
- latitudinal: m = -(cos mu(beta), 0, sin mu(beta)) with beta = asin t and mu
  the config's piecewise-linear table;
- clifford-off: no meridian; the star line through w is w v (1, centre).

Sigma of an eqn-path star is measured on a fixed t grid: in the upper
hemisphere sigma(p_t) against m(a) with a the root of t(a) = t, and in the
lower hemisphere sigma of m(a) rounded to floats against p_t, the point it
is the image of.

The exact answer of a query (p, L) follows the library's steps in exact
arithmetic: w = the projection of L's Klein vector onto the star's 3-space,
the root u of w's covering condition by ``mp.findroot`` from the float hit,
theta, the chord's polar h within U, and the spread line through p of the
class of h.  The float hit only seeds the root.

    PYTHONPATH=src python tests/oracle.py --n 200 --seed 0

prints, per star, the largest and the 99th-percentile line distance (the
sine of the angle between Plücker vectors) of the library's answers from
the exact ones, over the pinned queries of ``tests/test_cli.py`` and n
seeded ones; then the same of sigma's distance from the exact image, for
builtin and parabola, on 2n upper and n lower points.
"""

from __future__ import annotations

import argparse
import json

import numpy as np
from mpmath import mp

from glstar import cli
from glstar.parallelism import _D, make_parallelism, parallel_through
from glstar.projgeom import PLine, join_batch
from glstar.star import meridian_point

DPS = 50


def _v(x):
    """Floats (exact values) as a list of mpf."""
    return [mp.mpf(float(v)) for v in np.ravel(x)]


def _dot(x, y):
    return mp.fsum(a * b for a, b in zip(x, y))


def _join(A, B):
    """Plücker vector of the points A, B of P^3 (projgeom.join_batch)."""
    return [A[0] * B[1] - A[1] * B[0], A[0] * B[2] - A[2] * B[0],
            A[0] * B[3] - A[3] * B[0], A[2] * B[3] - A[3] * B[2],
            A[3] * B[1] - A[1] * B[3], A[1] * B[2] - A[2] * B[1]]


def _dual_apply(k, p):
    """P*(k) p: the plucker_matrix of the swapped vector of k applied to p."""
    s = k[3:] + k[:3]
    M = [[0] * 4 for _ in range(4)]
    for v, (i, j) in zip(s, ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))):
        M[i][j], M[j][i] = v, -v
    return [_dot(row, p) for row in M]


def _orthonormal_complement(rows, dim):
    """An orthonormal basis of the complement of the span of rows in R^dim,
    by Gram-Schmidt over the rows and then the unit vectors."""
    basis = []
    for r in rows + [[mp.mpf(int(i == j)) for j in range(dim)]
                     for i in range(dim)]:
        for b in basis:
            c = _dot(r, b)
            r = [x - c * y for x, y in zip(r, b)]
        n = mp.sqrt(_dot(r, r))
        if n > mp.mpf(10) ** (-DPS // 2):
            basis.append([x / n for x in r])
    return basis[len(rows):]


def _rotate(q, theta):
    c, s = mp.cos(theta), mp.sin(theta)
    return [c * q[0] - s * q[1], s * q[0] + c * q[1], q[2]]


def _ruling_image(t, a, b, c):
    """The second sphere point of the right ruling through p_t of
    a^2 r^2 - (z - b)^2 = c^2: direction (t - b, c, a^2 x_t)."""
    p = [mp.sqrt(1 - t * t), mp.mpf(0), t]
    d = [t - b, c, a * a * p[0]]
    lam = -2 * _dot(p, d) / _dot(d, d)
    return [x + lam * y for x, y in zip(p, d)]


class MeridianModel:
    """A rotational star by its meridian chords p_t(u) v m(u); t_of and m_of
    take the chart parameter u, and u_of_t turns the float hit's t into a
    start for u."""

    def __init__(self, t_of, m_of, u_of_t=None):
        self.t_of, self.m_of = t_of, m_of
        self.u_of_t = u_of_t or (lambda star, t: t)

    def chord(self, u):
        t = self.t_of(u)
        return [1, mp.sqrt(1 - t * t), 0, t], [1, *self.m_of(u)]

    def covering(self, u, w):
        """Zero exactly when w lies on the chord's surface of revolution:
        the chord's point X at w's height has w's radius, read on the
        pencil of (w0, w3)."""
        A, B = self.chord(u)
        X = self._at_height(A, B, w)
        return ((X[1] ** 2 + X[2] ** 2) * (w[0] ** 2 + w[3] ** 2)
                - (w[1] ** 2 + w[2] ** 2) * (X[0] ** 2 + X[3] ** 2))

    @staticmethod
    def _at_height(A, B, w):
        u = B[3] * w[0] - B[0] * w[3]
        v = A[0] * w[3] - A[3] * w[0]
        return [u * x + v * y for x, y in zip(A, B)]

    def chord_through(self, star, hit, w):
        """The exact chord (A, B) through w near the float hit."""
        u0 = mp.mpf(self.u_of_t(star, hit.t))
        u = _bracketed_root(lambda u: self.covering(u, w), u0)
        A, B = self.chord(u)
        X = self._at_height(A, B, w)
        if not any(X):
            X = [x - y for x, y in zip(A, B)]
        s = mp.sign(w[0] * X[0] + w[3] * X[3]) or 1
        theta = mp.atan2(s * w[2], s * w[1]) - mp.atan2(X[2], X[1])
        return ([1, *_rotate(A[1:], theta)], [1, *_rotate(B[1:], theta)])


def _bracketed_root(f, u0):
    """The root of f next to u0: a sign change within 1e-12 relative of u0
    widened by factors of 16, then mp.findroot's Anderson-Björck solver."""
    step = mp.mpf("1e-12") * max(1, abs(u0))
    for _ in range(12):
        lo, hi = u0 - step, u0 + step
        if f(lo) * f(hi) <= 0:
            return mp.findroot(f, (lo, hi), solver="anderson")
        step *= 16
    raise ArithmeticError(f"no sign change of the covering condition "
                          f"near {u0}")


class CentreModel:
    """A Clifford star by its centre: the star line through w is w v c."""

    def __init__(self, centre):
        self.c = [1, *_v(centre)]

    def chord_through(self, star, hit, w):
        return w, self.c


def _phi(r):
    return lambda a: a * (a + r) / (a * a + r * a + r)


def _builtin_model():
    t_fn, s_fn = _phi(mp.mpf(1.5)), _phi(mp.mpf(2))

    def bc(a):
        t, s = t_fn(a), s_fn(a)
        b = (a * a + 1) * (t - s) / 2
        return b, mp.sqrt(a * a * (1 - t * t) - (t - b) ** 2)

    return _eqn_model(t_fn, bc)


def _interp(x, xp, fp):
    """np.interp in mp: linear between the knots, constant beyond."""
    if x <= xp[0]:
        return fp[0]
    if x >= xp[-1]:
        return fp[-1]
    i = max(j for j in range(len(xp) - 1) if xp[j] <= x)
    return fp[i] + (fp[i + 1] - fp[i]) * (x - xp[i]) / (xp[i + 1] - xp[i])


def _parabola_model(parabolas):
    al, be, ga = (_v(col) for col in zip(*parabolas))

    def bc(a):
        alpha = 1 / (a * a)
        beta = _interp(alpha, al[::-1], be[::-1])
        if alpha < al[-1]:
            gamma = ga[-1] * alpha / al[-1]
        else:
            gamma = max(_interp(alpha, al[::-1], ga[::-1]), 0)
        return beta, a * mp.sqrt(gamma)

    def t_fn(a):
        b, c = bc(a)
        rad = b * b + (a * a + 1) * (a * a - b * b - c * c)
        return (b + mp.sqrt(max(rad, 0))) / (a * a + 1)

    return _eqn_model(t_fn, bc)


def _eqn_model(t_fn, bc):
    """An eqn-family star in the chart u = a of its surfaces H_a."""
    def m_of(a):
        return _ruling_image(t_fn(a), a, *bc(a))

    def a_of_t(star, t):
        return float(star.profile.coefficients(np.array([t]))[0][0])

    return MeridianModel(t_fn, m_of, a_of_t)


def _symmetric_model():
    def m_of(t):
        a = t / (1 - t)
        c = mp.sqrt(max(a * a - t * t * (1 + a * a), 0))
        return _ruling_image(t, a, 0, c)

    return MeridianModel(lambda t: t, m_of)


def _fg_model():
    def m_of(t):
        f, g = t * t, t - 1
        return [g, -mp.sqrt(max(1 - f * f - g * g, 0)), -f]

    return MeridianModel(lambda t: t, m_of)


def _latitudinal_model(knots, values):
    k, v = _v(knots), _v(values)

    def m_of(t):
        mu = _interp(mp.asin(t), k, v)
        return [-mp.cos(mu), mp.mpf(0), -mp.sin(mu)]

    return MeridianModel(lambda t: t, m_of)


def star_configs():
    """The configs of the benchmark's seven stars: the star set of
    ``tests/test_cli.py``'s pinned reports and answers."""
    from test_cli import _star_set_configs
    return _star_set_configs()


def models():
    """{star name: model} for the seven stars of ``star_configs``."""
    cfgs = {name: json.loads(text) for name, text in star_configs().items()}
    lat = cfgs["latitudinal"]["mu"]
    return {
        "clifford": MeridianModel(lambda t: t,
                                  lambda t: [-mp.sqrt(1 - t * t), 0, -t]),
        "symmetric": _symmetric_model(),
        "fg": _fg_model(),
        "builtin": _builtin_model(),
        "latitudinal": _latitudinal_model(lat["knots"], lat["values"]),
        "parabola": _parabola_model(cfgs["parabola"]["parabolas"]),
        "clifford-off": CentreModel(cfgs["clifford-off"]["center"]),
    }


def exact_parallel(par, model, p, k):
    """The exact Plücker vector of the line through p parallel to the line
    k (floats taken as exact), on the star of par: a list of 6 mpf."""
    with mp.workdps(DPS):
        # _D is symmetric: project_sphere_coords' k @ _D_INV.T is _D k / 2
        D = [_v(row) for row in _D]
        kd = [_dot(row, _v(k)) / 2 for row in D]
        w = [kd[3], kd[0], kd[1], kd[2]]
        hits = par.search.find(np.array([float(x) for x in w]))
        if len(hits) != 1:
            raise ArithmeticError(f"{len(hits)} float hits")
        A, B = model.chord_through(par.star, hits[0], w)
        # polar within U: the null directions of the sphere-form pairing,
        # in the d-basis order (w1, w2, w3, w0), carried to R^6 by _D
        rows = [[P[1], P[2], P[3], -P[0]] for P in (A, B)]
        h = [[_dot(D[i][:4], n) for i in range(6)]
             for n in _orthonormal_complement(rows, 4)]
        pv = _v(p)
        return _swap(_join(_dual_apply(h[0], pv), _dual_apply(h[1], pv)))


def _swap(k):
    return k[3:] + k[:3]


def line_distance(k, exact) -> float:
    """|l - (l.e) e| for unit l along k and e along exact: the sine of the
    angle between them."""
    with mp.workdps(DPS):
        l = _v(k)
        nl, ne = mp.sqrt(_dot(l, l)), mp.sqrt(_dot(exact, exact))
        l = [x / nl for x in l]
        e = [x / ne for x in exact]
        c = _dot(l, e)
        r = [x - c * y for x, y in zip(l, e)]
        return float(mp.sqrt(_dot(r, r)))


def pinned_queries():
    """(p, k) of tests/test_cli.py's pinned parallel queries, parsed as the
    CLI parses them."""
    from test_cli import _parallel_queries
    return [(cli._parse_point(point), cli._parse_line(line).p)
            for line, point in _parallel_queries()]


def seeded_queries(n: int, seed: int):
    """(p, k): the join of two normal points and a normal point, as in the
    benchmark's random-line queries."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        a, b = rng.normal(size=(2, 4))
        out.append((rng.normal(size=4), join_batch(a, b)))
    return out


def star_parallelisms():
    """{star name: Parallelism} of the seven stars, built by the CLI."""
    return {name: make_parallelism(build_star(name))
            for name in star_configs()}


def build_star(name):
    """The star of ``star_configs()[name]``, built by the CLI."""
    return cli.build_star(cli.parse_config(star_configs()[name]))


def t_grid(n):
    """n evenly spaced t in the open interval (0, 1)."""
    return np.linspace(0.0, 1.0, n + 2)[1:-1]


def sigma_errors(star, model, t_upper, t_lower):
    """The distances of sigma(p_t) from the exact m(a) for t in t_upper, and
    of sigma(m(a) rounded to floats) from the exact p_t for t in t_lower, a
    the root of t(a) = t: two arrays.  For the eqn-path stars, whose model's
    chart u is the slope a."""
    def error(got, exact):
        d = [mp.mpf(float(g)) - e for g, e in zip(got, exact)]
        return float(mp.sqrt(_dot(d, d)))

    def image(t):
        """The exact m(a) of t."""
        a = _bracketed_root(lambda a: model.t_of(a) - t,
                            mp.mpf(model.u_of_t(star, t)))
        return model.m_of(a)

    with mp.workdps(DPS):
        upper = [error(star.sigma(meridian_point(t)), image(t))
                 for t in t_upper.tolist()]
        lower = [error(star.sigma(np.array([float(x) for x in image(t)])),
                       [mp.sqrt(1 - mp.mpf(t) ** 2), 0, t])
                 for t in t_lower.tolist()]
    return np.array(upper), np.array(lower)


def distances(par, model, queries):
    """The line distance of each answer of parallel_through from the exact
    answer."""
    return [line_distance(parallel_through(par, p, PLine(k)).p,
                          exact_parallel(par, model, p, k))
            for p, k in queries]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    queries = pinned_queries() + seeded_queries(args.n, args.seed)
    mods = models()
    rows = {}
    for name, par in star_parallelisms().items():
        d = np.array(distances(par, mods[name], queries))
        rows[name] = {"n": int(d.size), "max": float(d.max()),
                      "p99": float(np.quantile(d, 0.99))}
        print(f"{name:13s} n={d.size} max={d.max():.3g} "
              f"p99={np.quantile(d, 0.99):.3g}", flush=True)
    for name in ("builtin", "parabola"):
        for side, d in zip(("upper", "lower"), sigma_errors(
                build_star(name), mods[name], t_grid(2 * args.n),
                t_grid(args.n))):
            rows[f"{name} sigma {side}"] = {
                "n": int(d.size), "max": float(d.max()),
                "p99": float(np.quantile(d, 0.99))}
            print(f"{name} sigma {side}: n={d.size} max={d.max():.3g} "
                  f"p99={np.quantile(d, 0.99):.3g}", flush=True)
    print(json.dumps(rows))


if __name__ == "__main__":
    main()
