"""Batched evaluation gives the row-by-row results bit for bit, and the
batched root counter gives the counts of the one-probe form."""

from types import SimpleNamespace

import numpy as np
import pytest

from glstar import constructions
from glstar.cli import _line_rows
from glstar.constructions import (
    builtin_example,
    example_parabola_sequence,
    parabola_star,
)
from glstar.parallelism import (
    _D,
    _KLEIN,
    check_torus_fixes_classes,
    check_zero_secants,
    make_parallelism,
    star_to_hfd,
    torus_action,
)
from glstar.projgeom import _nullspace_rows
from glstar.star import meridian_point, rotate_z
from glstar.verify import positive_root_count

_S4 = np.diag([1.0, 1.0, 1.0, -1.0])


def _line_rows_by_row(star, n):
    """The export grid one sphere chord at a time."""
    n_theta = 16
    rows = []
    for t in np.linspace(0.0, 1.0, max(2, n // n_theta)):
        for th in np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False):
            q, m = star.sphere_chord(np.array([t]), np.array([th]))
            rows.append((t, th, *q[0], *m[0]))
    return np.array(rows)


def _span_by_row(star, t, theta):
    """The H-line span of one star line: the null directions of its 2x4
    pairing under diag(1, 1, 1, -1), carried into R^6."""
    A, B = star.chord(np.array([t]), np.array([theta]))
    d = [1, 2, 3, 0]
    ext = np.zeros((2, 6))
    ext[:, :4] = _nullspace_rows(np.vstack([A[0, d] @ _S4, B[0, d] @ _S4]))
    return ext @ _D.T


def test_sigma_batch_equals_rows(seven_stars):
    # both hemispheres: the lower one inverts the meridian image height
    t, th = np.meshgrid(np.linspace(-1.0, 1.0, 33),
                        np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False),
                        indexing="ij")
    q = rotate_z(meridian_point(t.ravel()), th.ravel())
    for name, star in seven_stars.items():
        rows = np.array([star.sigma(q[i:i + 1])[0] for i in range(len(q))])
        np.testing.assert_array_equal(star.sigma(q), rows, err_msg=name)


def test_line_rows_equal_rows(seven_stars):
    for name, star in seven_stars.items():
        np.testing.assert_array_equal(_line_rows(star, 512),
                                      _line_rows_by_row(star, 512),
                                      err_msg=name)


def test_span_at_batch_equals_rows(seven_stars):
    for name, star in seven_stars.items():
        rows = _line_rows(star, 512)
        spans = make_parallelism(star).hfd.span_at(rows[:, 0], rows[:, 1])
        ref = np.array([_span_by_row(star, t, th) for t, th in rows[:, :2]])
        np.testing.assert_array_equal(spans, ref, err_msg=name)


def _zero_secants_by_row(hfd, n=200, seed=0):
    """Smallest Gram margin of the sampled H-lines, one span at a time:
    (margin, row)."""
    spans = hfd.samples(n, seed=seed)
    worst, witness = np.inf, None
    for i in range(n):
        G = spans[i] @ _KLEIN.matrix @ spans[i].T
        disc = G[0, 1] ** 2 - G[0, 0] * G[1, 1]
        margin = -disc / max(np.abs(G).max() ** 2, 1e-300)
        if margin < worst:
            worst, witness = float(margin), (i,)
    return worst, witness


def _torus_by_row(es, n=50, n_theta=16, seed=0):
    """Largest torus rejection, one angle and one span at a time:
    (rejection, (theta, row))."""
    spans = star_to_hfd(es).samples(n, seed=seed)
    worst, witness = 0.0, None
    for theta in np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False):
        tau = torus_action(theta)
        for i in range(n):
            Q = spans[i] / np.linalg.norm(spans[i], axis=1, keepdims=True)
            mapped = Q @ tau.T
            rej = mapped - (mapped @ Q.T) @ Q
            r = float(np.linalg.norm(rej, axis=1).max())
            if r > worst:
                worst, witness = r, (float(theta), i)
    return worst, witness


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_klein_checks_equal_rows(seven_stars, seed):
    for name, star in seven_stars.items():
        P = make_parallelism(star)
        worst, _ = _zero_secants_by_row(P.hfd, seed=seed)
        r = check_zero_secants(P.hfd, seed=seed)
        assert r.passed and r.max_residual == worst, name
        worst, witness = _torus_by_row(P.es, seed=seed)
        r = check_torus_fixes_classes(P.es, seed=seed)
        assert r.passed and r.max_residual == worst, name
        # with tol 0 every rejection fails and the report names the worst
        r = check_torus_fixes_classes(P.es, seed=seed, tol=0.0)
        assert (r.max_residual, r.witness) == (worst, witness), name


def test_zero_secants_witness_equals_rows(seven_stars):
    # a 2-secant in every fifth row, all with the same margin: the first
    # of them is the witness
    P = make_parallelism(seven_stars["fg"])
    spans = P.hfd.samples(40, seed=2).copy()
    bad = np.array([[1.0, 0, 0, 0, 0, 0], [0, 0, 0, 1.0, 0, 0]])
    for i in range(3, 40, 5):
        spans[i] = bad * (1.0 + 0.1 * i)
    stub = SimpleNamespace(samples=lambda n, seed=0: spans[:n])
    r = check_zero_secants(stub, n=40)
    assert not r.passed
    assert (r.max_residual, r.witness) == _zero_secants_by_row(stub, n=40)


def _root_count_by_bracket(fn, a_grid, refine_tol=1e-12, cluster_rtol=1e-6):
    """One scalar bisection per sign-change bracket of one probe."""
    v = np.asarray(fn(a_grid), float)
    if not np.any(v):
        return 0
    roots = list(a_grid[v == 0.0])
    s = np.sign(v)
    for i in range(len(a_grid) - 1):
        if s[i] * s[i + 1] < 0:
            lo, hi, flo = a_grid[i], a_grid[i + 1], v[i]
            while hi - lo > refine_tol * max(1.0, hi):
                mid = 0.5 * (lo + hi)
                fm = float(np.asarray(fn(np.array([mid])))[0])
                if fm == 0.0:
                    lo = hi = mid
                    break
                if np.sign(fm) == np.sign(flo):
                    lo, flo = mid, fm
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
    roots.sort()
    count, last = 0, None
    for r in roots:
        if last is None or (r - last) > cluster_rtol * max(1.0, r):
            count += 1
        last = r
    return count


@pytest.mark.parametrize("build", [
    builtin_example,
    lambda: parabola_star(example_parabola_sequence()),
], ids=["builtin", "parabola"])
def test_batched_root_counts_equal_one_probe_counts(build, monkeypatch):
    calls = []

    def recording(fn, *args, **kwargs):
        counts = positive_root_count(fn, *args, **kwargs)
        calls.append((fn, kwargs["n_probes"], counts))
        return counts

    monkeypatch.setattr(constructions, "positive_root_count", recording)
    build()
    assert len(calls) == (3 if build is builtin_example else 2)
    a_grid = np.geomspace(1e-4, 1e4, 512)
    for fn, n_probes, counts in calls:
        assert counts.shape == (n_probes,)
        for k in range(n_probes):
            one = lambda a, k=k: fn(a, np.full(np.shape(a), k))  # noqa: E731
            assert positive_root_count(one) == counts[k]
            assert _root_count_by_bracket(one, a_grid) == counts[k]


def test_batched_root_counts_synthetic():
    # a^2 + 1, a - 3 and (a - 0.5)(a - 5): no, one and two positive roots
    P = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, -3.0], [1.0, -5.5, 2.5]])
    counts = positive_root_count(lambda a, k: (P[k, 0] * a + P[k, 1]) * a
                                 + P[k, 2], n_probes=3)
    assert counts.tolist() == [0, 1, 2]
    assert [positive_root_count(row) for row in P] == [0, 1, 2]
