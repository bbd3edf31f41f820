"""Batched evaluation gives the row-by-row results bit for bit, and the
batched root counter gives the counts of the one-probe form."""

from dataclasses import replace
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
    HfdLineSet,
    _h_line,
    _ratio,
    check_torus_fixes_classes,
    check_zero_secants,
    make_parallelism,
    torus_action,
)
from glstar.projgeom import row_norm
from glstar.star import RotationalSigma, meridian_point, rotate_z, rotation_defect
from glstar.verify import check_axial, positive_root_count


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
    """The H-line span of one star line: the H-line kernel of its chord in
    Python floats."""
    A, B = star.chord(np.array([t]), np.array([theta]))
    rows, _ = _h_line(A[0].tolist(), B[0].tolist())
    return np.array(rows)


def test_sigma_batch_equals_rows(seven_stars):
    # both hemispheres: the lower one inverts the meridian image height
    t, th = np.meshgrid(np.linspace(-1.0, 1.0, 33),
                        np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False),
                        indexing="ij")
    q = rotate_z(meridian_point(t.ravel()), th.ravel())
    for name, star in seven_stars.items():
        rows = np.array([star.sigma(q[i:i + 1])[0] for i in range(len(q))])
        np.testing.assert_array_equal(star.sigma(q), rows, err_msg=name)


def _sigma_by_hemisphere(sigma, Q):
    """A RotationalSigma of rows Q, scaled to unit length as sigma scales
    them, one meridian image per hemisphere: the upper rows by its upper
    kernel, the lower ones by t_of_z."""
    Q = Q / row_norm(Q)[:, None]
    out = np.empty_like(Q)
    upper = Q[:, 2] >= 0.0
    if upper.any():
        out[upper] = np.stack(sigma._upper(*Q[upper].T), axis=-1)
    if not upper.all():
        x, y, z = Q[~upper].T
        t = np.asarray(sigma._t_of_z(np.clip(z, -1.0, 1.0)), float)
        m = sigma._profile.meridian_image(t)
        q = rotate_z(meridian_point(t),
                     np.arctan2(y, x) - np.arctan2(m[:, 1], m[:, 0]))
        out[~upper] = q / row_norm(q)[:, None]
    return out


def test_sigma_in_one_pass_equals_each_hemisphere_alone(seven_stars):
    # one meridian image for both hemispheres gives each row its own
    # hemisphere's bits: mixed, all-upper, all-lower and one-point input
    t, th = np.meshgrid(np.linspace(-1.0, 1.0, 33),
                        np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False),
                        indexing="ij")
    q = rotate_z(meridian_point(t.ravel()), th.ravel())
    inputs = [q, q[q[:, 2] >= 0.0], q[q[:, 2] < 0.0], q[5:6], q[-5:-4],
              q[[3, -3]]]
    # latitudinal has a profile too, but a sigma of its own
    completed = {name: star for name, star in seven_stars.items()
                 if isinstance(star.sigma_fn, RotationalSigma)}
    assert sorted(completed) == ["builtin", "fg", "parabola", "symmetric"]
    for name, star in completed.items():
        for Q in inputs:
            np.testing.assert_array_equal(
                star.sigma(Q), _sigma_by_hemisphere(star.sigma_fn, Q),
                err_msg=name)


def _halves(star):
    """The star with a sigma that maps the two halves of each batch by two
    calls."""
    def sigma_fn(q):
        n = len(q) // 2
        return np.concatenate([star.sigma(q[:n]), star.sigma(q[n:])])

    return replace(star, sigma_fn=sigma_fn)


def test_stacked_sigma_calls_equal_two_calls(seven_stars):
    # rotation_defect and check_axial send their two sigma inputs as one
    # call, which gives what two calls give
    for name, star in seven_stars.items():
        for got, ref in zip(rotation_defect(star.sigma),
                            rotation_defect(_halves(star).sigma)):
            np.testing.assert_array_equal(got, ref, err_msg=name)
        assert check_axial(star) == check_axial(_halves(star)), name


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
    """Smallest eigenvalue ratio of the sampled H-lines, one span at a
    time in Python floats (the ratio kernel): (ratio, row).  The ratio is the
    smaller over the larger |eigenvalue| of the Gram, negative when their
    signs differ."""
    spans = hfd.samples(n, seed=seed)
    worst, witness = np.inf, None
    for i in range(n):
        ratio = _ratio(*spans[i].tolist())
        if ratio < worst:
            worst, witness = float(ratio), (i,)
    return worst, witness


def _torus_by_row(es, n=50, n_theta=16, seed=0):
    """Largest torus rejection, one angle and one span at a time:
    (rejection, (theta, row))."""
    spans = HfdLineSet(es).samples(n, seed=seed)
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
    assert len(calls) == 2
    a_grid = np.geomspace(1e-4, 1e4, 512)
    for fn, n_probes, counts in calls:
        assert counts.shape == (n_probes,)
        for k in range(n_probes):
            one = lambda a, k=k: fn(a, np.full(np.shape(a), k))  # noqa: E731
            assert positive_root_count(one) == counts[k]
            assert _root_count_by_bracket(one, a_grid) == counts[k]


def test_builds_refine_no_root_of_their_counts(monkeypatch):
    # every root of a valid star's probes is alone in its grid cell, away
    # from its neighbours: the counts need no refinement at all
    from glstar import functions, verify
    counts, inside, refined = [], [], []
    count_roots, illinois = functions.count_roots, functions._illinois

    def spy_count(*args, **kwargs):
        counts.append(True)
        inside.append(True)
        try:
            return count_roots(*args, **kwargs)
        finally:
            inside.pop()

    def spy_illinois(fn, lo, *args):
        if inside:
            refined.append(lo.size)
        return illinois(fn, lo, *args)

    monkeypatch.setattr(verify, "count_roots", spy_count)
    monkeypatch.setattr(functions, "_illinois", spy_illinois)
    builtin_example()
    parabola_star(example_parabola_sequence())
    assert len(counts) == 4
    assert refined == []


@pytest.mark.parametrize("build", [
    builtin_example,
    lambda: parabola_star(example_parabola_sequence()),
], ids=["builtin", "parabola"])
def test_builds_locate_no_root_of_their_counts(build, monkeypatch):
    # no probe of a valid star has two candidate roots that could merge, so
    # its root counts are the candidate counts and no root is located
    from glstar import functions, verify
    counts, located = [], []
    count_roots, candidates = functions.count_roots, functions._root_candidates

    def spy_count(*args, **kwargs):
        counts.append(count_roots(*args, **kwargs))
        return counts[-1]

    def spy_candidates(v):
        located.append(v.shape)
        return candidates(v)

    monkeypatch.setattr(verify, "count_roots", spy_count)
    monkeypatch.setattr(functions, "_root_candidates", spy_candidates)
    build()
    assert len(counts) == 2
    assert located == []


def test_batched_root_counts_synthetic():
    # a^2 + 1, a - 3 and (a - 0.5)(a - 5): no, one and two positive roots
    P = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, -3.0], [1.0, -5.5, 2.5]])
    counts = positive_root_count(lambda a, k: (P[k, 0] * a + P[k, 1]) * a
                                 + P[k, 2], n_probes=3)
    assert counts.tolist() == [0, 1, 2]
    assert [positive_root_count(row) for row in P] == [0, 1, 2]


def _illinois_brackets(rng, n):
    """n brackets of assorted functions fn(x, i): steep and flat cubics,
    a crawling flat stretch, infinite end values, a NaN hole, an end that
    is a root and a wiggle, whose secant points can rise above the end they
    replace (m <= 0: the kept end's value is halved); with their ends and
    end values."""
    r = rng.uniform(0.05, 0.95, n)
    s = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    kind = np.arange(n) % 7
    lo, hi = np.zeros(n), np.ones(n)
    lo[kind == 3], hi[kind == 3] = 0.0, 2.0
    lo[kind == 5] = r[kind == 5]

    def fn(x, i):
        x, k, ri, si = np.asarray(x, float), kind[i], r[i], s[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.select(
                [k == 0, k == 1, k == 2, k == 3, k == 4, k == 5],
                [si * (x - ri) ** 3,
                 si * (x - ri) ** 9 + 1e-300 * si,
                 np.where(x < ri, -1e-300, 0.8 * x - 0.8 * ri),
                 np.log(x) - np.log(2.0 - x) - si / 1e3,
                 np.where(np.abs(x - ri) < 0.01, np.nan, x - ri),
                 si * (x - ri)],
                si * (x - ri + 0.3 * np.sin(50.0 * x)))

    i = np.arange(n)
    return fn, lo, hi, fn(lo, i), fn(hi, i)


def _halved(values, fhi):
    """Whether a bracket's sequence of evaluations, from its upper end
    value fhi, ever keeps the sign of the end it replaces with no smaller
    value: m = 1 - fx / fb <= 0, where the kept end's value is halved."""
    fb = fhi
    for fx in values:
        if (fx < 0.0) == (fb < 0.0) and not 1.0 - fx / fb > 0.0:
            return True
        fb = fx
    return False


@pytest.mark.parametrize("rtol", [1e-12, 2e-15, 1e-15])
def test_one_bracket_equals_its_row_of_a_batch(rtol):
    # done brackets leave the batch, so a bracket refined alone, by the
    # batch's numpy steps or in Python floats by _illinois_one (as a
    # single-point search refines its root), gives its root the bits of
    # its row of a batch, also where a step falls back to halving
    from glstar.functions import _illinois, _illinois_one
    fn, lo, hi, flo, fhi = _illinois_brackets(np.random.default_rng(4), 245)
    batch = _illinois(fn, lo, hi, flo, fhi, rtol)
    opened = np.flatnonzero(np.sign(flo) * np.sign(fhi) < 0).tolist()
    with np.errstate(divide="ignore", invalid="ignore"):
        floats = [_illinois_one(
            lambda x, j=j: float(fn(np.array([x]), np.array([j]))[0]),
            *(float(v[j]) for v in (lo, hi, flo, fhi)), rtol) for j in opened]
    np.testing.assert_array_equal(batch[opened], floats)
    rows, halved = [], 0
    for j in range(lo.size):
        seen = []

        def row(x, i, j=j, seen=seen):
            v = fn(x, np.full(np.shape(i), j))
            seen.extend(np.ravel(v).tolist())
            return v

        rows.append(_illinois(row, lo[j:j + 1], hi[j:j + 1], flo[j:j + 1],
                              fhi[j:j + 1], rtol)[0])
        halved += j % 7 == 6 and _halved(seen, fhi[j])
    np.testing.assert_array_equal(batch, rows)
    assert halved > 0
