"""Acceptance suite: one criterion per test, one printed line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the report lines.
"""

import io
import time

import numpy as np
import pytest

from glstar.cli import cmd_verify, parse_config
from glstar.constructions import (
    builtin_example,
    builtin_h_denominator,
    builtin_h_numerator_coeffs,
    clifford,
    example_parabola_sequence,
    fg_star,
    h_value,
    latitudinal,
    parabola_star,
    param_star,
    pencil_from_mu,
    symmetric_star,
)
from glstar.functions import affine, as_fn1, identity, moebius01, neg_circle, phi_r, power
from glstar.parallelism import (
    check_hfd,
    check_torus_fixes_classes,
    check_zero_secants,
    class_from_hfd_line,
    dim_parallelism,
    make_parallelism,
    parallel_through,
    span_singular_values,
    spread_line_through,
    _hits_for_lines,
)
from glstar.projgeom import (
    QuadricForm,
    join,
    join_batch,
    klein_form,
    line_points,
    projective_distance,
    signature_on,
)
from glstar.verify import (
    check_axial,
    check_coverage,
    check_fixed_point_free,
    check_involution,
    check_no_exterior_meet,
    check_pz_monotone,
    check_rotational,
    check_symmetric,
    positive_root_count,
)

KLEIN = QuadricForm.klein()


def report(criterion: int, passed: bool, detail: str = "") -> bool:
    status = "PASS" if passed else "FAIL"
    print(f"CRITERION {criterion}: {status}" + (f" ({detail})" if detail else ""))
    return passed


@pytest.fixture(scope="module")
def stars():
    quad = pencil_from_mu(as_fn1(lambda th: np.asarray(th) ** 2 * (2 / np.pi),
                                 domain=(0.0, np.pi / 2)))
    return {
        "clifford": clifford(),
        "symmetric": symmetric_star(moebius01()),
        "fg": fg_star(power(2), affine(1, -1), eps=-1),
        "builtin": builtin_example(),
        "latitudinal": latitudinal(quad),
        "parabola": parabola_star(example_parabola_sequence()),
    }


@pytest.fixture(scope="module")
def parallelisms(stars):
    return {name: make_parallelism(star) for name, star in stars.items()}


def test_criterion_1_worked_example_identity():
    start = time.perf_counter()
    t_fn, s_fn = phi_r(1.5), phi_r(2.0)
    xs = np.linspace(0.1, 2.0, 10)
    zs = np.linspace(-0.9, 0.9, 11)
    zs = zs[zs != 0.0]
    aa = np.linspace(0.1, 10.0, 10)
    worst = 0.0
    for x in xs:
        for z in zs:
            l = np.polyval(builtin_h_numerator_coeffs(x, z), aa)
            h = h_value(t_fn, s_fn, x, z, aa)
            rel = np.max(np.abs(h * builtin_h_denominator(aa) - l)
                         / np.maximum(np.abs(l), 1e-300))
            worst = max(worst, float(rel))
    spot = float(h_value(t_fn, s_fn, 1.0, 0.5, 1.0))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-7 and np.isclose(spot, 21.0 / 40.0) and elapsed < 1.0
    assert report(1, ok, f"max_rel={worst:.3g} spot={spot} time={elapsed:.2f}s")


def test_criterion_2_root_counts():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    t_fn, s_fn = phi_r(1.5), phi_r(2.0)
    samples = []
    while len(samples) < 100:
        x = rng.uniform(0.05, 2.5)
        z = rng.uniform(-1.5, 1.5)
        if x > 0 and z != 0 and x * x + z * z >= 1.0:
            samples.append((x, z))
    counts_ok = all(
        positive_root_count(builtin_h_numerator_coeffs(x, z)) == 1
        for x, z in samples)
    pz = check_pz_monotone(t_fn, s_fn,
                           z_grid=sorted({round(z, 6) for _, z in samples}))
    elapsed = time.perf_counter() - start
    ok = counts_ok and pz.passed and elapsed < 5.0
    assert report(2, ok, f"counts_ok={counts_ok} pz={pz.passed} "
                         f"time={elapsed:.2f}s")


def test_criterion_3_axiom_suite(stars):
    start = time.perf_counter()
    failures = []
    for name, star in stars.items():
        inv = check_involution(star, n=1000, tol=1e-9)
        fpf = check_fixed_point_free(star, n=1000)
        ext = check_no_exterior_meet(star, n_pairs=5000)
        cov = check_coverage(star, n_points=200)
        if not (inv.passed and fpf.passed and fpf.max_residual > 0.1
                and ext.passed and cov.passed):
            failures.append((name, inv.passed, fpf.max_residual,
                             ext.passed, cov.passed))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    assert report(3, ok, f"stars={len(stars)} failures={failures} "
                         f"time={elapsed:.1f}s")


def test_criterion_4_degeneracy_identities():
    rng = np.random.default_rng(1)
    q = rng.normal(size=(500, 3))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    ref = clifford()
    s1 = symmetric_star(
        lambda t: t / np.sqrt(np.clip(1.0 - t * t, 1e-300, None)))
    r1 = float(np.max(np.linalg.norm(s1.sigma(q) - ref.sigma(q), axis=1)))
    s2 = fg_star(identity(), neg_circle())
    r2 = float(np.max(np.linalg.norm(s2.sigma(q) - ref.sigma(q), axis=1)))
    ag = np.geomspace(1e-3, 1e3, 512)
    t = phi_r(1.5)(ag)
    b = (ag * ag + 1.0) * (t - t) / 2.0
    param_star(phi_r(1.5), phi_r(1.5))  # builds cleanly
    b_max = float(np.max(np.abs(b)))
    ok = r1 < 1e-9 and r2 < 1e-9 and b_max < 1e-12
    assert report(4, ok, f"sym={r1:.2g} fg={r2:.2g} |b|={b_max:.2g}")


def test_criterion_5_klein_level(parallelisms):
    failures = []
    rng = np.random.default_rng(2)
    for name, par in parallelisms.items():
        zs = check_zero_secants(par.hfd, n=200)
        hfd_r = check_hfd(par, n=100)
        sig_ok = True
        for _ in range(20):
            h = par.hfd.span_at(np.array([rng.random()]),
                                rng.uniform(0, 2 * np.pi))[0]
            cls = class_from_hfd_line(h)
            if signature_on(KLEIN, cls.W) != (1, 3, 0):
                sig_ok = False
        Z = join((1, 0, 0, 0), (0, 0, 0, 1))
        cls = class_from_hfd_line(par.hfd.span_at(np.array([1.0]))[0])
        disjoint_ok = True
        for _ in range(100):
            p1, p2 = rng.normal(size=(2, 4))
            L1 = spread_line_through(cls, p1)
            L2 = spread_line_through(cls, p2)
            if projective_distance(L1.p, L2.p) < 1e-9:
                continue
            if abs(klein_form(L1, L2)) <= 1e-9 * np.linalg.norm(L1.p) \
                    * np.linalg.norm(L2.p):
                disjoint_ok = False
        if not (zs.passed and hfd_r.passed and sig_ok and disjoint_ok):
            failures.append((name, zs.passed, hfd_r.passed, sig_ok,
                             disjoint_ok))
    ok = not failures
    assert report(5, ok, f"failures={failures}")


def test_criterion_6_dimension(parallelisms):
    dims = {}
    gaps = {}
    for name, par in parallelisms.items():
        dims[name] = dim_parallelism(par.hfd, n=60)
        s = span_singular_values(par.hfd, n=60)
        r = dims[name] + 1
        gaps[name] = float(s[r - 1] / max(s[r], 1e-300)) if r < s.size \
            else np.inf
    ok = dims["clifford"] == 2 and all(
        dims[n] == 3 for n in dims if n != "clifford")
    ok = ok and all(g > 1e6 for g in gaps.values())
    assert report(6, ok, f"dims={dims} min_gap={min(gaps.values()):.2g}")


def test_criterion_7_symmetry_classifiers(stars):
    axial = {n: check_axial(s, n=256).passed for n, s in stars.items()}
    symm = {n: check_symmetric(s, n=256).passed for n, s in stars.items()}
    rot = {n: check_rotational(s, n=100).passed for n, s in stars.items()}
    off_axis = check_rotational(clifford((0.5, 0.0, 0.0)), n=100).passed
    ok = (axial == {"clifford": True, "symmetric": False, "fg": False,
                    "builtin": False, "latitudinal": True, "parabola": False}
          and symm == {"clifford": True, "symmetric": True, "fg": False,
                       "builtin": False, "latitudinal": False,
                       "parabola": False}
          and all(rot.values()) and not off_axis)
    assert report(7, ok, f"axial={axial} symmetric={symm} "
                         f"rotational_all={all(rot.values())} "
                         f"off_axis_fails={not off_axis}")


def test_criterion_8_torus_action(parallelisms):
    results = {name: check_torus_fixes_classes(par.es, n=50, n_theta=16)
               for name, par in parallelisms.items()}
    ok = all(r.passed for r in results.values())
    worst = max(r.max_residual for r in results.values())
    assert report(8, ok, f"max_residual={worst:.2g}")


def test_criterion_9_parallel_queries(parallelisms):
    start = time.perf_counter()
    failures = []
    for name, par in parallelisms.items():
        rng = np.random.default_rng(3)
        n = 100
        P = rng.normal(size=(n, 4))
        A = rng.normal(size=(n, 4))
        B = rng.normal(size=(n, 4))
        K = join_batch(A, B)
        hits = _hits_for_lines(par, K)
        if any(len(h) != 1 for h in hits):
            failures.append((name, "hfd"))
            continue
        dP = 1e-6 * rng.normal(size=(n, 4))
        K2 = join_batch(A + 1e-6 * rng.normal(size=(n, 4)),
                        B + 1e-6 * rng.normal(size=(n, 4)))
        hits2 = _hits_for_lines(par, K2)
        worst_contain = 0.0
        worst_move = 0.0
        class_ok = True
        for i in range(n):
            h = hits[i][0]
            cls = class_from_hfd_line(
                par.hfd.span_at(np.array([h.t]), h.theta)[0])
            L = spread_line_through(cls, P[i])
            a, b = line_points(L)
            span = np.vstack([a.coords, b.coords])
            rej = P[i] - span.T @ np.linalg.lstsq(span.T, P[i], rcond=None)[0]
            worst_contain = max(worst_contain,
                                float(np.linalg.norm(rej))
                                / float(np.linalg.norm(P[i])))
            if not cls.contains_klein(L.p, tol=1e-7):
                class_ok = False
            h2 = hits2[i][0]
            cls2 = class_from_hfd_line(
                par.hfd.span_at(np.array([h2.t]), h2.theta)[0])
            L2 = spread_line_through(cls2, P[i] + dP[i])
            worst_move = max(worst_move,
                             float(projective_distance(L.p, L2.p)))
        # p on L comes back unchanged
        Z = join((1, 0, 0, 0), (0, 0, 0, 1))
        echo = parallel_through(par, np.array([1.0, 0, 0, 0.25]), Z)
        echo_ok = projective_distance(echo.p, Z.p) < 1e-12
        if not (worst_contain < 1e-8 and class_ok and echo_ok
                and worst_move < 1e-4):
            failures.append((name, worst_contain, class_ok, echo_ok,
                             worst_move))
    elapsed = time.perf_counter() - start
    ok = not failures
    assert report(9, ok, f"failures={failures} time={elapsed:.1f}s")


def test_criterion_10_reproducibility():
    cfg1 = parse_config('{"family":"param","t":{"kind":"phi_r","r":1.5},'
                        '"s":{"kind":"phi_r","r":2.0},"seed":7}')
    cfg1.samples = 100
    out1, out2 = io.StringIO(), io.StringIO()
    code1 = cmd_verify(cfg1, out=out1)
    cfg2 = parse_config('{"family":"param","t":{"kind":"phi_r","r":1.5},'
                        '"s":{"kind":"phi_r","r":2.0},"seed":7}')
    cfg2.samples = 100
    code2 = cmd_verify(cfg2, out=out2)
    ok = code1 == code2 == 0 and out1.getvalue() == out2.getvalue() \
        and out1.getvalue().encode() == out2.getvalue().encode()
    assert report(10, ok, f"bytes={len(out1.getvalue().encode())}")
