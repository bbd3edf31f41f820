import numpy as np
import pytest

from glstar.constructions import (
    builtin_example,
    builtin_h_numerator_coeffs,
    clifford,
    fg_star,
    h_value,
    latitudinal,
    pencil_from_mu,
    symmetric_star,
)
from glstar.errors import InvalidInput
from glstar.functions import affine, as_fn1, moebius01, phi_r, power
from glstar.search import StarLineSearch
from glstar.star import GlStar, rotate_z
from glstar.verify import (
    check_axial,
    check_coverage,
    check_fixed_point_free,
    check_involution,
    check_no_exterior_meet,
    check_pz_monotone,
    check_rotational,
    check_symmetric,
    descartes_bound,
    exterior_samples,
    positive_root_count,
    run_star_checks,
)

BUILTIN = builtin_example()
SYMM = symmetric_star(moebius01())
LAT = latitudinal(pencil_from_mu(
    as_fn1(lambda th: np.asarray(th) ** 2 * (2 / np.pi),
           domain=(0.0, np.pi / 2))))
FG = fg_star(power(2), affine(1, -1), eps=-1)


def corrupted_involution_star():
    base = clifford()
    return GlStar("corrupted", lambda q: rotate_z(base.sigma(q), 0.01))


def exterior_center_star():
    """Chords re-aimed at an exterior point: pairs of its lines meet there."""
    c = np.array([1.5, 0.0, 0.0])

    def sig(q):
        q = np.atleast_2d(np.asarray(q, float))
        d = c[None, :] - q
        lam = 2.0 * (1.0 - q @ c) / np.sum(d * d, axis=1)
        out = q + lam[:, None] * d
        out /= np.linalg.norm(out, axis=1, keepdims=True)
        return out if np.asarray(q).ndim > 1 else out[0]

    return GlStar("exterior-center", sig)


# --- involution / fixed points -------------------------------------------------


def test_involution_clifford_exact():
    r = check_involution(clifford(), n=500)
    assert r.passed and r.max_residual < 1e-12 and r.witness is None


def test_involution_builtin():
    r = check_involution(BUILTIN, n=1000)
    assert r.passed and r.max_residual < 1e-9


def test_involution_corrupted_fails_with_witness():
    r = check_involution(corrupted_involution_star(), n=200)
    assert not r.passed and r.witness is not None


def test_fixed_point_free():
    r = check_fixed_point_free(clifford(), n=500)
    assert r.passed and np.isclose(r.max_residual, 2.0)
    assert check_fixed_point_free(BUILTIN, n=500).passed
    ident = GlStar("identity", lambda q: np.asarray(q, float))
    assert not check_fixed_point_free(ident, n=100).passed


# --- exterior meets -------------------------------------------------------------


def test_no_exterior_meet_clifford():
    # every pair meets at the origin: interior, so the check passes
    r = check_no_exterior_meet(clifford(), n_pairs=2000)
    assert r.passed


def test_no_exterior_meet_builtin():
    assert check_no_exterior_meet(BUILTIN, n_pairs=2000).passed


def test_no_exterior_meet_violation():
    r = check_no_exterior_meet(exterior_center_star(), n_pairs=500)
    assert not r.passed
    assert r.witness is not None
    # the witness meeting point is the exterior chord center (1.5, 0, 0)
    w = np.asarray(r.witness[3:])
    w = w / w[0]
    assert np.allclose(w[1:], [1.5, 0, 0], atol=1e-6)


# --- coverage --------------------------------------------------------------------


def test_coverage_clifford_single_line():
    star = clifford()
    search = StarLineSearch(star)
    hits = search.find(np.array([1.0, 2.0, 0.0, 0.0]))
    assert len(hits) == 1
    # the line is the x-axis
    k = hits[0].k / np.max(np.abs(hits[0].k))
    assert np.allclose(k, [1, 0, 0, 0, 0, 0], atol=1e-9)


def test_coverage_z_infinity_is_axis():
    # the z-direction at infinity lies on Z alone, despite the whole t=1
    # parameter edge mapping to that line
    from glstar.projgeom import projective_distance
    for star in (SYMM, BUILTIN):
        hits = StarLineSearch(star).find(np.array([0.0, 0.0, 0.0, 1.0]))
        assert len(hits) == 1
        assert projective_distance(hits[0].k, [0, 0, 1, 0, 0, 0]) < 1e-8


def test_coverage_check_passes():
    assert check_coverage(SYMM, n_points=100).passed


def test_exterior_samples_are_exterior():
    W = exterior_samples(100, seed=1)
    aff = W[W[:, 0] != 0]
    radii = np.linalg.norm(aff[:, 1:] / aff[:, :1], axis=1)
    assert np.all(radii >= 1.1) and np.all(radii <= 3.0)
    assert np.any(W[:, 0] == 0)


# --- symmetry classifiers ---------------------------------------------------------


def test_rotational_classifier():
    assert check_rotational(clifford((0, 0, 0.5)), n=100).passed
    assert not check_rotational(clifford((0.5, 0, 0)), n=100).passed
    assert check_rotational(BUILTIN, n=100).passed


def test_axial_classifier():
    assert check_axial(LAT, n=128).passed
    assert check_axial(clifford(), n=128).passed
    assert not check_axial(BUILTIN, n=128).passed
    assert not check_axial(SYMM, n=128).passed


def test_symmetric_classifier():
    assert check_symmetric(SYMM, n=128).passed
    assert check_symmetric(clifford(), n=128).passed
    assert not check_symmetric(BUILTIN, n=128).passed
    assert not check_symmetric(FG, n=128).passed
    assert not check_symmetric(LAT, n=128).passed


# --- root counting ----------------------------------------------------------------


def test_positive_root_count_polynomial():
    # (a-1)(a-2): two positive roots, given as coefficients and as a callable
    assert positive_root_count([1.0, -3.0, 2.0]) == 2
    assert positive_root_count(lambda a: (a - 1.0) * (a - 2.0)) == 2


def test_positive_root_count_no_roots():
    assert positive_root_count(lambda a: np.asarray(a) ** 2 + 1.0) == 0


def test_descartes_bound():
    assert descartes_bound([1.0, -3.0, 2.0]) == 2
    assert descartes_bound([2, 7, 8, 5.25, 3.25, -3, -1.5]) == 1
    assert descartes_bound([1.0, 0.0, 1.0]) == 0


def test_builtin_l_has_one_positive_root():
    coeffs = builtin_h_numerator_coeffs(1.0, 0.5)
    assert positive_root_count(coeffs) == 1
    # the h function itself at another admissible point
    fn = lambda a: h_value(phi_r(1.5), phi_r(2.0), 1.5, -0.3, a)
    assert positive_root_count(fn) == 1


# --- p_z monotonicity ---------------------------------------------------------------


def test_pz_monotone_builtin():
    r = check_pz_monotone(phi_r(1.5), phi_r(2.0))
    assert r.passed


def test_pz_monotone_z_above_one():
    r = check_pz_monotone(phi_r(1.5), phi_r(2.0), z_grid=[1.5])
    assert r.passed


def test_pz_monotone_symmetric():
    r = check_pz_monotone(phi_r(1.5), phi_r(1.5))
    assert r.passed


def test_pz_equivalence_with_root_count():
    # both formulations of the uniqueness condition hold for the example
    t_fn, s_fn = phi_r(1.5), phi_r(2.0)
    assert check_pz_monotone(t_fn, s_fn).passed
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(0.1, 2.0)
        z = rng.uniform(-0.95, 0.95)
        if z == 0 or x * x + z * z < 1.0:
            continue
        assert positive_root_count(
            lambda a: h_value(t_fn, s_fn, x, z, a)) <= 1


# --- suite runner -------------------------------------------------------------------


def test_run_star_checks_order_and_repeatability():
    reports1 = run_star_checks(SYMM, samples=80)
    reports2 = run_star_checks(SYMM, samples=80)
    assert [r.render() for r in reports1] == [r.render() for r in reports2]
    names = [r.name for r in reports1]
    assert names == ["involution", "fixed_point_free", "no_exterior_meet",
                     "coverage", "rotational", "symmetric"]


def test_run_star_checks_subset():
    reports = run_star_checks(BUILTIN, checks=["involution", "coverage"],
                              samples=60)
    assert [r.name for r in reports] == ["involution", "coverage"]


@pytest.mark.parametrize("kwargs", [
    {"samples": 0}, {"samples": -5}, {"tol": 0.0}, {"tol": -1e-9},
    {"tol": float("nan")}, {"tol": float("inf")},
])
def test_run_star_checks_rejects_bad_samples_and_tol(kwargs):
    with pytest.raises(InvalidInput):
        run_star_checks(SYMM, checks=["involution"], **kwargs)


def test_render_format():
    r = check_involution(clifford(), n=50)
    text = r.render()
    assert text.startswith("CHECK involution: PASS max_residual=")
    assert "samples=50" in text
