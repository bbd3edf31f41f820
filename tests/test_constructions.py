import numpy as np
import pytest

from glstar import constructions
from glstar.constructions import (
    ParabolaSeq,
    builtin_example,
    builtin_h_denominator,
    builtin_h_numerator_coeffs,
    clifford,
    eqn_star,
    example_parabola_sequence,
    fg_star,
    h_value,
    latitudinal,
    omega,
    omega_inv,
    parabola_star,
    param_star,
    pencil_from_mu,
    symmetric_star,
)
from glstar.errors import ConditionFailed, InvalidCenter, InvalidInput
from glstar.functions import (
    affine,
    as_fn1,
    identity,
    moebius01,
    neg_circle,
    phi_r,
    power,
    table,
)
from glstar.star import meridian_point
from glstar.verify import check_axial, descartes_bound


def sphere_samples(n, seed=0):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(n, 3))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


# --- clifford ----------------------------------------------------------------


def test_clifford_origin_antipodal():
    star = clifford()
    assert np.allclose(star.sigma(np.array([0.0, 0.0, 1.0])), [0, 0, -1])
    q = sphere_samples(50)
    assert np.max(np.linalg.norm(star.sigma(q) + q, axis=1)) < 1e-12


def test_clifford_shifted_center():
    star = clifford((0, 0, 0.5))
    # same line Z through the poles
    assert np.allclose(star.sigma(np.array([0.0, 0.0, 1.0])), [0, 0, -1])
    # chord from (1,0,0) through (0,0,0.5) exits at (-0.6, 0, 0.8)
    assert np.allclose(star.sigma(np.array([1.0, 0.0, 0.0])), [-0.6, 0, 0.8])


def test_clifford_center_validation():
    with pytest.raises(InvalidCenter):
        clifford((1.0, 0.0, 0.0))
    with pytest.raises(InvalidCenter):
        clifford((0.8, 0.8, 0.0))


def test_clifford_tags():
    assert set(clifford().tags) == {"rotational", "axial", "symmetric"}
    assert set(clifford((0, 0, 0.3)).tags) == {"rotational", "axial"}
    assert clifford((0.5, 0, 0)).tags == ()


# --- symmetric ---------------------------------------------------------------


def test_symmetric_moebius_c_squared():
    star = symmetric_star(moebius01())
    t = np.linspace(0.05, 0.9, 40)
    # c(t)^2 = 2 t^3 / (1 - t), worked out from a = t/(1-t)
    assert np.allclose(star.profile.coefficients(t)[2] ** 2,
                       2 * t ** 3 / (1 - t), atol=1e-12)
    assert np.isclose(star.profile.coefficients(np.array([0.5]))[2][0] ** 2,
                      0.5)


def test_symmetric_height_mirror():
    star = symmetric_star(moebius01())
    t = np.linspace(0.0, 1.0, 100)
    m = star.sigma(meridian_point(t))
    assert np.max(np.abs(m[:, 2] + t)) < 1e-12


def test_symmetric_degenerate_is_clifford():
    fn = lambda t: t / np.sqrt(np.clip(1.0 - t * t, 1e-300, None))
    star = symmetric_star(fn)
    q = sphere_samples(500)
    ref = clifford()
    assert np.max(np.linalg.norm(star.sigma(q) - ref.sigma(q), axis=1)) < 1e-9


def test_symmetric_rejects_wrong_limit():
    fn = lambda t: 2.0 * t / np.sqrt(np.clip(1.0 - t * t, 1e-300, None))
    with pytest.raises(ConditionFailed, match=r"\(2\)"):
        symmetric_star(fn)


def test_symmetric_rejects_condition_one():
    # a(t) = t^2/(1-t) is below t/sqrt(1-t^2) for small t: c^2 < 0
    fn = lambda t: t * t / (1.0 - t)
    with pytest.raises(ConditionFailed):
        symmetric_star(fn)


# --- fg ----------------------------------------------------------------------


def test_fg_example_value():
    star = fg_star(power(2), affine(1, -1), eps=-1)
    got = star.sigma(meridian_point(0.5))
    assert np.allclose(got, [-0.5, -np.sqrt(0.6875), -0.25], atol=1e-12)


def test_fg_identity_circle_is_clifford():
    star = fg_star(identity(), neg_circle())
    q = sphere_samples(500, seed=3)
    ref = clifford()
    assert np.max(np.linalg.norm(star.sigma(q) - ref.sigma(q), axis=1)) < 1e-9


def test_fg_rejects_bad_boundary():
    with pytest.raises(ConditionFailed):
        fg_star(power(2), affine(0.5, -1))  # g(1) = -1/2 != 0


def test_fg_rejects_eps_switch_in_strict_interval():
    eps = lambda t: np.where(np.asarray(t) < 0.5, -1.0, 1.0)
    with pytest.raises(ConditionFailed, match="eps"):
        fg_star(power(2), affine(1, -1), eps=eps)


def test_fg_rejects_non_monotone_g():
    g = lambda t: -1.0 + t - 0.2 * np.sin(6.0 * np.asarray(t))
    with pytest.raises(ConditionFailed):
        fg_star(identity(), g)


# --- eqn ---------------------------------------------------------------------


def test_eqn_matches_symmetric_profiles():
    m = moebius01()

    def c_of_a(a):
        a = np.asarray(a, float)
        t = m.inverse(a)  # t = a/(1+a)
        return np.sqrt(np.clip(a * a - t * t * (1.0 + a * a), 0.0, None))

    star = eqn_star(lambda a: np.zeros_like(np.asarray(a, float)), c_of_a)
    ref = symmetric_star(m)
    t = np.linspace(0.05, 0.95, 30)
    a, _, c = star.profile.coefficients(t)
    a_ref, _, c_ref = ref.profile.coefficients(t)
    assert np.allclose(a, a_ref, atol=1e-9)
    assert np.allclose(c, c_ref, atol=1e-9)
    assert "symmetric" in star.tags


def test_eqn_axial_star():
    star = eqn_star(lambda a: 0.3 * np.asarray(a) / (1.0 + np.asarray(a)),
                    lambda a: np.zeros_like(np.asarray(a, float)),
                    extra_tags=("axial",))
    assert check_axial(star, n=64).passed


def test_eqn_condition_one_accepts_half():
    # b = c = a/2 passes (1) (b^2+c^2 = a^2/2 < a^2) but fails the c/a limit
    half = lambda a: np.asarray(a, float) / 2.0
    ag = np.geomspace(1e-3, 1e3, 100)
    assert np.all(half(ag) ** 2 + half(ag) ** 2 < ag * ag)
    with pytest.raises(ConditionFailed, match=r"\(2\)"):
        eqn_star(half, half)


def test_eqn_rejects_condition_one():
    with pytest.raises(ConditionFailed, match=r"\(1\)"):
        eqn_star(lambda a: np.asarray(a, float),
                 lambda a: np.zeros_like(np.asarray(a, float)))


def test_eqn_rejects_circle_point_on_two_surfaces():
    # the first of the circle probes that lies on more than one H_a
    a = lambda a: np.asarray(a, float)  # noqa: E731
    with pytest.raises(ConditionFailed) as err:
        eqn_star(lambda x: -0.6 * a(x) ** 2 / (1 + a(x)) ** 2,
                 lambda x: 0.5 * a(x) ** 2 / np.sqrt(1 + a(x) ** 2))
    assert str(err.value) == (
        "(3): circle point lies on 2 surfaces H_a, expected 1 (witness: "
        "(0.49875629765019475, -0.8667422659327687))")


def test_eqn_rejects_exterior_point_on_two_surfaces():
    # the first exterior probe, x-major, on more than one H_a
    a = lambda a: np.asarray(a, float)  # noqa: E731
    wave = lambda x: np.sin(0.44 * np.log(a(x)) + 1.53)  # noqa: E731
    with pytest.raises(ConditionFailed) as err:
        eqn_star(lambda x: 0.6 * a(x) ** 4 / (1 + a(x) ** 3) / (1 + a(x))
                 * (1 + 0.8 * wave(x)),
                 lambda x: 0.25 * a(x) ** 2 / np.sqrt(1 + a(x) ** 2)
                 * (1 + 0.5 * np.cos(0.44 * np.log(a(x)))))
    assert str(err.value) == ("(4): exterior point lies on 2 surfaces H_a "
                              "(witness: (0.15, 1.0714285714285714))")


# --- param -------------------------------------------------------------------


def test_param_builtin_coefficients():
    star = builtin_example()
    # at a = 1: t = 0.625, s = 0.6, b = 0.025, c^2 = 0.249375
    a, b, c = star.profile.coefficients(np.array([0.625]))
    assert np.isclose(a[0], 1.0, atol=1e-9)  # a(t) inverse sanity: t(1) = 0.625
    assert np.isclose(b[0], 0.025, atol=1e-12)
    assert np.isclose(c[0] ** 2, 0.249375, atol=1e-12)


def test_param_symmetric_when_equal():
    star = param_star(phi_r(1.5), phi_r(1.5))
    ag = np.geomspace(1e-3, 1e3, 200)
    t = phi_r(1.5)(ag)
    b = (ag * ag + 1.0) * (t - t) / 2.0
    assert np.max(np.abs(b)) == 0.0
    assert "symmetric" in star.tags


def test_param_inequality_at_one():
    # a=1: lhs = 0.5 - 0.375 = 0.125, rhs = 2 * 0.0125^2 = 0.0003125
    t, s = phi_r(1.5)(1.0), phi_r(2.0)(1.0)
    lhs = 0.5 - t * s
    rhs = 2.0 * ((t - s) / 2.0) ** 2
    assert np.isclose(lhs, 0.125) and np.isclose(rhs, 0.0003125)
    assert lhs >= rhs


def test_eqn_probe_counts_are_pinned(monkeypatch):
    # hypotheses (3) and (4) of builtin and parabola: every circle probe
    # and every exterior probe lies on exactly one surface H_a (param_star
    # counts the exterior roots of h_{x,z} before delegating to eqn_star)
    from glstar import verify
    counts = []

    def recording(*args, **kwargs):
        counts.append(verify.positive_root_count(*args, **kwargs))
        return counts[-1]

    monkeypatch.setattr(constructions, "positive_root_count", recording)
    builtin_example()
    parabola_star(example_parabola_sequence())
    assert [c.size for c in counts] == [130, 32, 130, 32, 130]
    assert all(np.all(c == 1) for c in counts)


def test_symmetric_rejects_the_tabulated_wrong_limit():
    # a(t) = 2t / sqrt(1 - t^2) tabulated: t^2 (1 + a^2) / a^2 -> 1/4
    t = np.array([0.0, 1e-4, 1e-3, 1e-2, *np.linspace(0.05, 0.95, 19),
                  0.99, 0.9995])
    with pytest.raises(ConditionFailed) as err:
        symmetric_star(table(t, 2.0 * t / np.sqrt(1.0 - t * t)))
    assert str(err.value) == ("(2): t^2(1+a^2)/a^2 = 0.250075 at t=0.01, "
                              "not within 5% of 1 (witness: 0.01)")


def test_param_rejects_non_homeomorphism():
    with pytest.raises(ConditionFailed):
        param_star(phi_r(1.5), as_fn1(lambda a: 0.5 * np.tanh(a),
                                      domain=(0.0, np.inf)))


# --- built-in example identities ----------------------------------------------


def test_builtin_h_spot_value():
    assert np.isclose(h_value(phi_r(1.5), phi_r(2.0), 1.0, 0.5, 1.0), 0.525)
    assert np.isclose(0.525, 21.0 / 40.0)


def test_builtin_numerator_identity_grid():
    t_fn, s_fn = phi_r(1.5), phi_r(2.0)
    xs = np.linspace(0.1, 2.0, 10)
    zs = np.linspace(-0.9, 0.9, 11)
    zs = zs[zs != 0.0]
    aa = np.linspace(0.1, 10.0, 10)
    worst = 0.0
    for x in xs:
        for z in zs:
            coeffs = builtin_h_numerator_coeffs(x, z)
            l = np.polyval(coeffs, aa)
            h = h_value(t_fn, s_fn, x, z, aa)
            rel = np.max(np.abs(h * builtin_h_denominator(aa) - l)
                         / np.maximum(np.abs(l), 1e-12))
            worst = max(worst, rel)
    assert worst < 1e-7


def test_builtin_descartes_signs():
    coeffs = builtin_h_numerator_coeffs(1.0, 0.5)
    assert np.allclose(coeffs, [2, 7, 8, 5.25, 3.25, -3, -1.5])
    assert descartes_bound(coeffs) == 1


# --- pencils and latitudinal stars ---------------------------------------------


def quad_pencil():
    return pencil_from_mu(as_fn1(lambda th: np.asarray(th) ** 2 * (2 / np.pi),
                                 domain=(0.0, np.pi / 2)))


def test_pencil_antipodal_diameters():
    pen = pencil_from_mu(identity(domain=(0.0, np.pi / 2)))
    beta = np.linspace(0, 2 * np.pi, 50, endpoint=False)
    out = pen.sigma1_angle(beta)
    d = np.mod(out - beta, 2 * np.pi)
    assert np.max(np.abs(d - np.pi)) < 1e-12


def test_pencil_involution_and_commutation():
    # sample away from the quadrant endpoints: this mu has a flat spot at 0,
    # so sigma1 is continuous there but not Lipschitz
    pen = quad_pencil()
    beta = np.linspace(0.001, 2 * np.pi - 0.001, 200)
    out = pen.sigma1_angle(pen.sigma1_angle(beta))
    assert np.max(np.abs(np.mod(out - beta + np.pi, 2 * np.pi) - np.pi)) < 1e-9
    # commutes with the reflection (x,z) -> (-x,z): beta -> pi - beta
    left = pen.sigma1_angle(np.mod(np.pi - beta, 2 * np.pi))
    right = np.mod(np.pi - pen.sigma1_angle(beta), 2 * np.pi)
    assert np.max(np.abs(np.mod(left - right + np.pi, 2 * np.pi) - np.pi)) < 1e-9


def test_pencil_separation_property():
    pen = quad_pencil()
    rng = np.random.default_rng(0)
    for _ in range(100):
        b1, b2 = rng.uniform(0, 2 * np.pi, 2)
        s1 = pen.sigma1_angle(b1)
        s2 = pen.sigma1_angle(b2)
        # (b1, s1) separates (b2, s2): exactly one of b2, s2 in the arc (b1, s1)
        lo, hi = sorted((b1, s1))
        inside = [lo < x < hi for x in (b2, s2)]
        assert inside[0] != inside[1]


def test_pencil_rejects_orientation_reversal():
    with pytest.raises(ConditionFailed):
        pencil_from_mu(as_fn1(lambda th: np.pi / 2 - np.asarray(th),
                              domain=(0.0, np.pi / 2)))


def test_latitudinal_diameters_is_clifford():
    star = latitudinal(pencil_from_mu(identity(domain=(0.0, np.pi / 2))))
    q = sphere_samples(200, seed=5)
    assert np.max(np.linalg.norm(star.sigma(q) + q, axis=1)) < 1e-9


def test_latitudinal_meridian_matches_pencil():
    pen = quad_pencil()
    star = latitudinal(pen)
    t = np.linspace(0.0, 1.0, 50)
    m = star.sigma(meridian_point(t))
    beta2 = pen.sigma1_angle(np.arcsin(t))
    assert np.max(np.abs(m[:, 0] - np.cos(beta2))) < 1e-12
    assert np.max(np.abs(m[:, 1])) < 1e-12
    assert np.max(np.abs(m[:, 2] - np.sin(beta2))) < 1e-12


def test_latitudinal_axial():
    star = latitudinal(quad_pencil())
    assert check_axial(star, n=64).passed
    assert set(star.tags) == {"rotational", "axial"}


def test_latitudinal_profile_has_no_hyperboloid():
    # every line meets Z, so every surface of the fitted profile is a cone
    # (or an end): the fit's c^2 is rounding noise that must read as 0
    prof = latitudinal(quad_pencil()).profile
    kinds = {prof.entry_at(float(t)).kind for t in np.linspace(0.0, 1.0, 1001)}
    assert kinds <= {"cone", "horizontal_star", "axis"}


# --- parabola sequences ---------------------------------------------------------


def test_omega_examples():
    assert omega(1.0, 0.0) == (0.0, 1.0)
    u, v = omega(np.sqrt(3) / 2, 0.5)
    assert np.isclose(u, 0.5) and np.isclose(v, 0.75)
    x, y, z = omega_inv(0.5, 0.75)
    assert np.isclose(x, np.sqrt(0.75)) and y == 0.0 and z == 0.5


def test_omega_round_trip():
    u, v = omega(0.8, -0.3)
    x, _, z = omega_inv(u, v)
    assert np.isclose(x, 0.8) and np.isclose(z, -0.3)
    with pytest.raises(InvalidInput):
        omega_inv(0.0, -1.0)


def test_parabola_seq_validation():
    with pytest.raises(ConditionFailed, match=r"\(1\)"):
        ParabolaSeq(np.array([1.0, 4.0]), np.zeros(2), np.zeros(2))
    with pytest.raises(ConditionFailed):
        ParabolaSeq(np.array([4.0, 1.0]), np.zeros(2), np.array([0.0, -0.1]))


def test_parabola_star_requires_origin_vertex():
    seq = ParabolaSeq(np.array([16.0, 1.0]), np.array([0.1, 0.0]),
                      np.array([0.0, 0.0]))
    with pytest.raises(ConditionFailed, match="completion"):
        parabola_star(seq)


def test_parabola_star_rejects_missing_arc():
    # second parabola floats above the arc: no intersection
    seq = ParabolaSeq(np.array([4.0, 1.0]), np.zeros(2), np.array([0.0, 2.0]))
    with pytest.raises(ConditionFailed, match=r"\(3\)"):
        parabola_star(seq)


def test_parabola_star_rejects_broken_nesting():
    # second arc crossing inside the first: heights on the circle decrease
    seq = ParabolaSeq(np.array([16.0, 4.0]), np.array([0.0, 0.8]),
                      np.array([0.0, 0.1]))
    with pytest.raises(ConditionFailed, match=r"\(3\)"):
        parabola_star(seq)


def test_example_sequence_matches_builtin_at_knots():
    seq = example_parabola_sequence()
    assert len(seq) == 13
    star = parabola_star(seq)
    # a = 1 is a knot: interpolation is exact there
    _, b, c = star.profile.coefficients(np.array([0.625]))
    assert np.isclose(b[0], 0.025, atol=1e-12)
    assert np.isclose(c[0] ** 2, 0.249375, atol=1e-12)


def test_parabola_refinement_approaches_builtin():
    t_fn, s_fn = phi_r(1.5), phi_r(2.0)

    def seq_at(a):
        tv, sv = t_fn(a), s_fn(a)
        b = (a * a + 1.0) * (tv - sv) / 2.0
        c2 = a * a - (a * a + 1.0) * (((tv + sv) / 2.0) ** 2
                                      + a * a * ((tv - sv) / 2.0) ** 2)
        al = 1.0 / (a * a)
        be = b.copy()
        ga = np.clip(c2, 0.0, None) / (a * a)
        be[0] = 0.0
        ga[0] = 0.0
        return ParabolaSeq(al, be, ga)

    coarse = seq_at(2.0 ** np.arange(-6, 7).astype(float))
    fine = seq_at(2.0 ** (np.arange(-12, 13) / 2.0))
    probe = np.geomspace(2.0 ** -4, 2.0 ** 4, 100)
    b_true = (probe ** 2 + 1.0) * (t_fn(probe) - s_fn(probe)) / 2.0

    def b_err(seq):
        return np.max(np.abs(seq.coefficients_at(probe)[1] - b_true))

    assert b_err(fine) < b_err(coarse)
    assert b_err(fine) < 5e-3


def test_interpolated_vertex_bound():
    # vertex of (1-t) p_i + t p_{i+1} is a weighted mean of the beta's
    seq = example_parabola_sequence()
    for i in (4, 6, 8):
        a0, b0, g0 = seq.alphas[i], seq.betas[i], seq.gammas[i]
        a1, b1, g1 = seq.alphas[i + 1], seq.betas[i + 1], seq.gammas[i + 1]
        for t in (0.25, 0.5, 0.75):
            alpha = (1 - t) * a0 + t * a1
            lin = (1 - t) * a0 * b0 + t * a1 * b1
            vertex_u = lin / alpha
            assert min(b0, b1) - 1e-12 <= vertex_u <= max(b0, b1) + 1e-12


def test_parabola_completion_tails():
    seq = example_parabola_sequence()
    # below the smallest slope: exact origin cones (b = 0, gamma = 0)
    al, be, ga = seq.coefficients_at(np.array([2.0 ** -8]))
    assert be[0] == 0.0 and ga[0] == 0.0
    # beyond the largest slope: beta frozen, gamma scaled in proportion
    a_hi = np.array([2.0 ** 8])
    al, be, ga = seq.coefficients_at(a_hi)
    assert np.isclose(be[0], seq.betas[-1])
    assert np.isclose(ga[0], seq.gammas[-1] * (1.0 / a_hi[0] ** 2)
                      / seq.alphas[-1])


# --- cross-family invariants -----------------------------------------------------


def _profile_stars():
    return [
        symmetric_star(moebius01()),
        fg_star(power(2), affine(1, -1), eps=-1),
        builtin_example(),
        latitudinal(quad_pencil()),
        parabola_star(example_parabola_sequence()),
    ]


def test_meridian_chords_lie_on_profile_surfaces():
    from glstar.star import meridian_point
    for star in _profile_stars():
        prof = star.profile
        for t in np.linspace(0.05, 0.95, 19):
            entry = prof.entry_at(float(t))
            q, m = star.sphere_chord(np.array([t]))
            for pt in (q[0], m[0]):
                assert abs(entry.residual(pt)[0]) < 1e-8, (star.label, t)
            # and the chord contains p_t by construction
            assert np.allclose(q[0], meridian_point(float(t)), atol=1e-12)


def test_meridian_handedness_constant_right():
    from glstar.star import Handedness, handedness_of, meridian_line
    for star in _profile_stars():
        for t in np.linspace(0.05, 0.95, 19):
            h = handedness_of(meridian_line(star, float(t)))
            assert h in (Handedness.RIGHT, Handedness.MEETS_AXIS), \
                (star.label, t, h)


def test_left_handed_symmetric_star():
    from glstar.star import Handedness, handedness_of, meridian_line
    from glstar.verify import check_involution, check_no_exterior_meet
    star = symmetric_star(moebius01(), handedness=Handedness.LEFT)
    for t in (0.25, 0.5, 0.75):
        assert handedness_of(meridian_line(star, t)) is Handedness.LEFT
    assert check_involution(star, n=300).passed
    assert check_no_exterior_meet(star, n_pairs=1000).passed


def test_param_equal_heights_matches_symmetric_reparametrization():
    # t = s = phi_r gives a symmetric star whose slope function is the
    # inverse height map a(t) = phi_r^{-1}(t)
    phi = phi_r(1.5)
    left = param_star(phi, phi)
    right = symmetric_star(lambda t: np.asarray(phi.inverse(t), float))
    ts = np.linspace(0.05, 0.95, 30)
    a, b, c = left.profile.coefficients(ts)
    a_ref, _, c_ref = right.profile.coefficients(ts)
    assert np.max(np.abs(b)) < 1e-9
    assert np.allclose(a, a_ref, atol=1e-8)
    assert np.allclose(c, c_ref, atol=1e-8)


def test_handedness_switch_rules():
    from glstar.star import Handedness
    # all-cone family: switching anywhere is allowed
    cone_fn = lambda t: t / np.sqrt(np.clip(1.0 - t * t, 1e-300, None))
    hand = lambda t: np.where(np.asarray(t) < 0.5, 1.0, -1.0)
    symmetric_star(cone_fn, handedness=hand)
    # cone-free family: switching is rejected
    with pytest.raises(ConditionFailed, match="regulus"):
        symmetric_star(moebius01(), handedness=hand)


def test_equator_antipodal_for_standard_position_families():
    # in standard position the horizontal lines through the origin belong
    # to the star, so sigma restricted to the equator is the antipodal map
    # (an on-axis but off-origin ordinary star is rotational yet not in
    # standard position, so it is excluded)
    th = np.linspace(0, 2 * np.pi, 17, endpoint=False)
    eq = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=-1)
    for star in _profile_stars() + [clifford()]:
        res = np.max(np.linalg.norm(star.sigma(eq) + eq, axis=1))
        assert res < 1e-9, star.label


def test_axis_and_horizontal_lines_for_all_rotational_families():
    from glstar.projgeom import join, projective_distance
    from glstar.star import meridian_line
    Z = join((1, 0, 0, 0), (0, 0, 0, 1))
    X = join((1, 0, 0, 0), (0, 1, 0, 0))
    for star in _profile_stars():
        assert projective_distance(meridian_line(star, 1.0).p, Z.p) < 1e-9
        assert projective_distance(meridian_line(star, 0.0).p, X.p) < 1e-9
        assert star.profile.entry_at(0.0).kind == "horizontal_star"
        assert star.profile.entry_at(1.0).kind == "axis"
        # north pole chord is the axis
        L = star.line_through(np.array([0.0, 0.0, 1.0]))
        assert projective_distance(L.p, Z.p) < 1e-9
