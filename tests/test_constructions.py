import numpy as np
import pytest

from glstar import constructions
from glstar.constructions import (
    A_GRID_RANGE,
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
    Fn1,
    TabulatedInverse,
    affine,
    as_fn1,
    identity,
    moebius01,
    neg_circle,
    phi_r,
    power,
    table,
)
from glstar.search import StarLineSearch
from glstar.star import Handedness, meridian_point
from glstar.verify import (
    KLEIN_CHECKS,
    applicable_checks,
    check_axial,
    check_involution,
    descartes_bound,
    run_star_checks,
)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_clifford_refuses_a_non_finite_center(bad):
    with pytest.raises(InvalidCenter, match="not strictly interior"):
        clifford((bad, 0.0, 0.0))


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.0, 0.0, 0.0, 1.0),
                                    [[0.0, 0.0, 0.0]], 0.0])
def test_clifford_center_must_be_a_3_vector(center):
    with pytest.raises(InvalidInput, match="3-vector"):
        clifford(center)


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


def test_handedness_callable_may_give_a_handedness():
    # a callable of t may give a Handedness itself, as well as signs
    q = sphere_samples(200, seed=5)
    for hand in (Handedness.LEFT, Handedness.RIGHT):
        star = symmetric_star(moebius01(), handedness=lambda t, h=hand: h)
        ref = symmetric_star(moebius01(), handedness=hand)
        assert np.array_equal(star.sigma(q), ref.sigma(q))
        assert star.profile.handedness_sign(0.5) == hand.sign


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


def test_fg_eps_may_switch_at_cones():
    # g = -sqrt(1 - f^2) puts every chord through the origin: all cones
    eps = lambda t: np.where(np.asarray(t) < 0.5, -1.0, 1.0)
    star = fg_star(identity(), neg_circle(), eps=eps)
    q = sphere_samples(500, seed=3)
    assert np.max(np.abs(star.sigma(q) - clifford().sigma(q))) < 1e-12


@pytest.mark.parametrize("eps,error", [
    (3, InvalidInput), (0.0, InvalidInput), ("up", InvalidInput),
    (lambda t: np.where(np.asarray(t) < 0.5, -1.0, 0.0), ConditionFailed),
])
def test_fg_eps_must_be_a_sign(eps, error):
    with pytest.raises(error, match="sign|eps"):
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


# every param star the tests build, as (t, s)
PARAM_HEIGHTS = [(phi_r(1.5), phi_r(2.0)), (phi_r(1.5), phi_r(1.5))]


@pytest.mark.parametrize("t,s", PARAM_HEIGHTS, ids=["builtin", "equal"])
def test_param_exterior_counts_equal_the_surface_counts(t, s):
    # param_star counts the roots of h_{x,z} on the exterior probes and so
    # skips eqn_star's probe (4) of a^2 x^2 - (z-b)^2 - c^2 on the same
    # points: the two counts must agree probe by probe
    from glstar.verify import positive_root_count
    x, z = constructions._exterior_probes()
    assert x.size == 130
    bc = constructions._param_bc(t, s)
    h = positive_root_count(lambda a, k: h_value(t, s, x[k], z[k], a),
                            n_probes=x.size)
    surface = positive_root_count(constructions._surface_fn(bc, x, z),
                                  n_probes=x.size)
    assert np.array_equal(h, surface)


def test_eqn_probe_counts_are_pinned(monkeypatch):
    # hypotheses (3) and (4) of builtin and parabola: every circle probe
    # and every exterior probe lies on exactly one surface H_a (param_star
    # counts the exterior roots of h_{x,z} in place of eqn_star's (4))
    from glstar import verify
    counts = []

    def recording(*args, **kwargs):
        counts.append(verify.positive_root_count(*args, **kwargs))
        return counts[-1]

    monkeypatch.setattr(constructions, "positive_root_count", recording)
    builtin_example()
    parabola_star(example_parabola_sequence())
    assert [c.size for c in counts] == [130, 32, 32, 130]
    assert all(np.all(c == 1) for c in counts)


def test_param_root_count_witness_is_plain_floats(monkeypatch):
    # a second root on the first exterior probe of hypothesis (3): the
    # witness prints as floats, not as numpy reprs
    from glstar import verify
    calls = []

    def two_roots_first(*args, **kwargs):
        counts = verify.positive_root_count(*args, **kwargs)
        if not calls:
            counts[0] = 2
        calls.append(counts)
        return counts

    monkeypatch.setattr(constructions, "positive_root_count", two_roots_first)
    with pytest.raises(ConditionFailed) as err:
        param_star(phi_r(1.5), phi_r(2.0))
    assert str(err.value) == ("(3): h_{x,z} has 2 positive roots "
                              "(witness: (0.15, 1.0714285714285714))")
    assert len(calls) == 1


def _nan_on(fn, lo, hi):
    """fn with NaN values on the open interval (lo, hi)."""
    def f(x):
        x = np.asarray(x, float)
        return np.where((lo < x) & (x < hi), np.nan, fn(x))
    return f


_ZERO = lambda a: np.zeros_like(np.asarray(a, float))  # noqa: E731


@pytest.mark.parametrize("build,message,witness", [
    (lambda: symmetric_star(_nan_on(lambda t: t / (1.0 - t), 0.5, 0.6)),
     "a is not increasing", 0.4995121951219512),
    (lambda: fg_star(_nan_on(lambda t: t * t, 0.5, 0.6), affine(1, -1)),
     "f is not increasing", 0.4995112414467253),
    (lambda: fg_star(power(2), _nan_on(lambda t: t - 1.0, 0.5, 0.6)),
     "g must be non-decreasing", 0.4995112414467253),
    (lambda: latitudinal(pencil_from_mu(as_fn1(
        _nan_on(lambda x: 2.0 * x * x / np.pi, 0.5, 0.6),
        domain=(0.0, np.pi / 2)))),
     "mu is not increasing", 0.4990310911127482),
    (lambda: param_star(_nan_on(phi_r(1.5), 2.0, 3.0), phi_r(2.0)),
     "t is not increasing", 1.9925669192497573),
    (lambda: eqn_star(_nan_on(_ZERO, 2.0, 3.0), _ZERO),
     "(1): b^2 + c^2 < a^2 fails", 2.04717325352609),
], ids=["symmetric", "fg-f", "fg-g", "latitudinal", "param", "eqn"])
def test_a_nan_valued_function_fails_its_hypothesis(build, message, witness):
    # a NaN comparison is False, so it fails what must hold, at the grid
    # point before the NaN stretch
    with pytest.raises(ConditionFailed) as err:
        build()
    assert err.value.condition == message
    assert err.value.witness == witness


def test_symmetric_rejects_the_tabulated_wrong_limit():
    # a(t) = 2t / sqrt(1 - t^2) tabulated: t^2 (1 + a^2) / a^2 -> 1/4
    t = np.array([0.0, 1e-4, 1e-3, 1e-2, *np.linspace(0.05, 0.95, 19),
                  0.99, 0.9995])
    with pytest.raises(ConditionFailed) as err:
        symmetric_star(table(t, 2.0 * t / np.sqrt(1.0 - t * t)))
    assert str(err.value) == ("(2): t^2(1+a^2)/a^2 = 0.250075 at t=0.01, "
                              "not within 5% of 1 (witness: 0.01)")


def test_symmetric_limit_of_a_slope_that_vanishes_at_a_limit_point():
    # a(t) = t / sqrt(1 - t^2) above t = 5e-4 and 0 below: at t = 1e-4,
    # below the check grid, t^2 (1 + a^2) / a^2 is inf, with no warning
    def a(t):
        t = np.asarray(t)
        return np.where(t < 5e-4, 0.0, t / np.sqrt(np.clip(1 - t**2, 1e-300,
                                                           None)))

    with pytest.raises(ConditionFailed) as err:
        symmetric_star(a)
    assert str(err.value) == ("(2): t^2(1+a^2)/a^2 = inf at t=0.0001, not "
                              "within 5% of 1 (witness: 0.0001)")
    assert type(err.value.witness) is float


def test_param_names_the_slope_where_its_limit_fails():
    # t = s = 2a / (1 + 2a): (t + s) / (2a) -> 2 as a -> 0
    h = as_fn1(lambda a: 2.0 * a / (1.0 + 2.0 * a), domain=(0.0, np.inf))
    with pytest.raises(ConditionFailed) as err:
        param_star(h, h)
    assert str(err.value) == ("(1): (t+s)/(2a) = 1.99601 at a=0.001, not "
                              "within 5% of 1 (witness: 0.001)")
    assert type(err.value.witness) is float


def test_param_rejects_non_homeomorphism():
    with pytest.raises(ConditionFailed):
        param_star(phi_r(1.5), as_fn1(lambda a: 0.5 * np.tanh(a),
                                      domain=(0.0, np.inf)))


def _count_tables(monkeypatch):
    """Count every TabulatedInverse built from now on."""
    built = []
    init = TabulatedInverse.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TabulatedInverse, "__init__", counting)
    return built


def _assert_equals_the_tabulated_star(star, eqn):
    """sigma on 2000 Fibonacci points, the meridian image at 1001 heights
    and the coverage search's hits of two stars agree to 1e-12."""
    from glstar.verify import exterior_samples, fibonacci_sphere
    q = fibonacci_sphere(2000)
    assert np.any(q[:, 2] < 0.0) and np.any(q[:, 2] > 0.0)
    assert np.max(np.abs(star.sigma(q) - eqn.sigma(q))) < 1e-12
    t = np.linspace(0.0, 1.0, 1001)
    assert np.max(np.abs(star.profile.meridian_image(t)
                         - eqn.profile.meridian_image(t))) < 1e-12
    W = exterior_samples(200, seed=0)
    hits = [StarLineSearch(s).find_batch(W) for s in (star, eqn)]
    assert [len(h) for h in hits[0]] == [len(h) for h in hits[1]]
    for hp, he in zip(*hits):
        for a, b in zip(hp, he):
            assert abs(a.t - b.t) < 1e-12
            dtheta = np.mod(a.theta - b.theta + np.pi, 2.0 * np.pi) - np.pi
            assert abs(dtheta) < 1e-12


def _coefficient_fns(bc):
    """b and c of the joint coefficients bc: a |-> (b, c) as two Fn1,
    eqn_star's arguments."""
    return (as_fn1(lambda a: bc(a)[0], domain=(0.0, np.inf)),
            as_fn1(lambda a: bc(a)[1], domain=(0.0, np.inf)))


def test_param_sigma_equals_the_tabulated_eqn_sigma():
    # builtin inverts its heights phi_r in closed form; eqn_star on the same
    # coefficients tabulates the heights it works out of b and c
    _assert_equals_the_tabulated_star(
        builtin_example(),
        eqn_star(*_coefficient_fns(constructions._param_bc(phi_r(1.5),
                                                           phi_r(2.0)))))


def test_eqn_star_at_one_t_and_one_point_equals_its_batch_row():
    # an eqn star's heights carry table inverses, which take one height
    # through a one-element batch: its coefficients at one t and its sigma
    # at one point still have the bits of their batch rows
    star = eqn_star(*_coefficient_fns(constructions._param_bc(phi_r(1.5),
                                                              phi_r(2.0))))
    t = np.concatenate([[0.0, 1.0, 1e-12],
                        np.random.default_rng(28).uniform(0.0, 1.0, 300)])
    batch = star.profile.coefficients(t)
    ones = np.array([star.profile.coefficients(x) for x in t.tolist()])
    np.testing.assert_array_equal(np.array(batch).T.view(np.uint64),
                                  ones.view(np.uint64))
    q = sphere_samples(200, seed=28)
    np.testing.assert_array_equal(
        star.sigma(q).view(np.uint64),
        np.array([star.sigma(p) for p in q]).view(np.uint64))


def test_parabola_sigma_equals_the_tabulated_eqn_sigma():
    # parabola inverts its heights piece by piece in closed form; eqn_star
    # on its b and c tabulates them
    seq = example_parabola_sequence()
    eqn = eqn_star(*_coefficient_fns(constructions._parabola_bc(seq)))
    _assert_equals_the_tabulated_star(parabola_star(seq), eqn)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["t", "s"])
def test_parabola_height_inverse_round_trips(sign):
    # y = h(a) back to a on every piece, at the knots and on both
    # completions: h at the answer is within 4 ulps of y, and up to a = 1/2,
    # where the heights are not flat, so is a itself; y = 0 gives a = 0,
    # and the star caps a at _A_MAX from the height there on
    seq = example_parabola_sequence()
    t_fn, s_fn = constructions._eqn_heights(constructions._parabola_bc(seq))
    h = constructions._parabola_height(seq, t_fn if sign > 0 else s_fn, sign)
    a_max = constructions._A_MAX
    k = seq.slopes()
    pieces = [np.geomspace(k[i], k[i + 1], 202)[1:-1]
              for i in range(len(k) - 1)]
    a = np.concatenate([np.geomspace(1e-12, k[0], 200, endpoint=False), k,
                        *pieces, np.geomspace(k[-1], 1e6, 200)[1:]])
    y = h(a)
    y_end = float(h(np.array([a_max]))[0])
    assert np.all(y < 1.0) and y_end == 1.0
    back = h.inverse(y)
    assert np.all(np.abs(h(back) - y) <= 4.0 * np.spacing(y))
    small = a <= 0.5
    assert np.all(np.abs(back[small] - a[small]) <= 4.0 * np.spacing(a[small]))
    assert h.inverse(np.array([0.0])).tolist() == [0.0]
    log_a = constructions._log_a_of_height(h)
    assert log_a(np.array([0.0])).tolist() == [-np.inf]
    assert np.all(log_a(np.array([y_end, 1.5])) == np.log(a_max))


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["t", "s"])
def test_parabola_knot_heights_invert_to_their_knot_slopes(sign, monkeypatch):
    # a knot height takes its knot's alpha with no Newton or bisection step
    # (the batch's loop, the one user of np.where here, never runs), in a
    # batch and one height at a time: the s-height 0.993103448275862 gives
    # 16, where steps from the chord start gave 16.00000000000002
    seq = example_parabola_sequence()
    t_fn, s_fn = constructions._eqn_heights(constructions._parabola_bc(seq))
    h = t_fn if sign > 0 else s_fn
    inv = constructions._parabola_height(seq, h, sign)
    y, k = np.asarray(h(seq.slopes()), float), seq.slopes().tolist()
    steps, where = [], np.where
    monkeypatch.setattr(np, "where",
                        lambda *args: steps.append(1) or where(*args))
    assert inv.inverse(y).tolist() == k
    assert not steps
    assert [inv.inverse(np.array([v])).item() for v in y] == k
    if sign < 0:
        assert (y[10], k[10]) == (0.993103448275862, 16.0)


def test_parabola_heights_build_no_table(monkeypatch):
    built = _count_tables(monkeypatch)
    star = parabola_star(example_parabola_sequence())
    q = sphere_samples(50, seed=3)
    for i in range(50):
        star.sigma(q[i])
    StarLineSearch(star).find_batch(np.column_stack([np.ones(50), 2.0 * q]))
    assert len(built) == 0


def test_c2_of_heights_does_not_cancel():
    # c^2 = O(a^3) as a -> 0 on builtin's heights: against exact rationals
    # of the same float t and s, within 4 ulps (the expanded form
    # a^2 - (a^2+1)(((t+s)/2)^2 + a^2((t-s)/2)^2) is off by up to 2.6e-10)
    from fractions import Fraction
    a = np.geomspace(1e-6, 1e-2, 200)
    t, s = phi_r(1.5)(a), phi_r(2.0)(a)
    _, c2 = constructions._b_c2_of_heights(a, t, s)
    for ai, ti, si, ci in zip(*(map(Fraction, v.tolist()) for v in (a, t, s)),
                              c2.tolist()):
        exact = ai * ai - (ai * ai + 1) * (((ti + si) / 2) ** 2
                                           + ai * ai * ((ti - si) / 2) ** 2)
        assert abs(ci - exact) <= 4 * np.spacing(float(exact))


def test_param_heights_are_tabulated_only_without_an_inverse(monkeypatch):
    built = _count_tables(monkeypatch)
    builtin = builtin_example()
    assert len(built) == 0
    plain = param_star(as_fn1(lambda a: phi_r(1.5)(a), domain=(0.0, np.inf)),
                       as_fn1(lambda a: phi_r(2.0)(a), domain=(0.0, np.inf)))
    # a height builds its table at its first inverse call
    assert len(built) <= 2
    q = sphere_samples(50, seed=3)
    for star in (builtin, plain):
        for i in range(50):
            star.sigma(q[i])
        StarLineSearch(star).find_batch(np.column_stack([np.ones(50), 2.0 * q]))
    assert len(built) == 2
    assert np.max(np.abs(plain.sigma(q) - builtin.sigma(q))) < 1e-12


def test_param_star_rejects_the_wrong_limit():
    # t = s = 2a / (1 + 2a) are increasing from 0 and below 1, but
    # (t + s) / (2a) tends to 2, not 1, as a -> 0
    h = lambda a: 2.0 * np.asarray(a) / (1.0 + 2.0 * np.asarray(a))
    with pytest.raises(ConditionFailed, match=r"\(1\): \(t\+s\)/\(2a\)") as err:
        param_star(h, h)
    assert err.value.witness == A_GRID_RANGE[0]


def test_param_star_builds_where_a_height_rounds_above_one():
    # phi_r's quotient, unclipped, rounds above 1 at a = 1e9 for this r, so
    # that the height 1 is below h(_A_MAX): the axis t = 1 and every height
    # from min(h(_A_MAX), 1) on take _A_MAX, not the inverse, which divides
    # by zero at 1 (warnings are errors here)
    r = 1.527259579942914
    t = Fn1(lambda a: a * (a + r) / (a * a + r * a + r), (0.0, np.inf),
            inv=phi_r(r).inverse)
    assert t(1e9) > 1.0
    star = param_star(t, phi_r(2.0))
    a_axis = star.profile.abc(np.array([1.0]))[0]
    assert np.allclose(a_axis, constructions._A_MAX, rtol=1e-15, atol=0.0)
    q = sphere_samples(200, seed=1)
    assert np.all(np.isfinite(star.sigma(q)))
    StarLineSearch(star).find_batch(np.column_stack([np.ones(50), 2.0 * q[:50]]))


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


def test_pencil_angle_of_one_float_equals_its_batch_row():
    # one angle is taken in Python floats, all four quadrants (the last two
    # through mu's inverse) and the quadrant ends included; NaN, which no
    # quadrant holds, stays NaN in both
    pen = quad_pencil()
    beta = np.concatenate([np.arange(9) * (0.25 * np.pi),
                           [-0.0, -1e-300, np.nan],
                           np.random.default_rng(28).uniform(-7.0, 7.0, 1000)])
    batch = pen.sigma1_angle(beta)
    ones = [pen.sigma1_angle(b) for b in beta.tolist()]
    assert {type(v) for v in ones} == {float}
    np.testing.assert_array_equal(batch.view(np.uint64),
                                  np.array(ones).view(np.uint64))


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


@pytest.mark.parametrize("rows", [
    ([4.0, 1.0], [0.0], [0.0, 0.1]), ([4.0, 1.0], [0.0, 0.1], [0.0]),
    ([[4.0, 1.0]], [[0.0, 0.1]], [[0.0, 0.1]]), ([], [], []),
], ids=["betas-short", "gammas-short", "2d", "empty"])
def test_parabola_seq_rejects_mismatched_arrays(rows):
    with pytest.raises(InvalidInput, match="must match"):
        ParabolaSeq(*(np.array(r) for r in rows))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_parabola_seq_rejects_non_finite_entries(bad):
    for k in range(3):
        rows = [[4.0, 1.0], [0.0, 0.1], [0.0, 0.1]]
        rows[k][1] = bad
        with pytest.raises(InvalidInput, match="finite"):
            ParabolaSeq(*rows)


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


def test_parabola_star_rejects_outside_intersection():
    # P_1 and P_2 are almost equally steep, so their difference has its
    # vertex far out: they meet at u = -18.7, outside the bounded region
    seq = ParabolaSeq([18.0, 4.7, 4.66], [0.0, 0.043, 0.125],
                      [0.0, 0.349, 0.043])
    with pytest.raises(ConditionFailed) as err:
        parabola_star(seq)
    assert err.value.condition == ("(4): consecutive parabolas intersect "
                                   "outside the bounded region")
    i, u, v = err.value.witness
    assert i == 1
    assert u == pytest.approx(-18.696574715311456, rel=1e-9)
    assert v == pytest.approx(1650.8558044004799, rel=1e-9)


def test_parabola_intersection_witness_is_plain_numbers():
    # the pair index stays an int, the root and its height floats
    seq = ParabolaSeq([18.0, 4.7, 4.66], [0.0, 0.043, 0.125],
                      [0.0, 0.349, 0.043])
    with pytest.raises(ConditionFailed) as err:
        parabola_star(seq)
    assert [type(w) for w in err.value.witness] == [int, float, float]


def test_parabola_gamma_is_not_negative_at_a_knot_slope():
    # 1/slopes()**2 rounds below alphas[0], where np.interp gives gamma =
    # -1.4e-17 unclipped, and the square root of c warns (an error here)
    seq = ParabolaSeq([12.68393532063093, 4.285043494969524, 4.016475700814154],
                      [0.0, 0.05586507114977754, 0.062401079194316894],
                      [0.0, 0.07027293830537533, 0.061362217839118834])
    assert np.all(seq.coefficients_at(seq.slopes())[2] >= 0.0)
    star = parabola_star(seq)
    reports = run_star_checks(star, checks=applicable_checks(star)
                              + list(KLEIN_CHECKS))
    assert all(r.passed for r in reports), [r.render() for r in reports]


F1_SEQUENCE = ([14.592781970690533, 2.240722898168005, 1.9209624102136866],
               [0.0, -0.08596133247973226, -0.15843654801392235],
               [0.0, 0.1697309885077284, 0.06462099048791667])


def test_parabola_star_rejects_a_height_dip_past_a_knot():
    # t(a) falls from the first knot slope, 0.26178, to 0.26345: a window
    # that no point of the a-grid sees, and whose star failed involution
    # and coverage
    seq = ParabolaSeq(*F1_SEQUENCE)
    with pytest.raises(ConditionFailed, match=r"\(3\).*past a knot") as err:
        parabola_star(seq)
    assert err.value.witness == seq.slopes()[0]


def _drawn_sequence(rng):
    """A three-entry sequence: P_1 flatter than P_0, P_2 almost as steep as
    P_1 but shifted and lowered."""
    a1 = rng.uniform(2.0, 40.0) * rng.uniform(0.05, 0.5)
    b1, g1 = rng.uniform(-0.1, 0.1), rng.uniform(0.0, 0.4)
    return ParabolaSeq(
        [a1 / rng.uniform(0.05, 0.5), a1,
         a1 * (1.0 - 10.0 ** rng.uniform(-3.0, -0.5))],
        [0.0, b1, b1 + rng.uniform(-0.2, 0.2)], [0.0, g1, g1 * rng.random()])


def _dips_past_a_knot(seq):
    """Whether a circle height of H_a falls somewhere within 1% past a
    knot slope, on 400 slopes per knot."""
    k = seq.slopes()[:, None]
    a = (k * (1.0 + np.concatenate([[0.0], np.geomspace(1e-7, 1e-2, 400)])))
    heights = constructions._t_s_of_a(a, *constructions._parabola_bc(seq)(a))
    return bool(np.any(np.diff(heights, axis=-1) <= 0.0))


def test_drawn_parabola_stars_are_built_exactly_when_valid():
    # the drawn sequences until 38 stars are built: each one rejected past
    # a knot has a height that dips there (F1_SEQUENCE among them; before
    # s(a) was checked there, others raised EvalError in the completion),
    # and each built star's sigma is an involution
    rng = np.random.default_rng(7)
    built, dips = 0, []
    while built < 38:
        seq = _drawn_sequence(rng)
        try:
            star = parabola_star(seq)
        except ConditionFailed as err:
            if "past a knot" in err.condition:
                assert _dips_past_a_knot(seq), seq
                dips.append(seq)
            continue
        assert not _dips_past_a_knot(seq), seq
        assert check_involution(star).passed, seq
        built += 1
    assert F1_SEQUENCE[0] in [d.alphas.tolist() for d in dips]


def _height_probes(knots, rng):
    """Heights on which to invert a circle height with knot heights
    ``knots``: every knot height and the heights an ulp to either side,
    heights in the first and last completion pieces, 0, -0, 1 - 2^-53,
    NaN, 2000 drawn heights, and heights where numpy's answer is inf or
    NaN: 1, ±2 and ±inf."""
    return np.concatenate([
        knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
        rng.uniform(0.0, knots[0], 20), rng.uniform(knots[-1], 1.0, 20),
        [0.0, -0.0, 1.0 - 2.0 ** -53, np.nan], rng.uniform(0.0, 1.0, 2000),
        [1.0, 2.0, -2.0, np.inf, -np.inf]])


def test_one_height_equals_its_row_of_a_batch(monkeypatch):
    # one Python float is inverted in floats, an array, of one element or
    # more, in numpy: both give each height the same bits, knot heights
    # (which bisect) included; of the floats only the heights 1, 2, -2 and
    # -inf, whose float steps would divide by zero or take the root of a
    # negative number, are answered by the batch
    searches, searchsorted = [], np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda *args, **kwargs: (
        searches.append(1) or searchsorted(*args, **kwargs)))
    seqs, draws = [example_parabola_sequence()], np.random.default_rng(7)
    while len(seqs) < 21:
        seq = _drawn_sequence(draws)
        try:
            parabola_star(seq)
        except ConditionFailed:
            continue
        seqs.append(seq)
    rng = np.random.default_rng(25)
    for seq in seqs:
        heights = constructions._eqn_heights(constructions._parabola_bc(seq))
        for h, sign in zip(heights, (1.0, -1.0)):
            inv = constructions._parabola_height(seq, h, sign)
            y = _height_probes(np.asarray(h(seq.slopes()), float), rng)
            with np.errstate(divide="ignore", invalid="ignore"):
                batch = inv.inverse(y)
                searches.clear()
                points = [inv.inverse(v) for v in y.tolist()]
                assert len(searches) == 4
                rows = [inv.inverse(np.array([v])) for v in y[:50]]
            assert {type(p) for p in points} == {float}
            assert {r.shape for r in rows} == {(1,)}
            np.testing.assert_array_equal(
                batch.view(np.uint64), np.array(points).view(np.uint64))
            np.testing.assert_array_equal(batch[:50].view(np.uint64),
                                          np.concatenate(rows).view(np.uint64))
            assert np.isfinite(batch[:-5]).sum() == batch.size - 6


def _sequence_verdict_by_np_roots(seq):
    """(condition, index) of the first sequence condition that fails, each
    quadratic solved by np.roots one parabola or pair at a time, or None."""
    if abs(seq.betas[0]) > 1e-12 or seq.gammas[0] > 1e-12:
        return "completion", 0
    inter = []
    al, be, ga = seq.alphas, seq.betas, seq.gammas
    for i in range(len(seq)):
        r = np.roots([al[i] + 1.0, -2.0 * al[i] * be[i],
                      al[i] * be[i] ** 2 + ga[i] - 1.0])
        r = np.sort(np.real(r[np.abs(np.imag(r)) < 1e-12]))
        if r.size != 2:
            return "(3): parabola must meet the circle arc in two points", i
        inter.append(r)
    for i, (lo, hi) in enumerate(inter):
        if not lo < 0.0 < hi:
            return "(3): arc intersections must be separated by the v-axis", i
        if lo < -1.0 - 1e-9 or hi > 1.0 + 1e-9:
            return "(3): arc intersections must lie on the arc", i
    for i in range(len(seq) - 1):
        if not (inter[i + 1][1] > inter[i][1] and inter[i + 1][0] < inter[i][0]):
            return ("(3): consecutive arc intersections must nest outward "
                    "(heights on the circle increase with the slope)", i)
    for i in range(len(seq) - 1):
        d = np.array([al[i] - al[i + 1],
                      -2.0 * (al[i] * be[i] - al[i + 1] * be[i + 1]),
                      (al[i] * be[i] ** 2 + ga[i])
                      - (al[i + 1] * be[i + 1] ** 2 + ga[i + 1])])
        if np.allclose(d, 0.0):
            continue
        r = np.roots(d)
        for u in np.real(r[np.abs(np.imag(r)) < 1e-12]):
            v = al[i] * (u - be[i]) ** 2 + ga[i]
            if not (abs(u) <= 1.0 + 1e-9 and -1e-9 <= v <= 1.0 - u * u + 1e-9):
                return ("(4): consecutive parabolas intersect outside the "
                        "bounded region", i)
    return None


def test_sequence_closed_form_roots_give_the_np_roots_verdicts():
    # 2000 drawn sequences, some of whose pairs meet far out (hypothesis
    # (4)) while many fail to nest (3)
    rng = np.random.default_rng(15)
    seen = {}
    for _ in range(2000):
        seq = _drawn_sequence(rng)
        want = _sequence_verdict_by_np_roots(seq)
        try:
            constructions._check_sequence(seq)
            got = None
        except ConditionFailed as err:
            w = err.witness
            got = err.condition, (w if isinstance(w, int) else w[0])
        assert got == want, seq
        key = None if want is None else want[0][:4]
        seen[key] = seen.get(key, 0) + 1
    assert seen[None] > 100 and seen["(4):"] > 100 and seen["(3):"] > 1000


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
    # at a = 0 the limits a -> 0, without a divide-by-zero warning (the
    # closed-form height inverse returns a = 0 at height 0)
    al, be, ga = seq.coefficients_at(np.array([0.0]))
    assert be[0] == seq.betas[0] and ga[0] == seq.gammas[0]
    b_fn, c_fn = _coefficient_fns(constructions._parabola_bc(seq))
    assert b_fn(np.array([0.0])).tolist() == [0.0]
    assert c_fn(np.array([0.0])).tolist() == [0.0]


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


def test_constant_handedness_evaluates_no_cone_coefficients(monkeypatch):
    # the cone rule reads c only where the regulus choice switches
    from glstar.star import RotationalProfile
    calls = []
    inside = []
    validate = constructions._validate_cone_rule
    coefficients = RotationalProfile.coefficients

    def spy_validate(*args, **kwargs):
        inside.append(True)
        try:
            return validate(*args, **kwargs)
        finally:
            inside.pop()

    def spy_coefficients(self, t):
        if inside:
            calls.append(np.size(t))
        return coefficients(self, t)

    monkeypatch.setattr(constructions, "_validate_cone_rule", spy_validate)
    monkeypatch.setattr(RotationalProfile, "coefficients", spy_coefficients)
    builtin_example()
    parabola_star(example_parabola_sequence())
    symmetric_star(moebius01())
    assert calls == []
    with pytest.raises(ConditionFailed, match="regulus"):
        symmetric_star(moebius01(), handedness=lambda t: np.where(
            np.asarray(t) < 0.5, 1.0, -1.0))
    assert calls == [constructions.T_GRID_SIZE]


def test_handedness_switch_rules():
    from glstar.star import Handedness
    # all-cone family: switching anywhere is allowed
    cone_fn = lambda t: t / np.sqrt(np.clip(1.0 - t * t, 1e-300, None))
    hand = lambda t: np.where(np.asarray(t) < 0.5, 1.0, -1.0)
    symmetric_star(cone_fn, handedness=hand)
    # cone-free family: switching is rejected
    with pytest.raises(ConditionFailed, match="regulus"):
        symmetric_star(moebius01(), handedness=hand)


def test_regulus_switches_only_where_entry_at_sees_a_cone():
    # a = 1 everywhere; on the two grid points around the switch at t = 0.5
    # the waist c = 5e-9 is five times the cone bound, elsewhere c = 10.  A
    # bound scaled by the grid's largest c would call those points cones.
    from glstar.star import RotationalProfile
    half_step = 0.5 / (constructions.T_GRID_SIZE + 1)

    def abc(t):
        c = np.where(np.abs(t - 0.5) <= 2.0 * half_step, 5e-9, 10.0)
        return np.ones_like(t), np.zeros_like(t), c

    hand = lambda t: np.where(np.asarray(t) < 0.5, 1.0, -1.0)
    profile = RotationalProfile(abc, hand)
    assert profile.entry_at(0.5).kind == "hyperboloid"
    with pytest.raises(ConditionFailed, match="regulus"):
        constructions._validate_cone_rule(hand, profile)


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
