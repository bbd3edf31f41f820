import numpy as np
import pytest

from glstar.errors import ConditionFailed, ConfigError, InvalidInput
from glstar.functions import (
    TabulatedInverse,
    _require,
    affine,
    as_fn1,
    bracket_roots,
    check_increasing,
    count_roots,
    from_spec,
    identity,
    moebius01,
    neg_circle,
    phi_r,
    power,
    table,
)


def test_phi_r_values():
    assert np.isclose(phi_r(1.5)(1.0), 0.625)
    assert np.isclose(phi_r(2.0)(1.0), 0.6)
    assert phi_r(1.5)(0.0) == 0.0


def test_phi_r_inverse_closed_form():
    t = phi_r(1.5)
    # inverse of 0.5 solves a^2 + 1.5a - 1.5 = 0
    a = t.inverse(0.5)
    assert np.isclose(a, (-1.5 + np.sqrt(8.25)) / 2.0)
    assert np.isclose(a, 0.6861406616345072)
    grid = np.linspace(0.01, 0.99, 50)
    assert np.allclose(t(t.inverse(grid)), grid, atol=1e-12)


@pytest.mark.parametrize("r", [0.5, 1.5, 2.0, 10.0])
def test_phi_r_inverse_is_relatively_exact_for_small_a(r):
    # the inverse's root has no cancellation as y -> 0: a few ulps of a
    # itself, down to a = 1e-12 (an absolute bound would hide a loss there)
    f = phi_r(r)
    a = np.geomspace(1e-12, 1.0, 2001)
    assert np.all(np.abs(f.inverse(f(a)) - a) <= 4.0 * np.spacing(a))


def test_phi_r_stays_in_its_range_for_large_a():
    # the quotient rounds above 1 for some r (1.0000000000000002 at
    # r = 1.527259579942914, a = 1e9), where 1 is the correctly rounded value
    r = np.concatenate([np.linspace(0.05, 10.0, 400), [1.527259579942914]])
    a = np.array([1e9, 1e12, 1e15])
    values = np.array([phi_r(ri)(a) for ri in r])
    assert np.all(values <= 1.0)
    assert phi_r(1.527259579942914)(1e9) == 1.0


def test_moebius_round_trip():
    m = moebius01()
    ts = np.linspace(0.0, 0.99, 100)
    assert np.allclose(m.inverse(m(ts)), ts, atol=1e-14)
    assert np.isclose(m(0.5), 1.0)


def test_power_affine_identity():
    assert np.isclose(power(2)(0.5), 0.25)
    assert np.isclose(affine(1, -1)(0.25), -0.75)
    assert identity()(0.7) == 0.7


_ONE_FLOAT_FNS = {
    "identity": identity(),
    "affine": affine(2.5, -0.3),
    "power-2": power(2.0),
    "power-0.7": power(0.7),
    "moebius01": moebius01(),
    "phi_r": phi_r(1.5),
    "table": table([0.0, 0.3, 1.0], [0.0, 0.5, 2.0]),
    "table-decreasing": table([0.0, 0.4, 1.0], [1.0, 0.3, -0.5]),
    "neg_circle": neg_circle(),
    "custom": as_fn1(lambda t: np.asarray(t) ** 3 + t, domain=(0.0, 1.0)),
    # the table inverse in log a, which a float reaches as a 0-d array
    "custom-half-line": as_fn1(lambda a: np.asarray(a) / (1.0 + a),
                               domain=(0.0, np.inf)),
}


@pytest.mark.parametrize("name", sorted(_ONE_FLOAT_FNS))
def test_one_float_equals_its_batch_row(name):
    # the function and its inverse of a Python float give a Python float
    # with the bits of a batch row: fn and inv take the float themselves, a
    # plain callable's on a 0-d array
    f = _ONE_FLOAT_FNS[name]
    rng = np.random.default_rng(28)
    x = np.concatenate([[0.0, 1e-300, 1e-9, 0.5, 1.0 - 1e-12],
                        rng.uniform(0.0, 1.0, 2000)])
    y = np.asarray(f(x), float)
    y = y[np.isfinite(y)]
    for fn, v in ((f, x), (f.inverse, y)):
        batch = np.asarray(fn(v), float)
        ones = [fn(u) for u in v.tolist()]
        assert {type(u) for u in ones} == {float}, name
        np.testing.assert_array_equal(batch.view(np.uint64),
                                      np.array(ones).view(np.uint64),
                                      err_msg=name)


@pytest.mark.parametrize("f,y", [
    (as_fn1(lambda th: np.asarray(th) ** 2 * (2.0 / np.pi), (0.0, np.pi / 2)),
     [0.3, np.nan, 0.7, 1.2]),
    (as_fn1(lambda t: 1.0 - np.asarray(t) ** 3, (0.0, 1.0)),
     [0.3, np.nan, 0.7, -0.2]),
    (as_fn1(lambda a: np.asarray(a) / (1.0 + a), (0.0, np.inf)),
     [0.3, np.nan, 1e-12, 1.0]),
], ids=["increasing", "decreasing", "half-line"])
def test_table_inverse_of_nan_is_nan(f, y):
    # NaN has no preimage (the search would give a table end); every other
    # target keeps its bits
    x = f.inverse(y)
    assert np.isnan(x[1]) and np.isnan(f.inverse(np.nan))
    rest = f.inverse([y[0], *y[2:]])
    np.testing.assert_array_equal(np.delete(x, 1).view(np.uint64),
                                  rest.view(np.uint64))
    assert not np.isnan(rest).any()


def test_neg_circle():
    g = neg_circle()
    assert np.isclose(g(0.0), -1.0)
    assert g(1.0) == 0.0
    assert np.isclose(g(0.5), -np.sqrt(0.75))


def test_table_interpolation_and_inverse():
    f = table([0.0, 0.5, 1.0], [0.0, 0.4, 1.0])
    assert np.isclose(f(0.25), 0.2)
    assert np.isclose(f.inverse(0.2), 0.25)


def test_table_rejects_non_monotone():
    with pytest.raises(ConditionFailed):
        table([0.0, 0.5, 1.0], [0.0, 1.0, 0.5])
    with pytest.raises(InvalidInput):
        table([0.0, 0.0, 1.0], [0.0, 0.5, 1.0])


# A plain callable's inverse is the table inverse that as_fn1 attaches.


def test_bisect_monotone_vectorized():
    f = lambda x: x**3
    ys = np.array([0.001, 0.125, 1.0])
    xs = as_fn1(f, (0.0, 2.0)).inverse(ys)
    assert np.allclose(xs, [0.1, 0.5, 1.0], atol=1e-12)
    # decreasing function; a scalar target gives a scalar
    g = lambda x: -x
    x = as_fn1(g, (0.0, 1.0)).inverse(-0.3)
    assert np.ndim(x) == 0 and np.isclose(x, 0.3, atol=1e-12)


def test_bisect_monotone_decreasing_batch():
    # out-of-range targets get the nearer end, and the shape is kept
    g = lambda x: 1.0 - x**3  # noqa: E731
    ys = np.array([[0.999, 0.875], [0.0, -7.0], [1.5, -8.0]])
    xs = as_fn1(g, (0.0, 2.0)).inverse(ys)
    assert xs.shape == ys.shape
    assert np.allclose(xs, [[0.1, 0.5], [1.0, 2.0], [0.0, 2.0]], atol=1e-15)
    assert xs[2, 0] == 0.0 and xs[2, 1] == 2.0


def test_bisect_monotone_infinite_end_values():
    # log(x / (2 - x)) is -inf at 0 and inf at 2: the secant of an infinite
    # end is the midpoint (it would be NaN, or sit on the other end)
    calls = []

    def f(x):
        calls.append(x.size)
        assert len(calls) <= 1 + 3 + 4 * 50, "bisection steps do not take over"
        with np.errstate(divide="ignore"):
            return np.log(x) - np.log(2.0 - x)

    # -8 and 8 start from the table's end cells
    ys = np.array([-8.0, -2.0, 0.0, 0.5, 8.0])
    assert np.allclose(as_fn1(f, (0.0, 2.0)).inverse(ys),
                       2.0 / (1.0 + np.exp(-ys)), rtol=1e-14)


def test_bisect_monotone_takes_few_evaluations():
    # the arc map of the latitudinal star: each target starts from a cell
    # of a small table, not from the whole interval
    calls = []

    def m(x):
        calls.append(x.size)
        return x * x * (2.0 / np.pi)

    ys = np.linspace(0.0, np.pi / 2, 500)
    xs = as_fn1(m, (0.0, np.pi / 2)).inverse(ys)
    assert np.allclose(m(xs), ys, rtol=0.0, atol=4e-16)
    assert len(calls) <= 1 + 10


@pytest.mark.parametrize("hi", [2.0, np.inf])
def test_a_plain_callable_builds_one_table(monkeypatch, hi):
    # at the first inverse call, and none before it: on [0, 2] a linear
    # table, on [0, inf) one in log x
    built = []
    init = TabulatedInverse.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TabulatedInverse, "__init__", counting)
    f = as_fn1(lambda x: x / (1.0 + x), (0.0, hi))
    assert not built
    ys = np.linspace(0.0, 0.6, 50)
    for y in ys:
        assert abs(f.inverse(y) - y / (1.0 - y)) <= 4e-15
    assert len(built) == 1


def test_a_plain_callable_inverts_on_zero_to_infinity():
    # the log table ends at 1e9, and below its first value, a = 1e-9, the
    # inverse is the line through the origin; 0 goes to 0
    f = as_fn1(lambda x: x / (1.0 + x), (0.0, np.inf))
    x = np.array([0.0, 1e-15, 1e-11, 1e-6, 1.0, 1e6, 1e8])
    assert np.all(np.abs(f.inverse(f(x)) - x) <= 1e-8 * x)
    assert np.allclose(f.inverse(np.array([1.0, 2.0])), 1e9, rtol=1e-15, atol=0.0)


def test_as_fn1_needs_a_bounded_domain_or_zero_to_infinity():
    for domain in ((1.0, np.inf), (-np.inf, 0.0), (0.0, np.nan)):
        with pytest.raises(InvalidInput):
            as_fn1(lambda x: x, domain)


def _refine(f):
    """The root of f in [0, 1] by bracket_roots on the grid (0, 1), and the
    number of evaluations past the grid."""
    calls = []

    def fn(x, k):
        calls.append(np.size(x))
        # every four steps at least halve the bracket, from 1 to 1e-15
        assert len(calls) <= 3 + 4 * 50, "bisection steps do not take over"
        return f(np.asarray(x, float))

    k, x = bracket_roots(fn, [0.0, 1.0], f(np.array([[0.0, 1.0]])), rtol=1e-15)
    assert k.tolist() == [0]
    return x[0], len(calls)


@pytest.mark.parametrize("f, root", [
    (lambda x: x - 1e-30, 0.0),  # the end 0 is a root up to rounding
    (lambda x: 1.0 - x - 1e-30, 1.0),  # the end 1 is
    (lambda x: x * x - 1e-40, 0.0),  # flat at the root end
    (lambda x: 3.0 * x - 0.75, 0.25),  # the first secant step hits the root
], ids=["low-end", "high-end", "flat-end", "first-step"])
def test_root_brackets_close_within_three_evaluations(f, root):
    x, evaluations = _refine(f)
    assert evaluations <= 3
    assert abs(x - root) <= 1e-15


def test_flat_stretch_costs_no_more_than_bisection():
    # regula falsi crawls along the -1e-300 stretch (the parent took 1047
    # evaluations); bisection steps take over
    x, _ = _refine(lambda x: np.where(x < 0.25, -1e-300, 0.8 * x - 0.2))
    assert abs(x - 0.25) <= 1e-15


def test_generic_inverse_bisection():
    f = as_fn1(lambda t: t + np.sin(t) / 3.0, domain=(0.0, 2.0))
    y = f(1.234)
    assert np.isclose(f.inverse(y), 1.234, atol=1e-10)


def test_from_spec():
    f = from_spec({"kind": "phi_r", "r": 1.5})
    assert f.kind == "phi_r" and np.isclose(f(1.0), 0.625)
    with pytest.raises(ConfigError):
        from_spec({"kind": "nope"})
    with pytest.raises(ConfigError):
        from_spec({"kind": "phi_r"})  # missing r


@pytest.mark.parametrize("ok,witnesses,expected", [
    (np.array([True, False]), np.array([0.25, 0.5]), 0.5),
    ([True, True, False], range(3), 2),
    (np.array([True, False]), np.array([[0.1, 0.2], [0.3, 0.4]]), (0.3, 0.4)),
    (np.float64(np.nan) <= 1.0, (np.float64(0.5), np.float64(1.5)), (0.5, 1.5)),
    (np.float64(2.0) <= 1.0, np.float64(2.0), 2.0),
    (False, None, None),
])
def test_require_reports_plain_witnesses(ok, witnesses, expected):
    with pytest.raises(ConditionFailed) as err:
        _require(ok, "cond", witnesses)
    w = err.value.witness
    assert w == expected and type(w) is type(expected)
    if isinstance(w, tuple):
        assert all(type(v) is float for v in w)
    text = str(err.value)
    assert text == ("cond" if w is None else f"cond (witness: {expected})")
    assert "np." not in text and "array" not in text


def test_require_fails_on_nan():
    # a hypothesis written as what must hold is False on NaN
    v = np.array([0.0, 0.3, np.nan, 0.9])
    _require(np.diff(v[:2]) > 0.0, "increasing", v)
    with pytest.raises(ConditionFailed) as err:
        _require(np.diff(v) > 0.0, "increasing", v)
    assert err.value.witness == 0.3


def test_check_increasing():
    grid = np.linspace(0, 1, 100)
    check_increasing(lambda t: t**2 + t, grid)
    with pytest.raises(ConditionFailed):
        check_increasing(lambda t: np.cos(t * 6), grid)


def test_count_roots_refines_only_pairs_that_could_merge():
    # probe 0: roots in three non-adjacent cells; probe 1: two roots 2e-8
    # either side of a grid point, one root; probe 2: the same 4e-6 apart,
    # two roots.  Only probes 1 and 2 are evaluated past the grid.
    grid = np.geomspace(1e-4, 1e4, 512)
    g = grid[300]
    R = np.array([[2.0, 3.5, 100.0],
                  [g * (1.0 - 1e-8), g * (1.0 + 1e-8), 1.0],
                  [g * (1.0 - 2e-6), g * (1.0 + 2e-6), 1.0]])
    M = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    evaluated = []

    def fn(a, k):
        evaluated.extend(np.ravel(k).tolist())
        a = np.asarray(a, float)
        return np.prod((a[..., None] - R[k]) ** M[k], axis=-1)

    v = fn(grid[None, :], np.arange(3)[:, None])
    evaluated.clear()
    assert count_roots(fn, grid, v).tolist() == [3, 1, 2]
    assert set(evaluated) == {1, 2}
    k, _ = bracket_roots(fn, grid, v)
    assert np.bincount(k).tolist() == [3, 1, 2]
