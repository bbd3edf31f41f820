import numpy as np
import pytest

from glstar.errors import ConditionFailed, ConfigError, InvalidInput
from glstar.functions import (
    affine,
    as_fn1,
    bisect_monotone,
    bracket_roots,
    check_increasing,
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


def test_moebius_round_trip():
    m = moebius01()
    ts = np.linspace(0.0, 0.99, 100)
    assert np.allclose(m.inverse(m(ts)), ts, atol=1e-14)
    assert np.isclose(m(0.5), 1.0)


def test_power_affine_identity():
    assert np.isclose(power(2)(0.5), 0.25)
    assert np.isclose(affine(1, -1)(0.25), -0.75)
    assert identity()(0.7) == 0.7


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


def test_bisect_monotone_vectorized():
    f = lambda x: x**3
    ys = np.array([0.001, 0.125, 1.0])
    xs = bisect_monotone(f, ys, 0.0, 2.0)
    assert np.allclose(xs, [0.1, 0.5, 1.0], atol=1e-12)
    # decreasing function
    g = lambda x: -x
    assert np.isclose(bisect_monotone(g, -0.3, 0.0, 1.0), 0.3, atol=1e-12)


def test_bisect_monotone_decreasing_batch():
    # out-of-range targets get the nearer end, and the shape is kept
    g = lambda x: 1.0 - x**3  # noqa: E731
    ys = np.array([[0.999, 0.875], [0.0, -7.0], [1.5, -8.0]])
    xs = bisect_monotone(g, ys, 0.0, 2.0)
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
    assert np.allclose(bisect_monotone(f, ys, 0.0, 2.0),
                       2.0 / (1.0 + np.exp(-ys)), rtol=1e-14)


def test_bisect_monotone_takes_few_evaluations():
    # the arc map of the latitudinal star: each target starts from a cell
    # of a small table, not from the whole interval
    calls = []

    def m(x):
        calls.append(x.size)
        return x * x * (2.0 / np.pi)

    ys = np.linspace(0.0, np.pi / 2, 500)
    xs = bisect_monotone(m, ys, 0.0, np.pi / 2)
    assert np.allclose(m(xs), ys, rtol=0.0, atol=4e-16)
    assert len(calls) <= 1 + 10


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


def test_check_increasing():
    grid = np.linspace(0, 1, 100)
    check_increasing(lambda t: t**2 + t, grid)
    with pytest.raises(ConditionFailed):
        check_increasing(lambda t: np.cos(t * 6), grid)
