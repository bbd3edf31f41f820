"""Property tests: the config parser is total on JSON input, sigma is an
involution that commutes with the rotations about Z where it should, and
the inverses of the monotone functions undo them."""

import json

import numpy as np
import pytest

from glstar import constructions
from glstar.cli import FAMILIES, StarConfig, parse_config
from glstar.constructions import (
    builtin_example,
    example_parabola_sequence,
    parabola_star,
)
from glstar.errors import ConfigError, ParseError
from glstar.functions import _FACTORIES, TabulatedInverse, from_spec
from glstar.star import meridian_point, rotate_z

given = pytest.importorskip("hypothesis").given
st = pytest.importorskip("hypothesis.strategies")

# --- parse_config ---------------------------------------------------------------

HUGE = st.sampled_from([10 ** 400, -(10 ** 400), 2 ** 64, 1e308])
SCALARS = (st.none() | st.booleans() | st.integers() | HUGE
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.text(max_size=8))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12)
FUNCTION_SPECS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["identity", "affine", "power", "moebius01",
                              "phi_r", "neg_circle", "table"]) | JSON_VALUES},
    optional={key: JSON_VALUES | st.lists(SCALARS, max_size=4)
              for key in ("a", "b", "p", "r", "knots", "values")})
FIELD_VALUES = JSON_VALUES | FUNCTION_SPECS | st.lists(SCALARS, max_size=4)
CONFIGS = st.fixed_dictionaries(
    {"family": st.sampled_from(FAMILIES) | JSON_VALUES},
    optional={key: FIELD_VALUES for key in (
        "tol", "seed", "samples", "handedness", "center", "eps", "parabolas",
        "a", "b", "c", "f", "g", "t", "s", "mu")})


@given(CONFIGS | JSON_VALUES)
def test_parse_config_returns_config_or_raises_config_errors(value):
    try:
        cfg = parse_config(json.dumps(value))
    except (ConfigError, ParseError):
        return
    assert isinstance(cfg, StarConfig)


# --- sigma ----------------------------------------------------------------------

# Heights of the test points: the poles, the equator, 1e-6 next to them and
# anything in between.  Closer to the poles and the equator the height chart
# costs accuracy: sigma has a square-root profile there, so the profile
# stars' end clamps at 1e-12 from the ends move sigma by up to 2.8e-6, the
# latitudinal arc map (flat at 0) loses heights below 1e-7 to rounding, and
# the eqn-family stars solve heights below 1e-9, where their inverse tables
# stop, from the limit t(a)/a -> 1 as a -> 0 (the tests below).
EDGE = 1e-6
HEIGHTS = (st.sampled_from([0.0, -0.0, 1.0, -1.0, EDGE, -EDGE, 1.0 - EDGE,
                            -1.0 + EDGE])
           | st.tuples(st.floats(EDGE, 1.0 - EDGE), st.sampled_from([1, -1]))
           .map(lambda pair: pair[0] * pair[1]))
ANGLES = st.floats(0.0, 2.0 * np.pi, exclude_max=True)
ROTATIONAL = ["clifford", "symmetric", "fg", "builtin", "latitudinal",
              "parabola"]


def _point(t, theta):
    return rotate_z(meridian_point(t), theta)


@pytest.mark.parametrize("name", ROTATIONAL + ["clifford-off"])
@given(t=HEIGHTS, theta=ANGLES)
def test_sigma_is_an_involution(seven_stars, name, t, theta):
    star = seven_stars[name]
    q = _point(t, theta)
    assert np.linalg.norm(star.sigma(star.sigma(q)) - q) < 1e-9


@pytest.mark.parametrize("name", ROTATIONAL)
@given(t=HEIGHTS, theta=ANGLES, phi=ANGLES)
def test_sigma_commutes_with_rotations(seven_stars, name, t, theta, phi):
    star = seven_stars[name]
    q = _point(t, theta)
    assert np.linalg.norm(star.sigma(rotate_z(q, phi))
                          - rotate_z(star.sigma(q), phi)) < 1e-9


@pytest.mark.parametrize("name", ["builtin", "parabola"])
def test_sigma_moves_points_next_to_the_equator(seven_stars, name):
    q = meridian_point(1e-10)
    assert np.linalg.norm(seven_stars[name].sigma(q) - q) > 1.0


@pytest.mark.parametrize("height", [1e-10, -1e-10, 1e-11, -1e-11])
@pytest.mark.parametrize("name", ["builtin", "parabola"])
def test_sigma_is_an_involution_next_to_the_equator(seven_stars, name,
                                                    height):
    star = seven_stars[name]
    q = np.array([np.sqrt(1.0 - height * height), 0.0, height])
    assert np.linalg.norm(star.sigma(star.sigma(q)) - q) < 1e-9


# --- inverses -------------------------------------------------------------------

# f.inverse(f(x)) must return x within e = 1e-12 max(1, |x|), up to what
# the rounding of f(x) alone cannot tell apart: f at the answer -+ e must
# bracket f(x) within a few spacings of max(1, |f(x)|).  Where f is flat
# (neg_circle near 0, phi_r for large a, the height tables for large a) that
# bracket is wider than e, and no inverse can do better.


def _assert_round_trip(f, inverse, x, lo, hi):
    """lo and hi: the closed interval on which f may be evaluated."""
    val = lambda v: float(np.asarray(f(np.array([v])), float)[0])  # noqa: E731
    y = val(x)
    back = float(np.ravel(inverse(np.array([y])))[0])
    e = 1e-12 * max(1.0, abs(x))
    ends = sorted((val(min(max(back - e, lo), hi)),
                   val(min(max(back + e, lo), hi))))
    d = 4.0 * np.spacing(max(1.0, abs(y)))
    assert ends[0] - d <= y <= ends[1] + d


POSITIVE = st.floats(1e-2, 1e2)


def _table_spec(n):
    """n + 1 increasing knots from a start and n steps; values from 0 in n
    steps, increasing or decreasing."""
    steps = st.lists(POSITIVE, min_size=n, max_size=n)
    return st.builds(
        lambda k0, dk, sign, dv: {
            "knots": list(k0 + np.cumsum([0.0, *dk])),
            "values": list(sign * np.cumsum([0.0, *dv]))},
        st.floats(-10.0, 10.0), steps, st.sampled_from([1, -1]), steps)


SPECS = {
    "identity": st.just({}),
    "affine": st.fixed_dictionaries({"a": POSITIVE | POSITIVE.map(lambda v: -v),
                                     "b": st.floats(-1e2, 1e2)}),
    "power": st.fixed_dictionaries({"p": st.floats(0.1, 10.0)}),
    "moebius01": st.just({}),
    "phi_r": st.fixed_dictionaries({"r": POSITIVE}),
    "neg_circle": st.just({}),
    "table": st.integers(1, 7).flatmap(_table_spec),
}


def test_every_function_kind_has_a_round_trip_strategy():
    assert set(SPECS) == set(_FACTORIES)


@pytest.mark.parametrize("kind", sorted(_FACTORIES))
@given(data=st.data())
def test_inverse_undoes_the_function(kind, data):
    f = from_spec({"kind": kind, **data.draw(SPECS[kind])})
    lo, hi = f.domain
    # moebius01 has its pole at the end of [0, 1)
    hi = np.nextafter(1.0, 0.0) if kind == "moebius01" else min(hi, 1e6)
    _assert_round_trip(f, f.inverse, data.draw(st.floats(lo, hi)), lo, hi)


@pytest.fixture(scope="session")
def height_tables():
    """The four inverse tables of log a of builtin and parabola: the height
    t(a) and the image height z(a) of each."""
    tables = []

    class Recording(TabulatedInverse):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tables.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions, "TabulatedInverse", Recording)
        builtin_example()
        parabola_star(example_parabola_sequence())
    assert len(tables) == 4
    return tables


@pytest.mark.parametrize("k", range(4))
@given(frac=st.floats(0.0, 1.0))
def test_tabulated_inverse_undoes_the_height_table(height_tables, k, frac):
    table = height_tables[k]
    lo, hi = table.u[0], table.u[-1]
    _assert_round_trip(table.fn, table.solve, lo + frac * (hi - lo), lo, hi)


@pytest.mark.parametrize("k", range(4))
def test_tabulated_inverse_is_exact_to_rounding(height_tables, k):
    # heights spread over the whole table, to 4 ulps of max(1, |y|) (the
    # heights lie in (-1, 1)); out of range the table's ends, as before
    table = height_tables[k]
    v = table._v if table.increasing else -table._v
    y = np.linspace(v[0], v[-1], 4001)[1:-1]
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(table, "fn", lambda x, f=table.fn: calls.append(1) or f(x))
        u = table.solve(y)
    # near |y| = 1 the heights are flat: rounding noise spans many ulps of
    # u, and a residual within an ulp of y ends the refinement there
    assert len(calls) <= 10
    err = np.abs(np.asarray(table.fn(u), float) - y)
    assert np.all(err <= 4.0 * np.spacing(np.maximum(1.0, np.abs(y))))
    # and nearly all within 4 ulps of y itself (not all: near a = 1e-9 one
    # ulp of u = log a moves y by up to 16 ulps of y)
    assert np.mean(err <= 4.0 * np.spacing(np.abs(y))) >= 0.998
    below, above = (v[0] - 0.5, v[-1] + 0.5) if table.increasing \
        else (v[0] + 0.5, v[-1] - 0.5)
    assert table.solve([below, above]).tolist() == [table.u[0], table.u[-1]]


@pytest.mark.parametrize("k", range(4))
def test_height_inverse_below_the_table_follows_the_limit(height_tables, k):
    # below a = 1e-9 the heights are proportional to a up to O(a)
    solve = constructions._log_a_inverse(height_tables[k].fn)
    u = np.log([1e-10, 1e-11, 1e-12, 1e-15])
    a = np.exp(solve(height_tables[k].fn(u)))
    assert np.all(np.abs(a / np.exp(u) - 1.0) < 1e-8)
