"""Property tests: the config parser is total on JSON input, and sigma is
an involution that commutes with the rotations about Z where it should."""

import json

import numpy as np
import pytest

from glstar.cli import FAMILIES, StarConfig, parse_config
from glstar.errors import ConfigError, ParseError
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
# on the eqn-family stars sigma is wrong outright between 1e-12 and 1e-9
# (the xfail test below).
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


@pytest.mark.xfail(strict=True, reason=(
    "eqn-family stars: the inverse table of t -> log a stops at a = 1e-9, so "
    "for 1e-12 < t < 1e-9 sigma(p_t) lands next to p_t, across z = 0"))
@pytest.mark.parametrize("name", ["builtin", "parabola"])
def test_sigma_moves_points_next_to_the_equator(seven_stars, name):
    q = meridian_point(1e-10)
    assert np.linalg.norm(seven_stars[name].sigma(q) - q) > 1.0
