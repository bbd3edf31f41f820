"""Property tests: the config parser is total on JSON input, sigma is an
involution that commutes with the rotations about Z where it should, the
inverses of the monotone functions undo them, and each column kernel of
the search and the profiles gives a row of Python floats its batch row's
bits."""

import json

import numpy as np
import pytest

from glstar import functions
from glstar.cli import FAMILIES, StarConfig, parse_config
from glstar.constructions import (
    _chord_start,
    _eqn_heights,
    _hand_sign_fn,
    _newton_step,
    _parabola_bc,
    _parabola_height,
    _param_bc,
    example_parabola_sequence,
)
from glstar.errors import ConfigError, InvalidInput, ParseError
from glstar.functions import (
    _FACTORIES,
    TabulatedInverse,
    bracket_roots,
    count_roots,
    from_spec,
    phi_r,
)
from glstar.projgeom import (
    col_clip,
    col_join,
    col_line_distance,
    col_rows,
    col_sign,
    col_sqrt,
    col_ufunc,
    col_where,
    plucker_basis,
    row_dot,
    row_norm,
)
from glstar.parallelism import _h_line, _ratio
from glstar.search import _chord_azimuth, _covering, _residual
from glstar.star import (
    RotationalProfile,
    _snap_radicand,
    meridian_point,
    rotate_z,
)

from grid_search import nonzero_candidates, rejection

given = pytest.importorskip("hypothesis").given
example = pytest.importorskip("hypothesis").example
assume = pytest.importorskip("hypothesis").assume
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
# stars stay involutions only to about 1e-10 at 1e-12 from the ends, and the
# latitudinal arc map (flat at 0) loses heights below 1e-7 to rounding.
# builtin and parabola invert their heights in closed form down to 0 (a
# tabulated eqn star solves heights below its tables' a = 1e-9 from the
# limit t(a)/a -> 1 as a -> 0, the tests below).
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
    """The circle heights t(a) and s(a) of builtin's coefficients b, c and
    of parabola's, as eqn_star works them out, each with the table in log a
    that its inverse builds at its first call (builtin and parabola
    themselves invert their heights in closed form): four (height, table)
    pairs."""
    heights = [*_eqn_heights(_param_bc(phi_r(1.5), phi_r(2.0))),
               *_eqn_heights(_parabola_bc(example_parabola_sequence()))]
    tables = []

    class Recording(TabulatedInverse):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tables.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functions, "TabulatedInverse", Recording)
        for h in heights:
            h.inverse(0.5)
    assert len(tables) == 4
    return list(zip(heights, tables))


@pytest.mark.parametrize("k", range(4))
@given(frac=st.floats(0.0, 1.0))
def test_tabulated_inverse_undoes_the_height_table(height_tables, k, frac):
    table = height_tables[k][1]
    lo, hi = table.u[0], table.u[-1]
    _assert_round_trip(table.fn, table.solve, lo + frac * (hi - lo), lo, hi)


@pytest.mark.parametrize("k", range(4))
def test_tabulated_inverse_is_exact_to_rounding(height_tables, k):
    # heights spread over the whole table, to 4 ulps of max(1, |y|) (the
    # heights lie in (-1, 1)); out of range the table's ends, as before
    table = height_tables[k][1]
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
    h = height_tables[k][0]
    a = np.array([1e-10, 1e-11, 1e-12, 1e-15])
    assert np.all(np.abs(h.inverse(h(a)) / a - 1.0) < 1e-8)


# --- root counts ----------------------------------------------------------------

# positive_root_count's default grid, and a linear grid below 1, where the
# merge cutoff functions._CLUSTER_RTOL * max(1, |x|) is absolute
ROOT_GRIDS = {"log": np.geomspace(1e-4, 1e4, 512),
              "linear": np.linspace(0.01, 0.9, 90)}


@st.composite
def probe_roots(draw, grid):
    """(root, multiplicity) of one probe: roots at grid points, pairs that
    straddle a grid point within up to 2e-6 of its scale (both sides of
    the 1e-6 merge cutoff, and at it when an offset is 0), double roots,
    and single roots anywhere, so also in non-adjacent cells."""
    roots = []
    for kind in draw(st.lists(st.sampled_from(["grid", "pair", "double",
                                               "any"]), max_size=5)):
        i = draw(st.integers(1, grid.size - 2))
        frac = draw(st.floats(0.0, 1.0))
        if kind == "grid":
            roots.append((grid[i], 1))
        elif kind == "pair":
            scale = max(1.0, grid[i])
            below, above = draw(st.floats(0.0, 2e-6)), draw(st.floats(0.0, 2e-6))
            roots += [(grid[i] - below * scale, 1), (grid[i] + above * scale, 1)]
        else:
            roots.append((grid[i] + frac * (grid[i + 1] - grid[i]),
                          2 if kind == "double" else 1))
    return roots


@pytest.mark.parametrize("grid_name", sorted(ROOT_GRIDS))
@given(data=st.data())
def test_count_roots_equals_the_refine_everything_count(grid_name, data):
    # count_roots refines only the pairs that could merge; bracket_roots
    # refines every bracket: the counts agree probe by probe, a probe that
    # is zero on the whole grid included
    grid = ROOT_GRIDS[grid_name]
    rows = data.draw(st.lists(probe_roots(grid), min_size=1, max_size=4))
    zero = np.array(data.draw(st.lists(st.booleans(), min_size=len(rows),
                                       max_size=len(rows))))
    R = np.zeros((len(rows), max(1, max(map(len, rows)))))
    M = np.zeros(R.shape)
    for k, row in enumerate(rows):
        for j, (x, m) in enumerate(row):
            R[k, j], M[k, j] = x, m
    scale = np.where(zero, 0.0, 1.0)

    def fn(a, k):
        a = np.asarray(a, float)
        return scale[k] * np.prod((a[..., None] - R[k]) ** M[k], axis=-1)

    v = fn(grid[None, :], np.arange(len(rows))[:, None])
    k, _ = bracket_roots(fn, grid, v)
    assert (count_roots(fn, grid, v).tolist()
            == np.bincount(k, minlength=len(rows)).tolist())


# --- row reductions -----------------------------------------------------------

# every kind of double: signed zeros, infinities, NaN, subnormals, the
# extremes, and ordinary values
ROW_VALUES = (st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                               -5e-324, 2.2e-308, 1e308, -1e308])
              | st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True))


# grid values with zeros of both signs, NaN and infinities among them
GRID_VALUES = (st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0])
               | st.floats(allow_nan=True, allow_infinity=True))


@given(st.integers(1, 9).flatmap(lambda g: st.lists(
    st.lists(GRID_VALUES, min_size=g, max_size=g), max_size=6).map(
        lambda rows: np.array(rows, float).reshape(len(rows), g))))
@example(np.zeros((0, 5)))
@example(np.array([[0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, -0.0]]))
def test_root_candidates_equal_the_2d_nonzero(v):
    # one flat index and divmod take the interleaved mask's candidates in
    # np.nonzero's order, one row and no rows included
    for x, y in zip(functions._root_candidates(v), nonzero_candidates(v)):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def _same_bits(x, y):
    """Equal bit for bit, any NaN as any NaN."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    return x.shape == y.shape and bool(np.all(
        (x.view(np.uint64) == y.view(np.uint64)) | (np.isnan(x) & np.isnan(y))))


@given(st.integers(1, 7).flatmap(lambda k: st.tuples(*(
    st.lists(st.lists(ROW_VALUES, min_size=k, max_size=k), min_size=1,
             max_size=4) for _ in range(2)))))
# products all -0.0: numpy's sum is +0.0, a plain left-to-right sum -0.0
@example(([[-0.0, 0.0, -1.0]], [[1.0, -2.0, 0.0]]))
def test_row_reductions_are_numpys_bit_for_bit(rows):
    A, B = (np.array(r) for r in rows)
    A, B = A[:min(len(A), len(B))], B[:min(len(A), len(B))]
    with np.errstate(all="ignore"):
        assert _same_bits(row_dot(A, B), np.sum(A * B, axis=-1))
        assert _same_bits(row_norm(A), np.linalg.norm(A, axis=-1))
        assert _same_bits(row_dot(A[0], B[0]), np.sum(A[0] * B[0]))


def test_row_reductions_refuse_rows_of_eight():
    # from 8 entries on numpy sums pairwise, in another order
    with pytest.raises(InvalidInput):
        row_norm(np.ones((3, 8)))
    with pytest.raises(InvalidInput):
        row_dot(np.ones((3, 4)), np.ones(4))  # no broadcasting either


# --- column kernels ------------------------------------------------------------


def _fit(t, m0, m1, m2):
    """from_meridian's fit at t with meridian images (m0, m1, m2)."""
    def mer(tt):
        return (m0, m1, m2) if type(tt) is float else np.stack([m0, m1, m2], -1)
    return RotationalProfile.from_meridian(mer).abc(t)


def _closed_form(t, a, b, c, hs):
    """The closed-form meridian image at t of coefficients (a, b, c) and
    handedness sign hs."""
    profile = RotationalProfile(abc=lambda tt: (a, b, c),
                                handedness_sign=lambda tt: hs)
    m = profile._meridian(t)
    return m if type(t) is float else tuple(m.T)


def _flat(rows, *more):
    """Two rows of columns, and more columns, as one tuple of columns."""
    return (*rows[0], *rows[1], *more)


def _vectors(n):
    return lambda c: (c[:n], c[n:2 * n], c[2 * n:])


def _anderson_bjorck(a, fa, b, fb, w3, fx):
    """One Anderson-Björck step of _illinois at rtol 1e-12 on a bracket
    with ends a, b that is open as _illinois keeps its brackets: fb is
    not 0 (here 1 in its place) and fa is 0, NaN or of the other sign
    (here |fa| of that sign); fx is the value at the step's point.  The
    bracket's ends, width, tolerance, whether it is done (1.0) and its
    root, the point, and the new end a with its two values."""
    fb = col_where(fb == 0.0, 1.0, fb)
    fa = col_where(fb < 0.0, abs(fa), -abs(fa))
    lo, hi, w, tol, done, root = functions._bracket(a, fa, b, fb, 1e-12)
    x = functions._secant(a, fa, b, fb, lo, hi, w, w3, tol)
    return (lo, hi, w, tol, col_where(done, 1.0, 0.0), root, x,
            *functions._keep(a, fa, fa, b, fb, fx))


def _newton(x, lo, hi, u, *cubic):
    """One guarded Newton step of the parabola height inverse, with whether
    the root is done as 1.0 or 0.0."""
    x, lo, hi, done = _newton_step(x, lo, hi, u, cubic)
    return x, lo, hi, col_where(done, 1.0, 0.0)


_PARABOLA_SEQUENCE = example_parabola_sequence()
# the parabola star's circle height t(a), whose inverse col_quiet runs
_PARABOLA_HEIGHT = _parabola_height(
    _PARABOLA_SEQUENCE, _eqn_heights(_parabola_bc(_PARABOLA_SEQUENCE))[0], 1.0)
# a regulus sign that divides by t: a float 0.0 raises, and col_quiet
# answers it by a one-element batch
_HAND_SIGN = _hand_sign_fn(lambda t: 1.0 / t)


# (kernel of columns, number of columns, its output as a tuple of columns)
KERNELS = {
    "covering": (lambda c: (_covering(*c),), 7),
    "line_distance": (lambda c: (col_line_distance(c[:6], c[6:]),), 10),
    "residual": (lambda c: (_residual(*_vectors(4)(c)),), 12),
    "chord_azimuth": (lambda c: (_chord_azimuth(*_vectors(4)(c)),), 12),
    "fit": (lambda c: tuple(_fit(*c)), 4),
    "closed_form": (lambda c: _closed_form(*c), 5),
    "snap_radicand": (lambda c: (_snap_radicand(*c),), 2),
    "anderson_bjorck": (lambda c: _anderson_bjorck(*c), 6),
    "newton_step": (lambda c: _newton(*c), 9),
    "chord_start": (lambda c: (_chord_start(*c),), 5),
    "parabola_coefficients": (
        lambda c: _PARABOLA_SEQUENCE.coefficients_at(*c), 1),
    "parabola_height_inverse": (lambda c: (_PARABOLA_HEIGHT.inverse(*c),), 1),
    "hand_sign": (lambda c: (_HAND_SIGN(*c),), 1),
    "plucker_basis": (lambda c: _flat(plucker_basis(c)), 6),
    "h_line": (lambda c: _flat(*_h_line(c[:4], c[4:])), 8),
    "secant_ratio": (lambda c: (_ratio(c[:6], c[6:]),), 12),
}
# where the step's f' is 0, one float raises and the batch bisects
BATCH_BISECTS = {"newton_step"}


@pytest.mark.parametrize("name", sorted(KERNELS))
@given(data=st.data())
def test_column_kernel_of_floats_is_its_batch_row(name, data):
    # one kernel at two input types: each row of Python floats gives its
    # row of the (n,) array call bit for bit (any NaN as any NaN), or raises
    # ZeroDivisionError or ValueError where that row holds inf or NaN (or,
    # for a Newton step, where the batch bisects)
    kernel, k = KERNELS[name]
    rows = np.array(data.draw(st.lists(
        st.lists(ROW_VALUES, min_size=k, max_size=k), min_size=1,
        max_size=5)))
    with np.errstate(all="ignore"):
        batch = np.array(kernel(list(rows.T)))
        for j, row in enumerate(rows.tolist()):
            try:
                one = kernel(row)
            except (ZeroDivisionError, ValueError):
                assert (name in BATCH_BISECTS
                        or not np.isfinite(batch[:, j]).all()), (row, batch[:, j])
                continue
            assert {type(v) for v in one} == {float}, one
            assert _same_bits(one, batch[:, j]), (row, one, batch[:, j])


def _leaves(v):
    """The numbers or arrays of a kernel's answer, nested tuples and lists
    flattened in order."""
    if isinstance(v, (tuple, list)):
        return [x for item in v for x in _leaves(item)]
    return [v]


# (kernel of rows, the widths of its rows)
ROW_KERNELS = {
    "residual": (_residual, (4, 4, 4)),
    "h_line": (_h_line, (4, 4)),
    "secant_ratio": (_ratio, (6, 6)),
}


@pytest.mark.parametrize("name", sorted(ROW_KERNELS))
@given(data=st.data())
def test_rows_runner_of_one_row_is_its_batch_row(name, data):
    # col_rows gives a single row its floats, or the one-element batch's
    # answer as floats where the floats raise, and a batch its columns: each
    # row's answer is floats, the batch's row bit for bit (any NaN as any NaN)
    kernel, widths = ROW_KERNELS[name]
    n = data.draw(st.integers(1, 4))
    rows = [np.array(data.draw(st.lists(
        st.lists(ROW_VALUES, min_size=k, max_size=k), min_size=n,
        max_size=n))).reshape(n, k) for k in widths]
    with np.errstate(all="ignore"):
        batch = _leaves(col_rows(kernel, *rows))
        for j in range(n):
            one = _leaves(col_rows(kernel, *(X[j:j + 1] for X in rows)))
            assert len(one) == len(batch)
            assert all(type(x) is float for x in one), (name, j, one)
            for x, column in zip(one, batch):
                assert _same_bits(np.ravel(x), np.ravel(column)[j:j + 1]), (
                    name, j, x, column)


def test_runners_answer_a_raise_by_a_quiet_batch():
    # a float that raises gets the one-element batch's answer as floats, from
    # col_quiet and from col_rows, and an array that divides by zero warns of
    # nothing (tier-1 turns warnings into errors)
    ones = _PARABOLA_SEQUENCE.coefficients_at(0.0)  # 1 / a^2 raises at 0.0
    batch = _PARABOLA_SEQUENCE.coefficients_at(np.array([0.0, 1.0]))
    assert all(type(v) is float for v in ones) and ones[0] == np.inf
    assert _same_bits(ones, [v[0] for v in batch])
    # the chord of row 0 has B = A and spans no line: 0 / 0 in _residual
    W, A, B = np.full((2, 4), 0.5), np.eye(4)[[0, 0]], np.eye(4)[[0, 1]]
    res = col_rows(_residual, W, A, B)
    one = col_rows(_residual, W[:1], A[:1], B[:1])
    assert np.isnan(res[0]) and np.isfinite(res[1])
    assert type(one) is float and _same_bits(one, res[0])


# coordinates in [-1, 1], those below 2^-60 taken to 0, so that no square
# of a product of three of them, scaled by 2^200 or 2^-200, leaves the
# normal range
BOX = st.floats(-1.0, 1.0).map(lambda x: x if abs(x) > 2.0 ** -60 else 0.0)
BOX_VECTORS = st.lists(BOX, min_size=4, max_size=4)


@given(A=BOX_VECTORS, D=BOX_VECTORS, w=BOX_VECTORS,
       on=st.none() | st.tuples(BOX, BOX), near=st.integers(0, 40),
       scale=st.sampled_from([-200, -100, 100, 200]))
@example(A=[1.0, 0.0, 0.0, 0.0], D=[0.0, 1.0, 0.0, 0.0],
         w=[0.0, 0.0, 1.0, 0.0], on=(0.6, 0.8), near=0, scale=200)
def test_line_distance_is_the_gram_schmidt_rejection(A, D, w, on, near,
                                                     scale):
    # the distance of a unit w from the line A v B by its Plücker vector
    # is the norm of w's rejection from the Gram-Schmidt frame of A and B
    # (the reference search's) to a few ulps of the problem's condition
    # 1 + 1 / sin(A, B): for w on the line (on), for B = A + 2^-near D next
    # to A, and bit for bit the same for a huge or a tiny p = 2^scale A v B
    B = [a + 2.0 ** -near * d for a, d in zip(A, D)]
    if on is not None:
        w = [on[0] * a + on[1] * b for a, b in zip(A, B)]
    na, nb, nw = (float(np.linalg.norm(v)) for v in (A, B, w))
    p = col_join(A, B)
    sin = float(np.linalg.norm(p)) / (na * nb) if na * nb else 0.0
    assume(min(na, nb, nw) > 0.1 and sin > 1e-12)
    w = [x / nw for x in w]
    d = col_line_distance(p, w)
    assert d == col_line_distance([2.0 ** scale * x for x in p], w)
    ref = float(np.linalg.norm(rejection(w, A, B)))
    assert abs(d - ref) <= 4.0 * np.finfo(float).eps * (1.0 + 1.0 / sin), (
        d, ref, sin)
    if on is not None:
        assert d <= 4.0 * np.finfo(float).eps * (1.0 + 1.0 / sin)


# the steps of the column kernels that differ between a float and an array
HELPERS = {
    "sign": col_sign,
    "clip": lambda x: col_clip(x, -1.0, 1.0),
    "maximum": lambda x: col_clip(x, 0.0),
    "where": lambda x: col_where(x > 0.5, x, -x),
    "sqrt": col_sqrt,
    "exp": lambda x: col_ufunc(np.exp, x),
}


@pytest.mark.parametrize("name", sorted(HELPERS))
@given(x=ROW_VALUES)
@example(x=-0.0)
def test_column_helper_of_a_float_is_its_array_entry(name, x):
    helper = HELPERS[name]
    with np.errstate(all="ignore"):
        batch = helper(np.array([x]))
        try:
            one = helper(x)
        except ValueError:  # the root of a negative number
            assert np.isnan(batch[0])
            return
    assert type(one) is float and _same_bits(one, batch[0]), (one, batch)
