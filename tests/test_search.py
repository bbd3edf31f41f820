"""The star-line search: the covering-function and Clifford-join paths
against the 2-d search of tests/grid_search.py, at the edges of the
parameter chart, and on stars whose structure disagrees with their sigma."""

import numpy as np
import pytest

from glstar.constructions import (
    builtin_example,
    clifford,
    example_parabola_sequence,
    parabola_star,
    symmetric_star,
)
from glstar.errors import SearchFailed
from glstar.functions import bracket_roots, moebius01
from glstar.parallelism import check_hfd, embed_star, make_parallelism
from glstar.projgeom import join, join_batch, projective_distance
from glstar.search import StarLineSearch
from glstar.star import GlStar
from glstar.verify import check_coverage, exterior_samples

from bad_stars import apex_star
from grid_search import GridSearch


def _query_points(star):
    """The points of check_coverage (seed 0, 200 points) and of check_hfd
    (seed 0, 100 lines)."""
    rng = np.random.default_rng(0)
    K = join_batch(rng.normal(size=(100, 4)), rng.normal(size=(100, 4)))
    return np.vstack([exterior_samples(200, seed=0),
                      embed_star(star).project_sphere_coords(K)])


def test_exact_paths_match_the_2d_search(seven_stars):
    for name, star in seven_stars.items():
        W = _query_points(star)
        exact = StarLineSearch(star).find_batch(W)
        # the same sigma with no profile and no centre: the search fits the
        # profile of its meridian map, and has no path for a non-rotational
        # sigma
        bare = GlStar(star.label, sigma_fn=star.sigma_fn)
        if "rotational" in star.tags:
            derived = StarLineSearch(bare).find_batch(W)
        else:
            with pytest.raises(SearchFailed):
                StarLineSearch(bare).find_batch(W)
            derived = exact
        grid = GridSearch(bare).find_batch(W)
        for other in (derived, grid):
            assert [len(h) for h in exact] == [len(h) for h in other], name
            for i, (e, g) in enumerate(zip(exact, other)):
                for he, hg in zip(e, g):
                    assert projective_distance(he.k, hg.k) < 1e-12, (name, i)


EDGE_STARS = {
    "clifford": clifford(),
    "symmetric": symmetric_star(moebius01()),
    "builtin": builtin_example(),
}
ORIGIN = np.array([1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("name", sorted(EDGE_STARS))
@pytest.mark.parametrize("w, line", [
    # the z-direction at infinity: the axis
    ((0.0, 0.0, 0.0, 1.0), join(ORIGIN, (0.0, 0.0, 0.0, 1.0))),
    # a point of the plane z = 0: its horizontal-star line
    ((1.0, 2.0, 1.0, 0.0), join(ORIGIN, (1.0, 2.0, 1.0, 0.0))),
    # a horizontal direction at infinity: the horizontal-star line along it
    ((0.0, 1.0, 2.0, 0.0), join(ORIGIN, (0.0, 1.0, 2.0, 0.0))),
], ids=["z-infinity", "plane-z0", "horizontal-infinity"])
def test_edge_points_have_one_line(name, w, line):
    hits = StarLineSearch(EDGE_STARS[name]).find(np.array(w))
    assert len(hits) == 1
    assert projective_distance(hits[0].k, line.p) < 1e-12


@pytest.mark.parametrize("center", [(0.0, 0.0, -0.4), (0.3, 0.2, -0.5)])
def test_clifford_centre_below_the_equator(center):
    # lines through such a centre with both sphere points below z = 0 lie
    # outside the chart t in [0, 1]; their hits carry t < 0
    star = clifford(center)
    assert check_coverage(star).passed
    assert check_hfd(make_parallelism(star)).passed
    # the horizontal line through the centre and (0, 2, z_centre)
    hits = StarLineSearch(star).find(np.array([1.0, 0.0, 2.0, center[2]]))
    assert len(hits) == 1
    assert np.isclose(hits[0].t, center[2])


def test_profile_with_a_foreign_sigma_covers_nothing():
    # builtin's profile, clifford's sigma: every root's chord misses w
    star = GlStar("mismatch", sigma_fn=clifford().sigma_fn,
                  profile=EDGE_STARS["builtin"].profile)
    report = check_coverage(star)
    assert not report.passed
    assert report.max_residual == 0.0


def test_crossing_profile_covers_twice():
    # cones with apexes rising from 0.3 to 0.4: where two of them cross
    # outside the sphere, a point lies on a line of each
    star = apex_star(lambda t: 0.3 + 0.1 * t)
    report = check_coverage(star)
    assert not report.passed
    assert report.max_residual == 2.0
    hits = StarLineSearch(star).find(np.asarray(report.witness))
    assert len(hits) == 2
    assert abs(hits[0].t - hits[1].t) > 0.1
    assert all(h.residual < 1e-12 for h in hits)


def test_parabola_coverage_at_check_seed_5001():
    # the 2-d search found no line through (1, 0.58871, -1.10796, -0.03914)
    star = parabola_star(example_parabola_sequence())
    assert check_coverage(star, seed=5001).passed


@pytest.mark.parametrize("build", [
    builtin_example,
    lambda: parabola_star(example_parabola_sequence()),
], ids=["builtin", "parabola"])
def test_eqn_star_coverage_over_check_seeds(build):
    star = build()
    failed = [seed for seed in range(5000, 5040)
              if not check_coverage(star, seed=seed).passed]
    assert failed == []


def test_symmetric_coverage_search_refines_in_few_rounds(monkeypatch):
    # every round of the root refinement is one call of the covering
    # function; an end that is already a root must not leave a bisection
    # tail that keeps the batch looping
    from glstar import search
    rounds = []

    def counted(fn, *args, **kwargs):
        def fn_counted(x, k):
            rounds.append(np.size(x))
            return fn(x, k)
        return bracket_roots(fn_counted, *args, **kwargs)

    monkeypatch.setattr(search, "bracket_roots", counted)
    assert check_coverage(symmetric_star(moebius01())).passed
    assert 0 < len(rounds) <= 10
