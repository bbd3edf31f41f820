import numpy as np
import pytest

from glstar.constructions import (
    builtin_example,
    clifford,
    example_parabola_sequence,
    fg_star,
    latitudinal,
    parabola_star,
    pencil_from_mu,
    symmetric_star,
)
from glstar.functions import affine, as_fn1, moebius01, power

try:
    from hypothesis import settings
except ImportError:  # the property tests skip without it
    pass
else:
    # the same examples on every run, and no example database on disk
    settings.register_profile("glstar", derandomize=True, database=None)
    settings.load_profile("glstar")


@pytest.fixture(scope="session")
def seven_stars():
    """The six acceptance stars and the off-centre Clifford star, the star
    set of the benchmark."""
    quad = pencil_from_mu(as_fn1(lambda th: np.asarray(th) ** 2 * (2 / np.pi),
                                 domain=(0.0, np.pi / 2)))
    return {
        "clifford": clifford(),
        "symmetric": symmetric_star(moebius01()),
        "fg": fg_star(power(2), affine(1, -1), eps=-1),
        "builtin": builtin_example(),
        "latitudinal": latitudinal(quad),
        "parabola": parabola_star(example_parabola_sequence()),
        "clifford-off": clifford((0.5, 0.0, 0.0)),
    }
