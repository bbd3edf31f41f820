"""Generalized line stars on the unit sphere and the regular topological
parallelisms of real projective 3-space they induce via the Klein
correspondence."""

from .errors import (
    ConditionFailed,
    ConfigError,
    DegenerateJoin,
    DegenerateMeet,
    EvalError,
    GlStarError,
    HfdViolation,
    InvalidCenter,
    InvalidInput,
    NotOnQuadric,
    NotTwoSecant,
    NotZeroSecant,
    ParseError,
    SearchFailed,
    SingularForm,
)
from .projgeom import (
    DEFAULT_TOL,
    HPoint,
    PLine,
    QuadricForm,
    Side,
    Subspace,
    join,
    klein_form,
    klein_lift,
    line_sphere_intersect,
    meet,
    normalize,
    point_side,
    polar,
    projective_distance,
    second_intersection,
    signature_on,
)
from .star import (
    GlStar,
    Handedness,
    RotationalProfile,
    SurfaceEntry,
    handedness_of,
    meridian_line,
    surface_mesh,
)
from .functions import Fn1, affine, identity, moebius01, neg_circle, phi_r, power, table
from .constructions import (
    GlPencil,
    ParabolaSeq,
    builtin_example,
    clifford,
    eqn_star,
    example_parabola_sequence,
    fg_star,
    latitudinal,
    omega,
    omega_inv,
    parabola_star,
    param_star,
    pencil_from_mu,
    symmetric_star,
)
from .verify import (
    CheckReport,
    check_axial,
    check_coverage,
    check_fixed_point_free,
    check_involution,
    check_no_exterior_meet,
    check_pz_monotone,
    check_rotational,
    check_symmetric,
    descartes_bound,
    positive_root_count,
    run_star_checks,
)
from .parallelism import (
    EmbeddedStar,
    HfdLineSet,
    ParallelClass,
    Parallelism,
    check_hfd,
    check_torus_fixes_classes,
    check_zero_secants,
    class_from_hfd_line,
    dim_parallelism,
    make_parallelism,
    parallel_class_of,
    parallel_through,
    spread_line_through,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
