"""Exception types shared across the package."""


class GlStarError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(GlStarError, ValueError):
    """Malformed or out-of-domain input (zero vectors, v < 0 under a sqrt, ...)."""


class DegenerateJoin(InvalidInput):
    """Join of two projectively equal points."""


class NotOnQuadric(InvalidInput):
    """6-vector does not satisfy the Klein quadric equation within tolerance."""


class SingularForm(InvalidInput):
    """Operation requires a nondegenerate bilinear form."""


class NotTwoSecant(GlStarError):
    """Line meets the sphere in fewer than two points."""


class InvalidCenter(InvalidInput):
    """Ordinary-star center not strictly interior to the sphere."""


class ConditionFailed(GlStarError):
    """A numeric hypothesis of a star construction is violated.

    ``condition`` names the failed requirement, ``witness`` carries the
    offending sample (a parameter value or point), when one exists.
    """

    def __init__(self, condition, witness=None):
        self.condition = condition
        self.witness = witness
        msg = condition if witness is None else f"{condition} (witness: {witness})"
        super().__init__(msg)


class EvalError(GlStarError):
    """An involution evaluator failed (diverging search, bad table, ...)."""


class SearchFailed(GlStarError):
    """A search has no answer: no star line through a point a query needs,
    or no way to search a star with no centre, no profile and a sigma that
    does not commute with rotations about Z."""


class HfdViolation(GlStarError):
    """More than one candidate line where exactly one was expected."""


class DegenerateMeet(GlStarError):
    """The two planes P*(h_i) p that meet in the spread line through p are
    dependent: p lies on a line whose Klein point is in the span of h."""


class NotZeroSecant(GlStarError):
    """Line of P^5 is not disjoint from the Klein quadric."""


class ConfigError(GlStarError, ValueError):
    """Semantically invalid configuration; ``field`` gives the offending path."""

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")


class ParseError(ConfigError):
    """Config text is not valid JSON; ``position`` is the character offset."""

    def __init__(self, message, position=None):
        self.position = position
        super().__init__(message)
