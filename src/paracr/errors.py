"""Exception types shared across the engine.

Every error carries enough context to tell the caller what to do: resample
(point-level rejections), fix the input (spec-level errors), or treat the run
as an engine bug (verdict inconsistencies).
"""


class ParacrError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ParacrError):
    """A component is not defined at a point, or nowhere.

    Jets do not raise: a division inside the guard band (``|denominator|
    <= jets._DIV_GUARD``), ln of a non-positive value or sqrt of a
    negative one (or of zero, for its derivatives) leaves a coefficient
    that is not a finite number, and a point with such a component is
    rejected with this error; callers resample.  A constant
    subexpression (plain floats) raises it at once, naming the cause,
    since it fails at every point alike.
    """


class ParseError(ParacrError):
    """Expression text could not be parsed.

    Attributes:
        offset: byte offset into the input where parsing failed.
        message: human-readable description.
        expected: short hint naming the expected token class, or None.
    """

    def __init__(self, offset, message, expected=None):
        self.offset = offset
        self.message = message
        self.expected = expected
        hint = f" (expected {expected})" if expected else ""
        super().__init__(f"at offset {offset}: {message}{hint}")


class UnknownVariable(ParseError):
    """An identifier is not in the chart's coordinate list.

    Attributes:
        name: the offending identifier.
        coordinates: the coordinate names that were allowed.
    """

    def __init__(self, offset, name, coordinates):
        self.name = name
        self.coordinates = tuple(coordinates)
        super().__init__(
            offset,
            f"unknown variable {name!r}; coordinates are {', '.join(coordinates)}",
            expected="coordinate name",
        )


class ValidationError(ParacrError):
    """A manifold spec is structurally invalid; the message names the block."""


class SingularFrame(ParacrError):
    """|det E| fell below the frame-regularity threshold; point rejected."""


class OutsidePatch(ParacrError):
    """Chart point lies outside the graph patch of the embedded hypersurface."""


class DegenerateMetric(ParacrError):
    """|det g| fell below the invertibility threshold at a point; the
    point is rejected by ``geometry.structure_jets``'s rule (the sampler
    redraws it, and ``PointFrame`` raises this when it is built)."""


class RankDefect(ParacrError):
    """An eigendistribution projector has the wrong rank; input structure broken."""


class WrongDimension(ParacrError):
    """A dimension-restricted condition was requested in another dimension."""


class InconsistentVerdict(ParacrError):
    """Equivalent criteria disagreed hard at the shared tolerance: engine bug."""


class SamplingExhausted(ParacrError):
    """Rejection sampling burned its budget without collecting enough points."""
