"""Exception types raised across the library."""


class PolyclassError(Exception):
    """Base class for all library-specific errors."""


class NoTriangle(PolyclassError):
    """The cubic has no vertex triangle (a^2 - 3b <= 0, or no three real roots)."""


class NoTetrahedron(PolyclassError):
    """The quartic has no root tetrahedron (3a^2 - 8b <= 0)."""


class OutOfRange(PolyclassError):
    """The free term lies outside the band [c2, c1], as the discriminant's sign decides."""


class NoConvergence(PolyclassError):
    """The simultaneous root iteration failed to converge.

    Carries the per-iteration maximum correction sizes in ``trace``.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = list(trace or [])


class Unachievable(PolyclassError):
    """The requested root nature cannot be reached from the fixed coefficients."""


class RoundTripMismatch(PolyclassError):
    """Internal guard: a synthesized quartic did not classify back to its target."""


class NotFourReal(PolyclassError):
    """Root localization requires a quartic with four real roots."""


class DegenerateAtBoundary(PolyclassError):
    """The quintic free-term discriminant has a repeated root; sign counting is ill-posed."""
