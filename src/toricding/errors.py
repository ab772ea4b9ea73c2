"""Exception hierarchy for the toricding library."""


class ToricDingError(Exception):
    """Base class for all library errors."""


class EmptyPolytope(ToricDingError):
    """The inequality system has no solution."""


class UnboundedPolytope(ToricDingError):
    """The inequality system has a nontrivial recession cone."""


class ZeroFacetNormal(ToricDingError):
    """An inequality has the zero vector as its normal."""


class NotCanonicalFano(ToricDingError):
    """Some facet has rhs != 1 after normalization to a primitive normal."""


class OriginNotInterior(ToricDingError):
    """The origin does not lie strictly inside the polytope."""


class InputTooLarge(ToricDingError):
    """The input is beyond the sizes the exact algorithms can handle."""


class InternalError(ToricDingError):
    """A computed object broke an invariant the library guarantees."""


class SingularGram(InternalError):
    """The covariance Gram matrix failed to invert (internal error)."""


class DimensionMismatch(ToricDingError):
    """Vector length does not match the ambient dimension."""


class NonSmoothVertex(ToricDingError):
    """Primitive edge directions at the vertex are not a lattice basis."""

    def __init__(self, message, determinant=None):
        super().__init__(message)
        self.determinant = determinant


class COutOfRange(ToricDingError):
    """Deformation parameter c outside the exact-validity range (0, c_max)."""


class MismatchReport(ToricDingError):
    """One or more exact identities failed; carries both sides of each."""

    def __init__(self, failures):
        self.failures = list(failures)
        lines = "; ".join(f"{name}: {lhs} != {rhs}" for name, lhs, rhs in self.failures)
        super().__init__(f"{len(self.failures)} identity check(s) failed: {lines}")
