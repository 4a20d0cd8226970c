"""Exception hierarchy for frontalforge."""


class FrontalForgeError(Exception):
    """Base class for all frontalforge errors."""


class DomainError(FrontalForgeError):
    """Parameter point outside the domain, or too close to a non-periodic
    boundary for the requested finite-difference stencil."""


class UnknownCatalogError(FrontalForgeError):
    """Requested catalog frontal does not exist."""


class CatalogParameterError(FrontalForgeError):
    """Invalid parameter passed to a catalog constructor."""


class GaussDegenerateError(FrontalForgeError):
    """The induced Gauss map of an orthotomic/pedal is undefined at a point
    where (f~(x)-P).nu~(x) vanishes (the image point coincides with the
    source point there)."""

    def __init__(self, x, value):
        self.x = x
        self.value = value
        super().__init__(
            f"induced Gauss map degenerate at x={x!r}: support value {value:.3e}"
        )


class EmptyNSSetError(FrontalForgeError, RuntimeError):
    """The pole sampler found fewer no-silhouette poles than requested."""


class NonFiniteSampleError(FrontalForgeError, ValueError):
    """A sampled map holds a value that is not finite, as where an image
    overflows (the orthotomic of a circle of radius 1e308 has radius
    2e308 = inf)."""


class SupportDegenerateError(FrontalForgeError):
    """No grid point has a support value |(f-P).nu| above the margin that
    prop1's separation check needs, so f != f~ has no point to test."""


class PoleOnSilhouetteError(FrontalForgeError):
    """The pole P fails the no-silhouette condition (f(x)-P).nu(x) != 0 at a
    requested point; the inverse-transform formulas divide by that quantity."""

    def __init__(self, x, value):
        self.x = x
        self.value = value
        super().__init__(
            f"pole lies on the silhouette at x={x!r}: (f-P).nu = {value:.3e}"
        )
