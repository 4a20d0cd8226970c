"""frontalforge: transforms of frontals (orthotomic, pedal, anti-orthotomic,
negative pedal), no-silhouette sets, the generalized support-vector formula,
and front criteria, with a catalog of analytic test frontals."""

from .analysis import (CahnHoffmanReport, FrontReport, cahn_hoffman,
                       front_equivalence, is_front_at, opening_residual)
from .catalog import catalog, catalog_names, smooth_step
from .errors import (CatalogParameterError, DegenerateError, DomainError,
                     EmptyNSSetError, FrontalForgeError, GaussDegenerateError,
                     PoleOnSilhouetteError, UnknownCatalogError, UsageError)
from .frontal import (Frontal, FrontalCheck, ParamDomain, SampledMap,
                      check_frontal, interval, jacobian_f, jacobian_nu,
                      sample)
from .linalg import numeric_rank, singular_values
from .silhouette import (NSReport, RasterGrid, ns_membership, ns_raster,
                         raster_to_csv, raster_to_pgm)
from .transforms import (TransformKind, TransformResult, anti_orthotomic,
                         negative_pedal, orthotomic, pedal, sample_poles,
                         transform)

__version__ = "0.1.0"
