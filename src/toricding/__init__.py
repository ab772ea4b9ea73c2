"""Exact-arithmetic Ding-stability invariants of toric Fano polytopes.

Everything is computed over rational numbers from the moment polytope
alone: the extremal affine function and its maximum vartheta,
Duistermaat-Heckman measures of toric test-configurations, the
non-Archimedean energy/J/Ding functionals and their relative variants,
twisted and reduced J-functionals, and the deformation-to-normal-cone
family whose closed forms audit all of the above.
"""

from .errors import (
    COutOfRange,
    DimensionMismatch,
    EmptyPolytope,
    InputTooLarge,
    InternalError,
    MismatchReport,
    NonSmoothVertex,
    NotCanonicalFano,
    OriginNotInterior,
    SingularGram,
    ToricDingError,
    UnboundedPolytope,
    ZeroFacetNormal,
)
from .extremal import (
    ExtremalData,
    FanoPolytope,
    covariance,
    dh_of_vector_field,
    extremal_affine,
    validate_fano,
)
from .functionals import (
    DHMeasure,
    PLConcave,
    d_na,
    d_z_na,
    dh_measure,
    e_na,
    inner_product,
    j_na,
)
from .geometry import (
    AffineFn,
    HPolytope,
    barycenter,
    facets_from_vertices,
    integrate_product,
    triangulate,
    vertices,
    volume,
)
from .lattice import jump_weights, level_moments
from .normalcone import (
    NormalConeFamily,
    VertexChart,
    dh_closed_form,
    g_c,
    normal_cone_family,
    select_vertex,
    verdict,
    verify_family,
    vertex_chart,
)
from .twisting import reduce_jna

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
