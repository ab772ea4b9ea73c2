"""The public names of the package.

A name that appears or disappears here is a library API change; record
it in the README's "Library API changes".
"""

import toricding

PUBLIC = [
    "AffineFn", "COutOfRange", "DHMeasure", "DimensionMismatch", "EmptyPolytope",
    "ExtremalData", "FanoPolytope", "HPolytope", "InputTooLarge", "InternalError",
    "MismatchReport", "NonSmoothVertex", "NormalConeFamily", "NotCanonicalFano",
    "OriginNotInterior", "PLConcave", "SingularGram", "ToricDingError",
    "UnboundedPolytope", "VertexChart", "ZeroFacetNormal",
    "barycenter", "covariance", "d_na", "d_z_na", "dh_closed_form", "dh_measure",
    "dh_of_vector_field", "e_na", "errors", "extremal", "extremal_affine",
    "facets_from_vertices", "functionals", "g_c",
    "geometry", "inner_product", "integrate_product", "j_na",
    "jump_weights", "lattice", "level_moments", "normal_cone_family", "normalcone",
    "rationalpoly", "reduce_jna", "select_vertex", "triangulate",
    "twisting", "validate_fano", "verdict", "verify_family", "vertex_chart",
    "vertices", "volume",
]


def test_public_names():
    assert sorted(toricding.__all__) == PUBLIC
