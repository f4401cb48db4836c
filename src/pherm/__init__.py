"""Numerical curvature algebra for pseudo-Hermitian and contact geometry.

The package builds curvature tensors of the classical non-compact
Hermitian-type homogeneous models from matrix Lie algebras, implements the
pointwise curvature algebra (Kulkarni products, Bianchi map, hat operators,
J/tau splittings, trace decompositions), and ships a randomized suite for
the bilinear identities satisfied by horizontal and CR map data.
"""

from .spaces import (
    Bil2,
    ComplexFrame,
    Curv4,
    Endo2Forms,
    HorizontalSpace,
    SpaceMismatchError,
    TagError,
    complexify,
    fundamental_form,
    make_space,
    metric_form,
    random_bil2,
    random_curv4,
    torsion_forms,
    wedge_pairs,
)
from .algebra import (
    CanonicalTensors,
    bianchi_map,
    canonical_tensors,
    hat,
    hat_action,
    j_split,
    kulkarni,
    norm2,
    primitive_part,
    ricci_contraction,
    ring_action,
    scalar_product,
    sym_product,
    tau_split,
    traceless_part,
    unhat,
    wedge_adjoint,
)
from .invariants import (
    InvariantReport,
    c0_constant,
    companion_tensor,
    complex_sectional,
    first_bianchi_residual,
    full_curvature,
    holomorphic_sectional,
    invariants,
    sample_curvatures,
    scalar_curvature,
    sectional,
    space_form,
    torsion_curvature,
)
from .liemodels import (
    FAMILIES,
    LieModel,
    ModelError,
    build_model,
    c0_prime,
    closed_form_constants,
    holonomy_commutant_dim,
    kappa,
    model_curvature,
)
from .maps import (
    MapDatum,
    MapTermReport,
    SuiteReport,
    canonical_Q,
    cr_map_datum,
    curvature_terms,
    identity_suite,
    pullback2,
    pullback4,
    random_map_datum,
)

__version__ = "0.1.0"
