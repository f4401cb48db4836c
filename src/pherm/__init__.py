"""Numerical curvature algebra for pseudo-Hermitian and contact geometry.

The package builds curvature tensors of the classical non-compact
Hermitian-type homogeneous models from matrix Lie algebras, implements the
pointwise curvature algebra (Kulkarni products, Bianchi map, hat operators,
J/tau splittings, trace decompositions), and ships a randomized suite for
the bilinear identities satisfied by horizontal and CR map data.
Every public function is reached by a `pherm` command or an acceptance
criterion; the seeded generators and `c0_constant` are the listed exceptions.
"""

from .spaces import (
    Bil2,
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
)
from .algebra import (
    CanonicalTensors,
    canonical_tensors,
    hat,
    kulkarni,
    norm2,
    primitive_part,
    ricci_contraction,
    ring_action,
    scalar_product,
    sym_product,
    traceless_part,
    wedge_adjoint,
)
from .invariants import (
    InvariantReport,
    c0_constant,
    companion_tensor,
    complex_sectional,
    first_bianchi_residual,
    full_curvature,
    sample_curvatures,
    scalar_curvature,
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
    kappa,
    model_constants,
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
    pullback4,
    random_map_datum,
)

__version__ = "0.1.0"
