"""Pointwise curvature algebra: products, contractions, the hat operator,
the J-splitting of 2-tensors and the canonical tensors built from g, omega,
A, B.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .spaces import (
    KAHLER_TAGS,
    Bil2,
    Curv4,
    Endo2Forms,
    HorizontalSpace,
    _check_same_space,
    _conjugate,
    _wedge_indices,
    dot4,
    fundamental_form,
    kulkarni_grid,
    metric_form,
    primitive_grid,
    ring_grid,
    ricci_grid,
    sym_product_grid,
    wedge_trace,
)


def sym_product(h: Bil2, k: Bil2) -> np.ndarray:
    """Symmetric product (h . k)(X,Y,Z,W) = h(X,Y)k(Z,W) + h(Z,W)k(X,Y).

    Returns the raw component grid: the result is pair-symmetric but is a
    valid curvature container only when both factors are antisymmetric.
    """
    _check_same_space(h, k)
    return sym_product_grid(h.entries, k.entries)


def kulkarni(h: Bil2, k: Bil2) -> Curv4:
    """Kulkarni-Nomizu style product of two bilinear forms.

    Both factors symmetric gives a pair-symmetric tensor with vanishing
    Bianchi sum; both antisymmetric gives a pair-symmetric tensor; the mixed
    case is antisymmetric under the pair swap and carries no tags.
    """
    _check_same_space(h, k)
    grid = kulkarni_grid(h.entries, k.entries)
    tags = set()
    if h.symmetry == k.symmetry and h.symmetry in ("symmetric", "antisymmetric"):
        tags.add("pair_symmetric")
        if h.symmetry == "symmetric":
            tags.add("bianchi_closed")
    return Curv4(h.space, grid, frozenset(tags))


def ricci_contraction(q: Curv4) -> Bil2:
    """Frame trace c(Q)(X,Y) = sum_i Q(e_i, X, e_i, Y)."""
    ric = ricci_grid(q.entries)
    sym = "symmetric" if q.has("pair_symmetric") else "general"
    return Bil2(q.space, ric, sym)


def _wedge_index(space: HorizontalSpace) -> tuple:
    """`hat`'s gather from a 4-tensor grid with any leading batch axes:
    row = image pair (c,d), column = source pair (a,b)."""
    a, b = _wedge_indices(space)  # first / second index of each pair
    return ..., a[None, :], b[None, :], a[:, None], b[:, None]


def hat(q: Curv4) -> Endo2Forms:
    """Operator induced on wedge 2-vectors, <Q^(X^Y), Z^W> = Q(X,Y,Z,W)."""
    return Endo2Forms(q.space, q.entries[_wedge_index(q.space)])


def _unhat_grid(space: HorizontalSpace, e: np.ndarray) -> np.ndarray:
    """The inverse of `hat`'s gather on a stack of wedge-basis grids (..., m, m): the
    4-tensor grids, antisymmetric in both slot pairs, with no check."""
    q = np.zeros(e.shape[:-2] + (space.n,) * 4)
    q[_wedge_index(space)] = e  # inverse of hat's gather
    q = q - np.einsum("...yxzw->...xyzw", q)
    return q - np.einsum("...xywz->...xyzw", q)


def scalar_product(p: Curv4, q: Curv4) -> float:
    """Half the trace of the composed wedge operators."""
    if not (p.has("pair_symmetric") and q.has("pair_symmetric")):
        raise ValueError("scalar_product requires pair-symmetric arguments")
    _check_same_space(p, q)
    return 0.5 * dot4(p.entries, q.entries)


def norm2(q: Curv4) -> float:
    return scalar_product(q, q)


def ring_action(q: Curv4, s: np.ndarray) -> np.ndarray:
    """Curvature action sum_ij Q(e_i, X, Y, e_j) s_ij on a (vector-valued)
    2-tensor given as a raw grid of shape (2d, 2d) or (2d, 2d, k)."""
    return ring_grid(q.entries, s)


def primitive_part(q: Curv4) -> Curv4:
    """Remove the omega-trace component; the result annihilates omega."""
    if not q.has("pair_symmetric"):
        raise ValueError("primitive_part requires a pair-symmetric tensor")
    grid = primitive_grid(q.space, q.entries)
    tags = (q.tags & {"pair_symmetric", "j_plus", "j_minus"}) | {"primitive"}
    return Curv4(q.space, grid, tags)


def traceless_part(s: Bil2) -> Bil2:
    """s - (tr s / 2d) g for a symmetric 2-tensor."""
    tr = float(np.trace(s.entries))
    out = s.entries - (tr / s.space.n) * s.space.g
    return Bil2(s.space, out, s.symmetry)


def wedge_adjoint(gamma: Bil2) -> float:
    """Lefschetz-adjoint trace of an antisymmetric 2-tensor; maps omega to d."""
    if gamma.symmetry != "antisymmetric":
        raise ValueError("wedge_adjoint expects an antisymmetric 2-tensor")
    return wedge_trace(gamma.space, gamma.entries)


def two_tensor_j_split(
    space: HorizontalSpace, s: np.ndarray, batch: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """J-invariant / J-anti-invariant parts of a (vector-valued) 2-tensor (`J_pair` gather),
    whose two slots follow its first `batch` axes."""
    js = _conjugate(s, space.J_pair, batch - s.ndim)
    return 0.5 * (s + js), 0.5 * (s - js)


# the canonical weights of the map identities, in report order; the companion
# weight depends on a curvature and comes from `invariants.companion_tensor`
Q_VARIANTS = ("jminus", "jplus_primitive", "tau_jminus", "tau_jplus_primitive")


@dataclass(frozen=True, eq=False)
class CanonicalTensors:
    """The curvature tensors canonically attached to the frame data; a
    tensor the space does not admit is None."""

    Ic: Curv4
    Ic0: Curv4
    T: Optional[Curv4]
    T0: Optional[Curv4]
    torsion_rw: Optional[Curv4]
    torsion_cm: Optional[Curv4]
    jminus: Curv4
    jplus_primitive: Optional[Curv4]
    tau_jminus: Optional[Curv4]
    tau_jplus_primitive: Optional[Curv4]


def canonical_tensors(space: HorizontalSpace) -> CanonicalTensors:
    """Build the constant-holomorphic-curvature tensor I^C, its primitive
    part, (with torsion) the torsion tensor (1/8)(A%A + B%B), its primitive
    part and (at d >= 2) the s = -2d parallel-torsion model of
    `invariants.torsion_curvature`, and the canonical weights `Q_VARIANTS`:
    the tau weights need torsion and the primitive ones d >= 2.

    The tensors depend only on the frame, so they are built, and their tags
    checked, once per space (keyed by identity) and then shared; their
    entries are read-only.
    """
    return _canonical_tensors(space)


@functools.lru_cache(maxsize=16)  # bounds what large or hand-built spaces keep alive
def _canonical_tensors(space: HorizontalSpace) -> CanonicalTensors:
    d = space.d
    g = metric_form(space)
    w = fundamental_form(space)
    # g%g, omega%omega and omega.omega, checked as their own tensors
    gkg = kulkarni(g, g).entries
    wkw = kulkarni(w, w).entries
    wsw = Curv4(space, sym_product_grid(w.entries, w.entries), {"pair_symmetric", "j_plus"}).entries
    ic_grid = (gkg + wkw + 2.0 * wsw) / 8.0
    Ic = Curv4(space, ic_grid, KAHLER_TAGS)
    # the primitive parts pick up an omega.omega component, so they leave Ker b
    Ic0 = primitive_part(Ic)
    jminus = Curv4(space, 0.5 * (gkg - wkw), {"pair_symmetric", "j_minus"})
    jplus_primitive = None
    if d >= 2:
        grid = 0.5 * (gkg + wkw - (2.0 / d) * wsw)
        jplus_primitive = Curv4(space, grid, {"pair_symmetric", "j_plus", "primitive"})
    T = T0 = torsion_rw = torsion_cm = tau_jminus = tau_jplus_primitive = None
    if space.has_torsion:
        aka, bkb = kulkarni_grid(space.A, space.A), kulkarni_grid(space.B, space.B)
        T = Curv4(space, (aka + bkb) / 8.0, KAHLER_TAGS)
        T0 = primitive_part(T)
        grid = 0.25 * (gkg - wkw + aka - bkb)
        tau_jminus = Curv4(space, grid, {"pair_symmetric", "j_minus", "tau_plus"})
    if space.has_torsion and d >= 2:
        s = -2.0 * d  # the scalar curvature at which the Ricci form is omega
        torsion_rw = Curv4(space, (s / d**2) * (Ic.entries + T.entries), KAHLER_TAGS)
        # the omega.omega components of I^C_0/(d+1) and T_0 cancel, so the
        # Chern-Moser tensor of the model is Bianchi closed as well
        cm_grid = (s / d**2) * (Ic0.entries / (d + 1) + T0.entries)
        torsion_cm = Curv4(space, cm_grid, KAHLER_TAGS | {"primitive"})
        grid = 0.5 * (Ic0.entries - T0.entries)
        tau_jplus_primitive = Curv4(space, grid, {"pair_symmetric", "j_plus", "primitive", "tau_minus"})
    can = CanonicalTensors(
        Ic, Ic0, T, T0, torsion_rw, torsion_cm, jminus, jplus_primitive, tau_jminus, tau_jplus_primitive
    )
    for q in vars(can).values():
        if q is not None:
            q.entries.flags.writeable = False  # shared by every caller
    return can
