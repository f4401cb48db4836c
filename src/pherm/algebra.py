"""Pointwise curvature algebra: products, contractions, hat operators,
splittings and the canonical tensors built from g, omega, A, B.
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
    SignedPerm,
    _check_same_space,
    _conjugate,
    _wedge_indices,
    bianchi_grid,
    dot4,
    fundamental_form,
    hat_2form_grid,
    kulkarni_grid,
    metric_form,
    primitive_grid,
    ring_grid,
    ricci_grid,
    split_average_grid,
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


def bianchi_map(q: Curv4) -> np.ndarray:
    """Cyclic first-Bianchi sum; fully antisymmetric for pair-symmetric input."""
    return bianchi_grid(q.entries)


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


def unhat(e: Endo2Forms) -> Curv4:
    """Inverse of `hat`: rebuild the 4-tensor from the wedge-basis grid."""
    return Curv4(e.space, _unhat_grid(e.space, e.entries))


def _unhat_grid(space: HorizontalSpace, e: np.ndarray) -> np.ndarray:
    """`unhat` on a stack of wedge-basis grids (..., m, m), with no check."""
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


def hat_action(q: Curv4, gamma: Bil2) -> Bil2:
    """Apply the induced wedge operator to an antisymmetric 2-tensor."""
    if gamma.symmetry != "antisymmetric":
        raise ValueError("hat_action expects an antisymmetric 2-tensor")
    out = hat_2form_grid(q.entries, gamma.entries)
    return Bil2(q.space, out, "antisymmetric")


def ring_action(q: Curv4, s: np.ndarray) -> np.ndarray:
    """Curvature action sum_ij Q(e_i, X, Y, e_j) s_ij on a (vector-valued)
    2-tensor given as a raw grid of shape (2d, 2d) or (2d, 2d, k)."""
    return ring_grid(q.entries, s)


def _pair_split(q: Curv4, P: SignedPerm, name: str) -> tuple[Curv4, Curv4]:
    """The +/- parts of q under P-conjugation of both slot pairs, tagged
    name_plus / name_minus (idempotent pair projections)."""
    plus = split_average_grid(q.entries, P, +1)
    minus = split_average_grid(q.entries, P, -1)
    keep = q.tags & {"pair_symmetric"}
    return (
        Curv4(q.space, plus, keep | {f"{name}_plus"}),
        Curv4(q.space, minus, keep | {f"{name}_minus"}),
    )


def j_split(q: Curv4) -> tuple[Curv4, Curv4]:
    """J-invariant and J-anti-invariant parts."""
    return _pair_split(q, q.space.J_pair, "j")


def tau_split(q: Curv4) -> tuple[Curv4, Curv4]:
    """tau-invariant and tau-anti-invariant parts; requires torsion."""
    return _pair_split(q, q.space.require_torsion(), "tau")


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


@dataclass(frozen=True, eq=False)
class CanonicalTensors:
    """The curvature tensors canonically attached to the frame data."""

    gkg: Curv4
    wkw: Curv4
    wsw: Curv4
    Ic: Curv4
    Ic0: Curv4
    T: Optional[Curv4] = None
    T0: Optional[Curv4] = None
    torsion_rw: Optional[Curv4] = None
    torsion_cm: Optional[Curv4] = None


def canonical_tensors(space: HorizontalSpace) -> CanonicalTensors:
    """Build g%g, omega%omega, omega.omega, the constant-holomorphic-
    curvature tensor I^C, its primitive part, and (with torsion) the
    torsion tensor (1/8)(A%A + B%B), its primitive part and (at d >= 2) the
    s = -2d parallel-torsion model of `invariants.torsion_curvature`.

    The tensors depend only on the frame, so they are built, and their tags
    checked, once per space (keyed by identity) and then shared; their
    entries are read-only.
    """
    return _canonical_tensors(space)


@functools.lru_cache(maxsize=16)  # bounds what large or hand-built spaces keep alive
def _canonical_tensors(space: HorizontalSpace) -> CanonicalTensors:
    g = metric_form(space)
    w = fundamental_form(space)
    gkg = kulkarni(g, g)
    wkw = kulkarni(w, w)
    wsw = Curv4(
        space,
        sym_product_grid(w.entries, w.entries),
        frozenset({"pair_symmetric", "j_plus"}),
    )
    ic_grid = (gkg.entries + wkw.entries + 2.0 * wsw.entries) / 8.0
    Ic = Curv4(space, ic_grid, KAHLER_TAGS)
    # the primitive parts pick up an omega.omega component, so they leave Ker b
    Ic0 = primitive_part(Ic)
    T = T0 = torsion_rw = torsion_cm = None
    if space.has_torsion:
        t_grid = (kulkarni_grid(space.A, space.A) + kulkarni_grid(space.B, space.B)) / 8.0
        T = Curv4(space, t_grid, KAHLER_TAGS)
        T0 = primitive_part(T)
    if space.has_torsion and space.d >= 2:
        d = space.d
        s = -2.0 * d  # the scalar curvature at which the Ricci form is omega
        torsion_rw = Curv4(space, (s / d**2) * (Ic.entries + T.entries), KAHLER_TAGS)
        # the omega.omega components of I^C_0/(d+1) and T_0 cancel, so the
        # Chern-Moser tensor of the model is Bianchi closed as well
        cm_grid = (s / d**2) * (Ic0.entries / (d + 1) + T0.entries)
        torsion_cm = Curv4(space, cm_grid, KAHLER_TAGS | {"primitive"})
    for q in (gkg, wkw, wsw, Ic, Ic0, T, T0, torsion_rw, torsion_cm):
        if q is not None:
            q.entries.flags.writeable = False  # shared by every caller
    return CanonicalTensors(gkg, wkw, wsw, Ic, Ic0, T, T0, torsion_rw, torsion_cm)
