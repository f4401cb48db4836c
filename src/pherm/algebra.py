"""Pointwise curvature algebra: products, contractions, hat operators,
splittings and the canonical tensors built from g, omega, A, B.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .spaces import (
    Bil2,
    Curv4,
    Endo2Forms,
    HorizontalSpace,
    SpaceMismatchError,
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
    torsion_forms,
    wedge_pairs,
    wedge_trace,
)


def _same_space(h: Bil2, k: Bil2) -> HorizontalSpace:
    if h.space is not k.space:
        raise SpaceMismatchError("bilinear forms live on different spaces")
    return h.space


def sym_product(h: Bil2, k: Bil2) -> np.ndarray:
    """Symmetric product (h . k)(X,Y,Z,W) = h(X,Y)k(Z,W) + h(Z,W)k(X,Y).

    Returns the raw component grid: the result is pair-symmetric but is a
    valid curvature container only when both factors are antisymmetric.
    """
    _same_space(h, k)
    return sym_product_grid(h.entries, k.entries)


def kulkarni(h: Bil2, k: Bil2) -> Curv4:
    """Kulkarni-Nomizu style product of two bilinear forms.

    Both factors symmetric gives a pair-symmetric tensor with vanishing
    Bianchi sum; both antisymmetric gives a pair-symmetric tensor; the mixed
    case is antisymmetric under the pair swap and carries no tags.
    """
    space = _same_space(h, k)
    grid = kulkarni_grid(h.entries, k.entries)
    tags = set()
    if h.symmetry == k.symmetry and h.symmetry in ("symmetric", "antisymmetric"):
        tags.add("pair_symmetric")
        if h.symmetry == "symmetric":
            tags.add("bianchi_closed")
    return Curv4(space, grid, frozenset(tags))


def bianchi_map(q: Curv4) -> np.ndarray:
    """Cyclic first-Bianchi sum; fully antisymmetric for pair-symmetric input."""
    return bianchi_grid(q.entries)


def ricci_contraction(q: Curv4) -> Bil2:
    """Frame trace c(Q)(X,Y) = sum_i Q(e_i, X, e_i, Y)."""
    ric = ricci_grid(q.entries)
    sym = "symmetric" if q.has("pair_symmetric") else "general"
    return Bil2(q.space, ric, sym)


def hat(q: Curv4) -> Endo2Forms:
    """Operator induced on wedge 2-vectors, <Q^(X^Y), Z^W> = Q(X,Y,Z,W)."""
    a, b = np.array(wedge_pairs(q.space)).T  # first / second index of each pair
    # row = image pair (c,d), column = source pair (a,b)
    grid = q.entries[a[None, :], b[None, :], a[:, None], b[:, None]]
    return Endo2Forms(q.space, grid)


def unhat(e: Endo2Forms, tags=frozenset()) -> Curv4:
    """Inverse of `hat`: rebuild the 4-tensor from the wedge-basis grid."""
    space = e.space
    a, b = np.array(wedge_pairs(space)).T
    q = np.zeros((space.n,) * 4)
    q[a[None, :], b[None, :], a[:, None], b[:, None]] = e.entries  # inverse of hat's gather
    q = q - np.einsum("yxzw->xyzw", q)
    q = q - np.einsum("xywz->xyzw", q)
    return Curv4(space, q, frozenset(tags))


def scalar_product(p: Curv4, q: Curv4) -> float:
    """Half the trace of the composed wedge operators."""
    if not (p.has("pair_symmetric") and q.has("pair_symmetric")):
        raise ValueError("scalar_product requires pair-symmetric arguments")
    if p.space is not q.space and p.space.d != q.space.d:
        raise SpaceMismatchError("tensors live on different spaces")
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


def _pair_split(q: Curv4, P: np.ndarray, name: str) -> tuple[Curv4, Curv4]:
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
    return _pair_split(q, q.space.J, "j")


def tau_split(q: Curv4) -> tuple[Curv4, Curv4]:
    """tau-invariant and tau-anti-invariant parts; requires torsion."""
    q.space.require_torsion()
    return _pair_split(q, q.space.tau, "tau")


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


def two_tensor_j_split(space: HorizontalSpace, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J-invariant / J-anti-invariant parts of a (vector-valued) 2-tensor."""
    js = np.einsum("ax,by,ab...->xy...", space.J, space.J, s)
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


def canonical_tensors(space: HorizontalSpace) -> CanonicalTensors:
    """Build g%g, omega%omega, omega.omega, the constant-holomorphic-
    curvature tensor I^C, its primitive part, and (with torsion) the
    torsion tensor (1/8)(A%A + B%B) and its primitive part."""
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
    Ic = Curv4(space, ic_grid, frozenset({"pair_symmetric", "bianchi_closed", "j_plus"}))
    # the primitive parts pick up an omega.omega component, so they leave Ker b
    Ic0 = primitive_part(Ic)
    T = T0 = None
    if space.has_torsion:
        A, B = torsion_forms(space)
        t_grid = (kulkarni(A, A).entries + kulkarni(B, B).entries) / 8.0
        T = Curv4(space, t_grid, frozenset({"pair_symmetric", "bianchi_closed", "j_plus"}))
        T0 = primitive_part(T)
    return CanonicalTensors(gkg=gkg, wkw=wkw, wsw=wsw, Ic=Ic, Ic0=Ic0, T=T, T0=T0)
