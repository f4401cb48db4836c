"""Pseudo-Hermitian invariants and the closed-form curvature models.

The admissible inputs are pair-symmetric, Bianchi-closed, J-invariant
curvature tensors.  From such a tensor the module computes the Ricci form
data, the scalar curvature, the trace decomposition into scalar part,
traceless-Ricci part and Chern-Moser remainder, the pseudo-Einstein flag,
the balancing constant c0 and companion tensor c0 I^C_0 + CM, and sampled
sectional / holomorphic / complex sectional curvatures.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .spaces import (
    KAHLER_TAGS,
    Bil2,
    Curv4,
    HorizontalSpace,
    _wedge_indices,
    bianchi_grid,
    hat_2form_grid,
    kulkarni_grid,
    make_space,
    ricci_grid,
    sym_product_grid,
    TOL,
)
from .algebra import canonical_tensors, hat, norm2, traceless_part, wedge_adjoint


@dataclass(frozen=True, eq=False)
class InvariantReport:
    """Invariants of an admissible curvature tensor."""

    ric: Bil2
    scalar: float
    rho: Bil2
    ric0: Bil2
    rho0: Bil2
    cm: Curv4
    cm_norm2: float
    pseudo_einstein: bool


def _require_admissible(rw: Curv4):
    missing = KAHLER_TAGS - rw.tags
    if missing:
        raise ValueError(f"curvature tensor lacks required tags: {sorted(missing)}")


def invariants(rw: Curv4) -> InvariantReport:
    """Ricci data, trace decomposition and Chern-Moser remainder of rw.

    The decomposition is rejected at d = 1 where the primitive complement
    degenerates.  Sampled curvature ranges come from `sample_curvatures`.
    """
    _require_admissible(rw)
    space = rw.space
    d = space.d
    if d < 2:
        raise ValueError("the trace decomposition requires d >= 2")

    ric = Bil2(space, ricci_grid(rw.entries), "symmetric")
    scalar = float(np.trace(ric.entries))  # scalar_curvature(rw), from the Ricci grid above
    rho = Bil2(space, -hat_2form_grid(rw.entries, space.omega), "antisymmetric")
    ric0 = traceless_part(ric)
    rho0 = Bil2(
        space,
        rho.entries - (wedge_adjoint(rho) / d) * space.omega,
        "antisymmetric",
    )

    # CM = R - L(h, phi) with L(h, phi) = (h%g - phi%omega)/2 - phi.omega: the
    # Ricci piece is L(Ric_0, rho_0)/(d+2), and the scalar piece s I^C/(d(d+1))
    # is L(c g, -c omega) with c = s/(4d(d+1)), as I^C = (g%g + omega%omega + 2 omega.omega)/8
    c = scalar / (4 * d * (d + 1))
    h = ric0.entries / (d + 2) + c * space.g
    phi = rho0.entries / (d + 2) - c * space.omega
    cm_grid = rw.entries - (
        0.5 * (kulkarni_grid(h, space.g) - kulkarni_grid(phi, space.omega))
        - sym_product_grid(phi, space.omega)
    )
    cm = Curv4(space, cm_grid, KAHLER_TAGS | {"primitive"})
    scale = max(1.0, float(np.max(np.abs(rw.entries))))
    if np.max(np.abs(ricci_grid(cm_grid))) > TOL * scale:
        raise ArithmeticError("Chern-Moser remainder is not trace free")

    pe_resid = np.max(np.abs(rho.entries + (scalar / space.n) * space.omega))
    pseudo_einstein = bool(pe_resid <= TOL * max(1.0, abs(scalar)))

    return InvariantReport(
        ric=ric,
        scalar=scalar,
        rho=rho,
        ric0=ric0,
        rho0=rho0,
        cm=cm,
        cm_norm2=norm2(cm),
        pseudo_einstein=pseudo_einstein,
    )


def scalar_curvature(rw: Curv4) -> float:
    """Trace of the Ricci contraction (the adapted frame is orthonormal)."""
    return float(np.trace(ricci_grid(rw.entries)))


def _c0_and_report(rw: Curv4) -> tuple[float, InvariantReport]:
    d = rw.space.d
    rep = invariants(rw)  # raises ValueError at d < 2
    if abs(rep.scalar) < 1e-12:
        raise ValueError("scalar curvature vanishes; constant undefined")
    return -(8.0 * d / (d - 1.0)) * rep.cm_norm2 / rep.scalar, rep


def c0_constant(rw: Curv4) -> float:
    """The balancing constant -(8d/(d-1)) |CM|^2 / s of the orthogonal
    companion tensor; requires d >= 2 and nonzero scalar curvature."""
    return _c0_and_report(rw)[0]


def companion_tensor(rw: Curv4) -> Curv4:
    """c0 I^C_0 + CM: primitive, orthogonal to the primitive part of rw,
    with Ricci contraction proportional to the metric."""
    c0, rep = _c0_and_report(rw)
    ic0 = canonical_tensors(rw.space).Ic0
    grid = c0 * ic0.entries + rep.cm.entries
    return Curv4(rw.space, grid, frozenset({"pair_symmetric", "j_plus", "primitive"}))


def space_form(d: int, s: float, space: Optional[HorizontalSpace] = None) -> Curv4:
    """Curvature of constant holomorphic sectional curvature and scalar s."""
    if space is None:
        space = make_space(d)
    elif space.d != d:
        raise ValueError("space half-dimension disagrees with d")
    ic = canonical_tensors(space).Ic
    grid = (s / (d * (d + 1))) * ic.entries
    return Curv4(space, grid, ic.tags)


def torsion_curvature(space: HorizontalSpace, s: Optional[float] = None) -> tuple[Curv4, Curv4]:
    """Curvature and Chern-Moser tensor of the parallel-torsion model.

    With the |tau|^2 = 2d normalization the model curvature is
    (s/d^2)(I^C + T) and its Chern-Moser part is
    (s/d^2)(I^C_0/(d+1) + T_0).  The formula is homogeneous in the scalar
    curvature; the default s = -2d makes the Ricci form equal omega.  Both
    are the shared s = -2d model of `canonical_tensors` scaled by s / (-2d),
    which is exactly 1 at the default.
    """
    space.require_torsion()
    d = space.d
    if s is None:
        s = -2.0 * d
    if d < 2:
        raise ValueError("the torsion model requires d >= 2")
    can = canonical_tensors(space)
    scale = s / (-2.0 * d)
    return tuple(Curv4(space, scale * q.entries, q.tags) for q in (can.torsion_rw, can.torsion_cm))


def full_curvature(rw: Curv4) -> Curv4:
    """Reassemble the full horizontal curvature from its J-invariant part,
    R_H = R - (1/2)(omega % A - g % B); without torsion this is R itself."""
    space = rw.space
    if not space.has_torsion:
        return rw
    minus = torsion_minus_part(space)
    return Curv4(space, rw.entries + minus, frozenset())


def torsion_minus_part(space: HorizontalSpace) -> np.ndarray:
    """The J-anti-invariant curvature component forced by the torsion,
    -(1/2)(omega % A - g % B), as a raw grid."""
    space.require_torsion()
    return -0.5 * (
        kulkarni_grid(space.omega, space.A) - kulkarni_grid(space.g, space.B)
    )


def first_bianchi_residual(rh: Curv4) -> float:
    """Max-norm failure of the torsion first Bianchi identity: the cyclic
    sum of R_H must equal the cyclic omega (x) A coupling term."""
    space = rh.space
    b = bianchi_grid(rh.entries)
    if space.has_torsion:
        wa = np.einsum("xy,zw->xyzw", space.omega, space.A)
        b = b - bianchi_grid(wa)
    return float(np.max(np.abs(b)))


# ---------------------------------------------------------------------------
# sectional curvatures
# ---------------------------------------------------------------------------

_BLOCK = 64  # planes per batched draw; one 1000-plane block raised peak memory by 12 %


def _wedge_op(rw: Curv4) -> tuple:
    """(hat(rw).entries, a, b), with (a, b) the pairs of `wedge_pairs` in order."""
    return (hat(rw).entries, *_wedge_indices(rw.space))


def _plane_curvatures(op: tuple, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Curvatures q(X, Y, conj X, conj Y) / |X ^ Y|^2 of the non-degenerate
    planes among the rows of the (k, n) arrays X, Y, in row order, where
    op = `_wedge_op(q)`; degenerate planes are dropped.

    Each plane enters only through its wedge components w_ab = X_a Y_b -
    X_b Y_a (a < b).  q is antisymmetric in each slot pair, so the numerator
    is sum_(ab, cd) w_ab hat(q)[cd, ab] conj(w_cd), one real (k, m) by (m, m)
    product with m = n(n-1)/2 (a complex w enters it as [Re w; Im w]), and
    by Lagrange's identity |w|^2 is the Gram determinant
    |X|^2 |Y|^2 - |<X, conj Y>|^2 without its cancellation.
    """
    qhat, a, b = op
    w = X[:, a] * Y[:, b] - X[:, b] * Y[:, a]
    den = np.vecdot(w, w).real
    keep = den > 1e-14
    if not keep.all():  # a degenerate plane is rare: gather only then
        w, den = w[keep], den[keep]
    if np.iscomplexobj(w):
        p = np.concatenate((w.real, w.imag)) @ qhat.T
        p = p[: len(w)] + 1j * p[len(w) :]
    else:
        p = w @ qhat.T
    num = np.vecdot(w, p)  # vecdot conjugates w
    if np.any(np.abs(num.imag) > TOL * np.maximum(1.0, np.abs(num.real))):
        raise ArithmeticError("complex sectional value is not real")
    return num.real / den


def _one_plane(rw: Curv4, X: np.ndarray, Y: np.ndarray, degenerate: str) -> float:
    vals = _plane_curvatures(_wedge_op(rw), np.asarray(X)[None], np.asarray(Y)[None])
    if not vals.size:
        raise ValueError(degenerate)
    return float(vals[0])


def sectional(rw: Curv4, X: np.ndarray, Y: np.ndarray) -> float:
    """Sectional curvature of the real 2-plane spanned by X, Y."""
    return _one_plane(rw, X, Y, "degenerate 2-plane")


def holomorphic_sectional(rw: Curv4, X: np.ndarray) -> float:
    """Sectional curvature of the holomorphic plane spanned by X, JX."""
    return sectional(rw, X, rw.space.J @ X)


def complex_sectional(rw: Curv4, Z: np.ndarray, W: np.ndarray) -> float:
    """Hermitian-extension curvature of the complex plane spanned by Z, W."""
    return _one_plane(rw, Z, W, "degenerate complex 2-plane")


def sample_curvatures(rw: Curv4, n: int = 1000, seed: int = 0) -> dict:
    """Deterministically sampled (min, max) curvature ranges."""
    if isinstance(n, bool) or not hasattr(n, "__index__") or n < 1:
        raise ValueError(f"sample count must be an integer >= 1, got {n!r}")
    n = operator.index(n)
    rng = np.random.default_rng(seed)
    op = _wedge_op(rw)
    dim = rw.space.n
    Jt = rw.space.J.T

    def sectional_planes(k):
        v = rng.standard_normal((k, 2, dim))
        return v[:, 0], v[:, 1]

    def holomorphic_planes(k):
        X = rng.standard_normal((k, dim))
        return X, X @ Jt

    def complex_planes(k):
        v = rng.standard_normal((k, 4, dim))  # Re Z, Im Z, Re W, Im W
        return v[:, 0] + 1j * v[:, 1], v[:, 2] + 1j * v[:, 3]

    # each block draws at most the shortfall, so the generator is consumed
    # exactly as by one plane at a time with degenerate planes redrawn, and
    # the ranges are deterministic in the seed
    draws = (
        ("sectional", sectional_planes),
        ("holomorphic", holomorphic_planes),
        ("complex_sectional", complex_planes),
    )
    out: dict[str, tuple[float, float]] = {}
    for name, planes in draws:
        vals, got = [], 0
        while got < n:
            vals.append(_plane_curvatures(op, *planes(min(_BLOCK, n - got))))
            got += vals[-1].size
        vals = np.concatenate(vals)
        out[name] = (float(vals.min()), float(vals.max()))
    return out
