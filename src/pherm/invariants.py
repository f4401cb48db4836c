"""Pseudo-Hermitian invariants and the closed-form curvature models.

The admissible inputs are pair-symmetric, Bianchi-closed, J-invariant
curvature tensors.  From such a tensor the module computes the Ricci form
data, the scalar curvature, the trace decomposition into scalar part,
traceless-Ricci part and Chern-Moser remainder, the pseudo-Einstein flag,
the balancing constant c0 and companion tensor c0 I^C_0 + CM, and sampled
sectional / holomorphic / complex sectional curvatures.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .spaces import (
    Bil2,
    Curv4,
    HorizontalSpace,
    bianchi_grid,
    hat_2form_grid,
    kulkarni_grid,
    make_space,
    ricci_grid,
    sym_product_grid,
    TOL,
)
from .algebra import canonical_tensors, norm2, traceless_part, wedge_adjoint


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
    sectional_range: Optional[tuple[float, float]] = None
    holomorphic_range: Optional[tuple[float, float]] = None
    complex_sectional_range: Optional[tuple[float, float]] = None


_ADMISSIBLE = {"pair_symmetric", "bianchi_closed", "j_plus"}


def _require_admissible(rw: Curv4):
    missing = _ADMISSIBLE - set(rw.tags)
    if missing:
        raise ValueError(f"curvature tensor lacks required tags: {sorted(missing)}")


def invariants(rw: Curv4, samples: int = 0, seed: int = 0) -> InvariantReport:
    """Ricci data, trace decomposition and Chern-Moser remainder of rw.

    The decomposition is rejected at d = 1 where the primitive complement
    degenerates.  With samples > 0 the report also carries min/max sampled
    curvatures (deterministic in the seed).
    """
    _require_admissible(rw)
    space = rw.space
    d = space.d
    if d < 2:
        raise ValueError("the trace decomposition requires d >= 2")

    ric = Bil2(space, ricci_grid(rw.entries), "symmetric")
    scalar = float(np.trace(ric.entries))
    rho = Bil2(space, -hat_2form_grid(rw.entries, space.omega), "antisymmetric")
    ric0 = traceless_part(ric)
    rho0 = Bil2(
        space,
        rho.entries - (wedge_adjoint(rho) / d) * space.omega,
        "antisymmetric",
    )

    can = canonical_tensors(space)
    scalar_piece = (scalar / (d * (d + 1))) * can.Ic.entries
    ricci_piece = (
        0.5 * (kulkarni_grid(ric0.entries, space.g) - kulkarni_grid(rho0.entries, space.omega))
        - sym_product_grid(rho0.entries, space.omega)
    ) / (d + 2)
    cm_grid = rw.entries - scalar_piece - ricci_piece
    cm = Curv4(
        space,
        cm_grid,
        frozenset({"pair_symmetric", "bianchi_closed", "j_plus", "primitive"}),
    )
    scale = max(1.0, float(np.max(np.abs(rw.entries))))
    if np.max(np.abs(ricci_grid(cm_grid))) > TOL * scale:
        raise ArithmeticError("Chern-Moser remainder is not trace free")

    pe_resid = np.max(np.abs(rho.entries + (scalar / space.n) * space.omega))
    pseudo_einstein = bool(pe_resid <= TOL * max(1.0, abs(scalar)))

    ranges = {}
    if samples > 0:
        ranges = sample_curvatures(rw, samples, seed)
    return InvariantReport(
        ric=ric,
        scalar=scalar,
        rho=rho,
        ric0=ric0,
        rho0=rho0,
        cm=cm,
        cm_norm2=norm2(cm),
        pseudo_einstein=pseudo_einstein,
        sectional_range=ranges.get("sectional"),
        holomorphic_range=ranges.get("holomorphic"),
        complex_sectional_range=ranges.get("complex_sectional"),
    )


def scalar_curvature(rw: Curv4) -> float:
    return float(np.einsum("ixiy,xy->", rw.entries, rw.space.g))


def _c0_and_report(rw: Curv4) -> tuple[float, InvariantReport]:
    d = rw.space.d
    if d < 2:
        raise ValueError("the companion tensor requires d >= 2")
    s = scalar_curvature(rw)
    if abs(s) < 1e-12:
        raise ValueError("scalar curvature vanishes; constant undefined")
    rep = invariants(rw)
    return -(8.0 * d / (d - 1.0)) * rep.cm_norm2 / s, rep


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
    curvature; the default s = -2d makes the Ricci form equal omega.
    """
    space.require_torsion()
    d = space.d
    if s is None:
        s = -2.0 * d
    if d < 2:
        raise ValueError("the torsion model requires d >= 2")
    can = canonical_tensors(space)
    rw_grid = (s / d**2) * (can.Ic.entries + can.T.entries)
    cm_grid = (s / d**2) * (can.Ic0.entries / (d + 1) + can.T0.entries)
    rw = Curv4(space, rw_grid, frozenset({"pair_symmetric", "bianchi_closed", "j_plus"}))
    # the omega.omega components of I^C_0/(d+1) and T_0 cancel, so the
    # Chern-Moser tensor of the model is Bianchi closed as well
    cm = Curv4(
        space,
        cm_grid,
        frozenset({"pair_symmetric", "bianchi_closed", "j_plus", "primitive"}),
    )
    return rw, cm


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


def first_bianchi_residual(rh: Curv4, space: Optional[HorizontalSpace] = None) -> float:
    """Max-norm failure of the torsion first Bianchi identity: the cyclic
    sum of R_H must equal the cyclic omega (x) A coupling term."""
    space = space or rh.space
    b = bianchi_grid(rh.entries)
    if space.has_torsion:
        wa = np.einsum("xy,zw->xyzw", space.omega, space.A)
        b = b - bianchi_grid(wa)
    return float(np.max(np.abs(b)))


# ---------------------------------------------------------------------------
# sectional curvatures
# ---------------------------------------------------------------------------

def sectional(rw: Curv4, X: np.ndarray, Y: np.ndarray) -> float:
    """Sectional curvature of the real 2-plane spanned by X, Y."""
    num = float(np.einsum("xyzw,x,y,z,w->", rw.entries, X, Y, X, Y))
    g = rw.space.g
    den = float((X @ g @ X) * (Y @ g @ Y) - (X @ g @ Y) ** 2)
    if den <= 1e-14:
        raise ValueError("degenerate 2-plane")
    return num / den


def holomorphic_sectional(rw: Curv4, X: np.ndarray) -> float:
    """Sectional curvature of the holomorphic plane spanned by X, JX."""
    return sectional(rw, X, rw.space.J @ X)


def complex_sectional(rw: Curv4, Z: np.ndarray, W: np.ndarray) -> float:
    """Hermitian-extension curvature of the complex plane spanned by Z, W."""
    num = np.einsum("xyzw,x,y,z,w->", rw.entries, Z, W, Z.conj(), W.conj())
    nz = float(np.real(Z @ Z.conj()))
    nw = float(np.real(W @ W.conj()))
    zw = complex(Z @ W.conj())
    den = nz * nw - abs(zw) ** 2
    if den <= 1e-14:
        raise ValueError("degenerate complex 2-plane")
    if abs(num.imag) > TOL * max(1.0, abs(num.real)):
        raise ArithmeticError("complex sectional value is not real")
    return float(num.real) / den


def sample_curvatures(rw: Curv4, n: int = 1000, seed: int = 0) -> dict:
    """Deterministically sampled (min, max) curvature ranges."""
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    dim = rw.space.n

    def complex_vector():
        return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)

    # each draw consumes the generator in a fixed order, so the ranges are
    # deterministic in the seed; degenerate planes are redrawn
    draws = (
        ("sectional", lambda: sectional(rw, rng.standard_normal(dim), rng.standard_normal(dim))),
        ("holomorphic", lambda: holomorphic_sectional(rw, rng.standard_normal(dim))),
        ("complex_sectional", lambda: complex_sectional(rw, complex_vector(), complex_vector())),
    )
    out: dict[str, tuple[float, float]] = {}
    for name, draw in draws:
        vals = []
        while len(vals) < n:
            try:
                vals.append(draw())
            except ValueError:
                continue
        out[name] = (float(np.min(vals)), float(np.max(vals)))
    return out
