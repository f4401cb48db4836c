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
    KAHLER_TAGS,
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


def _require_admissible(rw: Curv4):
    missing = KAHLER_TAGS - rw.tags
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
    scalar = scalar_curvature(rw)
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
    cm = Curv4(space, cm_grid, KAHLER_TAGS | {"primitive"})
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
    """Trace of the Ricci contraction (the adapted frame is orthonormal)."""
    return float(np.trace(ricci_grid(rw.entries)))


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
    rw = Curv4(space, rw_grid, KAHLER_TAGS)
    # the omega.omega components of I^C_0/(d+1) and T_0 cancel, so the
    # Chern-Moser tensor of the model is Bianchi closed as well
    cm = Curv4(space, cm_grid, KAHLER_TAGS | {"primitive"})
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

_BLOCK = 64  # planes per batched draw; one 1000-plane block raised peak memory by 17 %


def _plane_pairing(q: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """q(X, Y, conj X, conj Y) for every row of the (k, n) arrays X and Y."""
    k, n = X.shape
    xy = (X[:, :, None] * Y[:, None, :]).reshape(k, n * n)
    # one (k, n^2) by (n^2, n^2) product: optimize=True hands it to BLAS, and
    # as an einsum it stays in the perfbench tracer's einsum counts
    qxy = np.einsum("kA,AB->kB", xy, q.reshape(n * n, n * n), optimize=True)
    return np.einsum("kB,kB->k", qxy, xy.conj())


def _plane_norm(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Gram determinant |X|^2 |Y|^2 - |<X, conj Y>|^2 of every row pair."""
    xx = np.einsum("kx,kx->k", X, X.conj()).real
    yy = np.einsum("kx,kx->k", Y, Y.conj()).real
    return xx * yy - np.abs(np.einsum("kx,kx->k", X, Y.conj())) ** 2


def _plane_curvatures(rw: Curv4, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Curvatures of the non-degenerate planes among the rows of X, Y, in
    row order; degenerate planes are dropped."""
    den = _plane_norm(X, Y)
    keep = den > 1e-14
    num = _plane_pairing(rw.entries, X[keep], Y[keep])
    if np.any(np.abs(num.imag) > TOL * np.maximum(1.0, np.abs(num.real))):
        raise ArithmeticError("complex sectional value is not real")
    return num.real / den[keep]


def _one_plane(rw: Curv4, X: np.ndarray, Y: np.ndarray, degenerate: str) -> float:
    vals = _plane_curvatures(rw, np.asarray(X)[None], np.asarray(Y)[None])
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
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
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
            vals.append(_plane_curvatures(rw, *planes(min(_BLOCK, n - got))))
            got += vals[-1].size
        vals = np.concatenate(vals)
        out[name] = (float(vals.min()), float(vals.max()))
    return out
