"""Matrix Lie-algebra models of the non-compact Hermitian-type families.

Each family is realized by explicit real matrices (complex families are
realified).  The Killing form is always the adjoint trace form
beta(X, Y) = tr(ad X ad Y) computed from structure constants, never a
defining-representation trace.  The horizontal metric is the restriction of
beta to the -1 eigenspace p of the symmetric-pair decomposition, the complex
structure is ad of the generator of the center of the +1 part, and the
curvature in an adapted beta-orthonormal frame is
R(a, b, c, e) = beta([u_a, u_b], [u_c, u_e]).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .spaces import (
    KAHLER_TAGS,
    TOL,
    Curv4,
    HorizontalSpace,
    _blocks,
    _conjugate,
    _judge_curv4,
    _proven_curv4,
    make_space,
    slot_contract,
)
from .algebra import norm2
from .invariants import scalar_curvature

class ModelError(ValueError):
    """A Lie model failed a structural invariant."""


@dataclass(frozen=True, eq=False)
class LieModel:
    """A symmetric-pair matrix model with adapted horizontal frame.

    basis holds the matrix realization; structure and killing are the
    structure constants and adjoint trace form in that basis.  xi_star is
    the normalized center element of the +1 part (coords in the basis) and
    p_frame the adapted beta-orthonormal frame of the -1 part, rows ordered
    (e_1..e_d, Je_1..Je_d), expressed in basis coordinates.
    """

    family: str
    params: tuple
    d: int
    flat: bool
    basis: np.ndarray  # (N, m, m) matrix realization
    l_dim: int  # first l_dim basis elements span the +1 part
    structure: np.ndarray  # (N, N, N)
    killing: np.ndarray  # (N, N)
    xi_star: np.ndarray  # (N,)
    p_frame: np.ndarray  # (2d, N)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def _factor(self) -> _KahlerFactor:
        """The curvature factor, proven Kähler on first use and kept, so a command that reads
        both the grid and the constants proves it once.  [p, p] lies in l (checked, or the
        Heisenberg center), so only C[p, p, l] and K[l, l] count; the Heisenberg algebra is
        nilpotent, so its K[l, l] = 0 and its R is exactly +0.0."""
        space = make_space(self.d)
        L = self.l_dim
        frame = self.p_frame[:, L:].T
        W = slot_contract(self.structure[L:, L:, :L], frame, frame)
        K = self.killing[:L, :L]  # the last slot pair lowered with the metric
        _prove_kahler_factor(self, space, W, K)
        return _KahlerFactor(space, W, K)

    def __repr__(self):
        return f"LieModel({self.family}{self.params}, d={self.d})"


def _E(m, i, j):
    out = np.zeros((m, m))
    out[i, j] = 1.0
    return out


def _block2(a, b, c, e) -> np.ndarray:
    """The 2 x 2 block matrix [[a, b], [c, e]] of equal square blocks."""
    m = a.shape[0]
    out = np.empty((2 * m, 2 * m), dtype=np.result_type(a, b, c, e))
    out[:m, :m], out[:m, m:], out[m:, :m], out[m:, m:] = a, b, c, e
    return out


def _realify(M: np.ndarray) -> np.ndarray:
    """Complex m x m matrix as a real 2m x 2m matrix, preserving brackets."""
    A, B = M.real, M.imag
    return _block2(A, -B, B, A)


def _su_pq_basis(p: int, q: int):
    n = p + q
    l_mats, p_mats = [], []
    for k in range(n - 1):
        l_mats.append(1j * (_E(n, k, k) - _E(n, k + 1, k + 1)))
    for blk in ((0, p), (p, n)):
        for a in range(*blk):
            for b in range(a + 1, blk[1]):
                l_mats.append(_E(n, a, b) - _E(n, b, a))
                l_mats.append(1j * (_E(n, a, b) + _E(n, b, a)))
    for a in range(p):
        for b in range(p, n):
            p_mats.append(_E(n, a, b) + _E(n, b, a))
            p_mats.append(1j * (_E(n, a, b) - _E(n, b, a)))
    return [_realify(M) for M in l_mats], [_realify(M) for M in p_mats]


def _sp_p_basis(p: int):
    # sp(p, R): [[A, B], [C, -A^T]] with B, C symmetric
    l_mats, p_mats = [], []
    Z = np.zeros((p, p))
    for a in range(p):
        for b in range(a + 1, p):
            A = _E(p, a, b) - _E(p, b, a)
            l_mats.append(_block2(A, Z, Z, A))
    for a in range(p):
        for b in range(a, p):
            S = _E(p, a, b) + _E(p, b, a) if a != b else _E(p, a, a)
            l_mats.append(_block2(Z, S, -S, Z))
            p_mats.append(_block2(Z, S, S, Z))
            p_mats.append(_block2(S, Z, Z, -S))
    return l_mats, p_mats


def _so_p_2_basis(p: int):
    m = p + 2
    l_mats, p_mats = [], []
    for a in range(p):
        for b in range(a + 1, p):
            l_mats.append(_E(m, a, b) - _E(m, b, a))
    l_mats.append(_E(m, p, p + 1) - _E(m, p + 1, p))
    for a in range(p):
        for b in (p, p + 1):
            p_mats.append(_E(m, a, b) + _E(m, b, a))
    return l_mats, p_mats


def _so_star_basis(p: int):
    # 2p x 2p complex blocks [[A, B], [-conj(B), conj(A)]],
    # A antihermitian, B complex antisymmetric
    l_cplx, p_cplx = [], []

    def emb(A, B):
        return _block2(A, B, -B.conj(), A.conj())

    Zp = np.zeros((p, p), dtype=complex)
    for k in range(p):
        l_cplx.append(emb(1j * _E(p, k, k).astype(complex), Zp))
    for a in range(p):
        for b in range(a + 1, p):
            l_cplx.append(emb((_E(p, a, b) - _E(p, b, a)).astype(complex), Zp))
            l_cplx.append(emb(1j * (_E(p, a, b) + _E(p, b, a)), Zp))
            p_cplx.append(emb(Zp, (_E(p, a, b) - _E(p, b, a)).astype(complex)))
            p_cplx.append(emb(Zp, 1j * (_E(p, a, b) - _E(p, b, a))))
    return [_realify(M) for M in l_cplx], [_realify(M) for M in p_cplx]


def _heisenberg_basis(d: int):
    m = d + 2
    xs = [_E(m, 0, 1 + i) for i in range(d)]
    ys = [_E(m, 1 + i, d + 1) for i in range(d)]
    z = [_E(m, 0, d + 1)]
    return z, xs + ys  # center plays the xi role


@dataclass(frozen=True)
class _Family:
    """Everything the package knows about one family.

    param_names and min_param give the admissible parameters; basis builds
    the (l, p) matrices and half_dim the horizontal half-dimension from
    them.  c0_prime is the closed-form c0' and dual_coxeter the dual Coxeter
    number h, with kappa = -1/h for the Killing metric.  Out-of-scope rows
    have no basis and constants that ignore the parameters.
    """

    param_names: tuple = ()
    min_param: int = 1
    basis: Optional[Callable] = None
    half_dim: Optional[Callable] = None
    c0_prime: Optional[Callable] = None
    dual_coxeter: Optional[Callable] = None


_FAMILY_TABLE = {
    "heisenberg": _Family(("d",), 1, _heisenberg_basis, lambda d: d),
    "su_pq": _Family(
        ("p", "q"),
        1,
        _su_pq_basis,
        lambda p, q: p * q,
        lambda p, q: (p * q + 1) / (p + q) ** 2,
        lambda p, q: p + q,
    ),
    "sp_p_R": _Family(
        ("p",),
        1,
        _sp_p_basis,
        lambda p: p * (p + 1) // 2,
        lambda p: 0.25 + (3 + p) / (4.0 * (p + 1) ** 2),
        lambda p: p + 1,
    ),
    "so_p_2": _Family(
        ("p",), 3, _so_p_2_basis, lambda p: p, lambda p: 3.0 / (2 * p) - 1.0 / p**2, lambda p: p
    ),
    "so_star_2p": _Family(
        ("p",),
        3,
        _so_star_basis,
        lambda p: p * (p - 1) // 2,
        lambda p: 0.25 + (3 - p) / (4.0 * (p - 1) ** 2),
        lambda p: 2 * (p - 1),
    ),
    # exceptional algebras: listed in the reference table, not constructible
    "e6_spin10": _Family(c0_prime=lambda *_: 3.0 / 16.0, dual_coxeter=lambda *_: 12),
    "e7_e6": _Family(c0_prime=lambda *_: 29.0 / 162.0, dual_coxeter=lambda *_: 18),
}

FAMILIES = tuple(name for name, fam in _FAMILY_TABLE.items() if fam.basis)
OUT_OF_SCOPE_FAMILIES = tuple(name for name, fam in _FAMILY_TABLE.items() if not fam.basis)


def check_family(family: str, params: Sequence[int]) -> tuple:
    """The checked integer params of a family with a matrix model; ValueError otherwise."""
    fam = _FAMILY_TABLE.get(family)
    if fam is None:
        raise ValueError(f"unknown family {family!r}; supported: {FAMILIES}")
    if fam.basis is None:
        raise ValueError(f"family {family!r} has no matrix model; `pherm table` lists its closed forms")
    params = tuple(params)
    if any(isinstance(x, bool) or not hasattr(x, "__index__") for x in params):
        raise ValueError(f"{family} parameters must be integers, got {params!r}")
    params = tuple(map(operator.index, params))
    if len(params) != len(fam.param_names) or min(params) < fam.min_param:
        raise ValueError(f"{family} needs {', '.join(fam.param_names)} >= {fam.min_param}")
    return params


def closed_form_constants(family: str, params: Sequence[int]) -> tuple[float, float]:
    """Reference closed-form values for the curvature-norm constant and the
    lowest quadratic-form eigenvalue of each family."""
    fam = _FAMILY_TABLE.get(family, _Family())
    if fam.c0_prime is None:
        raise ValueError(f"no closed-form constants for family {family!r}")
    if fam.basis:
        params = check_family(family, params)  # the parameters of a constructible family
    return fam.c0_prime(*params), -1.0 / fam.dual_coxeter(*params)


def _structure_constants(mats: np.ndarray) -> np.ndarray:
    """C[i, j, k] with [b_i, b_j] = sum_k C[i, j, k] b_k for the (N, m, m) basis b,
    one bracket row i < j at a time (at most 0.86 MiB, at su(8,5)), its coordinates
    rounded to integers in place and filled in antisymmetrically.  Basis and constants
    are small integers, so each row must rebuild its brackets exactly and K = sum C C is exact."""
    N = mats.shape[0]
    flat = mats.reshape(N, -1)  # (N, m^2)
    pinv = np.linalg.pinv(flat.T)
    C = np.zeros((N, N, N))
    for i in range(N - 1):
        half = (mats[i] @ mats[i + 1 :] - mats[i + 1 :] @ mats[i]).reshape(N - 1 - i, -1)
        coords = half @ pinv.T
        np.rint(coords, out=coords)
        recon = coords @ flat
        recon -= half
        _gate("brackets do not close on the chosen basis: max |residual|", np.max(np.abs(recon, out=recon)), 0.0)
        C[i, i + 1 :] = coords
        C[i + 1 :, i] = np.negative(coords, out=coords)
    return C


def _gate(what: str, value: float, bound: float) -> None:
    """Raise a ModelError naming what was measured, its value and its bound when value > bound."""
    if value > bound:
        raise ModelError(f"{what} {value:.1e} > {bound:.0e}")


def _killing_form(C: np.ndarray) -> np.ndarray:
    """K[i, j] = tr(ad b_i ad b_j) = sum_ab C[i, b, a] C[j, a, b], summed over the
    `_blocks` of a as C[:, :, a] @ C[:, a, :]^T: each block copies C[:, :, a] once
    and reads C[:, a, :] as a view."""
    N = C.shape[0]
    K = np.zeros((N, N))
    for run in _blocks(N, N * N * C.itemsize):
        # rows i, columns (a, b): C[i, b, a] against C[j, a, b]
        K += C[:, :, run].transpose(0, 2, 1).reshape(N, -1) @ C[:, run, :].reshape(N, -1).T
    return K


def build_model(family: str, params: Sequence[int]) -> LieModel:
    """Construct a family member and verify its structural invariants."""
    params = check_family(family, params)
    fam = _FAMILY_TABLE[family]
    l_mats, p_mats = fam.basis(*params)

    mats = np.array(l_mats + p_mats, dtype=float)
    L, P = len(l_mats), len(p_mats)
    if P % 2:
        raise ModelError(f"odd horizontal dimension {P}")
    d = P // 2
    if d != fam.half_dim(*params):
        raise ModelError(
            f"horizontal half-dimension {d} disagrees with the family table's "
            f"{fam.half_dim(*params)}"
        )

    C = _structure_constants(mats)
    K = _killing_form(C)

    if family == "heisenberg":  # xi is the center z, the frame the p basis (x_1..x_d, y_1..y_d)
        return LieModel(family, params, d, True, mats, L, C, K, np.eye(1, L + P)[0], np.eye(P, L + P, L))

    # bracket closure of the symmetric pair, exact as C is; l is the first L basis
    # elements and p the rest, so each block is a basic slice (a view)
    for what, block in (
        ("[l, l] leaves l", C[:L, :L, L:]),
        ("[l, p] leaves p", C[:L, L:, :L]),
        ("[p, p] leaves l", C[L:, L:, L:]),
    ):
        _gate(f"{what}: max |C|", np.max(np.abs(block)), 0.0)

    # definiteness of the Killing form on both parts
    ev_l = np.linalg.eigvalsh(K[:L, :L])  # K is an exact integer matrix, so exactly symmetric
    ev_p = np.linalg.eigvalsh(K[L:, L:])
    _gate("Killing form is not negative definite on l: max eigenvalue", ev_l.max(), -1e-9)
    if ev_p.min() < 1e-9:
        raise ModelError(
            f"Killing form is not positive definite on p: min eigenvalue {ev_p.min():.1e} < 1e-09"
        )

    # center of l: coefficients z with [z, l] = 0
    sysmat = C[:L, :L].reshape(L, -1).T  # rows (j, k), cols i
    # sysmat = QR with R of shape (L, L), as sysmat has L^2 >= L rows; R has
    # the same singular values and right singular vectors, without the (L^2, L) factor
    _, sv, vt = np.linalg.svd(np.linalg.qr(sysmat, mode="r"), full_matrices=False)
    null_bound = 1e-9 * max(1.0, sv[0])
    null_dim = int(np.sum(sv < null_bound))
    if null_dim != 1:
        raise ModelError(
            f"center of l has dimension {null_dim}, expected 1: smallest singular values "
            f"{', '.join(f'{v:.1e}' for v in sv[-2:])} against the bound {null_bound:.1e}"
        )
    z = vt[-1]
    if z[np.argmax(np.abs(z))] < 0:
        z = -z  # deterministic orientation

    S = np.einsum("i,iba->ab", z, C[:L, L:, L:])  # ad z on p, acting on coordinates
    S2 = S @ S
    c2 = -np.trace(S2) / P
    resid = np.max(np.abs(S2 + c2 * np.eye(P)))
    if c2 <= 0 or resid > 1e-8 * c2:
        raise ModelError(
            "ad of the center element does not square to a multiple of -Id on p: "
            f"c2 {c2:.1e} (must be > 0), max |S^2 + c2 Id| {resid:.1e} > 1e-08 c2"
        )
    scale = 1.0 / np.sqrt(c2)
    xi = np.zeros(L + P)
    xi[:L] = scale * z
    # complex structure on p in basis coordinates; C order (S is F-order), so
    # the frame's products round as they did on a copied block
    Jp = np.multiply(scale, S, order="C")

    # adapted frame, orthonormal for beta restricted to p
    G = K[L:, L:]
    frame_p = np.zeros((P, P))  # rows (e_1..e_d, Je_1..Je_d); rows not yet filled are zero
    found = 0
    for k in range(P):
        v = np.zeros(P)
        v[k] = 1.0
        for _ in range(2):  # re-orthogonalize for numerical safety
            v -= (frame_p @ (G @ v)) @ frame_p
        nrm2 = v @ G @ v
        if nrm2 < 1e-10:
            continue
        e = v / np.sqrt(nrm2)
        frame_p[found], frame_p[d + found] = e, Jp @ e
        found += 1
        if found == d:
            break
    if found != d:
        raise ModelError(
            f"failed to build an adapted frame of p: {found} of {d} vectors above the "
            "squared-norm floor 1e-10"
        )
    gram = frame_p @ G @ frame_p.T
    _gate("adapted frame is not orthonormal: max |gram - I|", np.max(np.abs(gram - np.eye(P))), 1e-9)
    frame = np.zeros((P, L + P))
    frame[:, L:] = frame_p

    return LieModel(family, params, d, False, mats, L, C, K, xi, frame)


class _KahlerFactor(NamedTuple):
    """A Lie model's curvature as its factor: R = F K F^T for F = W.reshape(n^2, L), with
    W = C[p, p, l] read in the adapted frame (n, n, L) and K = K[l, l], proven Kähler by
    `_prove_kahler_factor` (`LieModel._factor`).  `model_curvature` forms R from it;
    `model_constants` reads s, c0' and kappa from it without R."""

    space: HorizontalSpace
    W: np.ndarray
    K: np.ndarray


def model_curvature(model: LieModel) -> Curv4:
    """Curvature tensor in the adapted frame, R = F K F^T from the proven factor
    (`LieModel._factor`): one BLAS product.  The Kähler tags are proven on the factor,
    not on the n^4 grid, for the flat family too."""
    space, W, K = model._factor
    n = space.n
    F = W.reshape(n * n, -1)
    return _proven_curv4(space, ((F @ K) @ F.T).reshape((n,) * 4), KAHLER_TAGS)


def model_constants(model: LieModel) -> tuple[float, Optional[float], float]:
    """Scalar curvature s, c0' (None on the flat model) and kappa of the model's curvature,
    read from its proven factor (`LieModel._factor`) without forming the n^4 grid.

    With G = F^T F (L x L): s = tr(G K) is the trace of the Ricci contraction,
    |R|^2 = tr(G K G K) / 8 is `norm2`, and c0' = -4 |R|^2 / s as in `c0_prime`.  kappa
    is `kappa`'s Lanczos on the operator h -> sum_l W_l h V_l, V = W K, which is the grid's
    sum_xy R(e_i, e_x, e_y, e_j) h[x, y] in two BLAS products, h V and then W (h V)."""
    _, W, K = model._factor
    n, _, L = W.shape
    F = W.reshape(n * n, L)
    GK = (F.T @ F) @ K
    s = float(np.trace(GK))
    c0 = None if model.flat else _c0_prime(float(np.sum(GK * GK.T)) / 8.0, s)
    V = (K @ W.transpose(0, 2, 1)).reshape(n, L * n)  # V[y, (l, j)] = sum_l' K[l, l'] W[y, j, l']
    W2 = W.reshape(n, n * L)  # W2[i, (x, l)]
    return s, c0, _lanczos_lowest(n, lambda h: W2 @ (h @ V).reshape(n * L, n))[0]


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u = 2^-53: a k-term sum of products, in any order, is off
    by at most gamma_k times the sum of the |products| (Higham 2002, section 3.1)."""
    u = 2.0**-53
    return k * u / (1.0 - k * u)


def _prove_kahler_factor(model: LieModel, space: HorizontalSpace, W: np.ndarray, K: np.ndarray) -> None:
    """Raise what `Curv4(space, R, KAHLER_TAGS)` would raise on R = F K F^T, F = W.reshape(n^2, L),
    from checks on the factor and on the model's C and K, in the same order, without forming R.
    Each residual is held to TOL * 1, never above the grid check's TOL * max(1, max |R|), so no
    check is looser; a Killing-normalised model has max |R| <= 1/2, where the two agree.

    Write m = max |F|, k = max(|K|_1, |K|_inf) (largest column or row sum of |K|) and
    |X|_r for the largest row sum of |X|.  |u K v^T| <= |u|_1 k max|v| for rows u, v,
    so each factor residual below bounds the grid residual that `_check_curv4` takes:
    - antisymmetry: R - P R = (Fs K F^T) + P_1(F K Fs^T) for the symmetric part
      Fs = (W + W_ba) / 2, so |R - P R| <= 2 |Fs|_r k m;
    - j_plus: with D = F - F_J, F_J = W(Ja, Jb, .) by the `J_pair` gather,
      R - P_J R = (D K F^T + F K D^T + D K F^T + F_J K D^T) / 4, so |R - P_J R| <= |D|_r k m;
    - pair_symmetric: R - (R + R^swap) / 2 = F (K - K^T) F^T / 2, so the residual is
      at most |F|_r |K - K^T|_r m / 2;
    - bianchi_closed: `_bianchi_certificate` shows, exactly, that b(R) = 0 for the exact
      W of the model's frame, so what is left of b(R) is rounding (inf if the certificate
      fails).  W rounds in two n-term contractions: its error dF has row sums at most
      w = gamma_2n max (|f|^T S |f|) for the frame f and S[a, b] = sum_l |C[a, b, l]|, so the
      exact (F - dF) K (F - dF)^T is within w k (2 m + w) of F K F^T; the two L-term products
      of R round by at most gamma_2L |F|_r k m; b sums three entries, so
      |b(R)| <= 3 (2 w k (m + w) + gamma_2L |F|_r k m).
    A factor residual within TOL thus implies the grid's, up to the rounding of R itself
    in the first three (about L * 1e-16 * |F|_r k m, far below TOL).  W and K must be finite,
    as a non-finite entry of either makes R non-finite.  The bounds are sufficient, not
    tight: on perturbed models they run up to about 35 times the grid residual, so a
    grid that passes with less margin than that fails here, with the grid check's error."""
    n, L = W.shape[1], W.shape[2]
    scale = 1.0 if np.all(np.isfinite(W)) and np.all(np.isfinite(K)) else np.nan
    F = W.reshape(n * n, L)
    m = np.max(np.abs(F))
    k = max(np.max(np.sum(np.abs(K), axis=0)), np.max(np.sum(np.abs(K), axis=1)))

    def rows1(X):
        return np.max(np.sum(np.abs(X.reshape(-1, X.shape[-1])), axis=1))

    def antisym():
        fs = W + np.einsum("bal->abl", W)
        fs *= 0.5
        return 2.0 * rows1(fs) * k * m

    def factor_residual(tag):
        if tag == "j_plus":
            return rows1(W - _conjugate(W, space.J_pair, -3)) * k * m
        if tag == "pair_symmetric":
            return 0.5 * rows1(F) * rows1(K - K.T) * m
        return _bianchi_bound(model, rows1(F), k, m)  # bianchi_closed

    _judge_curv4(scale, antisym, factor_residual, KAHLER_TAGS, TOL)


def _bianchi_bound(model: LieModel, f_r: float, k: float, m: float) -> float:
    """The bound on max |b(R)| of `_prove_kahler_factor`, for |F|_r = f_r, k and m as there:
    inf unless `_bianchi_certificate` holds, and then the rounding of W and of R."""
    if not _bianchi_certificate(model):
        return np.inf
    n, L = 2 * model.d, model.l_dim
    f = np.abs(model.p_frame[:, L:])  # (n, n): frame vector x in p's basis
    w = _gamma(2 * n) * np.max(f @ np.sum(np.abs(model.structure[L:, L:, :L]), axis=2) @ f.T)
    return 3.0 * (2.0 * w * k * (m + w) + _gamma(2 * L) * f_r * k * m)


def _bianchi_certificate(model: LieModel) -> bool:
    """Whether the model's C and K satisfy, exactly, the two facts that give
    R(x, y, z, w) = K([[x, y], z], w) and with it the first Bianchi identity of
    R = F K F^T in any frame, checked on C's nonzeros, without R:
    (b) K is ad-invariant: K[l, l] C[p, p, l]^T = C[l, p, p] K[p, p] as (L, n^2) matrices,
        so R(x, y, z, w) = sum_q T(x, y, z, q) K[q, w] for T(a, b, c, q) = sum_l C[a, b, l] C[l, c, q];
    (a) C satisfies Jacobi on p^3 through l: J(a, b, c, q) = T(a, b, c, q) + T(c, a, b, q)
        + T(b, c, a, q) = 0 for all a, b, c, q in p, so b(R)(x, y, z, w) = sum_q J(x, y, z, q) K[q, w] = 0.
    `build_model`'s C and K hold integers, so every sum here is exact in float64 and both
    checks are equalities.  (b) is taken in `_blocks` of l rows.  (a) joins the nonzeros of
    C[p, p, l] (ordered by l) with those of C[l, p, p] (ordered by q) on l, by a count and a
    cumulative sum, so its terms come ordered by q.  J is cyclic in (a, b, c) and is the sum of
    the terms over the three rotations, so each term is added once, at the smallest of the
    three keys, into one buffer over a `_blocks` run of q."""
    L, C = model.l_dim, model.structure
    A, B = C[L:, L:, :L], C[:L, L:, L:]  # [p, p] -> l and [l, p] -> p, views
    Kl, Kp = model.killing[:L, :L], model.killing[L:, L:]
    n = A.shape[0]
    for run in _blocks(L, n * n * A.itemsize):  # (b): [z, w, l] on both sides
        if not np.array_equal(A @ Kl[run].T, (B[run] @ Kp).transpose(1, 2, 0)):
            return False

    la, a, b = np.nonzero(A.transpose(2, 0, 1))
    va = A[a, b, la]
    count = np.bincount(la, minlength=L)
    first = np.cumsum(count) - count  # A's nonzeros with l = j are first[j] + range(count[j])
    qb, lb, c = np.nonzero(B.transpose(2, 0, 1))
    vb = B[lb, c, qb]
    starts = np.concatenate(([0], np.cumsum(np.bincount(qb, minlength=n))))  # of each q among them
    runs = _blocks(n, n**3 * A.itemsize)
    buf = np.zeros(len(range(n)[runs[0]]) * n**3)
    for run in runs:
        q0, q1, _ = run.indices(n)
        j = slice(starts[q0], starts[q1])
        rep = count[lb[j]]  # the terms of each of B's nonzeros in the run
        t = np.repeat(first[lb[j]] - (np.cumsum(rep) - rep), rep) + np.arange(rep.sum())  # their A nonzeros
        x, y, z = a[t], b[t], np.repeat(c[j], rep)
        key = np.minimum(np.minimum((x * n + y) * n + z, (y * n + z) * n + x), (z * n + x) * n + y)
        key += np.repeat(qb[j] - q0, rep) * n**3
        np.add.at(buf, key, va[t] * np.repeat(vb[j], rep))
        if np.any(buf[key]):  # else every entry it touched is 0 again, ready for the next run
            return False
    return True


def _c0_prime(norm2_value: float, s: float) -> float:
    """c0' = -4 |R|^2 / s from |R|^2 and s; undefined where s vanishes."""
    if abs(s) < 1e-12:
        raise ValueError("scalar curvature vanishes; constant undefined")
    return -4.0 * norm2_value / s


def c0_prime(rw: Curv4) -> float:
    """Scale-covariant curvature-norm constant -4 |R|^2 / s."""
    return _c0_prime(norm2(rw), scalar_curvature(rw))


def kappa(rw: Curv4) -> float:
    """Lowest eigenvalue of the curvature quadratic form on traceless
    symmetric horizontal 2-tensors.

    Lanczos with full reorthogonalisation (Lanczos 1950; Paige 1971) spans the
    Krylov space of a fixed start under T(h), the traceless part of the
    symmetrised sum_xy R(e_i, e_x, e_y, e_j) h[x, y], one grid product per step,
    until the space is invariant or all of it.  It holds the start's part in each
    eigenspace, so its lowest Ritz value is kappa unless the start is orthogonal
    to the lowest eigenspace (36 of 77 dimensions at su(3, 2)).  A Lie model's
    form has at most five distinct eigenvalues, so this takes at most five steps.
    `model_constants` runs the same iteration on a model's factor, without the grid.
    """
    if not rw.has("pair_symmetric"):
        raise ValueError("kappa requires a pair-symmetric tensor")
    return _kappa_lanczos(rw.entries)[0]


def _kappa_lanczos(R: np.ndarray) -> tuple[float, int]:
    """kappa of the pair-symmetric grid R, and the number of Lanczos steps."""
    n = R.shape[0]
    # the grid product sum_xy R[i, x, y, j] h[x, y], through a view of R
    return _lanczos_lowest(n, lambda h: h.ravel() @ R.reshape(n, n * n, n))


def _lanczos_lowest(n: int, apply: Callable[[np.ndarray], np.ndarray]) -> tuple[float, int]:
    """The lowest eigenvalue of T(h) = the traceless symmetric part of apply(h), over the
    traceless symmetric n x n matrices h, by `kappa`'s Lanczos, and the number of steps."""

    def traceless_sym(Y):
        h = 0.5 * (Y + Y.T)
        h.flat[:: n + 1] -= np.trace(h) / n
        return h.ravel()

    # a fixed start: importing numpy.random would cost more than the solve
    q = traceless_sym((np.arange(1.0, n * n + 1) * 0.6180339887498949 % 1.0).reshape(n, n))
    basis, alpha, beta, scale = [q / np.linalg.norm(q)], [], [], 0.0
    while True:
        w = traceless_sym(apply(basis[-1].reshape(n, n)))
        alpha.append(basis[-1] @ w)
        B = np.array(basis)
        w -= (B @ w) @ B
        w -= (B @ w) @ B  # twice, against every earlier vector
        b = np.linalg.norm(w)
        scale = max(scale, abs(alpha[-1]), b)  # the run's own, so kappa(t R) = t kappa(R)
        if b <= 1e-12 * scale or len(basis) == n * (n + 1) // 2 - 1:
            break
        beta.append(b)
        basis.append(w / b)
    T = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
    return float(np.linalg.eigvalsh(T)[0]), len(alpha)
