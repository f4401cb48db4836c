"""Matrix Lie-algebra models of the non-compact Hermitian-type families.

Each family is realized by explicit real matrices (complex families are
realified).  The Killing form is always the adjoint trace form
beta(X, Y) = tr(ad X ad Y) computed from structure constants, never a
defining-representation trace.  The horizontal metric is the restriction of
beta to the -1 eigenspace p of the symmetric-pair decomposition (optionally
rescaled), the complex structure is ad of the generator of the center of the
+1 part, and the curvature in an adapted beta-orthonormal frame is
R(a, b, c, e) = beta([u_a, u_b], [u_c, u_e]).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .spaces import (
    KAHLER_TAGS,
    TOL,
    Curv4,
    HorizontalSpace,
    _blocks,
    _conjugate,
    _grid_scale,
    _judge_curv4,
    _proven_curv4,
    _tag_residual,
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
    metric_scale: float = 1.0

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

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
    them.  constants is the closed-form (c0', kappa).  Out-of-scope rows
    have no basis and constants that ignore the parameters.
    """

    param_names: tuple = ()
    min_param: int = 1
    basis: Optional[Callable] = None
    half_dim: Optional[Callable] = None
    constants: Optional[Callable] = None


_FAMILY_TABLE = {
    "heisenberg": _Family(("d",), 1, _heisenberg_basis, lambda d: d),
    "su_pq": _Family(
        ("p", "q"),
        1,
        _su_pq_basis,
        lambda p, q: p * q,
        lambda p, q: ((p * q + 1) / (p + q) ** 2, -1.0 / (p + q)),
    ),
    "sp_p_R": _Family(
        ("p",),
        1,
        _sp_p_basis,
        lambda p: p * (p + 1) // 2,
        lambda p: (0.25 + (3 + p) / (4.0 * (p + 1) ** 2), -1.0 / (p + 1)),
    ),
    "so_p_2": _Family(
        ("p",), 3, _so_p_2_basis, lambda p: p, lambda p: (3.0 / (2 * p) - 1.0 / p**2, -1.0 / p)
    ),
    "so_star_2p": _Family(
        ("p",),
        3,
        _so_star_basis,
        lambda p: p * (p - 1) // 2,
        lambda p: (0.25 + (3 - p) / (4.0 * (p - 1) ** 2), -1.0 / (2 * (p - 1))),
    ),
    # exceptional algebras: listed in the reference table, not constructible
    "e6_spin10": _Family(constants=lambda *_: (3.0 / 16.0, -1.0 / 12.0)),
    "e7_e6": _Family(constants=lambda *_: (29.0 / 162.0, -1.0 / 18.0)),
}

FAMILIES = tuple(name for name, fam in _FAMILY_TABLE.items() if fam.basis)
OUT_OF_SCOPE_FAMILIES = tuple(name for name, fam in _FAMILY_TABLE.items() if not fam.basis)


def _family(family: str, params: tuple) -> _Family:
    """The table record of a constructible family, after checking params."""
    fam = _FAMILY_TABLE.get(family)
    if fam is None or fam.basis is None:
        raise ValueError(f"unknown family {family!r}; supported: {FAMILIES}")
    if len(params) != len(fam.param_names) or min(params) < fam.min_param:
        raise ValueError(f"{family} needs {', '.join(fam.param_names)} >= {fam.min_param}")
    return fam


def closed_form_constants(family: str, params: Sequence[int]) -> tuple[float, float]:
    """Reference closed-form values for the curvature-norm constant and the
    lowest quadratic-form eigenvalue of each family."""
    params = tuple(params)
    fam = _FAMILY_TABLE.get(family, _Family())
    if fam.constants is None:
        raise ValueError(f"no closed-form constants for family {family!r}")
    if fam.basis:
        _family(family, params)  # the parameters of a constructible family
    return fam.constants(*params)


def _structure_constants(mats: np.ndarray) -> np.ndarray:
    """C[i, j, k] with [b_i, b_j] = sum_k C[i, j, k] b_k for the (N, m, m)
    basis b.  Each bracket is formed once, for i < j, one row i at a time (a row
    is at most 0.86 MiB, at su(8,5)); each row's closure residual is folded into
    a running max and its coordinates filled into C antisymmetrically."""
    N = mats.shape[0]
    flat = mats.reshape(N, -1)  # (N, m^2)
    pinv = np.linalg.pinv(flat.T)
    C = np.zeros((N, N, N))
    resid = 0.0
    for i in range(N - 1):
        half = (mats[i] @ mats[i + 1 :] - mats[i + 1 :] @ mats[i]).reshape(N - 1 - i, -1)
        coords = half @ pinv.T
        # basis entries are small integers; the expansion must be essentially exact
        recon = coords @ flat
        recon -= half
        resid = max(resid, np.max(np.abs(recon, out=recon)))
        C[i, i + 1 :] = coords
        C[i + 1 :, i] = np.negative(coords, out=coords)
    if resid > 1e-9:
        raise ModelError(
            f"brackets do not close on the chosen basis: max |residual| {resid:.1e} > 1e-09"
        )
    return C


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


def build_model(family: str, params: Sequence[int], metric_scale: float = 1.0) -> LieModel:
    """Construct a family member and verify its structural invariants."""
    params = tuple(int(x) for x in params)
    fam = _family(family, params)
    if not (np.isfinite(metric_scale) and metric_scale > 0):  # `<= 0` lets a NaN through
        raise ValueError("metric_scale must be positive and finite")

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

    if family == "heisenberg":
        frame = np.zeros((2 * d, L + P))
        for i in range(2 * d):
            frame[i, L + i] = 1.0
        xi = np.zeros(L + P)
        xi[0] = 1.0
        return LieModel(family, params, d, True, mats, L, C, K, xi, frame, metric_scale)

    # bracket closure of the symmetric pair; l is the first L basis elements and p
    # the rest, so each block is a basic slice (a view)
    for what, block in (
        ("[l, l] leaves l", C[:L, :L, L:]),
        ("[l, p] leaves p", C[:L, L:, :L]),
        ("[p, p] leaves l", C[L:, L:, L:]),
    ):
        resid = np.max(np.abs(block))
        if resid > 1e-9:
            raise ModelError(f"{what}: max |C| {resid:.1e} > 1e-09")

    # definiteness of the Killing form on both parts
    ev_l = np.linalg.eigvalsh(0.5 * (K[:L, :L] + K[:L, :L].T))
    ev_p = np.linalg.eigvalsh(0.5 * (K[L:, L:] + K[L:, L:].T))
    if ev_l.max() > -1e-9:
        raise ModelError(
            f"Killing form is not negative definite on l: max eigenvalue {ev_l.max():.1e} > -1e-09"
        )
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

    z_full = np.zeros(L + P)
    z_full[:L] = z
    ad_z = np.einsum("i,iba->ab", z_full, C)  # ad z as a matrix acting on coordinates
    S = ad_z[L:, L:]
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
    # complex structure on p in basis coordinates; C order (S is an F-order view), so
    # the frame's products round as they did on a copied block
    Jp = np.multiply(scale, S, order="C")

    # adapted frame, orthonormal for metric_scale * beta restricted to p
    G = metric_scale * K[L:, L:]
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
    resid = np.max(np.abs(gram - np.eye(P)))
    if resid > 1e-9:
        raise ModelError(f"adapted frame is not orthonormal: max |gram - I| {resid:.1e} > 1e-09")
    frame = np.zeros((P, L + P))
    frame[:, L:] = frame_p

    return LieModel(family, params, d, False, mats, L, C, K, xi, frame, metric_scale)


def model_curvature(model: LieModel) -> Curv4:
    """Curvature tensor in the adapted frame; zero for the flat family.

    R = F K F^T for the factor F = W.reshape(n^2, L), W = C[p, p, l] read in the
    frame (n, n, L), and K = metric_scale * K[l, l]: one BLAS product.  The Kähler
    tags are proven on the factor (`_prove_kahler_factor`), not on the n^4 grid."""
    space = make_space(model.d)
    n = space.n
    if model.flat:
        return _proven_curv4(space, np.zeros((n,) * 4), KAHLER_TAGS)  # zero has every tag
    # build_model checked [p, p] in l and K definite on l and p: only C[p, p, l], K[l, l] count
    L = model.l_dim
    frame = model.p_frame[:, L:].T
    W = slot_contract(model.structure[L:, L:, :L], frame, frame)
    K = model.metric_scale * model.killing[:L, :L]  # the last slot pair lowered with the metric
    F = W.reshape(n * n, L)
    R = ((F @ K) @ F.T).reshape((n,) * 4)
    _prove_kahler_factor(space, W, K, R)
    return _proven_curv4(space, R, KAHLER_TAGS)


def _prove_kahler_factor(space: HorizontalSpace, W: np.ndarray, K: np.ndarray, R: np.ndarray) -> None:
    """Raise what `Curv4(space, R, KAHLER_TAGS)` would raise on R = F K F^T, F = W.reshape(n^2, L),
    from checks on the factor, in the same order and against the same bound
    TOL * s, s = max(1, max |R|) (from max R and min R).

    Write m = max |F|, k = max(|K|_1, |K|_inf) (largest column or row sum of |K|) and
    |X|_r for the largest row sum of |X|.  |u K v^T| <= |u|_1 k max|v| for rows u, v,
    so each factor residual below bounds the grid residual that `_check_curv4` takes:
    - antisymmetry: R - P R = (Fs K F^T) + P_1(F K Fs^T) for the symmetric part
      Fs = (W + W_ba) / 2, so |R - P R| <= 2 |Fs|_r k m;
    - j_plus: with D = F - F_J, F_J = W(Ja, Jb, .) by the `J_pair` gather,
      R - P_J R = (D K F^T + F K D^T + D K F^T + F_J K D^T) / 4, so |R - P_J R| <= |D|_r k m;
    - pair_symmetric: R - (R + R^swap) / 2 = F (K - K^T) F^T / 2, so the residual is
      at most |F|_r |K - K^T|_r m / 2;
    - bianchi_closed: max |b(R)| over row blocks of R, the grid check itself.
    A factor residual within TOL * s thus implies the grid's, up to the rounding of R
    itself (about L * 1e-16 * |F|_r k m, far below TOL).  W and K must be finite, as a
    non-finite entry of either makes R non-finite.  The bounds are sufficient, not
    tight: on perturbed models they run up to about 35 times the grid residual, so a
    grid that passes with less margin than that fails here, with the grid check's error."""
    n, L = W.shape[1], W.shape[2]
    finite = np.all(np.isfinite(W)) and np.all(np.isfinite(K))
    scale = _grid_scale(R) if finite else np.nan
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
        return _tag_residual(space, R, tag)  # bianchi_closed, on R

    _judge_curv4(scale, antisym, factor_residual, KAHLER_TAGS, TOL)


def c0_prime(rw: Curv4) -> float:
    """Scale-covariant curvature-norm constant -4 |R|^2 / s."""
    return _c0_prime(rw, scalar_curvature(rw))


def _c0_prime(rw: Curv4, s: float) -> float:
    """c0_prime for a caller that already holds s = scalar_curvature(rw)."""
    if abs(s) < 1e-12:
        raise ValueError("scalar curvature vanishes; constant undefined")
    return -4.0 * norm2(rw) / s


def kappa(rw: Curv4) -> float:
    """Lowest eigenvalue of the curvature quadratic form on traceless
    symmetric horizontal 2-tensors."""
    if not rw.has("pair_symmetric"):
        raise ValueError("kappa requires a pair-symmetric tensor")
    n = rw.space.n
    # Frobenius-orthonormal basis: (E_xy + E_yx)/sqrt(2) for x < y, then the
    # diagonals diag(1, .., 1, -k, 0, ..)/sqrt(k(k+1)), the Helmert rows H
    xo, yo = np.triu_indices(n, 1)
    x, y = np.concatenate([xo, np.arange(n)]), np.concatenate([yo, np.arange(n)])
    H = np.tril(np.ones((n - 1, n))) - np.diag(np.arange(1.0, n), 1)[:-1]
    H /= np.sqrt(np.arange(1.0, n) * np.arange(2.0, n + 1))[:, None]
    # the form R(e_i, X, Y, e_j) symmetrised in (x, y) and in (i, j), on pairs:
    # S[a, b] at the pair a = (i, j) of the outer slots and b = (x, y) of the inner.
    # Pair symmetry with antisymmetry gives R(j, y, x, i) = R(i, x, y, j) and
    # R(j, x, y, i) = R(i, y, x, j): the (i, j) swap repeats the (x, y) swap
    R, xa, ya = rw.entries, x[:, None], y[:, None]
    S = R[xa, x, y, ya]
    S += R[xa, y, x, ya]
    S *= 0.5
    k = len(xo)
    M = np.empty((k + n - 1,) * 2)
    M[:k, :k] = 2.0 * S[:k, :k]
    M[:k, k:] = np.sqrt(2.0) * S[:k, k:] @ H.T
    M[k:, :k] = np.sqrt(2.0) * H @ S[k:, :k]
    M[k:, k:] = H @ S[k:, k:] @ H.T
    M = 0.5 * (M + M.T)
    return float(np.linalg.eigvalsh(M)[0])


def holonomy_commutant_dim(rw: Curv4) -> int:
    """Dimension of the joint commutant of the curvature endomorphisms.

    For the irreducible Hermitian-type models the commutant is spanned by
    the identity and the complex structure, so the expected value is 2.
    It is the null space of G, vec(C)^T G vec(C) = sum_p |[A_p, C]|^2 over the n^2
    antisymmetric A_p = R(x, y, ., .): G = -(S (x) I + I (x) S) - 2 sum_p A_p (x) A_p
    with S = sum_p A_p^2.  Eigenvalues at or below 1e-12 * lambda_max count as null.
    """
    n = rw.space.n
    F = rw.entries.reshape(n * n, n * n)  # row p, column (a, c): A_p[a, c]
    G = (F.T @ F).reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    G *= -2.0  # -2 sum_p A_p (x) A_p, row (a, b), column (c, d)
    S = -np.tensordot(rw.entries, rw.entries, axes=([0, 1, 3], [0, 1, 3]))  # A_p^2 = -A_p A_p^T
    G4 = G.reshape(n, n, n, n)  # writable views of the diagonals of S (x) I and I (x) S
    np.einsum("abcb->abc", G4)[...] -= S[:, None, :]
    np.einsum("abad->abd", G4)[...] -= S[None, :, :]
    lam = np.linalg.eigvalsh(G)
    return int(np.sum(lam <= 1e-12 * lam[-1]))
