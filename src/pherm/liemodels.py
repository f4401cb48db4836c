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
from typing import Sequence

import numpy as np

from .spaces import Curv4, make_space
from .algebra import norm2
from .invariants import scalar_curvature

FAMILIES = ("heisenberg", "su_pq", "sp_p_R", "so_p_2", "so_star_2p")

# families appearing in the reference table that need exceptional algebras;
# recognised by the report layer but not constructible here
OUT_OF_SCOPE_FAMILIES = ("e6_spin10", "e7_e6")


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


def _realify(M: np.ndarray) -> np.ndarray:
    """Complex m x m matrix as a real 2m x 2m matrix, preserving brackets."""
    A, B = M.real, M.imag
    return np.block([[A, -B], [B, A]])


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
            l_mats.append(np.block([[A, Z], [Z, A]]))
    for a in range(p):
        for b in range(a, p):
            S = _E(p, a, b) + _E(p, b, a) if a != b else _E(p, a, a)
            l_mats.append(np.block([[Z, S], [-S, Z]]))
            p_mats.append(np.block([[Z, S], [S, Z]]))
            p_mats.append(np.block([[S, Z], [Z, -S]]))
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
        return np.block([[A, B], [-B.conj(), A.conj()]])

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


_TABLE_D = {
    "su_pq": lambda p, q: p * q,
    "sp_p_R": lambda p: p * (p + 1) // 2,
    "so_p_2": lambda p: p,
    "so_star_2p": lambda p: p * (p - 1) // 2,
    "heisenberg": lambda d: d,
}


def closed_form_constants(family: str, params: Sequence[int]) -> tuple[float, float]:
    """Reference closed-form values for the curvature-norm constant and the
    lowest quadratic-form eigenvalue of each family."""
    params = tuple(params)
    if family == "su_pq":
        p, q = params
        return (p * q + 1) / (p + q) ** 2, -1.0 / (p + q)
    if family == "sp_p_R":
        (p,) = params
        return 0.25 + (3 + p) / (4.0 * (p + 1) ** 2), -1.0 / (p + 1)
    if family == "so_p_2":
        (p,) = params
        return 3.0 / (2 * p) - 1.0 / p**2, -1.0 / p
    if family == "so_star_2p":
        (p,) = params
        return 0.25 + (3 - p) / (4.0 * (p - 1) ** 2), -1.0 / (2 * (p - 1))
    if family == "e6_spin10":
        return 3.0 / 16.0, -1.0 / 12.0
    if family == "e7_e6":
        return 29.0 / 162.0, -1.0 / 18.0
    raise ValueError(f"no closed-form constants for family {family!r}")


def _validate(family: str, params: tuple):
    if family == "su_pq":
        if len(params) != 2 or params[0] < 1 or params[1] < 1:
            raise ValueError("su_pq needs p, q >= 1")
    elif family == "sp_p_R":
        if len(params) != 1 or params[0] < 1:
            raise ValueError("sp_p_R needs p >= 1")
    elif family == "so_p_2":
        if len(params) != 1 or params[0] < 3:
            raise ValueError("so_p_2 needs p >= 3")
    elif family == "so_star_2p":
        if len(params) != 1 or params[0] < 3:
            raise ValueError("so_star_2p needs p >= 3")
    elif family == "heisenberg":
        if len(params) != 1 or params[0] < 1:
            raise ValueError("heisenberg needs d >= 1")
    else:
        raise ValueError(f"unknown family {family!r}; supported: {FAMILIES}")


def _structure_constants(mats: np.ndarray) -> np.ndarray:
    N = mats.shape[0]
    flat = mats.reshape(N, -1).T  # (m^2, N)
    pinv = np.linalg.pinv(flat)
    brackets = np.einsum("iab,jbc->ijac", mats, mats)
    brackets = brackets - np.einsum("jiac->ijac", brackets)
    C = np.einsum("ka,ija->ijk", pinv, brackets.reshape(N, N, -1))
    # basis entries are small integers; the expansion must be essentially exact
    recon = np.einsum("ijk,kab->ijab", C, mats)
    if np.max(np.abs(recon - brackets.reshape(N, N, *mats.shape[1:]))) > 1e-9:
        raise ModelError("brackets do not close on the chosen basis")
    return C


def build_model(family: str, params: Sequence[int], metric_scale: float = 1.0) -> LieModel:
    """Construct a family member and verify its structural invariants."""
    params = tuple(int(x) for x in params)
    _validate(family, params)
    if metric_scale <= 0:
        raise ValueError("metric_scale must be positive")

    if family == "heisenberg":
        l_mats, p_mats = _heisenberg_basis(params[0])
    elif family == "su_pq":
        l_mats, p_mats = _su_pq_basis(*params)
    elif family == "sp_p_R":
        l_mats, p_mats = _sp_p_basis(*params)
    elif family == "so_p_2":
        l_mats, p_mats = _so_p_2_basis(*params)
    else:
        l_mats, p_mats = _so_star_basis(*params)

    mats = np.array(l_mats + p_mats, dtype=float)
    L, P = len(l_mats), len(p_mats)
    if P % 2:
        raise ModelError("odd horizontal dimension")
    d = P // 2
    if d != _TABLE_D[family](*params):
        raise ModelError("horizontal dimension disagrees with the family table")

    C = _structure_constants(mats)
    ads = np.einsum("ijk->ikj", C)  # ad_i as a matrix acting on coordinates
    K = np.einsum("iab,jba->ij", ads, ads)

    if family == "heisenberg":
        frame = np.zeros((2 * d, L + P))
        for i in range(2 * d):
            frame[i, L + i] = 1.0
        xi = np.zeros(L + P)
        xi[0] = 1.0
        return LieModel(family, params, d, True, mats, L, C, K, xi, frame, metric_scale)

    li = np.arange(L)
    pi = np.arange(L, L + P)

    # bracket closure of the symmetric pair
    if np.max(np.abs(C[np.ix_(li, li, pi)])) > 1e-9:
        raise ModelError("[l, l] leaves l")
    if np.max(np.abs(C[np.ix_(li, pi, li)])) > 1e-9:
        raise ModelError("[l, p] leaves p")
    if np.max(np.abs(C[np.ix_(pi, pi, pi)])) > 1e-9:
        raise ModelError("[p, p] leaves l")

    # definiteness of the Killing form on both parts
    ev_l = np.linalg.eigvalsh(0.5 * (K[np.ix_(li, li)] + K[np.ix_(li, li)].T))
    ev_p = np.linalg.eigvalsh(0.5 * (K[np.ix_(pi, pi)] + K[np.ix_(pi, pi)].T))
    if ev_l.max() > -1e-9:
        raise ModelError("Killing form is not negative definite on l")
    if ev_p.min() < 1e-9:
        raise ModelError("Killing form is not positive definite on p")

    # center of l: coefficients z with [z, l] = 0
    sysmat = C[np.ix_(li, li)].reshape(L, -1).T  # rows (j, k), cols i
    _, sv, vt = np.linalg.svd(sysmat)
    sv = np.concatenate([sv, np.zeros(L - len(sv))]) if len(sv) < L else sv
    null_dim = int(np.sum(sv < 1e-9 * max(1.0, sv[0])))
    if null_dim != 1:
        raise ModelError(f"center of l has dimension {null_dim}, expected 1")
    z = vt[-1]
    if z[np.argmax(np.abs(z))] < 0:
        z = -z  # deterministic orientation

    z_full = np.zeros(L + P)
    z_full[:L] = z
    ad_z = np.einsum("i,iab->ab", z_full, ads)
    S = ad_z[np.ix_(pi, pi)]
    S2 = S @ S
    c2 = -np.trace(S2) / P
    if c2 <= 0 or np.max(np.abs(S2 + c2 * np.eye(P))) > 1e-8 * c2:
        raise ModelError("ad of the center element does not square to a multiple of -Id on p")
    scale = 1.0 / np.sqrt(c2)
    xi = np.zeros(L + P)
    xi[:L] = scale * z
    Jp = scale * S  # complex structure on p in basis coordinates

    # adapted frame, orthonormal for metric_scale * beta restricted to p
    G = metric_scale * K[np.ix_(pi, pi)]
    es: list[np.ndarray] = []
    js: list[np.ndarray] = []
    for k in range(P):
        v = np.zeros(P)
        v[k] = 1.0
        for _ in range(2):  # re-orthogonalize for numerical safety
            for u in es + js:
                v = v - (u @ G @ v) * u
        nrm2 = v @ G @ v
        if nrm2 < 1e-10:
            continue
        e = v / np.sqrt(nrm2)
        es.append(e)
        js.append(Jp @ e)
        if len(es) == d:
            break
    if len(es) != d:
        raise ModelError("failed to build an adapted frame of p")
    frame_p = np.array(es + js)  # (2d, P)
    gram = frame_p @ G @ frame_p.T
    if np.max(np.abs(gram - np.eye(P))) > 1e-9:
        raise ModelError("adapted frame is not orthonormal")
    frame = np.zeros((P, L + P))
    frame[:, L:] = frame_p

    return LieModel(family, params, d, False, mats, L, C, K, xi, frame, metric_scale)


def model_curvature(model: LieModel) -> Curv4:
    """Curvature tensor in the adapted frame; zero for the flat family."""
    space = make_space(model.d)
    if model.flat:
        n = space.n
        return Curv4(
            space,
            np.zeros((n, n, n, n)),
            frozenset({"pair_symmetric", "bianchi_closed", "j_plus"}),
        )
    W = np.einsum("ai,bj,ijk->abk", model.p_frame, model.p_frame, model.structure)
    # the last slot pair is lowered with the (possibly rescaled) metric
    R = model.metric_scale * np.einsum("abk,kl,cel->abce", W, model.killing, W)
    return Curv4(space, R, frozenset({"pair_symmetric", "bianchi_closed", "j_plus"}))


def c0_prime(rw: Curv4) -> float:
    """Scale-covariant curvature-norm constant -4 |R|^2 / s."""
    s = scalar_curvature(rw)
    if abs(s) < 1e-12:
        raise ValueError("scalar curvature vanishes; constant undefined")
    return -4.0 * norm2(rw) / s


def _traceless_sym_basis(n: int) -> np.ndarray:
    """Orthonormal (Frobenius) basis of traceless symmetric n x n grids."""
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n))
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2.0)
            mats.append(m)
    for k in range(1, n):
        diag = np.zeros(n)
        diag[:k] = 1.0
        diag[k] = -float(k)
        mats.append(np.diag(diag) / np.sqrt(k * (k + 1.0)))
    return np.array(mats)


def kappa(rw: Curv4) -> float:
    """Lowest eigenvalue of the curvature quadratic form on traceless
    symmetric horizontal 2-tensors."""
    if not rw.has("pair_symmetric"):
        raise ValueError("kappa requires a pair-symmetric tensor")
    n = rw.space.n
    basis = _traceless_sym_basis(n)  # (m, n, n)
    T = np.einsum("ixyj->xyij", rw.entries).reshape(n * n, n * n)
    flat = basis.reshape(len(basis), -1)
    M = flat @ T @ flat.T
    M = 0.5 * (M + M.T)
    return float(np.linalg.eigvalsh(M)[0])


def holonomy_commutant_dim(rw: Curv4) -> int:
    """Dimension of the joint commutant of the curvature endomorphisms.

    For the irreducible Hermitian-type models the commutant is spanned by
    the identity and the complex structure, so the expected value is 2.
    """
    n = rw.space.n
    # endomorphism of the pair (X, Y): E[w, z] = R(X, Y, Z=e_z, W=e_w)
    ops = [rw.entries[x, y].T for x in range(n) for y in range(x + 1, n)]
    rows = []
    ident = np.eye(n)
    for E in ops:
        # [E, C] = 0 as linear constraint on C (n^2 unknowns)
        rows.append(np.kron(E, ident) - np.kron(ident, E.T))
    sysmat = np.vstack(rows)
    sv = np.linalg.svd(sysmat, compute_uv=False)
    tolerance = 1e-9 * max(1.0, sv[0])
    return int(n * n - np.sum(sv > tolerance))
