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
)
from .algebra import norm2
from .invariants import scalar_curvature

class ModelError(ValueError):
    """A Lie model failed a structural invariant."""


@dataclass(frozen=True, eq=False)
class LieModel:
    """A symmetric-pair model with adapted horizontal frame, in the coordinates of the
    family's basis of N matrices (the matrices themselves are not kept).

    structure holds the structure constants as `_Triples`, the nonzeros of C, and killing
    the adjoint trace form, both exact integers.  xi_star is the normalized center
    element of the +1 part and p_frame the adapted beta-orthonormal frame of the -1 part,
    rows ordered (e_1..e_d, Je_1..Je_d), both in basis coordinates.
    """

    family: str
    params: tuple
    d: int
    flat: bool
    l_dim: int  # first l_dim basis elements span the +1 part
    structure: _Triples  # C's nonzeros
    killing: np.ndarray  # (N, N)
    xi_star: np.ndarray  # (N,)
    p_frame: np.ndarray  # (2d, N)

    @property
    def dim(self) -> int:
        return self.killing.shape[0]

    @cached_property
    def _factor(self) -> _KahlerFactor:
        """The curvature factor, proven Kähler on first use and kept, so a command that reads
        both the grid and the constants proves it once.  [p, p] lies in l (checked, or the
        Heisenberg center), so only C[p, p, l] and K[l, l] count; the Heisenberg algebra is
        nilpotent, so its K[l, l] = 0 and its R is exactly +0.0."""
        space = make_space(self.d)
        L, n = self.l_dim, 2 * self.d
        F = self.p_frame[:, L:]  # row x: frame vector x in p's basis
        a, b, l, v = _entries(self.structure, L, "ppl")
        A = np.zeros((n, n, L))  # C[p, p, l]
        A[a, b, l] = v
        A = np.matmul(F, A)  # sum_b F[y, b] C[a, b, l], then sum_a F[x, a]: BLAS products
        W = (F @ A.reshape(n, n * L)).reshape(n, n, L)
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
    the lists of l and p matrices, whose structure constants `build_model`
    finds, and half_dim gives the horizontal half-dimension.  c0_prime is
    the closed-form c0' and dual_coxeter the dual Coxeter number h, with
    kappa = -1/h for the Killing metric.  Out-of-scope rows have no basis
    and constants that ignore the parameters.
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


class _Triples(NamedTuple):
    """Structure constants C[i, j, k], [b_i, b_j] = sum_k C[i, j, k] b_k on a basis of dim elements,
    as their nonzeros C[i[t], j[t], k[t]] = v[t] in (i, j, k) order, both orders of each bracket."""

    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    v: np.ndarray
    dim: int


def _join(left: np.ndarray, right: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (s, t) with left[s] == right[t], for keys in range(size): s ascending and,
    for each s, t ascending, by a count and a cumulative sum over the keys."""
    count = np.bincount(right, minlength=size)
    rep = count[left]  # the partners of each left entry
    end = rep.cumsum()
    # right's entries with key x are order[first[x] + range(count[x])] in the stable order
    t = ((count.cumsum() - count)[left] + rep - end).repeat(rep) + np.arange(end[-1] if len(end) else 0)
    return np.arange(len(left)).repeat(rep), right.argsort(kind="stable")[t]


def _sum_by(key: np.ndarray, value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, and the sum of the values of each."""
    order = np.argsort(key)
    key = key[order]
    first = np.concatenate(([True], key[1:] != key[:-1]))[: len(key)]  # where each key starts
    return key[first], np.bincount(np.cumsum(first) - 1, weights=value[order])


def _structure_constants(mats: np.ndarray) -> _Triples:
    """C of the (N, m, m) basis b from b's nonzeros: b_i b_j joins b_i's entries (r, s) with b_j's
    (s, c) on s, and a bracket's coordinates are its products with b times the inverse of the
    Gram matrix G = flat flat^T, rounded.  Every bracket must rebuild exactly from them: basis and
    constants are small integers, so that check and K = sum C C are exact."""
    N, m = mats.shape[0], mats.shape[1]
    b, r, c = np.nonzero(mats)
    x = mats[b, r, c]
    e = r * m + c  # an entry's place in the flattened matrix
    s, t = _join(c, r, m)  # b_i[r, s] b_j[s, c]: term b[s] b[t] of [b_lo, b_hi], signed by the order
    sign = np.sign(b[t] - b[s])
    pair = np.minimum(b[s], b[t]) * N + np.maximum(b[s], b[t])
    key, val = _sum_by((pair * m + r[s]) * m + c[t], sign * x[s] * x[t])
    key, val = key[val != 0], val[val != 0]  # the brackets' nonzeros, (pair, e) = divmod(key, m^2)
    pair, be = np.divmod(key, m * m)

    gs, gt = _join(e, e, m * m)
    G = np.bincount(b[gs] * N + b[gt], weights=x[gs] * x[gt], minlength=N * N).reshape(N, N)
    cpl = np.flatnonzero(np.count_nonzero(G, axis=1) > 1)  # G is diagonal but for su's Cartan chain
    Ginv = np.diag(1.0 / np.diag(G))
    Ginv[cpl[:, None], cpl] = np.linalg.inv(G[cpl[:, None], cpl])
    gr, gc = np.nonzero(Ginv)

    ys, yt = _join(be, e, m * m)  # the terms of <[b_lo, b_hi], b_k'>, times Ginv[k', k]
    cs, ct = _join(b[yt], gr, N)
    ckey, coords = _sum_by(pair[ys[cs]] * N + gc[ct], val[ys[cs]] * x[yt[cs]] * Ginv[gr[ct], gc[ct]])
    np.rint(coords, out=coords)
    ckey, coords = ckey[coords != 0], coords[coords != 0]

    rs, rt = _join(ckey % N, b, N)  # rebuild each bracket from its coordinates
    recon = (ckey[rs] // N * m + r[rt]) * m + c[rt]
    _, resid = _sum_by(np.concatenate((recon, key)), np.concatenate((coords[rs] * x[rt], -val)))
    _gate("brackets do not close on the chosen basis: max |residual|", np.max(np.abs(resid), initial=0.0), 0.0)

    lo, hi, k = np.unravel_index(ckey, (N, N, N))  # both orders of each bracket, sorted
    i, j, k, v = (np.concatenate(z) for z in ((lo, hi), (hi, lo), (k, k), (coords, -coords)))
    order = np.argsort((i * N + j) * N + k)
    return _Triples(i[order], j[order], k[order], v[order], N)


def _gate(what: str, value: float, bound: float) -> None:
    """Raise a ModelError naming what was measured, its value and its bound when value > bound."""
    if value > bound:
        raise ModelError(f"{what} {value:.1e} > {bound:.0e}")


def _killing_form(C: _Triples) -> np.ndarray:
    """K[i, j] = tr(ad b_i ad b_j) = sum_ab C[i, b, a] C[j, a, b]: C's entries (i, b, a)
    joined with its entries (j, a, b) on (a, b).  C's entries are integers, so K is exact."""
    N = C.dim
    s, t = _join(C.j * N + C.k, C.k * N + C.j, N * N)
    return np.bincount(C.i[s] * N + C.i[t], weights=C.v[s] * C.v[t], minlength=N * N).reshape(N, N)


def _entries(C: _Triples, L: int, block: str) -> tuple[np.ndarray, ...]:
    """C's entries (i, j, k, v) in the block, an 'l' or a 'p' per slot, where l is the first L
    basis elements and p the rest, with p's indices counted from 0."""
    p = [g == "p" for g in block]
    keep = ((C.i >= L) == p[0]) & ((C.j >= L) == p[1]) & ((C.k >= L) == p[2])
    return C.i[keep] - L * p[0], C.j[keep] - L * p[1], C.k[keep] - L * p[2], C.v[keep]


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
        return LieModel(family, params, d, True, L, C, K, np.eye(1, L + P)[0], np.eye(P, L + P, L))

    # bracket closure of the symmetric pair, exact as C is; l is the first L basis
    # elements and p the rest
    for what, block in (("[l, l] leaves l", "llp"), ("[l, p] leaves p", "lpl"), ("[p, p] leaves l", "ppp")):
        _gate(f"{what}: max |C|", np.max(np.abs(_entries(C, L, block)[3]), initial=0.0), 0.0)

    # definiteness of the Killing form on both parts
    ev_l = np.linalg.eigvalsh(K[:L, :L])  # K is an exact integer matrix, so exactly symmetric
    ev_p = np.linalg.eigvalsh(K[L:, L:])
    _gate("Killing form is not negative definite on l: max eigenvalue", ev_l.max(), -1e-9)
    if ev_p.min() < 1e-9:
        raise ModelError(
            f"Killing form is not positive definite on p: min eigenvalue {ev_p.min():.1e} < 1e-09"
        )

    # center of l: coefficients z with [z, l] = 0, a row per nonzero (j, k) of C[l, l, :], L at least
    ll = (C.i < L) & (C.j < L)
    key = C.j[ll] * C.dim + C.k[ll]
    row = np.cumsum(np.bincount(key, minlength=L * C.dim) > 0) - 1  # the row of each key that occurs
    sysmat = np.zeros((max(row[-1] + 1, L), L))
    sysmat[row[key], C.i[ll]] = C.v[ll]
    # sysmat = QR: R (L x L) has the same singular values and right singular vectors
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
    # the center has exact zeros off its support; rounding noise there would fill the frame
    # in, and sums over a dense frame round differently under another BLAS thread count
    z[np.abs(z) < 1e-12 * np.max(np.abs(z))] = 0.0

    i, b, a, v = _entries(C, L, "lpp")
    B = np.zeros((L, P, P))  # C[l, p, p], as large as W
    B[i, b, a] = v
    S = np.einsum("i,iba->ab", z, B)  # ad z on p, acting on coordinates
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
    Jp = scale * S  # complex structure on p in basis coordinates

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

    return LieModel(family, params, d, False, L, C, K, xi, frame)


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
    m = max(F.max(), -F.min())  # max |F|, without a copy of F
    k = max(np.max(np.sum(np.abs(K), axis=0)), np.max(np.sum(np.abs(K), axis=1)))

    def rows1(X):  # a `_blocks` run of rows at a time, as the largest W-sized operand is W
        X = X.reshape(-1, X.shape[-1])
        return max(np.max(np.sum(np.abs(X[run]), axis=1)) for run in _blocks(len(X), X[0].nbytes))

    def runs_of_w(residual):  # the largest row sum of |residual(rows of W's first slot)|
        return max(rows1(residual(run)) for run in _blocks(n, W[0].nbytes))

    def antisym():
        return 2.0 * runs_of_w(lambda run: 0.5 * (W[run] + W[:, run].transpose(1, 0, 2))) * k * m

    def factor_residual(tag):
        if tag == "j_plus":
            return runs_of_w(lambda run: W[run] - _conjugate(W, space.J_pair, -3, run)) * k * m
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
    a, b, _, v = _entries(model.structure, L, "ppl")
    S = np.bincount(a * n + b, weights=np.abs(v), minlength=n * n).reshape(n, n)  # sum_l |C[a, b, l]|
    w = _gamma(2 * n) * np.max(f @ S @ f.T)
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
    checks are equalities.  (b) joins C's entries with K's nonzeros and sums the two sides'
    terms into one (L, n, n) array.  (a) joins the nonzeros of C[l, p, p] with those of
    C[p, p, l] on l, in `_blocks` of q.  J is cyclic in (a, b, c) and is the sum of the terms
    over the three rotations, so each term is summed at the smallest of the three keys."""
    L, C, K = model.l_dim, model.structure, model.killing
    n = C.dim - L
    a, b, la, va = _entries(C, L, "ppl")  # [p, p] -> l
    lb, c, qb, vb = _entries(C, L, "lpp")  # [l, p] -> p
    kl, kr = np.nonzero(K[:L, :L])
    s, t = _join(la, kr, L)  # sum_l K[l', l] C[z, w, l]
    kq, kw = np.nonzero(K[L:, L:])
    u, w = _join(qb, kq, n)  # sum_q C[l', z, q] K[q, w]
    key = np.concatenate(((kl[t] * n + a[s]) * n + b[s], (lb[u] * n + c[u]) * n + kw[w]))
    value = np.concatenate((va[s] * K[kl[t], kr[t]], -vb[u] * K[L + kq[w], L + kw[w]]))
    if np.any(np.bincount(key, weights=value, minlength=L * n * n)):  # (L, n, n), as large as W
        return False

    per_q = np.bincount(qb, weights=np.bincount(la, minlength=L)[lb], minlength=n)  # terms of each q
    for run in _blocks(n, 8 * int(per_q.max(initial=0))):
        q0, q1, _ = run.indices(n)
        j = (qb >= q0) & (qb < q1)
        s, t = _join(lb[j], la, L)
        x, y, z = a[t], b[t], c[j][s]
        key = np.minimum(np.minimum((x * n + y) * n + z, (y * n + z) * n + x), (z * n + x) * n + y)
        key += qb[j][s] * n**3
        if np.any(_sum_by(key, va[t] * vb[j][s])[1]):
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
