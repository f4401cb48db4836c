"""Adapted frames, tensor containers and seeded random streams and generators.

Every tensor in this package is stored componentwise in a fixed adapted
orthonormal frame (e_1, ..., e_d, Je_1, ..., Je_d) of the 2d-dimensional
horizontal space H.  In that frame the metric grid is the identity, J is the
standard block rotation and the fundamental 2-form is omega(X, Y) = g(JX, Y).
When torsion is switched on, tau acts as +1 on span{e_i} and -1 on
span{Je_i}, which fixes the normalization |tau|^2 = 2d.

Scalar products follow the 2-form convention throughout: for 2-tensors
<s, t> = (1/2) sum_ij s_ij t_ij, and for double forms <P, Q> is half the
trace of the composed induced operators on wedge 2-vectors.

Batch axes: the raw grid kernels act on the trailing slots of a 4-tensor grid
(..., n, n, n, n) and keep its leading axes, so one call evaluates a stack of
trials.  A 2-tensor operand of `hat_2form_grid` / `ring_grid` carries the same
leading axes (of size 1 to share it), its two slots, then any value axes.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import string
from dataclasses import dataclass
from typing import Collection, Iterable, Optional

import numpy as np

TOL = 1e-9

SYMMETRIES = ("symmetric", "antisymmetric", "general")
SignedPerm = tuple[np.ndarray, np.ndarray]  # (perm, s): P[perm[x], x] = s[x] = +/-1


class SpaceMismatchError(ValueError):
    """Two tensors living on different horizontal spaces were combined."""


class TagError(ValueError):
    """A declared or requested curvature tag cannot be satisfied."""


@dataclass(frozen=True, eq=False)
class HorizontalSpace:
    """A 2d-dimensional Euclidean space with compatible complex structure.

    Optional torsion data (tau, A, B) model the pseudo-Hermitian torsion of a
    contact metric structure: tau is g-symmetric, trace free, anticommutes
    with J and squares to the identity under the |tau|^2 = 2d normalization.
    A(X, Y) = g(tau X, Y) and B(X, Y) = omega(tau X, Y); both are symmetric
    because J tau is g-symmetric.  J and tau are declared once, as the signed
    permutations `J_pair` and `tau_pair` that fill the dense grids.
    """

    d: int
    g: np.ndarray
    J: np.ndarray
    omega: np.ndarray
    J_pair: SignedPerm
    tau: Optional[np.ndarray] = None
    A: Optional[np.ndarray] = None
    B: Optional[np.ndarray] = None
    tau_pair: Optional[SignedPerm] = None

    @property
    def n(self) -> int:
        return 2 * self.d

    @property
    def has_torsion(self) -> bool:
        return self.tau is not None

    def require_torsion(self) -> SignedPerm:
        """tau as its (perm, s) pair; raises ValueError on a space without torsion."""
        if self.tau is None:
            raise ValueError("operation requires a space with torsion")
        return self.tau_pair

    def __repr__(self):  # keep reprs short, the grids are not informative
        return f"HorizontalSpace(d={self.d}, torsion={self.has_torsion})"


def make_space(d: int, with_torsion: bool = False) -> HorizontalSpace:
    """The adapted-frame model space of half-dimension d.

    The space is built once per (d, with_torsion) and shared: every call
    with the same values, positional or keyword, returns the same object,
    and its grids (g, J, omega, tau, A, B and the `J_pair` / `tau_pair`
    arrays) are read-only, so an in-place write raises ValueError.

    Parameters
    ----------
    d : int
        Half-dimension; the horizontal space has dimension 2d.
    with_torsion : bool
        If set, equip the space with tau = diag(+1 on e's, -1 on Je's) and
        the associated bilinear forms A, B.
    """
    d = operator.index(d)
    if d < 1:
        raise ValueError(f"half-dimension must be >= 1, got {d}")
    return _make_space(d, bool(with_torsion))


@functools.cache
def _make_space(d: int, with_torsion: bool) -> HorizontalSpace:
    n = 2 * d
    g, cols = np.eye(n), np.arange(n)
    s = np.concatenate([np.ones(d), -np.ones(d)])
    J_pair = (np.roll(cols, d), s)  # J e_i = e_{d+i}, J(Je_i) = -e_i
    J = np.zeros((n, n))
    J[J_pair[0], cols] = s
    omega = J.T.copy()  # omega(X, Y) = g(JX, Y) = X^T J^T Y
    tau = A = B = tau_pair = None
    if with_torsion:
        tau_pair = (cols, s)
        tau = np.diag(s)  # tau_pair's perm is the identity
        A = tau.copy()  # A(X, Y) = g(tau X, Y)
        B = tau @ omega  # B(X, Y) = omega(tau X, Y); equals (J tau)^T, symmetric
    for grid in (g, J, omega, *J_pair, tau, A, B, *(tau_pair or ())):
        if grid is not None:
            grid.flags.writeable = False  # one space is shared by every caller
    return HorizontalSpace(d, g, J, omega, J_pair, tau, A, B, tau_pair)


def _check_same_space(a, b):
    if a.space is not b.space:
        # allow structurally identical spaces built separately
        sa, sb = a.space, b.space
        if sa.d != sb.d or sa.has_torsion != sb.has_torsion:
            raise SpaceMismatchError("tensors live on incompatible spaces")


@dataclass(frozen=True, eq=False)
class Bil2:
    """A bilinear form on H with a declared symmetry flag."""

    space: HorizontalSpace
    entries: np.ndarray
    symmetry: str = "general"

    def __post_init__(self):
        n = self.space.n
        if self.entries.shape != (n, n):
            raise ValueError(f"expected shape {(n, n)}, got {self.entries.shape}")
        if self.symmetry not in SYMMETRIES:
            raise ValueError(f"unknown symmetry flag {self.symmetry!r}")
        scale = float(np.max(np.abs(self.entries), initial=1.0))
        if not np.isfinite(scale):  # a NaN would fail no tolerance comparison
            raise ValueError("entries are not finite")
        if self.symmetry == "symmetric":
            if np.max(np.abs(self.entries - self.entries.T)) > TOL * scale:
                raise ValueError("entries are not symmetric")
        elif self.symmetry == "antisymmetric":
            if np.max(np.abs(self.entries + self.entries.T)) > TOL * scale:
                raise ValueError("entries are not antisymmetric")


def metric_form(space: HorizontalSpace) -> Bil2:
    return Bil2(space, space.g.copy(), "symmetric")


def fundamental_form(space: HorizontalSpace) -> Bil2:
    return Bil2(space, space.omega.copy(), "antisymmetric")


def torsion_forms(space: HorizontalSpace) -> tuple[Bil2, Bil2]:
    """The pair (A, B) of symmetric torsion bilinear forms."""
    space.require_torsion()
    return (
        Bil2(space, space.A.copy(), "symmetric"),
        Bil2(space, space.B.copy(), "symmetric"),
    )


# ---------------------------------------------------------------------------
# raw grid operations shared by the container verifiers and the algebra layer
# ---------------------------------------------------------------------------

_SLOTS = (-4, -3, -2, -1)  # the four slots of a (stacked) 4-tensor grid
_ALL = slice(None)

# bytes of the largest transient block (`_blocks`): a row block of a 4-tensor grid
# in the Curv4 checks, a run of the Killing form in `liemodels`, a block of trials in `maps`
_BLOCK_BYTES = 2**20


def _blocks(count: int, unit_bytes: int) -> list[slice]:
    """Consecutive slices of range(count), each with as many units of unit_bytes as fit
    `_BLOCK_BYTES` (one at least); a count that fits is one block, all of it."""
    step = max(1, _BLOCK_BYTES // max(1, unit_bytes))
    return [_ALL] if step >= count else [slice(x, x + step) for x in range(0, count, step)]

# `rows`, a slice of the first slot (all rows by default), asks a kernel for those
# rows of its result, each entry bit for bit the full result's (same arithmetic)


# The kernels below compute in place on their own fresh arrays, so each makes
# one temporary per step: `t = a - b; t *= 0.5` is `0.5 * (a - b)` bit for bit.


def antisym_pairs_grid(q: np.ndarray, rows: slice = _ALL) -> np.ndarray:
    """Project onto tensors antisymmetric in slots (1,2) and (3,4)."""
    t = np.subtract(q[..., rows, :, :, :], np.einsum("...yxzw->...xyzw", q[..., rows, :, :]))
    t *= 0.5
    out = np.subtract(t, np.einsum("...xywz->...xyzw", t))
    out *= 0.5
    return out


def pair_sym_grid(q: np.ndarray, rows: slice = _ALL) -> np.ndarray:
    out = np.add(q[..., rows, :, :, :], np.einsum("...zwxy->...xyzw", q[..., rows, :]))
    out *= 0.5
    return out


def bianchi_grid(q: np.ndarray, rows: slice = _ALL) -> np.ndarray:
    """Cyclic Bianchi sum b(Q)(X,Y,Z,W) = Q(X,Y,Z,W)+Q(Z,X,Y,W)+Q(Y,Z,X,W)."""
    b = np.add(q[..., rows, :, :, :], np.einsum("...zxyw->...xyzw", q[..., rows, :, :]))
    b += np.einsum("...yzxw->...xyzw", q[..., rows, :])
    return b


def bianchi_project_grid(q: np.ndarray) -> np.ndarray:
    # on pair-symmetric tensors b acts as 3*Id on the fully antisymmetric part
    b = bianchi_grid(q)
    b /= 3.0
    return np.subtract(q, b, out=b)


def kahler_bianchi_grid(q: np.ndarray, J: SignedPerm) -> np.ndarray:
    """Orthogonal projection of a pair-symmetric J-invariant tensor onto
    Ker b: it symmetrizes R(Z_i, Zbar_j, Z_k, Zbar_l) in (i, k); J is `J_pair`."""
    swapped = antisym_pairs_grid(np.einsum("...zyxw->...xyzw", q))
    return 0.5 * q + split_average_grid(pair_sym_grid(swapped), J, +1)


def slot_contract(q: np.ndarray, *mats) -> np.ndarray:
    """out[x, y, ...] = sum M0[a, x] M1[b, y] ... q[a, b, ...], contracted
    one slot at a time by two-operand einsums.  A vector removes its slot;
    None, and every slot past len(mats), is left unchanged.  A matrix may be
    a stack (B, a, x), one per trial; q then has one leading batch axis too
    (of size 1 to share q), and so does the result."""
    out = q
    for i, m in reversed(list(enumerate(mats))):  # last slot first, so slot i is still slot i
        if m is not None:
            batch = "B" if m.ndim > 2 else ""  # a stack of matrices has a leading batch axis
            lead, image = string.ascii_lowercase[:i], "Y" * (m.ndim - len(batch) - 1)  # a vector has no image
            out = np.einsum(f"{batch}{lead}X...,{batch}X{image}->{batch}{lead}{image}...", out, m)
    return out


def _conjugate(q: np.ndarray, P: SignedPerm, first: int, rows: slice = _ALL) -> np.ndarray:
    """P-conjugation of slots first and first + 1 of q, counted from the end
    (first <= -2), the index gather s[x] s[y] q[..., perm[x], perm[y], ...]
    over the rows x of slot first; it equals the contraction exactly."""
    perm, s = P
    later = -first - 2
    ss = np.multiply.outer(s[rows], s)[(...,) + (None,) * later]  # over later slots too
    out = q[(..., perm[rows, None], perm) + (slice(None),) * later]  # the gather is a fresh array
    out = out.astype(np.result_type(out, ss), copy=False)  # an integer grid becomes float
    out *= ss
    return out


def split_average_grid(q: np.ndarray, P: SignedPerm, sign: int, rows: slice = _ALL) -> np.ndarray:
    """The +/- projection averaging P-conjugation over both slot pairs, for
    a signed permutation P = (perm, s) such as `J_pair` or `tau_pair`."""
    add = np.add if sign > 0 else np.subtract  # sign * x added, in the same order
    q1 = _conjugate(q, P, -4, rows)
    block = q[..., rows, :, :, :]
    out = add(block, q1)
    add(out, _conjugate(block, P, -2), out=out)
    out += _conjugate(q1, P, -2)
    out *= 0.25
    return out


def hat_2form_grid(q: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Induced action on (possibly vector-valued) 2-forms: contract the
    first slot pair, (Q^ gamma)(X,Y) = (1/2) sum_ij Q(e_i,e_j,X,Y) gamma_ij."""
    b = string.ascii_uppercase[: q.ndim - 4]  # the batch axes
    return 0.5 * np.einsum(f"{b}ijxy,{b}ij...->{b}xy...", q, gamma)


def ring_grid(q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Curvature action on (possibly vector-valued) 2-tensors:
    (Q0 s)(X,Y) = sum_ij Q(e_i,X,Y,e_j) s_ij."""
    b = string.ascii_uppercase[: q.ndim - 4]  # the batch axes
    return np.einsum(f"{b}ixyj,{b}ij...->{b}xy...", q, s)


def ricci_grid(q: np.ndarray) -> np.ndarray:
    return np.einsum("...ixiy->...xy", q)


def wedge_trace(space: HorizontalSpace, gamma: np.ndarray):
    """Adjoint-Lefschetz trace of a 2-form, (1/2) tr gamma(., J.)."""
    return 0.5 * np.einsum("...ab,ba->...", gamma, space.J)


def sym_product_grid(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    prod = np.einsum("...xy,...zw->...xyzw", h, k)
    return prod + np.einsum("...zwxy->...xyzw", prod)


def kulkarni_grid(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    s = sym_product_grid(h, k)
    return np.einsum("xzyw->xyzw", s) - np.einsum("xwyz->xyzw", s)


def primitive_grid(space: HorizontalSpace, q: np.ndarray) -> np.ndarray:
    d = space.d
    qw = hat_2form_grid(q, space.omega[(None,) * (q.ndim - 4)])
    lam = wedge_trace(space, qw)
    core = sym_product_grid(qw, space.omega)
    ww = sym_product_grid(space.omega, space.omega)
    return q - core / d + np.multiply.outer(lam, ww) / (2.0 * d * d)


def inner2(s: np.ndarray, t: np.ndarray, batch: int = 0):
    """Half-contraction scalar product of (vector-valued) 2-tensors, one
    for each index of the first `batch` axes."""
    return 0.5 * np.sum(s * t, axis=tuple(range(batch, np.ndim(s))))


def dot4(p: np.ndarray, q: np.ndarray):
    """(1/4) sum p q: the trace of the composed wedge operators when p or q
    is pair-symmetric, and a sum of squares (never negative) when q = p.  On
    stacks, each slice is summed alone: a batched einsum sums a slice of over
    8192 entries in buffer-sized pieces, so its value would hang on the batch."""
    if p.ndim == q.ndim == 4:
        return 0.25 * float(np.einsum("abcd,abcd->", p, q))
    return np.array([dot4(a, b) for a, b in zip(*np.broadcast_arrays(p, q))])


# Each tag's orthogonal projector, in the order `random_curv4` applies them;
# the projectors that `_tag_residual` compares against also take `rows`.
# The entries look the grid functions up by module-global name at each call,
# so a rebound module attribute takes effect here too.
_PROJECTORS = {
    "pair_symmetric": lambda space, q, rows=_ALL: pair_sym_grid(q, rows),
    "j_plus": lambda space, q, rows=_ALL: split_average_grid(q, space.J_pair, +1, rows),
    "j_minus": lambda space, q, rows=_ALL: split_average_grid(q, space.J_pair, -1, rows),
    "tau_plus": lambda space, q, rows=_ALL: split_average_grid(q, space.require_torsion(), +1, rows),
    "tau_minus": lambda space, q, rows=_ALL: split_average_grid(q, space.require_torsion(), -1, rows),
    "bianchi_closed": lambda space, q: bianchi_project_grid(q),
    "primitive": lambda space, q: primitive_grid(space, q),
}

CURV4_TAGS = tuple(_PROJECTORS)

KAHLER_TAGS = frozenset({"pair_symmetric", "bianchi_closed", "j_plus"})


def _max_over_rows(q: np.ndarray, residual) -> np.ndarray:
    """The max of residual(rows) over the `_blocks` of rows of the first slot of
    the stack q: the unblocked residual bit for bit, as max is exact."""
    n = q.shape[-4]
    return functools.reduce(np.maximum, map(residual, _blocks(n, q.nbytes // n)))


def _tag_residual(space: HorizontalSpace, q: np.ndarray, tag: str) -> np.ndarray:
    """How far each slice of the stack q is from the tag, in max norm: max |q - P q|
    for the tag's projector P (max |b(q)| for bianchi_closed), over row blocks."""
    if tag == "bianchi_closed":
        return _max_over_rows(q, lambda rows: _max_abs(bianchi_grid(q, rows)))
    if tag == "primitive":
        # |q(omega) omega^T| has the entries of |q(omega)|: omega is a signed permutation
        qw = hat_2form_grid(q, space.omega[(None,) * (q.ndim - 4)])
        return np.max(np.abs(qw), axis=(-2, -1))
    project = _PROJECTORS[tag]
    return _max_over_rows(q, lambda rows: _max_abs_diff(q[..., rows, :, :, :], project(space, q, rows)))


def _antisym_residual(q: np.ndarray) -> np.ndarray:
    """How far each slice of the stack q is from antisymmetry in both pairs, over row blocks."""
    return _max_over_rows(q, lambda rows: _max_abs_diff(q[..., rows, :, :, :], antisym_pairs_grid(q, rows)))


def _max_abs_diff(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """max |q - p| over the slots of each slice, for a fresh array p, which it overwrites."""
    return _max_abs(np.subtract(q, p, out=p))


def _max_abs(p: np.ndarray) -> np.ndarray:
    """max |p| over the slots of each slice, for a fresh array p, which it overwrites."""
    return np.max(np.abs(p, out=p), axis=_SLOTS)


def _known_tags(tags: Iterable[str]) -> frozenset:
    tags = frozenset(tags)
    unknown = tags - set(CURV4_TAGS)
    if unknown:
        raise TagError(f"unknown tags {sorted(unknown)}")
    return tags


def _grid_scale(q: np.ndarray) -> np.ndarray:
    """max(1, max |entry|) of each slice of the stack q, from max q and min q (no |q| copy)."""
    return np.maximum(np.max(q, axis=_SLOTS, initial=1.0), -np.min(q, axis=_SLOTS, initial=-1.0))


def _judge_curv4(scale, antisym, residual, tags: Collection[str], tol: float) -> None:
    """Raise what a failed `Curv4` check raises, checking in its order: scale finite,
    antisym() and then residual(tag) for each of `tags` in `CURV4_TAGS` order (not the
    hash-seeded order of a set), each at most tol * scale.  The residuals are
    callables, so none is computed after a failure."""
    if not np.all(np.isfinite(scale)):  # a NaN would fail no tolerance comparison
        raise ValueError("entries are not finite")
    bound = tol * scale
    if np.any(antisym() > bound):
        raise ValueError("entries are not antisymmetric in both slot pairs")
    for tag in CURV4_TAGS:
        if tag in tags and np.any(residual(tag) > bound):
            raise TagError(f"declared tag {tag!r} fails its projector check")


def _check_curv4(space: HorizontalSpace, q: np.ndarray, tags: Collection[str], tol: float) -> None:
    """Every check of a `Curv4` on each slice of a stack q (..., n, n, n, n), against tol
    times the slice's max(1, max |entry|): finite, antisymmetric in both pairs, each tag.
    Residuals are taken over row blocks (`_max_over_rows`) and the scale from max q
    and min q, so no transient is larger than one row block."""
    _judge_curv4(
        _grid_scale(q), lambda: _antisym_residual(q), lambda tag: _tag_residual(space, q, tag), tags, tol
    )


@dataclass(frozen=True, eq=False)
class Curv4:
    """A 4-tensor on H, antisymmetric in both slot pairs, with verified tags."""

    space: HorizontalSpace
    entries: np.ndarray
    tags: frozenset = frozenset()

    def __post_init__(self):
        n = self.space.n
        if self.entries.shape != (n, n, n, n):
            raise ValueError(f"expected shape {(n,) * 4}, got {self.entries.shape}")
        object.__setattr__(self, "tags", _known_tags(self.tags))  # no tags added after the check
        _check_curv4(self.space, self.entries, self.tags, TOL)

    def has(self, tag: str) -> bool:
        return tag in self.tags

    def __repr__(self):
        return f"Curv4(d={self.space.d}, tags={sorted(self.tags)})"


def _proven_curv4(space: HorizontalSpace, entries: np.ndarray, tags: Iterable[str]) -> Curv4:
    """A `Curv4` built without `__post_init__`, for a grid whose checks its caller proved.

    Contract: `entries` has shape (n, n, n, n), is finite, and the caller has shown
    that every residual of `_check_curv4(space, entries, tags, TOL)` (antisymmetry in
    both slot pairs and each tag) is at most TOL * max(1, max |entry|), by a check at
    least as strict.  Nothing is verified here; the tags are frozen as `Curv4` does."""
    proven = object.__new__(Curv4)
    proven.__dict__.update(space=space, entries=entries, tags=_known_tags(tags))
    return proven


def _wedge_indices(space: HorizontalSpace) -> tuple[np.ndarray, np.ndarray]:
    """The one source of the wedge basis e_i ^ e_j, i < j: its (i, j) index arrays, in order."""
    return np.triu_indices(space.n, 1)


@dataclass(frozen=True, eq=False)
class Endo2Forms:
    """Grid of the operator induced on wedge 2-vectors by a 4-tensor."""

    space: HorizontalSpace
    entries: np.ndarray

    def __post_init__(self):
        m = self.space.n * (self.space.n - 1) // 2  # the size of the wedge basis
        if self.entries.shape != (m, m):
            raise ValueError(f"expected shape {(m, m)}, got {self.entries.shape}")

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries))


def complexify(space: HorizontalSpace) -> np.ndarray:
    """Type (1,0) frame Z_i = (e_i - sqrt(-1) Je_i)/sqrt(2), one per row."""
    d, n = space.d, space.n
    return (np.eye(d, n) - 1j * space.J[:, :d].T) / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# seeded random streams and generators
# ---------------------------------------------------------------------------

_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment: 2**64 over the golden ratio, made odd


def check_seed(seed, name: str = "seed part") -> tuple[int, ...]:
    """The parts of a seed as Python ints: an integer is one part, a tuple or list
    of integers its parts in order.  ValueError, naming the part, for a part that
    is a bool, not an integer, negative or at least 2**64, where it would alias
    the stream of a smaller part; and for a seed without parts."""
    parts = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    if not parts:
        raise ValueError(f"a seed needs at least one part, got {seed!r}")
    values = []
    for part in parts:
        if isinstance(part, (bool, np.bool_)) or not hasattr(part, "__index__"):
            raise ValueError(f"{name} must be an integer, got {part!r}")
        value = operator.index(part)
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
        if value >= 2**64:
            raise ValueError(f"{name} must be < 2**64, got {value}")
        values.append(value)
    return tuple(values)


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, in place on a uint64 array (wrapping arithmetic)."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z ^= z >> 31
    return z


class _Streams:
    """One counter-based random stream per seed, all advancing in lockstep; each
    draw returns an array (len(seeds), *shape), row r from stream r.

    A stream is a function of its seed alone (Salmon et al., SC 2011, on the
    SplitMix64 mixer mix64 of Steele, Lea and Flood, OOPSLA 2014), with all
    arithmetic modulo 2**64 and gamma = 0x9E3779B97F4A7C15:

    - key = 0, then key = mix64(key + gamma + part) for each part of the seed;
    - draw c (c = 0, 1, ...) = mix64(key + (c + 1) gamma);
    - uniform u_c = (draw c >> 11) 2**-53, in [0, 1);
    - normal j = sqrt(-2 ln(1 - u_2j)) cos(2 pi u_2j+1): each normal owns its two
      draws, so k normals and then l more are the k + l normals of one draw;
    - `integers(h)` = floor(u h) and `uniform(a, b)` = a + (b - a) u, one draw each.

    The seeds of one `_Streams` have the same number of parts (`check_seed`)."""

    def __init__(self, seeds):
        parts = np.array([check_seed(seed) for seed in seeds], dtype=np.uint64)
        keys = np.zeros(len(parts), dtype=np.uint64)
        for part in parts.T:
            keys += _GAMMA
            keys += part
            _mix64(keys)
        self._keys = keys[:, None]
        self._count = 0  # draws taken from each stream

    def __len__(self) -> int:
        return len(self._keys)

    def _take(self, k: int) -> int:
        """Advance each stream by k draws; the index of the first."""
        self._count += k
        return self._count - k

    def _next_uniform(self) -> np.ndarray:
        """The next uniform of each stream, (len(self),)."""
        z = _mix64(self._keys[:, 0] + ((self._take(1) + 1) * _GAMMA & (2**64 - 1)))
        z >>= 11
        return z * 2.0**-53

    def normals(self, *shapes) -> list[np.ndarray]:
        """For each shape in turn, standard normals (len(self), *shape), from one draw."""
        shapes = [(s,) if isinstance(s, int) else tuple(s) for s in shapes]
        sizes = [math.prod(s) for s in shapes]
        k = sum(sizes)
        first = self._take(2 * k)
        # z[:, 0, j] and z[:, 1, j] are draws first + 2j and first + 2j + 1: one mixing
        # pass over both, then contiguous halves for the two factors of normal j
        z = np.empty((len(self), 2, k), dtype=np.uint64)
        counters = np.arange(first + 1, first + 2 * k, 2, dtype=np.uint64)
        counters *= _GAMMA
        np.add(self._keys, counters, out=z[:, 0])
        np.add(z[:, 0], _GAMMA, out=z[:, 1])
        _mix64(z)
        z >>= 11
        minus_u = np.multiply(z, -(2.0**-53), out=z.view(np.float64))  # -u, exactly, over z
        out, angle = minus_u[:, 0], minus_u[:, 1]
        np.log1p(out, out=out)  # sqrt(-2 ln(1 - u_2j)) ...
        out *= -2.0
        np.sqrt(out, out=out)
        angle *= -2.0 * np.pi  # ... times cos(2 pi u_2j+1); both signs flip exactly
        out *= np.cos(angle, out=angle)
        if len(shapes) == 1:
            return [out.reshape(len(self), *shapes[0])]
        cuts = list(itertools.accumulate(sizes[:-1]))
        return [x.reshape(len(self), *s) for x, s in zip(np.split(out, cuts, axis=1), shapes)]

    def integers(self, high: int) -> np.ndarray:
        """One integer in [0, high) per stream, (len(self),)."""
        return (self._next_uniform() * high).astype(np.int64)

    def uniform(self, low: float, high: float) -> np.ndarray:
        """One float in [low, high) per stream, (len(self),)."""
        return low + (high - low) * self._next_uniform()


def random_bil2(space: HorizontalSpace, symmetry: str, seed) -> Bil2:
    """Deterministic random bilinear form with the requested symmetry: the n^2
    normals of the seed's `_Streams`, in row order, then (anti)symmetrized."""
    if symmetry not in SYMMETRIES:
        raise ValueError(f"unknown symmetry flag {symmetry!r}")
    (m,) = _Streams([seed]).normals((space.n, space.n))
    m = m[0]
    if symmetry == "symmetric":
        m = 0.5 * (m + m.T)
    elif symmetry == "antisymmetric":
        m = 0.5 * (m - m.T)
    return Bil2(space, m, symmetry)


_CONTRADICTORY = [
    {"j_plus", "j_minus"},
    {"tau_plus", "tau_minus"},
]


def random_curv4(space: HorizontalSpace, tags: Iterable[str], seed) -> Curv4:
    """Deterministic random 4-tensor projected onto the requested tag set.

    A Gaussian draw (the n^4 normals of the seed's `_Streams`), antisymmetrized in both slot pairs, passes once through
    the orthogonal projector of each requested tag, in `CURV4_TAGS` order;
    with j_plus requested the Bianchi step is `kahler_bianchi_grid`.  The
    pass is exact, i.e. it returns the orthogonal projection of the draw
    onto the intersection of the tag subspaces, for every tag set without
    bianchi_closed and for {pair_symmetric, bianchi_closed} with or without
    j_plus.  At d >= 2 every other set with bianchi_closed raises TagError,
    as does a contradictory set or one that admits only the zero tensor.
    """
    tags = frozenset(tags)
    q = _sample_curv4(space, tags, [seed])[0]
    # the sampler ran every Curv4 check on q at 1e-10, stricter than TOL * max(1, |q|) = TOL
    return _proven_curv4(space, q, tags)


def _sample_curv4(space: HorizontalSpace, tags: Iterable[str], seeds) -> np.ndarray:
    """The `random_curv4` grid of each seed, row r the n^4 normals of stream r of
    `_Streams(seeds)`, drawn in one call, projected as one stack, scaled to
    max |q| = 1 and checked once, slice by slice, at 1e-10."""
    tags = _known_tags(tags)
    for clash in _CONTRADICTORY:
        if clash <= tags:
            raise TagError(f"contradictory tag set: {sorted(clash)}")
    if ("bianchi_closed" in tags or "primitive" in tags) and "pair_symmetric" not in tags:
        raise TagError("bianchi_closed/primitive projections require pair_symmetric")

    (draws,) = _Streams(seeds).normals((space.n,) * 4)
    q = antisym_pairs_grid(draws)
    for tag, project in _PROJECTORS.items():
        if tag in tags:
            kahler = tag == "bianchi_closed" and "j_plus" in tags
            q = kahler_bianchi_grid(q, space.J_pair) if kahler else project(space, q)
    scale = np.max(np.abs(q), axis=_SLOTS, keepdims=True)
    if np.any(scale < 1e-10):
        raise TagError(f"tag set {sorted(tags)} admits only the zero tensor at d={space.d}")
    q /= scale
    try:
        _check_curv4(space, q, tags, 1e-10)
    except TagError as err:
        raise TagError(f"tag set {sorted(tags)} could not be satisfied jointly") from err
    return q
