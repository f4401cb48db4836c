"""Pointwise identities for horizontal maps between pseudo-Hermitian spaces.

The map data is synthetic: the scalar conformal factor, the horizontal
differential, the Reeb image and the symmetrized covariant derivative are
free inputs subject only to the algebraic constraints that hold pointwise
for genuine horizontal (resp. CR) maps.  The antisymmetric part of the
covariant derivative is never free: it is always -omega (x) dphi_xi.

The randomized suite evaluates both sides of each bilinear-form identity on
seeded admissible data and reports max residuals; in negative-control mode
each identity is rerun with one admissibility constraint broken, and the
residual is expected to be macroscopic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spaces import (
    KAHLER_TAGS,
    Bil2,
    Curv4,
    HorizontalSpace,
    TOL,
    _blocks,
    _check_curv4,
    _sample_curv4,
    bianchi_grid,
    complexify,
    dot4,
    hat_2form_grid,
    inner2,
    make_space,
    ring_grid,
    ricci_grid,
    slot_contract,
)
from .algebra import Q_VARIANTS, _unhat_grid, _wedge_index, canonical_tensors, hat, ring_action, two_tensor_j_split
from .invariants import torsion_minus_part


@dataclass(frozen=True, eq=False)
class MapDatum:
    """Pointwise data of a horizontal map between two horizontal spaces."""

    source: HorizontalSpace
    target: HorizontalSpace
    f: float
    dphi: np.ndarray  # (2d', 2d)
    dphi_xi: np.ndarray  # (2d',), horizontal part of the Reeb image
    nabla_sym: np.ndarray  # (2d, 2d, 2d'), symmetric in the first two slots
    is_cr: bool = False

    def __post_init__(self):
        n, np_ = self.source.n, self.target.n
        if self.dphi.shape != (np_, n):
            raise ValueError(f"dphi must have shape {(np_, n)}")
        if self.dphi_xi.shape != (np_,):
            raise ValueError(f"dphi_xi must have shape {(np_,)}")
        if self.nabla_sym.shape != (n, n, np_):
            raise ValueError(f"nabla_sym must have shape {(n, n, np_)}")
        _check_map_data(self.source, self.target, self.f, self.dphi, self.dphi_xi, self.nabla_sym, self.is_cr)

    @property
    def delta(self) -> np.ndarray:
        """Divergence of the differential, read off the symmetrized
        derivative: delta = -(1/2) tr nabla_sym."""
        return _delta(self.nabla_sym)


def _delta(nabla_sym: np.ndarray) -> np.ndarray:
    return -0.5 * np.einsum("...iik->...k", nabla_sym)


def _check_map_data(source, target, f, dphi, dphi_xi, nabla_sym, is_cr: bool) -> None:
    """Every check of a `MapDatum`, on one datum or on each datum of a stack
    whose arrays, f too, carry one leading axis."""
    if not all(np.isfinite(a).all() for a in (f, dphi, dphi_xi, nabla_sym)):
        raise ValueError("map data are not finite")  # a NaN fails no tolerance check
    if np.max(np.abs(nabla_sym - np.swapaxes(nabla_sym, -3, -2))) > TOL:
        raise ValueError("nabla_sym is not symmetric in its first two slots")
    if is_cr:
        if np.max(np.abs(target.J @ dphi - dphi @ source.J)) > TOL:
            raise ValueError("is_cr datum does not intertwine the complex structures")
        pg = np.swapaxes(dphi, -1, -2) @ target.g @ dphi
        f = np.asarray(f)[..., None, None]
        if np.any(np.max(np.abs(pg - f * source.g), axis=(-2, -1)) > TOL * np.maximum(1.0, f[..., 0, 0])):
            raise ValueError("is_cr datum is not conformal with factor f")


def _normals(rngs, *shapes) -> list:
    """For each shape in turn, one standard normal draw from each generator, stacked."""
    return [np.stack([rng.standard_normal(shape) for rng in rngs]) for shape in shapes]


def random_map_datum(source: HorizontalSpace, target: HorizontalSpace, seed) -> MapDatum:
    """Free horizontal map data (no CR constraint)."""
    dphi, v, m = _random_map_data(source, target, [seed])
    return MapDatum(source, target, 1.0, dphi[0], v[0], m[0], is_cr=False)


def _random_map_data(source, target, seeds) -> tuple:
    """Stacked, unchecked `random_map_datum` arrays, each from its own `default_rng(seed)`."""
    rngs = [np.random.default_rng(seed) for seed in seeds]
    dphi, v, m = _normals(rngs, (target.n, source.n), target.n, (source.n, source.n, target.n))
    return dphi, v, 0.5 * (m + m.transpose(0, 2, 1, 3))


def cr_map_datum(
    source: HorizontalSpace,
    target: HorizontalSpace,
    f: float,
    seed,
) -> MapDatum:
    """Conformal CR map data with an admissible symmetrized derivative.

    The differential is sqrt(f) times a unitary twist of the half-frame
    embedding, so the pullback metric is exactly f g.  The J-invariant part
    of nabla_sym is the pure-trace term forced by CR-pluriharmonicity, and
    dphi_xi matches the divergence through the complex structure.
    """
    dphi, v, nabla = _cr_map_data(source, target, np.array([f]), [seed])
    return MapDatum(source, target, f, dphi[0], v[0], nabla[0], is_cr=True)


def _cr_map_data(source, target, f: np.ndarray, seeds) -> tuple:
    """Stacked, unchecked `cr_map_datum` arrays for factors f, each from its own `default_rng(seed)`."""
    d, dp = source.d, target.d
    if dp < d:
        raise ValueError("target half-dimension must be at least the source one")
    if not np.all(f > 0):
        raise ValueError("the conformal factor must be positive")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    re, im, v, m = _normals(rngs, (d, d), (d, d), target.n, (source.n, source.n, target.n))
    U, _ = np.linalg.qr(re + 1j * im)
    twist = np.block([[U.real, -U.imag], [U.imag, U.real]])  # J-commuting isometry
    embed = np.zeros((target.n, source.n))
    embed[:d, :d] = np.eye(d)
    embed[dp : dp + d, d:] = np.eye(d)
    dphi = np.sqrt(f)[:, None, None] * embed @ twist

    delta = -d * (v @ target.J.T)  # so that J' delta = d dphi_xi
    m = 0.5 * (m + m.transpose(0, 2, 1, 3))
    _, m_minus = two_tensor_j_split(source, m, 1)
    return dphi, v, m_minus - np.einsum("xy,...k->...xyk", source.g, delta) / d


# ---------------------------------------------------------------------------
# canonical test tensors
# ---------------------------------------------------------------------------

def canonical_Q(space: HorizontalSpace, variant: str) -> Curv4:
    """The canonical tensors used as weights in the bilinear identities.

    Each variant is read from the space's `canonical_tensors` record, shared
    read-only; the companion weight is `companion_tensor(rw)`.
    """
    if variant not in Q_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; supported: {Q_VARIANTS}")
    if variant.startswith("tau_"):
        space.require_torsion()
    Q = getattr(canonical_tensors(space), variant)
    if Q is None:
        raise ValueError("primitive variants require d >= 2")
    return Q


def canonical_q_reference(variant: str, d: int) -> tuple[float, float]:
    """(wedge-operator trace, Ricci-contraction multiple of g) per variant."""
    if variant == "jminus":
        return 2.0 * d * (d - 1), 2.0 * (d - 1)
    if variant == "jplus_primitive":
        return 2.0 * (d * d - 1), 2.0 * d * (1.0 - 1.0 / d**2)
    if variant == "tau_jminus":
        return float(d * (d - 1)), float(d - 1)
    if variant == "tau_jplus_primitive":
        return (d - 1) * (d + 2) / 4.0, (d - 1) * (d + 2) / (4.0 * d)
    raise ValueError(f"no fixed reference constants for variant {variant!r}")


# ---------------------------------------------------------------------------
# pullbacks and curvature terms
# ---------------------------------------------------------------------------

def pullback2(t: Bil2, m: MapDatum) -> Bil2:
    """(phi^* t)(X, Y) = t(dphi X, dphi Y) on the source space."""
    if t.space.n != m.target.n:
        raise ValueError("2-tensor does not live on the target space")
    return Bil2(m.source, m.dphi.T @ t.entries @ m.dphi, t.symmetry)


def pullback4(q: Curv4, m: MapDatum) -> Curv4:
    """Slotwise pullback of a 4-tensor along the horizontal differential."""
    if q.space.n != m.target.n:
        raise ValueError("4-tensor does not live on the target space")
    D = m.dphi
    grid = slot_contract(q.entries, D, D, D, D)
    tags = set(q.tags) & {"pair_symmetric", "bianchi_closed"}
    if m.is_cr:
        tags |= set(q.tags) & {"j_plus", "j_minus"}
    return Curv4(m.source, grid, frozenset(tags))


@dataclass(frozen=True, eq=False)
class MapTermReport:
    """Named scalar terms entering the map bilinear formulas."""

    r20: float
    r11: float
    hbk: float
    k: float
    q_gradient: dict = field(default_factory=dict)
    q_traces: dict = field(default_factory=dict)
    q_curvature: dict = field(default_factory=dict)
    delta_norm2: float = 0.0
    dphi_xi_norm2: float = 0.0


def curvature_terms(q_target: Curv4, m: MapDatum) -> MapTermReport:
    """Evaluate the curvature scalars of a map datum against a target tensor.

    r20 / r11 are the complex-frame sums over type (2,0) and (1,1) wedge
    pairs of the pulled-back tensor; hbk and k are the real half-frame sums
    of holomorphic-bisectional and plain-sectional type.
    """
    pull = pullback4(q_target, m).entries
    d = m.source.d
    Z = complexify(m.source).T
    Zc = Z.conj()
    r20 = np.einsum("ijij->", slot_contract(pull, Z, Z, Zc, Zc))
    r11 = np.einsum("ijij->", slot_contract(pull, Z, Zc, Zc, Z))
    for name, val in (("r20", r20), ("r11", r11)):
        if abs(val.imag) > TOL * max(1.0, abs(val.real)):
            raise ArithmeticError(f"{name} came out non-real")
    U = m.dphi[:, :d]
    JU = m.target.J @ U
    hbk = float(np.einsum("iijj->", slot_contract(q_target.entries, U, JU, U, JU)))
    k = float(np.einsum("ijij->", slot_contract(q_target.entries, U, U, U, U)))

    q_gradient, q_traces, q_curvature = {}, {}, {}
    can = canonical_tensors(m.source)
    delta = m.delta
    m0 = m.nabla_sym + np.einsum("xy,k->xyk", m.source.g, delta) / d
    for variant in Q_VARIANTS:
        Q = getattr(can, variant)
        if Q is None:  # a weight the source does not admit
            continue
        q_gradient[variant] = inner2(ring_action(Q, m0), m0)
        q_traces[variant] = hat(Q).trace
        q_curvature[variant] = 0.5 * dot4(Q.entries, pull)
    report = MapTermReport(
        r20=float(r20.real),
        r11=float(r11.real),
        hbk=hbk,
        k=k,
        q_gradient=q_gradient,
        q_traces=q_traces,
        q_curvature=q_curvature,
        delta_norm2=float(delta @ delta),
        dphi_xi_norm2=float(m.dphi_xi @ m.dphi_xi),
    )
    for v in (report.r20, report.r11, report.hbk, report.k):
        if not np.isfinite(v):
            raise ArithmeticError("non-finite curvature term")
    return report


# ---------------------------------------------------------------------------
# randomized identity suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityResult:
    name: str
    trials: int
    max_residual: float
    tolerance: float
    passed: bool


def fold_residuals(name: str, residuals, tolerance: float) -> IdentityResult:
    """The suite entry of one check, from its residuals, one (or one row of
    them) per trial: the largest decides `passed`, and unlike max() a NaN
    anywhere in them sticks and fails the entry."""
    worst = float(np.max(residuals, initial=0.0))
    return IdentityResult(name, len(residuals), worst, tolerance, bool(worst <= tolerance))


@dataclass(frozen=True)
class SuiteReport:
    results: tuple

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


# the value dimension of the vector-valued 2-tensors and 2-forms the identities draw
_FIBER_DIM = 3


def _seeds(rngs) -> np.ndarray:
    """One rng.integers(2**32) draw per trial: the seed of its random grids."""
    return np.array([rng.integers(2**32) for rng in rngs])


def _weights(source: HorizontalSpace, variants, rngs) -> tuple[np.ndarray, np.ndarray]:
    """Each trial's canonical weight grid and its hat trace, picked by one rng.integers draw."""
    Qs = [canonical_Q(source, v) for v in variants]
    pick = [int(rng.integers(len(variants))) for rng in rngs]
    return np.stack([Q.entries for Q in Qs])[pick], np.array([hat(Q).trace for Q in Qs])[pick]


def _full(space: HorizontalSpace, rw: np.ndarray) -> np.ndarray:
    """`full_curvature` of each slice, checked as its Curv4 is."""
    full = rw + torsion_minus_part(space)
    _check_curv4(space, full, frozenset(), TOL)
    return full


def _resid_qform_traceless_reduction(rngs, source, target, broken):
    d, n = source.d, source.n
    if broken:
        Q = _sample_curv4(source, {"pair_symmetric"}, _seeds(rngs))
        trq = np.trace(Q[_wedge_index(source)], axis1=-2, axis2=-1)
    else:
        Q, trq = _weights(source, ("jminus", "jplus_primitive"), rngs)
    (m,) = _normals(rngs, (n, n, _FIBER_DIM))
    m = 0.5 * (m + m.transpose(0, 2, 1, 3))
    delta = _delta(m)
    m0 = m + np.einsum("xy,...k->...xyk", source.g, delta) / d
    lhs = inner2(ring_grid(Q, m), m, 1)
    rhs = inner2(ring_grid(Q, m0), m0, 1) - trq / d**2 * np.vecdot(delta, delta)
    return np.abs(lhs - rhs)


def _resid_reeb_term(rngs, source, target, broken, plus: bool):
    """<T^ F, F> = -/+ tr(Q^) |v|^2 for T = b(Q) - Q and F = -omega (x) v.

    The sign of the -Q term is invisible here: every canonical weight
    annihilates omega (|Q^ omega| <= 2.2e-16 at d = 2..4, while
    |b(Q)^ omega| >= 0.5), so on admissible F only b(Q) contributes.
    The broken path draws a general F, on which -Q does contribute; the
    tests pin the sign there against an oracle.
    """
    variants = ("jplus_primitive", "tau_jplus_primitive") if plus else ("jminus", "tau_jminus")
    Q, trq = _weights(source, variants, rngs)
    T = bianchi_grid(Q) - Q
    (v,) = _normals(rngs, _FIBER_DIM)
    if broken:
        (F,) = _normals(rngs, (source.n, source.n, _FIBER_DIM))
        F = 0.5 * (F - F.transpose(0, 2, 1, 3))
    else:
        F = -np.einsum("xy,...k->...xyk", source.omega, v)
    lhs = inner2(hat_2form_grid(T, F), F, 1)
    sign = -1.0 if plus else 1.0
    return np.abs(lhs - sign * trq * np.vecdot(v, v))


def _resid_pullback_curvature_pairing(rngs, source, target, broken):
    seeds = _seeds(rngs)
    Q = _sample_curv4(source, {"pair_symmetric"}, seeds)
    Rt = _sample_curv4(target, KAHLER_TAGS, seeds + 1)
    full = _full(target, Rt)
    if broken:
        full = full + _sample_curv4(target, {"pair_symmetric", "j_minus"}, seeds + 2)
    D, v, m = _random_map_data(source, target, seeds + 3)
    _check_map_data(source, target, 1.0, D, v, m, False)
    Dt = np.swapaxes(D, -1, -2)
    lhs = 2.0 * dot4(Q, slot_contract(full, D, D, D, D))
    rhs = 2.0 * dot4(Q, slot_contract(Rt, D, D, D, D))
    rhs -= 2.0 * inner2(ring_grid(Q, Dt @ target.B @ D), Dt @ target.g @ D, 1)
    return np.abs(lhs - rhs)


def _resid_jplus_torsion_composition(rngs, source, target, broken):
    seeds = _seeds(rngs)
    Rs = _sample_curv4(source, KAHLER_TAGS, seeds)
    tags, shift = ({"pair_symmetric"}, 2) if broken else ({"pair_symmetric", "j_plus"}, 1)
    Qp = _sample_curv4(source, tags, seeds + shift)
    wedge = _wedge_index(source)
    qp = Qp[wedge]
    lhs = _full(source, Rs)[wedge] @ qp
    rhs = Rs[wedge] @ qp
    return np.max(np.abs(lhs - rhs), axis=(-2, -1))


def _resid_jminus_torsion_contraction(rngs, source, target, broken):
    seeds = _seeds(rngs)
    Rs = _sample_curv4(source, KAHLER_TAGS, seeds)
    Q, trq = _weights(source, ("jminus", "tau_jminus"), rngs)
    if broken:
        # pollute the J-invariant part: the composition with a J-anti-
        # invariant weight then no longer reduces to the torsion term
        Rs = Rs + _sample_curv4(source, {"pair_symmetric", "j_minus"}, seeds + 1)
    wedge = _wedge_index(source)
    hq = Q[wedge]
    comp = _unhat_grid(source, _full(source, Rs)[wedge] @ hq)
    _check_curv4(source, comp, frozenset(), TOL)  # as `unhat` checks its Curv4
    c = ricci_grid(comp)
    lhs = c + np.swapaxes(c, -1, -2)
    rhs = 2.0 * ((trq / source.d)[:, None, None] * source.B - ring_grid(Q, source.B[None]))
    return np.max(np.abs(lhs - rhs), axis=(-2, -1))


def _resid_cm_spaceform_orthogonality(rngs, source, target, broken):
    seeds = _seeds(rngs)
    f = np.array([rng.uniform(0.5, 2.0) for rng in rngs])
    D, v, nabla = _cr_map_data(source, target, f, seeds)
    _check_map_data(source, target, f, D, v, nabla, True)
    s, dp = np.array([rng.uniform(-4.0, -1.0) for rng in rngs]), target.d
    # the grid of space_form(d', s), a multiple of the proven I^C of the target
    sf = (s / (dp * (dp + 1)))[:, None, None, None, None] * canonical_tensors(target).Ic.entries
    can = canonical_tensors(source)
    cm = can.Ic if broken else can.torsion_cm  # I^C is not trace free, pairing survives
    return np.abs(0.5 * dot4(cm.entries, slot_contract(sf, D, D, D, D)))


def _resid_cr_structure(rngs, source, target, broken):
    seeds = _seeds(rngs)
    f = np.array([rng.uniform(0.5, 2.0) for rng in rngs])
    D, v0, nabla = _cr_map_data(source, target, f, seeds)
    _check_map_data(source, target, f, D, v0, nabla, True)
    v = v0 + (_normals(rngs, target.n)[0] if broken else 0.0)
    Dt = np.swapaxes(D, -1, -2)
    pB_plus, _ = two_tensor_j_split(source, Dt @ target.B @ D, 1)
    # (nabla dphi)(X, Y) = (1/2)(nabla_sym - omega (x) dphi_xi); its skew part
    # contracts to d * dphi_xi automatically
    full = 0.5 * (nabla - np.einsum("xy,...k->...xyk", source.omega, v0))
    dJstar = -np.einsum("...iak,ai->...k", full, source.J)
    terms = (target.J @ D - D @ source.J, Dt @ target.g @ D - f[:, None, None] * source.g, pB_plus)
    terms += (_delta(nabla) @ target.J.T - source.d * v, dJstar - source.d * v)
    # the worst term of each trial; unlike max(), np.max keeps a NaN
    return np.max([np.max(np.abs(t), axis=tuple(range(1, t.ndim))) for t in terms], axis=0)


_IDENTITIES = (
    ("qform_traceless_reduction", _resid_qform_traceless_reduction, {}),
    ("reeb_term_jplus", _resid_reeb_term, {"plus": True}),
    ("reeb_term_jminus", _resid_reeb_term, {"plus": False}),
    ("pullback_curvature_pairing", _resid_pullback_curvature_pairing, {}),
    ("jplus_torsion_composition", _resid_jplus_torsion_composition, {}),
    ("jminus_torsion_contraction", _resid_jminus_torsion_contraction, {}),
    ("cr_structure_relations", _resid_cr_structure, {}),
    ("cm_spaceform_orthogonality", _resid_cm_spaceform_orthogonality, {}),
)


def identity_suite(
    d: int,
    d_prime: int,
    seed: int = 0,
    trials: int = 100,
    tolerance: float = 1e-9,
    negative_control: bool = False,
) -> SuiteReport:
    """Run the randomized pointwise identity suite.

    Sources carry torsion (the torsion-sensitive identities need A and B);
    targets carry torsion as well so that pullback torsion terms are
    exercised.  With negative_control=True every identity is rerun with one
    admissibility constraint broken and is expected to fail its tolerance.
    Trial t of identity i draws from `default_rng((seed, t, i))`; the trials
    are evaluated in blocks on stacked grids, one residual per trial.
    """
    if d < 2:
        raise ValueError("the identity suite requires source half-dimension >= 2")
    if d_prime < d:
        raise ValueError("target half-dimension must be at least the source one")
    # zero trials check nothing, and an infinite tolerance passes anything
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError("tolerance must be positive and finite")
    source = make_space(d, with_torsion=True)
    target = make_space(d_prime, with_torsion=True)
    # blocks of trials, each trial one n'^4 float64 target grid
    blocks = [range(trials)[block] for block in _blocks(trials, 8 * target.n**4)]
    results = []
    for ident_index, (name, fn, kw) in enumerate(_IDENTITIES):
        residuals = []
        for block in blocks:
            rngs = [np.random.default_rng((seed, trial, ident_index)) for trial in block]
            residuals.extend(fn(rngs, source, target, negative_control, **kw))
        label = name + ("_negative_control" if negative_control else "")
        results.append(fold_residuals(label, residuals, tolerance))
    return SuiteReport(results=tuple(results))
