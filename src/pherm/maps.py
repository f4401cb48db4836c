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

import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .spaces import (
    KAHLER_TAGS,
    Bil2,
    Curv4,
    Endo2Forms,
    HorizontalSpace,
    SpaceMismatchError,
    TOL,
    bianchi_grid,
    complexify,
    dot4,
    hat_2form_grid,
    inner2,
    kulkarni_grid,
    make_space,
    random_curv4,
    ring_grid,
    ricci_grid,
    slot_contract,
)
from .algebra import canonical_tensors, hat, ring_action, two_tensor_j_split, unhat
from .invariants import companion_tensor, full_curvature, space_form


Q_VARIANTS = ("jminus", "jplus_primitive", "companion", "tau_jminus", "tau_jplus_primitive")


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
        data = (self.f, self.dphi, self.dphi_xi, self.nabla_sym)
        if not all(np.isfinite(a).all() for a in data):  # a NaN fails no tolerance check
            raise ValueError("map data are not finite")
        if np.max(np.abs(self.nabla_sym - self.nabla_sym.transpose(1, 0, 2))) > TOL:
            raise ValueError("nabla_sym is not symmetric in its first two slots")
        if self.is_cr:
            resid = np.max(np.abs(self.target.J @ self.dphi - self.dphi @ self.source.J))
            if resid > TOL:
                raise ValueError("is_cr datum does not intertwine the complex structures")
            pg = self.dphi.T @ self.target.g @ self.dphi
            if np.max(np.abs(pg - self.f * self.source.g)) > TOL * max(1.0, self.f):
                raise ValueError("is_cr datum is not conformal with factor f")

    @property
    def delta(self) -> np.ndarray:
        """Divergence of the differential, read off the symmetrized
        derivative: delta = -(1/2) tr nabla_sym."""
        return -0.5 * np.einsum("iik->k", self.nabla_sym)

    def full_derivative(self) -> np.ndarray:
        """(nabla dphi)(X, Y) = (1/2)(nabla_sym - omega (x) dphi_xi)."""
        anti = -np.einsum("xy,k->xyk", self.source.omega, self.dphi_xi)
        return 0.5 * (self.nabla_sym + anti)


def random_map_datum(
    source: HorizontalSpace,
    target: HorizontalSpace,
    seed,
    f: float = 1.0,
) -> MapDatum:
    """Free horizontal map data (no CR constraint)."""
    rng = np.random.default_rng(seed)
    dphi = rng.standard_normal((target.n, source.n))
    v = rng.standard_normal(target.n)
    m = rng.standard_normal((source.n, source.n, target.n))
    m = 0.5 * (m + m.transpose(1, 0, 2))
    return MapDatum(source, target, f, dphi, v, m, is_cr=False)


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
    d, dp = source.d, target.d
    if dp < d:
        raise ValueError("target half-dimension must be at least the source one")
    if not f > 0:
        raise ValueError("the conformal factor must be positive")
    rng = np.random.default_rng(seed)
    zmat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    U, _ = np.linalg.qr(zmat)
    twist = np.block([[U.real, -U.imag], [U.imag, U.real]])  # J-commuting isometry
    embed = np.zeros((target.n, source.n))
    embed[:d, :d] = np.eye(d)
    embed[dp : dp + d, d:] = np.eye(d)
    dphi = np.sqrt(f) * embed @ twist

    v = rng.standard_normal(target.n)
    delta = -d * (target.J @ v)  # so that J' delta = d dphi_xi
    m = rng.standard_normal((source.n, source.n, target.n))
    m = 0.5 * (m + m.transpose(1, 0, 2))
    _, m_minus = two_tensor_j_split(source, m)
    nabla = m_minus - np.einsum("xy,k->xyk", source.g, delta) / d
    return MapDatum(source, target, f, dphi, v, nabla, is_cr=True)


# ---------------------------------------------------------------------------
# canonical test tensors
# ---------------------------------------------------------------------------

def canonical_Q(space: HorizontalSpace, variant: str, rw: Optional[Curv4] = None) -> Curv4:
    """The canonical tensors used as weights in the bilinear identities.

    Every variant but 'companion' (built from rw on each call) is built, and
    its tags checked, once per space and variant, then shared read-only.
    """
    if variant == "companion":
        if rw is None:
            raise ValueError("variant 'companion' needs a curvature argument")
        if rw.space.d != space.d:
            raise SpaceMismatchError("the curvature argument lives on another space")
        return companion_tensor(rw)
    return _canonical_Q(space, variant)


@functools.lru_cache(maxsize=64)  # four variants for each space `_canonical_tensors` keeps
def _canonical_Q(space: HorizontalSpace, variant: str) -> Curv4:
    can = canonical_tensors(space)
    if variant == "jminus":
        grid = 0.5 * (can.gkg.entries - can.wkw.entries)
        tags = {"pair_symmetric", "j_minus"}
    elif variant == "jplus_primitive":
        if space.d < 2:
            raise ValueError("primitive variants require d >= 2")
        grid = 0.5 * (
            can.gkg.entries + can.wkw.entries - (2.0 / space.d) * can.wsw.entries
        )
        tags = {"pair_symmetric", "j_plus", "primitive"}
    elif variant == "tau_jminus":
        space.require_torsion()
        A, B = space.A, space.B
        grid = 0.25 * (
            can.gkg.entries
            - can.wkw.entries
            + kulkarni_grid(A, A)
            - kulkarni_grid(B, B)
        )
        tags = {"pair_symmetric", "j_minus", "tau_plus"}
    elif variant == "tau_jplus_primitive":
        space.require_torsion()
        if space.d < 2:
            raise ValueError("primitive variants require d >= 2")
        grid = 0.5 * (can.Ic0.entries - can.T0.entries)
        tags = {"pair_symmetric", "j_plus", "primitive", "tau_minus"}
    else:
        raise ValueError(f"unknown variant {variant!r}; supported: {Q_VARIANTS}")
    Q = Curv4(space, grid, tags)
    Q.entries.flags.writeable = False  # shared by every caller
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
    variants = ["jminus", "jplus_primitive"]
    if m.source.has_torsion:
        variants += ["tau_jminus", "tau_jplus_primitive"]
    if d < 2:  # canonical_Q has no primitive weight at d = 1
        variants = [v for v in variants if not v.endswith("primitive")]
    delta = m.delta
    m0 = m.nabla_sym + np.einsum("xy,k->xyk", m.source.g, delta) / d
    for variant in variants:
        Q = canonical_Q(m.source, variant)
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

    def by_name(self, name: str) -> IdentityResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)


def _resid_qform_traceless_reduction(rng, source, target, fiber, broken):
    d, n = source.d, source.n
    if broken:
        Q = random_curv4(source, {"pair_symmetric"}, rng.integers(2**32))
    else:
        Q = canonical_Q(source, ("jminus", "jplus_primitive")[int(rng.integers(2))])
    m = rng.standard_normal((n, n, fiber))
    m = 0.5 * (m + m.transpose(1, 0, 2))
    delta = -0.5 * np.einsum("iik->k", m)
    m0 = m + np.einsum("xy,k->xyk", source.g, delta) / d
    lhs = inner2(ring_action(Q, m), m)
    rhs = inner2(ring_action(Q, m0), m0) - hat(Q).trace / d**2 * float(delta @ delta)
    return abs(lhs - rhs)


def _resid_reeb_term(rng, source, target, fiber, broken, plus: bool):
    """<T^ F, F> = -/+ tr(Q^) |v|^2 for T = b(Q) - Q and F = -omega (x) v.

    The sign of the -Q term is invisible here: every canonical weight
    annihilates omega (|Q^ omega| <= 2.2e-16 at d = 2..4, while
    |b(Q)^ omega| >= 0.5), so on admissible F only b(Q) contributes.
    The broken path draws a general F, on which -Q does contribute; the
    tests pin the sign there against an oracle.
    """
    if plus:
        variants = ["jplus_primitive"] + (["tau_jplus_primitive"] if source.has_torsion else [])
    else:
        variants = ["jminus"] + (["tau_jminus"] if source.has_torsion else [])
    Q = canonical_Q(source, variants[int(rng.integers(len(variants)))])
    T = bianchi_grid(Q.entries) - Q.entries
    v = rng.standard_normal(fiber)
    if broken:
        F = rng.standard_normal((source.n, source.n, fiber))
        F = 0.5 * (F - F.transpose(1, 0, 2))
    else:
        F = -np.einsum("xy,k->xyk", source.omega, v)
    lhs = inner2(hat_2form_grid(T, F), F)
    sign = -1.0 if plus else 1.0
    rhs = sign * hat(Q).trace * float(v @ v)
    return abs(lhs - rhs)


def _resid_pullback_curvature_pairing(rng, source, target, fiber, broken):
    seed = rng.integers(2**32)
    Q = random_curv4(source, {"pair_symmetric"}, seed)
    Rt = random_curv4(target, KAHLER_TAGS, seed + 1)
    full = full_curvature(Rt).entries
    if broken:
        full = full + random_curv4(
            target, {"pair_symmetric", "j_minus"}, seed + 2
        ).entries
    m = random_map_datum(source, target, seed + 3)
    D = m.dphi
    pull_full = slot_contract(full, D, D, D, D)
    lhs = 0.5 * float(np.einsum("abik,abik->", Q.entries, pull_full))
    pull_rw = slot_contract(Rt.entries, D, D, D, D)
    pull_B = D.T @ target.B @ D
    pull_g = D.T @ target.g @ D
    rhs = 4.0 * 0.125 * float(np.einsum("abcd,abcd->", Q.entries, pull_rw))
    rhs -= 2.0 * inner2(ring_action(Q, pull_B), pull_g)
    return abs(lhs - rhs)


def _resid_jplus_torsion_composition(rng, source, target, fiber, broken):
    seed = rng.integers(2**32)
    Rs = random_curv4(source, KAHLER_TAGS, seed)
    Qp = random_curv4(source, {"pair_symmetric", "j_plus"}, seed + 1)
    if broken:
        Qp = random_curv4(source, {"pair_symmetric"}, seed + 2)
    qp = hat(Qp).entries
    lhs = hat(full_curvature(Rs)).entries @ qp
    rhs = hat(Rs).entries @ qp
    return float(np.max(np.abs(lhs - rhs)))


def _resid_jminus_torsion_contraction(rng, source, target, fiber, broken):
    seed = rng.integers(2**32)
    Rs = random_curv4(source, KAHLER_TAGS, seed)
    variants = ["jminus", "tau_jminus"]
    Q = canonical_Q(source, variants[int(rng.integers(2))])
    if broken:
        # pollute the J-invariant part: the composition with a J-anti-
        # invariant weight then no longer reduces to the torsion term
        noise = random_curv4(source, {"pair_symmetric", "j_minus"}, seed + 1)
        Rs = Curv4(source, Rs.entries + noise.entries)
    hq = hat(Q)
    comp = unhat(Endo2Forms(source, hat(full_curvature(Rs)).entries @ hq.entries))
    c = ricci_grid(comp.entries)
    lhs = c + c.T
    trq = hq.trace
    rhs = 2.0 * ((trq / source.d) * source.B - ring_grid(Q.entries, source.B))
    return float(np.max(np.abs(lhs - rhs)))


def _resid_cm_spaceform_orthogonality(rng, source, target, fiber, broken):
    seed = rng.integers(2**32)
    f = float(rng.uniform(0.5, 2.0))
    m = cr_map_datum(source, target, f, seed)
    sf = space_form(target.d, float(rng.uniform(-4.0, -1.0)), target)
    can = canonical_tensors(source)
    cm = can.Ic if broken else can.torsion_cm  # I^C is not trace free, pairing survives
    D = m.dphi
    return abs(0.5 * dot4(cm.entries, slot_contract(sf.entries, D, D, D, D)))


def _resid_cr_structure(rng, source, target, fiber, broken):
    seed = rng.integers(2**32)
    f = float(rng.uniform(0.5, 2.0))
    m = cr_map_datum(source, target, f, seed)
    v = m.dphi_xi + (rng.standard_normal(target.n) if broken else 0.0)
    pg = m.dphi.T @ target.g @ m.dphi
    pB_plus, _ = two_tensor_j_split(source, m.dphi.T @ target.B @ m.dphi)
    # the skew part of the derivative contracts to d * dphi_xi automatically
    dJstar = -np.einsum("iak,ai->k", m.full_derivative(), source.J)
    terms = (target.J @ m.dphi - m.dphi @ source.J, pg - f * source.g, pB_plus)
    terms += (target.J @ m.delta - source.d * v, dJstar - source.d * v)
    return float(np.max([np.max(np.abs(t)) for t in terms]))  # unlike max(), keeps a NaN


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
    fiber_dim: int = 3,
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
    """
    if d < 2:
        raise ValueError("the identity suite requires source half-dimension >= 2")
    # zero trials check nothing, and an infinite tolerance passes anything
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError("tolerance must be positive and finite")
    source = make_space(d, with_torsion=True)
    target = make_space(d_prime, with_torsion=True)
    results = []
    for ident_index, (name, fn, kw) in enumerate(_IDENTITIES):
        residuals = []
        for trial in range(trials):
            rng = np.random.default_rng((seed, trial, ident_index))
            residuals.append(fn(rng, source, target, fiber_dim, negative_control, **kw))
        label = name + ("_negative_control" if negative_control else "")
        results.append(fold_residuals(label, residuals, tolerance))
    return SuiteReport(results=tuple(results))
