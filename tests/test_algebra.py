import dataclasses

import numpy as np
import pytest

from pherm import (
    canonical_tensors,
    fundamental_form,
    hat,
    kulkarni,
    make_space,
    metric_form,
    norm2,
    primitive_part,
    random_bil2,
    random_curv4,
    ricci_contraction,
    ring_action,
    scalar_product,
    sym_product,
    torsion_forms,
    traceless_part,
    wedge_adjoint,
)
from pherm import algebra, spaces
from pherm.algebra import two_tensor_j_split
from pherm.spaces import Bil2, Curv4, SpaceMismatchError, antisym_pairs_grid, bianchi_grid, hat_2form_grid, inner2

from conftest import pair_split
from oracles import (
    bianchi_loops,
    hat_trace_loops,
    kulkarni_loops,
    rel_err,
    ricci_loops,
    split_plus_loops,
    sym_product_loops,
    two_tensor_j_split_einsum,
)


def test_sym_product_matches_loop_oracle():
    sp = make_space(2)
    h = random_bil2(sp, "symmetric", seed=1)
    k = random_bil2(sp, "antisymmetric", seed=2)
    assert np.allclose(sym_product(h, k), sym_product_loops(h.entries, k.entries), atol=1e-14)


def test_sym_product_frozen_values():
    sp1 = make_space(1)
    w = fundamental_form(sp1)
    assert sym_product(w, w)[0, 1, 0, 1] == pytest.approx(2.0, abs=1e-14)
    z = Bil2(sp1, np.zeros((2, 2)), "symmetric")
    assert np.max(np.abs(sym_product(z, z))) == 0.0
    sp2 = make_space(2)
    g = metric_form(sp2)
    assert sym_product(g, g)[0, 0, 1, 1] == pytest.approx(2.0, abs=1e-14)


def test_kulkarni_matches_loop_oracle_and_frozen_component():
    sp = make_space(2)
    h = random_bil2(sp, "symmetric", seed=3)
    k = random_bil2(sp, "symmetric", seed=4)
    assert np.allclose(kulkarni(h, k).entries, kulkarni_loops(h.entries, k.entries), atol=1e-14)
    sp1 = make_space(1)
    g1 = metric_form(sp1)
    # 2(g(X,Z)g(Y,W) - g(X,W)g(Y,Z)) on the orthonormal pair (e1, Je1)
    assert kulkarni(g1, g1).entries[0, 1, 0, 1] == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_kulkarni_metric_trace(d):
    sp = make_space(d)
    g = metric_form(sp)
    assert hat(kulkarni(g, g)).trace == pytest.approx(2 * d * (2 * d - 1), abs=1e-12)


def test_mixed_kulkarni_bianchi_relation():
    # h symmetric, k antisymmetric: b(h % k) = -2 b(k (x) h)
    sp = make_space(2)
    h = random_bil2(sp, "symmetric", seed=5)
    k = random_bil2(sp, "antisymmetric", seed=6)
    mixed = kulkarni(h, k)
    assert mixed.tags == frozenset()
    lhs = bianchi_loops(mixed.entries)
    rhs = -2.0 * bianchi_loops(np.einsum("xy,zw->xyzw", k.entries, h.entries))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_bianchi_vanishes_on_symmetric_kulkarni(d):
    sp = make_space(d)
    for seed in range(5):
        h = random_bil2(sp, "symmetric", seed=seed)
        k = random_bil2(sp, "symmetric", seed=seed + 50)
        assert np.max(np.abs(bianchi_grid(kulkarni(h, k).entries))) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_bianchi_antisymmetric_kulkarni_relation(d):
    sp = make_space(d)
    for seed in range(5):
        h = random_bil2(sp, "antisymmetric", seed=seed)
        k = random_bil2(sp, "antisymmetric", seed=seed + 50)
        lhs = bianchi_grid(kulkarni(h, k).entries)
        rhs = -2.0 * bianchi_loops(sym_product(h, k))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_bianchi_zero_and_fully_antisymmetric():
    sp = make_space(2)
    w = fundamental_form(sp)
    g = metric_form(sp)
    assert np.max(np.abs(bianchi_grid(kulkarni(g, g).entries))) == 0.0
    ww = kulkarni(w, w)
    b = bianchi_grid(ww.entries)
    # image of a pair-symmetric tensor is fully antisymmetric
    assert np.max(np.abs(b + np.einsum("xzyw->xyzw", b))) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ricci_contraction_reference_values(d):
    sp = make_space(d)
    g, w = metric_form(sp), fundamental_form(sp)
    n = 2 * d
    assert np.allclose(ricci_contraction(kulkarni(g, g)).entries, 2 * (n - 1) * np.eye(n), atol=1e-12)
    assert np.allclose(ricci_contraction(kulkarni(w, w)).entries, 2 * np.eye(n), atol=1e-12)
    wsw = Curv4(sp, sym_product(w, w), frozenset({"pair_symmetric"}))
    assert np.allclose(ricci_contraction(wsw).entries, 2 * np.eye(n), atol=1e-12)


def test_ricci_matches_loop_oracle():
    sp = make_space(3)
    q = random_curv4(sp, {"pair_symmetric"}, seed=9)
    assert np.allclose(ricci_contraction(q).entries, ricci_loops(q.entries), atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_holomorphic_constant_tensor_traces(d):
    sp = make_space(d)
    can = canonical_tensors(sp)
    # derived from the three Kulkarni traces by linearity
    assert hat(can.Ic).trace == pytest.approx(d * (d + 1) / 2, abs=1e-12)
    assert np.allclose(
        ricci_contraction(can.Ic).entries, (d + 1) / 2 * np.eye(2 * d), atol=1e-12
    )
    assert np.max(np.abs(bianchi_grid(can.Ic.entries))) < 1e-12


def test_scalar_product_frozen_and_symmetric():
    sp1 = make_space(1)
    g = metric_form(sp1)
    gkg = kulkarni(g, g)
    assert scalar_product(gkg, gkg) == pytest.approx(2.0, abs=1e-14)
    sp = make_space(2)
    p = random_curv4(sp, {"pair_symmetric"}, seed=1)
    q = random_curv4(sp, {"pair_symmetric"}, seed=2)
    assert scalar_product(p, q) == pytest.approx(scalar_product(q, p), abs=1e-12)
    assert scalar_product(p, p) >= 0.0
    with pytest.raises(ValueError):
        scalar_product(p, kulkarni(metric_form(sp), random_bil2(sp, "antisymmetric", 3)))


def test_hat_trace_matches_loop_oracle():
    sp = make_space(2)
    q = random_curv4(sp, {"pair_symmetric"}, seed=12)
    assert hat(q).trace == pytest.approx(hat_trace_loops(q.entries), abs=1e-12)


def test_wsw_pairing_computes_jtype_trace_difference():
    # <omega . omega, Q> = tr Q^+ - tr Q^- for Bianchi-closed pair-symmetric Q
    sp = make_space(2)
    w = fundamental_form(sp)
    wsw = Curv4(sp, sym_product(w, w), frozenset({"pair_symmetric", "j_plus"}))
    for seed in range(5):
        q = random_curv4(sp, {"pair_symmetric", "bianchi_closed"}, seed=seed)
        qp, qm = pair_split(q, "j")
        lhs = scalar_product(wsw, q)
        assert lhs == pytest.approx(hat(qp).trace - hat(qm).trace, abs=1e-11)


def test_metric_kulkarni_jsplit_pairing_computes_traces():
    # <(g%g)^{+/-}, Q> = tr of the corresponding J-type part of Q^
    sp = make_space(2)
    g = metric_form(sp)
    gp, gm = pair_split(kulkarni(g, g), "j")
    for seed in range(5):
        q = random_curv4(sp, {"pair_symmetric"}, seed=seed + 20)
        qp, qm = pair_split(q, "j")
        assert scalar_product(gp, q) == pytest.approx(hat(qp).trace, abs=1e-11)
        assert scalar_product(gm, q) == pytest.approx(hat(qm).trace, abs=1e-11)


def test_jsplit_of_metric_kulkarni():
    sp = make_space(2)
    g, w = metric_form(sp), fundamental_form(sp)
    gkg, wkw = kulkarni(g, g), kulkarni(w, w)
    qp, qm = pair_split(gkg, "j")
    assert np.allclose(qp.entries, 0.5 * (gkg.entries + wkw.entries), atol=1e-12)
    assert np.allclose(qm.entries, 0.5 * (gkg.entries - wkw.entries), atol=1e-12)


def test_jsplit_idempotent_and_reconstructs():
    sp = make_space(2)
    q = random_curv4(sp, {"pair_symmetric", "j_plus"}, seed=3)
    qp, qm = pair_split(q, "j")
    assert np.allclose(qp.entries, q.entries, atol=1e-12)
    assert np.max(np.abs(qm.entries)) < 1e-12
    qpp, _ = pair_split(qp, "j")
    assert np.allclose(qpp.entries, qp.entries, atol=1e-12)


def test_tau_split_matches_loop_oracle_and_frozen_trace():
    sp = make_space(2, with_torsion=True)
    can = canonical_tensors(sp)
    icp, icm = pair_split(can.Ic, "tau")
    oracle = split_plus_loops(can.Ic.entries, sp.tau)
    assert np.max(np.abs(icp.entries - oracle)) < 1e-12
    # loop-derived value d(d-1)/4; cross-checked by the CR spaceform K term
    assert hat(icp).trace == pytest.approx(hat_trace_loops(oracle), abs=1e-12)
    assert hat(icp).trace == pytest.approx(2 * 1 / 4, abs=1e-12)
    assert hat(icp).trace + hat(icm).trace == pytest.approx(hat(can.Ic).trace, abs=1e-12)
    with pytest.raises(ValueError):
        pair_split(canonical_tensors(make_space(2)).Ic, "tau")


def test_wedge_adjoint_and_traceless():
    for d in (1, 2, 3):
        sp = make_space(d)
        assert wedge_adjoint(fundamental_form(sp)) == pytest.approx(d, abs=1e-14)
    sp = make_space(2)
    s = random_bil2(sp, "symmetric", seed=8)
    s0 = traceless_part(s)
    assert abs(np.trace(s0.entries)) < 1e-12
    with pytest.raises(ValueError):
        wedge_adjoint(random_bil2(sp, "symmetric", seed=1))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_primitive_part_of_metric_kulkarni(d):
    sp = make_space(d)
    g, w = metric_form(sp), fundamental_form(sp)
    got = primitive_part(kulkarni(g, g))
    expect = kulkarni(g, g).entries - sym_product(w, w) / d
    assert np.allclose(got.entries, expect, atol=1e-12)


def test_primitive_trace_of_holomorphic_tensor():
    for d in (2, 3):
        sp = make_space(d)
        ic0 = canonical_tensors(sp).Ic0
        assert hat(ic0).trace == pytest.approx((d * d - 1) / 2, abs=1e-12)
        # primitive means the induced operator kills omega
        w = fundamental_form(sp)
        assert np.max(np.abs(hat_2form_grid(ic0.entries, w.entries))) < 1e-12


def test_canonical_torsion_tensor():
    sp = make_space(2, with_torsion=True)
    can = canonical_tensors(sp)
    d = 2
    assert hat(can.T).trace == pytest.approx(-d / 2, abs=1e-12)
    A, B = torsion_forms(sp)
    assert hat(kulkarni(A, A)).trace == pytest.approx(-2 * d, abs=1e-12)
    assert hat(kulkarni(B, B)).trace == pytest.approx(-2 * d, abs=1e-12)
    assert np.max(np.abs(bianchi_grid(can.T.entries))) < 1e-12
    assert np.allclose(can.T0.entries, primitive_part(can.T).entries, atol=1e-12)
    assert np.allclose(can.Ic0.entries, primitive_part(can.Ic).entries, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("fiber", [1, 3])
def test_metric_kulkarni_operator_relation(d, fiber):
    # (g%g)0 s = 2(s - g tr s) on vector-valued symmetric 2-tensors
    sp = make_space(d)
    g = metric_form(sp)
    gkg = kulkarni(g, g)
    rng = np.random.default_rng(d * 10 + fiber)
    for _ in range(20):
        s = rng.standard_normal((2 * d, 2 * d, fiber))
        s = 0.5 * (s + s.transpose(1, 0, 2))
        trs = np.einsum("iik->k", s)
        expect = 2.0 * (s - np.einsum("xy,k->xyk", sp.g, trs))
        assert np.max(np.abs(ring_action(gkg, s) - expect)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("fiber", [1, 3])
def test_fundamental_kulkarni_operator_relation(d, fiber):
    # (w%w)0 s = (w.w)0 s = -2(s+ - s-)
    sp = make_space(d)
    w = fundamental_form(sp)
    wkw = kulkarni(w, w)
    wsw = Curv4(sp, sym_product(w, w), frozenset({"pair_symmetric", "j_plus"}))
    rng = np.random.default_rng(d * 100 + fiber)
    for _ in range(20):
        s = rng.standard_normal((2 * d, 2 * d, fiber))
        s = 0.5 * (s + s.transpose(1, 0, 2))
        js = np.einsum("ax,by,abk->xyk", sp.J, sp.J, s)
        expect = -2.0 * js  # -2(s+ - s-) = -2 J*s
        assert np.max(np.abs(ring_action(wkw, s) - expect)) < 1e-12
        assert np.max(np.abs(ring_action(wsw, s) - expect)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("fiber", [1, 3])
def test_torsion_kulkarni_operator_relations(d, fiber):
    sp = make_space(d, with_torsion=True)
    A, B = torsion_forms(sp)
    AkA, BkB = kulkarni(A, A), kulkarni(B, B)
    n = 2 * d
    rng = np.random.default_rng(d * 1000 + fiber)
    JT = sp.J @ sp.tau
    for _ in range(20):
        s = rng.standard_normal((n, n, fiber))
        s = 0.5 * (s + s.transpose(1, 0, 2))
        tA = np.einsum("ij,ijk->k", sp.A, s)  # full trace of c(A (x) s)
        tB = np.einsum("ij,ijk->k", sp.B, s)
        expA = 2.0 * (np.einsum("ax,by,abk->xyk", sp.tau, sp.tau, s) - np.einsum("xy,k->xyk", sp.A, tA))
        expB = 2.0 * (np.einsum("ax,by,abk->xyk", JT, JT, s) - np.einsum("xy,k->xyk", sp.B, tB))
        assert np.max(np.abs(ring_action(AkA, s) - expA)) < 1e-12
        assert np.max(np.abs(ring_action(BkB, s) - expB)) < 1e-12
    assert np.allclose(ricci_contraction(AkA).entries, -n / d * np.eye(n), atol=1e-12)
    assert np.allclose(ricci_contraction(BkB).entries, -n / d * np.eye(n), atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_hat_composition_relations(d):
    # (g%B)^ (w%w)^ = 2 (w%A)^ and (g%B)^ (g%g)^ = 2 (g%B)^
    sp = make_space(d, with_torsion=True)
    g, w = metric_form(sp), fundamental_form(sp)
    A, B = torsion_forms(sp)
    wA = Bil2(sp, sp.A.copy(), "symmetric")
    gB = hat(kulkarni(g, B)).entries
    wkw = hat(kulkarni(w, w)).entries
    gkg = hat(kulkarni(g, g)).entries
    wkA = hat(kulkarni(w, wA)).entries
    assert np.max(np.abs(gB @ wkw - 2.0 * wkA)) < 1e-12
    assert np.max(np.abs(gB @ gkg - 2.0 * gB)) < 1e-12


def test_jtype_operator_orthogonality():
    sp = make_space(2)
    for seed in range(5):
        tp = random_curv4(sp, {"pair_symmetric", "j_plus"}, seed=seed)
        qm = random_curv4(sp, {"pair_symmetric", "j_minus"}, seed=seed + 70)
        prod = hat(tp).entries @ hat(qm).entries
        assert np.max(np.abs(prod)) < 1e-12


def test_space_mismatch_rejected():
    h = metric_form(make_space(2))
    k = metric_form(make_space(3))
    with pytest.raises(SpaceMismatchError):
        kulkarni(h, k)


def test_space_compatibility_is_structural():
    # equal spaces built separately combine; torsion never pairs with none
    h, k = metric_form(make_space(2)), metric_form(make_space(2))
    assert np.array_equal(kulkarni(h, k).entries, kulkarni(h, h).entries)
    assert np.array_equal(sym_product(h, k), sym_product(h, h))
    p = random_curv4(make_space(2), {"pair_symmetric"}, seed=1)
    q = random_curv4(make_space(2), {"pair_symmetric"}, seed=2)
    assert scalar_product(p, q) == scalar_product(q, p)
    t = random_curv4(make_space(2, with_torsion=True), {"pair_symmetric"}, seed=2)
    with pytest.raises(SpaceMismatchError):
        scalar_product(p, t)
    with pytest.raises(SpaceMismatchError):
        kulkarni(h, metric_form(make_space(2, with_torsion=True)))


def test_inner2_convention():
    # the half-sum convention matches the wedge-basis norm of a 2-form
    sp = make_space(2)
    w = fundamental_form(sp)
    assert inner2(w.entries, w.entries) == pytest.approx(2.0, abs=1e-14)  # d=2


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_two_tensor_j_split_matches_einsum_oracle(d):
    sp = make_space(d)
    rng = np.random.default_rng(d)
    for shape in ((sp.n, sp.n), (sp.n, sp.n, 3)):
        s = rng.standard_normal(shape)
        for got, want in zip(two_tensor_j_split(sp, s), two_tensor_j_split_einsum(sp.J, s)):
            assert got.shape == shape
            assert rel_err(got, want) <= 1e-12


def test_norm2_is_never_negative():
    # a tiny pair-antisymmetric grid passes the pair_symmetric check within
    # tolerance, but its pairing with itself is negative
    sp = make_space(2)
    a = antisym_pairs_grid(np.random.default_rng(0).standard_normal((4,) * 4))
    a = a - a.transpose(2, 3, 0, 1)
    q = Curv4(sp, 1e-10 * a, {"pair_symmetric"})
    assert norm2(q) > 0.0
    assert norm2(q) == pytest.approx(0.125 * np.sum(q.entries**2), rel=1e-12)
    with pytest.raises(ValueError):
        norm2(Curv4(sp, a))  # no pair_symmetric tag


CANONICAL_FIELDS = (
    "Ic",
    "Ic0",
    "T",
    "T0",
    "torsion_rw",
    "torsion_cm",
    "jminus",
    "jplus_primitive",
    "tau_jminus",
    "tau_jplus_primitive",
)


@pytest.mark.parametrize("torsion", [False, True])
def test_canonical_tensors_are_built_once_and_read_only(torsion):
    sp = make_space(2, torsion)
    can = canonical_tensors(sp)
    assert canonical_tensors(sp) is can
    assert canonical_tensors(make_space(2, with_torsion=torsion)) is can
    fresh = algebra._canonical_tensors.__wrapped__(sp)  # an uncached build
    for name in CANONICAL_FIELDS:
        cached, built = getattr(can, name), getattr(fresh, name)
        if built is None:
            assert cached is None and not torsion
            continue
        assert np.array_equal(cached.entries, built.entries), name  # bit for bit
        assert cached.tags == built.tags, name
        with pytest.raises(ValueError):
            cached.entries[0, 1, 0, 1] = 7.0
        assert np.array_equal(cached.entries, built.entries), name


def test_canonical_tensors_check_tags_on_each_new_space(monkeypatch):
    calls, tag_residual = [], spaces._tag_residual

    def counting(space, q, tag):
        calls.append(tag)
        return tag_residual(space, q, tag)

    monkeypatch.setattr(spaces, "_tag_residual", counting)
    shared = make_space(3, with_torsion=True)
    hand_built = dataclasses.replace(shared)  # same grids, a space of its own
    can = canonical_tensors(hand_built)
    assert can.Ic.space is hand_built
    tags = {"pair_symmetric", "bianchi_closed", "j_plus", "j_minus", "primitive", "tau_plus", "tau_minus"}
    assert set(calls) == tags
    first_build = len(calls)
    assert canonical_tensors(hand_built) is can
    assert len(calls) == first_build  # the cached tensors are not re-checked
    assert canonical_tensors(shared) is not can  # each space has its own entry
    for name in CANONICAL_FIELDS:
        assert np.array_equal(getattr(can, name).entries, getattr(canonical_tensors(shared), name).entries)
