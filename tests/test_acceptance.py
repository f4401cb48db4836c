"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""
import time
from contextlib import contextmanager

import numpy as np
import pytest

from pherm import (
    build_model,
    c0_prime,
    canonical_Q,
    closed_form_constants,
    companion_tensor,
    complex_sectional,
    cr_map_datum,
    curvature_terms,
    first_bianchi_residual,
    full_curvature,
    fundamental_form,
    hat,
    identity_suite,
    kappa,
    kulkarni,
    make_space,
    metric_form,
    model_curvature,
    primitive_part,
    ricci_contraction,
    ring_action,
    scalar_curvature,
    scalar_product,
    space_form,
    sym_product,
    torsion_curvature,
    torsion_forms,
)
from pherm.invariants import invariants
from pherm.maps import canonical_q_reference
from pherm.spaces import Curv4

from oracles import su11_oracle

TABLE_MODELS = [
    ("su_pq", (2, 1)),
    ("su_pq", (2, 2)),
    ("su_pq", (3, 1)),
    ("sp_p_R", (2,)),
    ("sp_p_R", (3,)),
    ("so_p_2", (3,)),
    ("so_p_2", (4,)),
    ("so_star_2p", (4,)),
]


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"criterion {num}: FAIL - {desc}")
        raise
    print(f"criterion {num}: PASS - {desc}")


def test_criterion_1_table_reproduction():
    with criterion(1, "constants table matches closed forms at 1e-8 in under 60 s"):
        t0 = time.time()
        for family, params in TABLE_MODELS:
            rw = model_curvature(build_model(family, params))
            ref_c0, ref_kappa = closed_form_constants(family, params)
            assert c0_prime(rw) == pytest.approx(ref_c0, rel=1e-8), (family, params)
            assert kappa(rw) == pytest.approx(ref_kappa, rel=1e-8), (family, params)
        assert time.time() - t0 < 60.0


def test_criterion_2_su11_oracle():
    with criterion(2, "independent bracket oracle and engine agree at 1e-10"):
        comp, n2, s, c0, kp = su11_oracle()
        assert comp == pytest.approx(-0.5, abs=1e-10)
        assert n2 == pytest.approx(0.125, abs=1e-10)
        assert s == pytest.approx(-1.0, abs=1e-10)
        assert c0 == pytest.approx(0.5, abs=1e-10)
        assert kp == pytest.approx(-0.5, abs=1e-10)
        rw = model_curvature(build_model("su_pq", (1, 1)))
        assert rw.entries[0, 1, 0, 1] == pytest.approx(comp, abs=1e-10)
        assert scalar_product(rw, rw) == pytest.approx(n2, abs=1e-10)
        assert scalar_curvature(rw) == pytest.approx(s, abs=1e-10)
        assert c0_prime(rw) == pytest.approx(c0, abs=1e-10)
        assert kappa(rw) == pytest.approx(kp, abs=1e-10)


def test_criterion_3_space_form_degeneration():
    with criterion(3, "su(d,1) curvature is the space form with vanishing Chern-Moser part"):
        for d in (2, 3):
            rw = model_curvature(build_model("su_pq", (d, 1)))
            rep = invariants(rw)
            assert np.sqrt(rep.cm_norm2) <= 1e-9
            sf = space_form(d, rep.scalar, rw.space)
            assert np.max(np.abs(rw.entries - sf.entries)) <= 1e-9


def test_criterion_4_pseudo_einstein_and_bianchi():
    with criterion(4, "models are pseudo-Einstein with exact Bianchi and torsion identities"):
        for family, params in TABLE_MODELS:
            rw = model_curvature(build_model(family, params))
            # construction already verifies pair symmetry, Ker b, J-invariance
            assert rw.tags == frozenset({"pair_symmetric", "bianchi_closed", "j_plus"})
            assert invariants(rw).pseudo_einstein
            assert first_bianchi_residual(full_curvature(rw)) <= 1e-9
        for d in (2, 3):
            sp = make_space(d, with_torsion=True)
            s = -2.0 * d
            rw, _ = torsion_curvature(sp, s)
            assert invariants(rw).pseudo_einstein
            assert first_bianchi_residual(full_curvature(rw)) <= 1e-9
            conj = np.einsum("ax,by,abzw->xyzw", sp.tau, sp.tau, rw.entries)
            w = fundamental_form(sp)
            expect = rw.entries - (s / (2.0 * d * d)) * sym_product(w, w)
            assert np.max(np.abs(conj - expect)) <= 1e-9


def _operator_relation_residual(sp, seed):
    """Worst residual of the metric/fundamental/torsion operator and trace
    relations on one random vector-valued symmetric 2-tensor."""
    d, n = sp.d, sp.n
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((n, n, 3))
    s = 0.5 * (s + s.transpose(1, 0, 2))
    g, w = metric_form(sp), fundamental_form(sp)
    A, B = torsion_forms(sp)
    gkg, wkw = kulkarni(g, g), kulkarni(w, w)
    wsw = Curv4(sp, sym_product(w, w), frozenset({"pair_symmetric", "j_plus"}))
    AkA, BkB = kulkarni(A, A), kulkarni(B, B)
    worst = 0.0

    trs = np.einsum("iik->k", s)
    worst = max(worst, float(np.max(np.abs(
        ring_action(gkg, s) - 2.0 * (s - np.einsum("xy,k->xyk", sp.g, trs))
    ))))
    js = np.einsum("ax,by,abk->xyk", sp.J, sp.J, s)
    worst = max(worst, float(np.max(np.abs(ring_action(wkw, s) + 2.0 * js))))
    worst = max(worst, float(np.max(np.abs(ring_action(wsw, s) + 2.0 * js))))

    JT = sp.J @ sp.tau
    tA = np.einsum("ij,ijk->k", sp.A, s)
    tB = np.einsum("ij,ijk->k", sp.B, s)
    expA = 2.0 * (np.einsum("ax,by,abk->xyk", sp.tau, sp.tau, s)
                  - np.einsum("xy,k->xyk", sp.A, tA))
    expB = 2.0 * (np.einsum("ax,by,abk->xyk", JT, JT, s)
                  - np.einsum("xy,k->xyk", sp.B, tB))
    worst = max(worst, float(np.max(np.abs(ring_action(AkA, s) - expA))))
    worst = max(worst, float(np.max(np.abs(ring_action(BkB, s) - expB))))

    eye = np.eye(n)
    worst = max(worst, float(np.max(np.abs(
        ricci_contraction(gkg).entries - 2.0 * (n - 1) * eye))))
    worst = max(worst, float(np.max(np.abs(ricci_contraction(wkw).entries - 2.0 * eye))))
    worst = max(worst, float(np.max(np.abs(ricci_contraction(wsw).entries - 2.0 * eye))))
    worst = max(worst, float(np.max(np.abs(ricci_contraction(AkA).entries + (n / d) * eye))))
    worst = max(worst, float(np.max(np.abs(ricci_contraction(BkB).entries + (n / d) * eye))))
    worst = max(worst, abs(hat(gkg).trace - n * (n - 1)))
    worst = max(worst, abs(hat(wkw).trace - n))
    worst = max(worst, abs(hat(wsw).trace - n))
    worst = max(worst, abs(hat(AkA).trace + n))
    worst = max(worst, abs(hat(BkB).trace + n))
    return worst


def test_criterion_5_operator_relation_suites():
    with criterion(5, "operator and trace relations pass 100 trials per dimension at 1e-12"):
        for d in (2, 3, 4):
            sp = make_space(d, with_torsion=True)
            worst = max(_operator_relation_residual(sp, seed) for seed in range(100))
            assert worst <= 1e-12, (d, worst)


def test_criterion_6_q_tensor_constants():
    with criterion(6, "canonical weight tensors have exact traces and balanced companions"):
        for d in (2, 3, 4):
            sp = make_space(d, with_torsion=True)
            for variant in ("jminus", "jplus_primitive", "tau_jminus", "tau_jplus_primitive"):
                Q = canonical_Q(sp, variant)
                ref_tr, ref_c = canonical_q_reference(variant, d)
                assert abs(hat(Q).trace - ref_tr) <= 1e-12, (variant, d)
                c = ricci_contraction(Q).entries
                assert np.max(np.abs(c - ref_c * np.eye(2 * d))) <= 1e-12, (variant, d)
        for family, params in (("su_pq", (2, 2)), ("so_p_2", (3,))):
            rw = model_curvature(build_model(family, params))
            Q = companion_tensor(rw)
            assert abs(scalar_product(Q, primitive_part(rw))) <= 1e-9


def test_criterion_7_identity_suite():
    with criterion(7, "pointwise map identities pass 100 trials; negative controls break"):
        for dims in ((2, 2), (2, 3), (3, 3)):
            rep = identity_suite(*dims, trials=100, seed=0, tolerance=1e-9)
            assert rep.all_passed, [r.name for r in rep.results if not r.passed]
            bad = identity_suite(*dims, trials=10, seed=0, negative_control=True)
            for r in bad.results:
                assert r.max_residual >= 1e-3, (dims, r.name)


def test_criterion_8_cr_spaceform_constants():
    with criterion(8, "CR map curvature sums match the space-form closed forms at 1e-10"):
        s_t = -4.1
        for f in (0.5, 1.0, 2.0):
            for d, dp in ((2, 2), (2, 4)):
                src = make_space(d, with_torsion=True)
                tgt = make_space(dp, with_torsion=True)
                m = cr_map_datum(src, tgt, f=f, seed=101)
                rep = curvature_terms(space_form(dp, s_t, tgt), m)
                denom = dp * (dp + 1)
                hbk_ref = f**2 / 2.0 * d * (d + 1) / denom * s_t
                combo_ref = f**2 / 4.0 * (d - 1) * (d + 2) / denom * s_t
                assert abs(rep.hbk - hbk_ref) <= 1e-10
                assert abs((1 - 1 / d) * rep.hbk - rep.k - combo_ref) <= 1e-10


def test_criterion_9_nonpositive_complex_sectional():
    with criterion(9, "1000 sampled complex sectional curvatures per model stay below 1e-10"):
        for family, params in TABLE_MODELS:
            rw = model_curvature(build_model(family, params))
            n = rw.space.n
            rng = np.random.default_rng(2024)
            worst = -np.inf
            count = 0
            while count < 1000:
                Z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                W = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                try:
                    worst = max(worst, complex_sectional(rw, Z, W))
                except ValueError:
                    continue
                count += 1
            assert worst <= 1e-10, (family, params, worst)
