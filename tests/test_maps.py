import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pherm import (
    MapDatum,
    build_model,
    canonical_Q,
    canonical_tensors,
    companion_tensor,
    cr_map_datum,
    curvature_terms,
    hat,
    identity_suite,
    make_space,
    model_curvature,
    metric_form,
    pullback4,
    random_curv4,
    random_map_datum,
    ricci_contraction,
    ring_action,
    scalar_product,
    space_form,
)
from pherm import algebra, maps, spaces
from pherm.maps import canonical_q_reference
from pherm.spaces import KAHLER_TAGS, _Streams, bianchi_grid, hat_2form_grid, inner2

from conftest import pair_split
from oracles import (
    ReferenceStream,
    curvature_terms_einsum,
    pullback4_einsum,
    q_curvature_einsum,
    reeb_residual_loops,
    rel_err,
)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize(
    "variant", ["jminus", "jplus_primitive", "tau_jminus", "tau_jplus_primitive"]
)
def test_canonical_q_trace_and_ricci(d, variant):
    sp = make_space(d, with_torsion=True)
    Q = canonical_Q(sp, variant)
    ref_tr, ref_c = canonical_q_reference(variant, d)
    assert hat(Q).trace == pytest.approx(ref_tr, abs=1e-12)
    c = ricci_contraction(Q).entries
    assert np.max(np.abs(c - ref_c * np.eye(2 * d))) < 1e-12


def test_canonical_q_frozen_examples():
    assert hat(canonical_Q(make_space(3), "jminus")).trace == pytest.approx(12.0, abs=1e-12)
    spt = make_space(2, with_torsion=True)
    assert hat(canonical_Q(spt, "tau_jplus_primitive")).trace == pytest.approx(1.0, abs=1e-12)
    c = ricci_contraction(canonical_Q(make_space(2), "jplus_primitive")).entries
    assert np.allclose(c, 3.0 * np.eye(4), atol=1e-12)


def test_canonical_q_errors():
    sp = make_space(2)
    cases = [
        (sp, "tau_jminus"),  # needs torsion
        (sp, "tau_jplus_primitive"),
        (sp, "nonsense"),
        (make_space(1), "jplus_primitive"),
        (make_space(1, with_torsion=True), "tau_jplus_primitive"),
    ]
    for _ in range(2):  # the cache keeps no failed build: each call raises again
        for space, variant in cases:
            with pytest.raises(ValueError):
                canonical_Q(space, variant)


SPACE_ONLY_VARIANTS = ("jminus", "jplus_primitive", "tau_jminus", "tau_jplus_primitive")


def test_q_variants_are_the_space_only_weights():
    # in this order, the order of the MapTermReport dicts; the companion
    # weight depends on a curvature and comes from companion_tensor(rw)
    assert maps.Q_VARIANTS == SPACE_ONLY_VARIANTS


@pytest.mark.parametrize("variant", SPACE_ONLY_VARIANTS)
def test_canonical_q_is_built_once_and_read_only(variant):
    sp = make_space(3, with_torsion=True)
    Q = canonical_Q(sp, variant)
    assert canonical_Q(sp, variant) is Q
    fresh = getattr(algebra._canonical_tensors.__wrapped__(sp), variant)  # an uncached build
    assert np.array_equal(Q.entries, fresh.entries)  # bit for bit
    assert Q.tags == fresh.tags
    with pytest.raises(ValueError):
        Q.entries[0, 1, 0, 1] = 7.0
    assert np.array_equal(Q.entries, fresh.entries)


def count_tag_checks(monkeypatch) -> list:
    """The tags `spaces._tag_residual` checks from now on, one per call."""
    calls, tag_residual = [], spaces._tag_residual

    def counting(space, q, tag):
        calls.append(tag)
        return tag_residual(space, q, tag)

    monkeypatch.setattr(spaces, "_tag_residual", counting)
    return calls


@pytest.mark.parametrize("variant", SPACE_ONLY_VARIANTS)
def test_canonical_q_checks_its_tags_on_the_first_build_only(monkeypatch, variant):
    sp = dataclasses.replace(make_space(2, with_torsion=True))  # a space of its own
    checked, tag_residual = [], spaces._tag_residual

    def recording(space, q, tag):
        checked.append((q, tag))
        return tag_residual(space, q, tag)

    monkeypatch.setattr(spaces, "_tag_residual", recording)
    Q = canonical_Q(sp, variant)  # builds, and checks, the space's canonical record
    assert sorted(tag for q, tag in checked if q is Q.entries) == sorted(Q.tags)
    first_build = len(checked)
    assert canonical_Q(sp, variant) is Q
    assert len(checked) == first_build


def test_warm_identity_suite_proves_few_tags(monkeypatch):
    # per trial only the random draws and space_form prove tags; the weights
    # and the torsion model are proven once per space (485 checks when every
    # canonical_Q and torsion_curvature call built and proved its own)
    identity_suite(2, 2, trials=10)
    calls = count_tag_checks(monkeypatch)
    identity_suite(2, 2, trials=10)
    assert 0 < len(calls) <= 270


def test_canonical_q_companion_variant():
    rw = model_curvature(build_model("su_pq", (2, 2)))
    Q = companion_tensor(rw)
    from pherm import primitive_part

    assert abs(scalar_product(Q, primitive_part(rw))) < 1e-9


def test_pullback_identity_map():
    sp = make_space(2)
    m = MapDatum(
        source=sp,
        target=sp,
        f=1.0,
        dphi=np.eye(4),
        dphi_xi=np.zeros(4),
        nabla_sym=np.zeros((4, 4, 4)),
        is_cr=True,
    )
    g = metric_form(sp)
    assert np.allclose(m.dphi.T @ g.entries @ m.dphi, sp.g, atol=1e-14)
    rw = space_form(2, -6.0)
    assert np.allclose(pullback4(rw, m).entries, rw.entries, atol=1e-14)


def test_cr_datum_conformal_factor():
    src = make_space(2, with_torsion=True)
    tgt = make_space(3, with_torsion=True)
    m = cr_map_datum(src, tgt, f=2.25, seed=4)
    g_t = metric_form(tgt)
    assert np.allclose(m.dphi.T @ g_t.entries @ m.dphi, 2.25 * src.g, atol=1e-12)
    # J-anti-invariance of the pulled-back torsion form of the target
    pb = m.dphi.T @ tgt.B @ m.dphi
    plus = 0.5 * (pb + src.J.T @ pb @ src.J)
    assert np.max(np.abs(plus)) < 1e-12


def test_cr_spaceform_pullback_is_scaled_holomorphic_tensor():
    src = make_space(2, with_torsion=True)
    tgt = make_space(4, with_torsion=True)
    f, s_t = 1.7, -5.0
    m = cr_map_datum(src, tgt, f=f, seed=9)
    q_t = space_form(4, s_t, tgt)
    pull = pullback4(q_t, m)
    ic_src = canonical_tensors(src).Ic
    expect = f**2 * s_t / (4 * 5) * ic_src.entries
    assert np.max(np.abs(pull.entries - expect)) < 1e-12


def test_map_datum_validation():
    src, tgt = make_space(2), make_space(3)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        MapDatum(src, tgt, 1.0, np.zeros((4, 4)), np.zeros(6), np.zeros((4, 4, 6)))
    m = rng.standard_normal((4, 4, 6))
    with pytest.raises(ValueError):
        MapDatum(src, tgt, 1.0, np.zeros((6, 4)), np.zeros(6), m)  # asymmetric
    with pytest.raises(ValueError):
        MapDatum(
            src,
            tgt,
            1.0,
            rng.standard_normal((6, 4)),
            np.zeros(6),
            np.zeros((4, 4, 6)),
            is_cr=True,
        )


def test_curvature_terms_zero_target():
    src = make_space(2, with_torsion=True)
    tgt = make_space(2, with_torsion=True)
    m = cr_map_datum(src, tgt, f=1.0, seed=1)
    from pherm.spaces import Curv4

    zero = Curv4(
        tgt,
        np.zeros((4, 4, 4, 4)),
        frozenset({"pair_symmetric", "bianchi_closed", "j_plus"}),
    )
    rep = curvature_terms(zero, m)
    assert rep.r20 == rep.r11 == rep.hbk == rep.k == 0.0


@pytest.mark.parametrize("f", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("dims", [(2, 2), (2, 4)])
def test_cr_spaceform_curvature_constants(f, dims):
    d, dp = dims
    src = make_space(d, with_torsion=True)
    tgt = make_space(dp, with_torsion=True)
    s_t = -3.7
    m = cr_map_datum(src, tgt, f=f, seed=13)
    q_t = space_form(dp, s_t, tgt)
    rep = curvature_terms(q_t, m)
    denom = dp * (dp + 1)
    assert rep.hbk == pytest.approx(f**2 / 2 * d * (d + 1) / denom * s_t, abs=1e-10)
    combo = (1 - 1 / d) * rep.hbk - rep.k
    assert combo == pytest.approx(f**2 / 4 * (d - 1) * (d + 2) / denom * s_t, abs=1e-10)


def test_complex_frame_sums_match_jsplit_traces():
    src = make_space(2, with_torsion=True)
    tgt = make_space(3, with_torsion=True)
    m = random_map_datum(src, tgt, seed=21)
    from pherm.spaces import random_curv4

    q_t = random_curv4(tgt, {"pair_symmetric", "bianchi_closed", "j_plus"}, seed=22)
    rep = curvature_terms(q_t, m)
    pull = pullback4(q_t, m)
    pp, pm = pair_split(pull, "j")
    assert rep.r20 == pytest.approx(hat(pm).trace, abs=1e-10)
    assert rep.r11 == pytest.approx(hat(pp).trace, abs=1e-10)


def test_cr_map_r11_equals_hbk():
    src = make_space(2, with_torsion=True)
    tgt = make_space(3, with_torsion=True)
    m = cr_map_datum(src, tgt, f=1.3, seed=30)
    from pherm.spaces import random_curv4

    q_t = random_curv4(tgt, {"pair_symmetric", "bianchi_closed", "j_plus"}, seed=31)
    rep = curvature_terms(q_t, m)
    assert rep.r20 == pytest.approx(0.0, abs=1e-10)
    assert rep.r11 == pytest.approx(rep.hbk, abs=1e-10)


def test_gradient_identity_loop_oracle():
    # both sides of the trace-reduction identity expanded with plain loops
    d, fiber = 2, 3
    sp = make_space(d, with_torsion=True)
    Q = canonical_Q(sp, "jminus")
    rng = np.random.default_rng(17)
    n = 2 * d
    m = rng.standard_normal((n, n, fiber))
    m = 0.5 * (m + m.transpose(1, 0, 2))
    delta = -0.5 * np.array([sum(m[i, i, k] for i in range(n)) for k in range(fiber)])
    m0 = m + np.einsum("xy,k->xyk", sp.g, delta) / d

    def ring_loops(q, s):
        out = np.zeros_like(s)
        for x in range(n):
            for y in range(n):
                for k in range(fiber):
                    out[x, y, k] = sum(
                        q[i, x, y, j] * s[i, j, k] for i in range(n) for j in range(n)
                    )
        return out

    def dot_loops(a, b):
        return 0.5 * sum(
            a[x, y, k] * b[x, y, k]
            for x in range(n)
            for y in range(n)
            for k in range(fiber)
        )

    trq = 0.5 * sum(Q.entries[a, b, a, b] for a in range(n) for b in range(n))
    lhs = dot_loops(ring_loops(Q.entries, m), m)
    rhs = dot_loops(ring_loops(Q.entries, m0), m0) - trq / d**2 * float(delta @ delta)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    # and the engine computes the same values
    assert inner2(ring_action(Q, m), m) == pytest.approx(lhs, abs=1e-12)


def test_gradient_forms_reduce_to_jtype_norms():
    # ring action of the two metric weights on traceless symmetric data:
    # <Q- m0, m0> = 2|m0+|^2 and <Q+0 m0, m0> = 2(|m0+|^2/d + (1-1/d)|m0-|^2)
    d = 3
    src = make_space(d, with_torsion=True)
    tgt = make_space(3, with_torsion=True)
    m = random_map_datum(src, tgt, seed=77)
    delta = m.delta
    m0 = m.nabla_sym + np.einsum("xy,k->xyk", src.g, delta) / d
    jm0 = np.einsum("ax,by,abk->xyk", src.J, src.J, m0)
    plus, minus = 0.5 * (m0 + jm0), 0.5 * (m0 - jm0)
    n_plus, n_minus = inner2(plus, plus), inner2(minus, minus)
    rep = curvature_terms(space_form(3, -1.0, tgt), m)
    assert rep.q_gradient["jminus"] == pytest.approx(2 * n_plus, rel=1e-12)
    assert rep.q_gradient["jplus_primitive"] == pytest.approx(
        2 * (n_plus / d + (1 - 1 / d) * n_minus), rel=1e-12
    )


def test_torsion_model_primitive_part_is_tau_invariant_piece():
    from pherm import primitive_part, torsion_curvature

    for d, s in ((2, -4.0), (3, -5.5)):
        sp = make_space(d, with_torsion=True)
        rw, _ = torsion_curvature(sp, s)
        ic0_plus, _ = pair_split(canonical_tensors(sp).Ic0, "tau")
        expect = (2.0 * s / d**2) * ic0_plus.entries
        assert np.max(np.abs(primitive_part(rw).entries - expect)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("variant", SPACE_ONLY_VARIANTS)
def test_canonical_weights_annihilate_omega(d, variant):
    # why reeb_term_* cannot see the sign of -Q in T = b(Q) - Q: on the
    # admissible F = -omega (x) v only b(Q)^ omega is nonzero
    sp = make_space(d, with_torsion=True)
    Q = canonical_Q(sp, variant).entries
    assert np.max(np.abs(hat_2form_grid(Q, sp.omega))) <= 1e-15
    assert np.max(np.abs(hat_2form_grid(bianchi_grid(Q), sp.omega))) >= 0.5


@pytest.mark.parametrize("plus", [True, False])
@pytest.mark.parametrize("d", [2, 3])
def test_reeb_term_broken_path_matches_loop_oracle(d, plus):
    # on a general 2-form-valued F the -Q term contributes, so the oracle's
    # T = b(Q) - Q pins the sign that the admissible path cannot see
    source, target = make_space(d, with_torsion=True), make_space(2, with_torsion=True)
    fiber = maps._FIBER_DIM
    variants = ["jplus_primitive", "tau_jplus_primitive"] if plus else ["jminus", "tau_jminus"]
    seen = set()
    for seed in range(6):
        (got,) = maps._resid_reeb_term(_Streams([seed]), source, target, True, plus)
        rng = ReferenceStream(seed)  # the same draws, in the same order
        variant = variants[int(rng.integers(2)[0])]
        (v,) = rng.normals(fiber)[0]
        (F,) = rng.normals((source.n, source.n, fiber))[0]
        F = 0.5 * (F - F.transpose(1, 0, 2))
        want = reeb_residual_loops(canonical_Q(source, variant).entries, F, v, plus)
        assert rel_err(got, want) <= 1e-12
        seen.add(variant)
    assert seen == set(variants)


def test_identity_suite_passes():
    rep = identity_suite(2, 2, trials=25, seed=0)
    assert rep.all_passed
    assert {r.name for r in rep.results} >= {
        "qform_traceless_reduction",
        "reeb_term_jplus",
        "reeb_term_jminus",
        "pullback_curvature_pairing",
        "jplus_torsion_composition",
        "jminus_torsion_contraction",
        "cr_structure_relations",
        "cm_spaceform_orthogonality",
    }
    for r in rep.results:
        assert r.max_residual <= 1e-9


def test_identity_suite_negative_controls_detect():
    rep = identity_suite(2, 2, trials=8, seed=0, negative_control=True)
    for r in rep.results:
        assert r.max_residual >= 1e-3, r.name
        assert not r.passed


def test_identity_suite_rejects_d1():
    with pytest.raises(ValueError):
        identity_suite(1, 2)


@pytest.mark.parametrize(
    "kw",
    [
        {"trials": 0},
        {"trials": -3},
        {"tolerance": float("inf")},
        {"tolerance": float("nan")},
        {"tolerance": 0.0},
        {"tolerance": -1e-9},
    ],
)
def test_identity_suite_rejects_vacuous_input(kw):
    # zero trials would pass every identity unchecked, an infinite
    # tolerance would pass any residual
    with pytest.raises(ValueError):
        identity_suite(2, 2, **kw)


def spy_identities(monkeypatch) -> list:
    """Replace the identities by one that records each block it is given."""
    blocks = []

    def spy(rngs, *args):
        blocks.append(len(rngs))
        return np.zeros(len(rngs))

    monkeypatch.setattr(maps, "_IDENTITIES", (("spy", spy, {}),))
    return blocks


@pytest.mark.parametrize("bad", [True, False, np.True_, 2.0, 2.5, np.float64(2.0), "3"])
def test_identity_suite_trials_must_be_integral(monkeypatch, bad):
    # validated as sample_curvatures validates its count: True is not one trial
    blocks = spy_identities(monkeypatch)
    with pytest.raises(ValueError, match=r"trials must be an integer >= 1, got "):
        identity_suite(2, 2, trials=bad)
    assert blocks == []


@pytest.mark.parametrize("count", [np.int64(3), np.int32(3)])
def test_identity_suite_takes_numpy_integer_trials(monkeypatch, count):
    blocks = spy_identities(monkeypatch)
    (res,) = identity_suite(2, 2, trials=count).results
    assert blocks == [3] and res.trials == 3


def test_identity_suite_rejects_a_smaller_target_before_any_identity(monkeypatch):
    blocks = spy_identities(monkeypatch)
    with pytest.raises(ValueError, match="target half-dimension"):
        identity_suite(3, 2)
    assert blocks == []  # not left to the CR map data of the seventh identity


def test_identity_suite_rejects_dims_that_are_not_integers(monkeypatch):
    # decided by the one input rule, as the trials are, not by a TypeError from make_space
    blocks = spy_identities(monkeypatch)
    for dims in ((2, 3.5), (2.0, 3), (True, 3), (2, np.float64(3))):
        with pytest.raises(ValueError, match=re.escape(f"dims must be integers, got {dims!r}")):
            identity_suite(*dims)
    assert blocks == []


def test_identity_suite_evaluates_large_dims_in_blocks(monkeypatch):
    blocks = spy_identities(monkeypatch)
    identity_suite(6, 8, trials=5)  # n' = 16: two trials fill a block
    assert blocks == [2, 2, 1]
    blocks.clear()
    identity_suite(3, 3, trials=100)
    assert blocks == [100]


@pytest.mark.parametrize("broken", [False, True], ids=["admissible", "negative_control"])
@pytest.mark.parametrize("name, fn, kw", maps._IDENTITIES, ids=[name for name, *_ in maps._IDENTITIES])
def test_identity_block_gives_the_batch_of_one_residuals(name, fn, kw, broken):
    source, target = make_space(2, with_torsion=True), make_space(3, with_torsion=True)

    def rngs(trials):
        return _Streams([(4, trial, 1) for trial in trials])

    block = fn(rngs(range(7)), source, target, broken, **kw)
    one_by_one = np.concatenate([fn(rngs([t]), source, target, broken, **kw) for t in range(7)])
    assert block.shape == (7,)
    assert np.all(np.abs(block - one_by_one) <= 1e-12 * np.maximum(1.0, np.abs(one_by_one)))


@settings(max_examples=8)
@given(seed=st.integers(0, 2**64 - 1), trials=st.integers(1, 8), cuts=st.sets(st.integers(1, 7)))
@pytest.mark.parametrize("broken", [False, True], ids=["admissible", "negative_control"])
@pytest.mark.parametrize("name, fn, kw", maps._IDENTITIES, ids=[name for name, *_ in maps._IDENTITIES])
def test_identity_residuals_do_not_depend_on_the_blocks(name, fn, kw, broken, seed, trials, cuts):
    # trial t of identity i is a function of (seed, t, i) alone: any split of the
    # trials into blocks gives the residuals of one block, bit for bit
    source, target = make_space(2, with_torsion=True), make_space(3, with_torsion=True)

    def block(a, b):
        return fn(_Streams([(seed, t, 5) for t in range(a, b)]), source, target, broken, **kw)

    bounds = [0, *sorted(c for c in cuts if c < trials), trials]
    split = np.concatenate([block(a, b) for a, b in zip(bounds[:-1], bounds[1:])])
    assert np.array_equal(split, block(0, trials))


# identity_suite(6, 8, trials=30) raises ru_maxrss by about 11 MiB with one
# BLAS thread; stacking all 30 n' = 16 trials in one block would not fit
SUITE_MEMORY_BUDGET_MIB = 48


def test_large_identity_suite_runs_within_memory_budget():
    # ru_maxrss only grows, so the rise is measured in a fresh process
    code = (
        "import resource\n"
        "import numpy as np\n"
        "from pherm import identity_suite\n"
        "np.random.default_rng(0)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "assert identity_suite(6, 8, trials=30).all_passed\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    src = str(Path(maps.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) / 1024 < SUITE_MEMORY_BUDGET_MIB  # ru_maxrss is in KiB on Linux


def test_suite_deterministic():
    a = identity_suite(2, 3, trials=5, seed=7)
    b = identity_suite(2, 3, trials=5, seed=7)
    assert a == b


@pytest.mark.parametrize("d, dp", [(1, 2), (2, 2), (3, 4), (4, 4)])
def test_pullback4_matches_einsum_oracle(d, dp):
    q = random_curv4(make_space(dp), {"pair_symmetric"}, seed=d)
    m = random_map_datum(make_space(d), make_space(dp), seed=dp)
    assert rel_err(pullback4(q, m).entries, pullback4_einsum(q.entries, m.dphi)) <= 1e-12


@pytest.mark.parametrize("d, dp", [(1, 2), (2, 2), (2, 3), (3, 3), (4, 4)])
def test_curvature_terms_match_einsum_oracle(d, dp):
    src, tgt = make_space(d, with_torsion=True), make_space(dp, with_torsion=True)
    q = random_curv4(tgt, KAHLER_TAGS, seed=d)
    for m in (random_map_datum(src, tgt, seed=1), cr_map_datum(src, tgt, 1.5, seed=2)):
        rep = curvature_terms(q, m)
        want = curvature_terms_einsum(q.entries, m.dphi, tgt.J)
        for got, ref in zip((rep.r20, rep.r11, rep.hbk, rep.k), want):
            assert rel_err(got, ref) <= 1e-12
        assert len(rep.q_curvature) == (2 if d == 1 else 4)
        for variant, got in rep.q_curvature.items():
            ref = q_curvature_einsum(canonical_Q(src, variant).entries, q.entries, m.dphi)
            assert rel_err(got, ref) <= 1e-12


def test_map_data_reject_non_finite_values():
    good = random_map_datum(make_space(2), make_space(3), seed=0)
    for name in ("f", "dphi", "dphi_xi", "nabla_sym"):
        bad = np.full_like(np.asarray(getattr(good, name), dtype=float), np.nan)
        with pytest.raises(ValueError, match="not finite"):
            dataclasses.replace(good, **{name: bad})
    # a NaN conformal factor used to give an all-NaN datum that passed is_cr
    for f in (float("nan"), 0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            cr_map_datum(make_space(2), make_space(3), f, seed=0)


def test_identity_suite_nan_residual_fails(monkeypatch):
    resids = iter([0.0, float("nan"), 0.0])  # the NaN is not the last trial

    def nan_identity(rngs, *args):  # one residual per trial of the block
        return np.array([next(resids) for _ in range(len(rngs))])

    monkeypatch.setattr(maps, "_IDENTITIES", (("nan_identity", nan_identity, {}),))
    (res,) = identity_suite(2, 2, trials=3).results
    assert math.isnan(res.max_residual)
    assert not res.passed


def test_cr_structure_residual_keeps_a_nan(monkeypatch):
    # a NaN in one of its terms, not the first, must reach the residual
    monkeypatch.setattr(maps, "two_tensor_j_split", lambda space, s, batch=0: (np.full_like(s, np.nan), s))
    source, target = make_space(2, with_torsion=True), make_space(3, with_torsion=True)
    resid = maps._resid_cr_structure(_Streams(range(3)), source, target, False)
    assert resid.shape == (3,) and np.isnan(resid).all()
