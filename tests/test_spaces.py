import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pherm import (
    TagError,
    complexify,
    make_space,
    random_bil2,
    random_curv4,
)
from pherm.spaces import (
    Bil2,
    Curv4,
    Endo2Forms,
    _Streams,
    bianchi_grid,
    check_seed,
    kulkarni_grid,
    ricci_grid,
    slot_contract,
    split_average_grid,
    sym_product_grid,
)
from pherm import algebra, spaces
from pherm.algebra import hat

from oracles import (
    ReferenceStream,
    antisym_pairs_expr,
    bianchi_expr,
    bianchi_loops,
    bianchi_project_expr,
    kulkarni_loops,
    pair_sym_expr,
    random_curv4_loop,
    rel_err,
    ricci_loops,
    split_average_einsum,
    sym_product_loops,
    unhat_loops,
)

KAHLER = {"pair_symmetric", "bianchi_closed", "j_plus"}

# the tag sets that the package and its tests draw random tensors from
CALLER_TAG_SETS = [
    {"pair_symmetric"},
    {"pair_symmetric", "bianchi_closed"},
    {"pair_symmetric", "j_plus"},
    {"pair_symmetric", "j_minus"},
    {"pair_symmetric", "j_minus", "tau_plus"},
    KAHLER,
]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_space_invariants(d):
    sp = make_space(d)
    n = 2 * d
    assert np.max(np.abs(sp.J @ sp.J + np.eye(n))) < 1e-12
    assert np.max(np.abs(sp.J.T @ sp.g @ sp.J - sp.g)) < 1e-12
    assert np.max(np.abs(sp.omega + sp.omega.T)) < 1e-12
    # omega(X, Y) = g(JX, Y)
    assert np.max(np.abs(sp.omega - sp.J.T @ sp.g)) < 1e-12


def test_d1_frame_matches_convention():
    sp = make_space(1)
    assert np.allclose(sp.J, [[0.0, -1.0], [1.0, 0.0]])
    assert sp.omega[0, 1] == 1.0  # omega(e1, Je1) = 1


@pytest.mark.parametrize("d", [1, 2, 3])
def test_torsion_invariants(d):
    sp = make_space(d, with_torsion=True)
    n = 2 * d
    assert np.max(np.abs(sp.tau @ sp.tau - np.eye(n))) < 1e-12
    assert np.max(np.abs(sp.tau @ sp.J + sp.J @ sp.tau)) < 1e-12
    assert abs(np.trace(sp.tau)) < 1e-12
    # |tau|^2 = sum g(tau e_i, tau e_i) = 2d
    assert abs(np.sum(sp.tau * sp.tau) - n) < 1e-12
    # A and B are symmetric
    assert np.max(np.abs(sp.A - sp.A.T)) < 1e-12
    assert np.max(np.abs(sp.B - sp.B.T)) < 1e-12


def test_invalid_dimension_rejected():
    with pytest.raises(ValueError):
        make_space(0)
    with pytest.raises(TypeError):
        make_space(2.0)


def test_make_space_returns_one_shared_space_per_key():
    sp = make_space(2, True)
    assert make_space(2, True) is sp
    assert make_space(2, with_torsion=True) is sp
    assert make_space(d=2, with_torsion=1) is sp
    assert make_space(np.int64(2), True) is sp
    assert make_space(2) is make_space(2, False)
    assert make_space(2) is not sp
    assert make_space(3, True) is not sp


def space_arrays(sp):
    """Every grid and signed-permutation array a space holds."""
    grids = {name: getattr(sp, name) for name in ("g", "J", "omega", "tau", "A", "B")}
    for name in ("J_pair", "tau_pair"):
        for i, arr in enumerate(getattr(sp, name) or ()):
            grids[f"{name}[{i}]"] = arr
    return {name: arr for name, arr in grids.items() if arr is not None}


@pytest.mark.parametrize("torsion", [False, True])
def test_space_grids_are_read_only(torsion):
    sp = make_space(2, torsion)
    arrays = space_arrays(sp)
    assert len(arrays) == (10 if torsion else 5)
    for name, arr in arrays.items():
        before = arr.copy()
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 7
        assert np.array_equal(arr, before), name


def test_complex_frame_orthonormality():
    for d in (1, 2, 3):
        sp = make_space(d)
        Z = complexify(sp)
        herm = Z @ Z.conj().T
        assert np.max(np.abs(herm - np.eye(d))) < 1e-12
        # unbarred vectors are isotropic for the bilinear pairing
        assert np.max(np.abs(Z @ Z.T)) < 1e-12
        # eigenvector property J Z_i = i Z_i
        assert np.max(np.abs((sp.J @ Z.T).T - 1j * Z)) < 1e-12


def test_random_bil2_deterministic_and_symmetric():
    sp = make_space(2)
    a = random_bil2(sp, "symmetric", seed=7)
    b = random_bil2(sp, "symmetric", seed=7)
    assert np.array_equal(a.entries, b.entries)
    c = random_bil2(sp, "antisymmetric", seed=7)
    assert np.max(np.abs(c.entries + c.entries.T)) == 0.0
    with pytest.raises(ValueError):
        random_bil2(sp, "hermitian", seed=0)


def test_random_curv4_deterministic():
    sp = make_space(2)
    q1 = random_curv4(sp, {"pair_symmetric"}, seed=7)
    q2 = random_curv4(sp, {"pair_symmetric"}, seed=7)
    assert np.array_equal(q1.entries, q2.entries)


def test_random_curv4_projector_posteriors():
    sp = make_space(2, with_torsion=True)
    q = random_curv4(sp, {"pair_symmetric", "bianchi_closed"}, seed=1)
    assert np.max(np.abs(bianchi_grid(q.entries))) < 1e-12
    q = random_curv4(sp, {"pair_symmetric", "j_plus"}, seed=3)
    conj = split_average_grid(q.entries, sp.J_pair, +1)
    assert np.max(np.abs(q.entries - conj)) < 1e-12
    q = random_curv4(sp, {"pair_symmetric", "j_minus", "tau_plus"}, seed=5)
    assert np.max(np.abs(q.entries - split_average_grid(q.entries, sp.tau_pair, +1))) < 1e-12


def test_random_curv4_contradictory_tags():
    sp = make_space(2, with_torsion=True)
    with pytest.raises(TagError):
        random_curv4(sp, {"j_plus", "j_minus"}, seed=0)
    with pytest.raises(TagError):
        random_curv4(sp, {"tau_plus", "tau_minus"}, seed=0)
    with pytest.raises(TagError):
        random_curv4(sp, {"bianchi_closed"}, seed=0)
    with pytest.raises(TagError):
        random_curv4(sp, {"spurious"}, seed=0)
    sp_free = make_space(2)
    with pytest.raises(ValueError):
        random_curv4(sp_free, {"tau_plus"}, seed=0)


@pytest.mark.parametrize("tags", CALLER_TAG_SETS, ids=lambda t: "+".join(sorted(t)))
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_random_curv4_matches_projection_loop(d, tags):
    # one exact pass lands where the alternating projections converge
    sp = make_space(d, with_torsion=True)
    for seed in (0, 3):
        want = random_curv4_loop(d, tags, seed)
        if want is None:
            with pytest.raises(TagError, match="zero tensor"):
                random_curv4(sp, tags, seed)
        else:
            assert np.max(np.abs(random_curv4(sp, tags, seed).entries - want)) <= 1e-13


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_kahler_random_curv4_is_symmetric_in_holomorphic_slots(d):
    sp = make_space(d)
    q = random_curv4(sp, KAHLER, seed=d).entries
    Z = complexify(sp)
    r = np.einsum("abcd,ia,jb,kc,ld->ijkl", q, Z, Z.conj(), Z, Z.conj())
    assert np.max(np.abs(r)) > 0.1
    # R(Z_i, Zbar_j, Z_k, Zbar_l) is symmetric in (i, k)
    assert np.max(np.abs(r - r.transpose(2, 1, 0, 3))) < 1e-12


@pytest.mark.parametrize(
    "extra",
    [
        {"j_minus"},
        {"tau_plus"},
        {"tau_minus"},
        {"primitive"},
        {"primitive", "j_plus"},
        {"primitive", "j_minus"},
        {"primitive", "tau_plus"},
        {"primitive", "tau_minus"},
        {"j_plus", "tau_minus"},
        {"j_plus", "tau_minus", "primitive"},
    ],
    ids=lambda t: "+".join(sorted(t)),
)
def test_random_curv4_refuses_bianchi_sets_without_exact_projection(extra):
    sp = make_space(2, with_torsion=True)
    with pytest.raises(TagError, match="could not be satisfied jointly"):
        random_curv4(sp, {"pair_symmetric", "bianchi_closed"} | extra, seed=0)


def test_curv4_tau_tag_requires_torsion():
    sp = make_space(2)
    q = random_curv4(sp, {"pair_symmetric"}, seed=0)
    with pytest.raises(ValueError, match="torsion"):
        Curv4(sp, q.entries, {"tau_plus"})


def test_bil2_symmetry_validation():
    sp = make_space(2)
    bad = np.arange(16.0).reshape(4, 4)
    with pytest.raises(ValueError):
        Bil2(sp, bad, "symmetric")


def test_curv4_tag_verification_rejects_lies():
    sp = make_space(2)
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((4, 4, 4, 4))
    with pytest.raises(ValueError):
        Curv4(sp, raw)  # not pair-antisymmetric
    q = random_curv4(sp, {"pair_symmetric"}, seed=0)
    with pytest.raises(TagError):
        Curv4(sp, q.entries, frozenset({"j_plus"}))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_wedge_basis_and_hat_roundtrip(d):
    sp = make_space(d)
    pairs = list(zip(*(a.tolist() for a in spaces._wedge_indices(sp))))
    assert len(pairs) == d * (2 * d - 1)
    assert pairs == sorted(pairs)
    q = random_curv4(sp, {"pair_symmetric"}, seed=11)
    back = Curv4(q.space, algebra._unhat_grid(sp, hat(q).entries), q.tags)
    assert np.array_equal(back.entries, q.entries)  # exact round trip


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_unhat_matches_loop_oracle(d):
    # an arbitrary operator grid, not only one in the image of hat: the
    # vectorised scatter must place every entry exactly where the loop does
    sp = make_space(d)
    m = len(spaces._wedge_indices(sp)[0])
    op = np.random.default_rng(d).standard_normal((m, m))
    back = Curv4(sp, algebra._unhat_grid(sp, Endo2Forms(sp, op).entries))
    assert np.array_equal(back.entries, unhat_loops(op, sp.n))


def test_slot_contract_matches_einsum_with_vector_and_none_slots():
    rng = np.random.default_rng(5)
    q = rng.standard_normal((4, 5, 6, 7))
    M = rng.standard_normal((5, 3))
    N = rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2))
    u, v = rng.standard_normal(4), rng.standard_normal(6)
    assert np.array_equal(slot_contract(q), q)
    cases = [
        (slot_contract(q, None, M), np.einsum("abcd,bx->axcd", q, M)),
        (slot_contract(q, u, None, v), np.einsum("abcd,a,c->bd", q, u, v)),
        (slot_contract(q, None, None, None, N), np.einsum("abcd,dx->abcx", q, N)),
        (slot_contract(q, u, M, v, N), np.einsum("abcd,a,by,c,dw->yw", q, u, M, v, N)),
        (slot_contract(q, u, M, v, N[:, 0]), np.einsum("abcd,a,by,c,d->y", q, u, M, v, N[:, 0])),
    ]
    for got, want in cases:
        assert got.shape == want.shape
        assert rel_err(got, want) <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_split_average_grid_matches_einsum_oracle(d):
    sp = make_space(d, with_torsion=True)
    q = random_curv4(sp, {"pair_symmetric"}, seed=d).entries
    qi = np.rint(8 * q).astype(int)  # an integer grid is conjugated as a float one
    for pair, P in ((sp.J_pair, sp.J), (sp.tau_pair, sp.tau)):
        for sign in (+1, -1):
            want = split_average_einsum(q, P, sign)
            assert rel_err(split_average_grid(q, pair, sign), want) <= 1e-12
            want = split_average_grid(qi.astype(float), pair, sign)
            assert np.array_equal(split_average_grid(qi, pair, sign), want)


@given(d=st.integers(1, 3), seed=st.integers(0, 2**32), torsion=st.booleans(), sign=st.sampled_from((1, -1)))
def test_split_average_grid_matches_einsum_oracle_property(d, seed, torsion, sign):
    # the kernel that gives a tensor's J and tau parts, on any grid, against dense J or tau
    sp = make_space(d, with_torsion=True)
    pair, P = (sp.tau_pair, sp.tau) if torsion else (sp.J_pair, sp.J)
    q = np.random.default_rng(seed).standard_normal((sp.n,) * 4)
    got, want = split_average_grid(q, pair, sign), split_average_einsum(q, P, sign)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(q))


@given(d=st.integers(1, 3), seed=st.integers(0, 2**32))
def test_bianchi_grid_matches_loop_oracle_property(d, seed):
    # the same three terms added in the same order: equal bit for bit
    q = np.random.default_rng(seed).standard_normal((2 * d,) * 4)
    assert np.array_equal(bianchi_grid(q), bianchi_loops(q))


@given(d=st.integers(1, 3), seed=st.integers(0, 2**32))
def test_sym_product_and_kulkarni_grids_match_loop_oracles_property(d, seed):
    h, k = np.random.default_rng(seed).standard_normal((2, 2 * d, 2 * d))
    bound = 1e-12 * max(1.0, np.max(np.abs(h)), np.max(np.abs(k)))
    assert np.max(np.abs(sym_product_grid(h, k) - sym_product_loops(h, k))) <= bound
    assert np.max(np.abs(kulkarni_grid(h, k) - kulkarni_loops(h, k))) <= bound


@given(d=st.integers(1, 3), seed=st.integers(0, 2**32))
def test_ricci_grid_matches_loop_oracle_property(d, seed):
    q = np.random.default_rng(seed).standard_normal((2 * d,) * 4)
    assert np.max(np.abs(ricci_grid(q) - ricci_loops(q))) <= 1e-12 * max(1.0, np.max(np.abs(q)))


def _random_signed_permutation(rng, n):
    return rng.permutation(n), rng.choice([-1.0, 1.0], size=n)


def _dense(pair):
    perm, s = pair
    P = np.zeros((len(perm),) * 2)
    P[perm, np.arange(len(perm))] = s
    return P


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("with_torsion", [False, True])
def test_stored_pairs_rebuild_j_and_tau(d, with_torsion):
    sp = make_space(d, with_torsion=with_torsion)
    assert np.array_equal(_dense(sp.J_pair), sp.J)
    if with_torsion:
        assert np.array_equal(_dense(sp.tau_pair), sp.tau)
        assert sp.require_torsion() is sp.tau_pair
    else:
        assert sp.tau is None and sp.tau_pair is None
        with pytest.raises(ValueError, match="torsion"):
            sp.require_torsion()


def _count_slot_contracts(monkeypatch):
    calls = []
    contract = spaces.slot_contract

    def counting(*args):
        calls.append(args)
        return contract(*args)

    monkeypatch.setattr(spaces, "slot_contract", counting)
    return calls


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_split_average_grid_gathers_only_signed_permutations(d, monkeypatch):
    sp = make_space(d, with_torsion=True)
    q = random_curv4(sp, {"pair_symmetric"}, seed=10 + d).entries
    rng = np.random.default_rng(d)
    pair = _random_signed_permutation(rng, sp.n)
    P = _dense(pair)
    while np.array_equal(P, sp.J) or np.array_equal(P, sp.tau):
        pair = _random_signed_permutation(rng, sp.n)
        P = _dense(pair)
    # a signed permutation other than J or tau: gathered, bit for bit the contraction
    for sign in (+1, -1):
        q1 = slot_contract(q, P, P)
        q2 = slot_contract(q, None, None, P, P)
        q12 = slot_contract(q1, None, None, P, P)
        calls = _count_slot_contracts(monkeypatch)
        got = split_average_grid(q, pair, sign)
        monkeypatch.undo()
        assert calls == []
        assert np.array_equal(got, 0.25 * (q + sign * q1 + sign * q2 + q12))


def test_containers_reject_non_finite_entries():
    sp = make_space(2)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="not finite"):
            Curv4(sp, np.full((4,) * 4, bad), KAHLER)
        with pytest.raises(ValueError, match="not finite"):
            Bil2(sp, np.full((4, 4), bad), "symmetric")


def test_curv4_tags_are_frozen():
    sp = make_space(2)
    c = Curv4(sp, random_curv4(sp, {"pair_symmetric"}, seed=0).entries, {"pair_symmetric"})
    assert isinstance(c.tags, frozenset)
    with pytest.raises(AttributeError):
        c.tags.add("j_plus")
    assert c.tags == {"pair_symmetric"}


# every raw kernel that takes leading batch axes, as f(q, s2, s3, D, batch):
# q a 4-tensor grid, s2 / s3 a 2-tensor and a vector-valued 2-tensor, D a
# matrix, each with the batch axis or a slice of it; batch counts its axes
_SP = make_space(3, with_torsion=True)
BATCHED_KERNELS = {
    "antisym_pairs_grid": lambda q, s2, s3, D, b: spaces.antisym_pairs_grid(q),
    "pair_sym_grid": lambda q, s2, s3, D, b: spaces.pair_sym_grid(q),
    "bianchi_grid": lambda q, s2, s3, D, b: bianchi_grid(q),
    "bianchi_project_grid": lambda q, s2, s3, D, b: spaces.bianchi_project_grid(q),
    "kahler_bianchi_grid": lambda q, s2, s3, D, b: spaces.kahler_bianchi_grid(q, _SP.J_pair),
    "conjugate_first_pair": lambda q, s2, s3, D, b: spaces._conjugate(q, _SP.J_pair, -4),
    "conjugate_last_pair": lambda q, s2, s3, D, b: spaces._conjugate(q, _SP.tau_pair, -2),
    "split_average_grid_j": lambda q, s2, s3, D, b: split_average_grid(q, _SP.J_pair, +1),
    "split_average_grid_tau": lambda q, s2, s3, D, b: split_average_grid(q, _SP.tau_pair, -1),
    "hat_2form_grid": lambda q, s2, s3, D, b: spaces.hat_2form_grid(q, s2),
    "hat_2form_grid_vector": lambda q, s2, s3, D, b: spaces.hat_2form_grid(q, s3),
    "ring_grid": lambda q, s2, s3, D, b: spaces.ring_grid(q, s2),
    "ring_grid_vector": lambda q, s2, s3, D, b: spaces.ring_grid(q, s3),
    "ricci_grid": lambda q, s2, s3, D, b: spaces.ricci_grid(q),
    "primitive_grid": lambda q, s2, s3, D, b: spaces.primitive_grid(_SP, q),
    "dot4": lambda q, s2, s3, D, b: spaces.dot4(q, spaces.pair_sym_grid(q)),
    "inner2": lambda q, s2, s3, D, b: spaces.inner2(s3, s3, b),
    "slot_contract": lambda q, s2, s3, D, b: slot_contract(q, D, D, D, D),
    "tag_residual_j_plus": lambda q, s2, s3, D, b: spaces._tag_residual(_SP, q, "j_plus"),
    "tag_residual_primitive": lambda q, s2, s3, D, b: spaces._tag_residual(_SP, q, "primitive"),
    "hat_gather": lambda q, s2, s3, D, b: q[algebra._wedge_index(_SP)],
    "unhat_grid": lambda q, s2, s3, D, b: algebra._unhat_grid(_SP, q[algebra._wedge_index(_SP)]),
    "two_tensor_j_split": lambda q, s2, s3, D, b: algebra.two_tensor_j_split(_SP, s3, b)[1],
}


@pytest.mark.parametrize("kernel", sorted(BATCHED_KERNELS))
def test_kernel_on_a_stack_is_the_stack_of_its_slices(kernel):
    f, n = BATCHED_KERNELS[kernel], _SP.n
    rng = np.random.default_rng(11)
    q, s2, s3, D = (rng.standard_normal(s) for s in ((3, n, n, n, n), (3, n, n), (3, n, n, 2), (3, n, 5)))
    slices = [f(q[i], s2[i], s3[i], D[i], 0) for i in range(3)]
    assert np.array_equal(f(q, s2, s3, D, 1), np.stack(slices))  # bit for bit


# the kernels that compute in place, against their expression forms
IN_PLACE_KERNELS = {
    "antisym_pairs_grid": (spaces.antisym_pairs_grid, antisym_pairs_expr),
    "pair_sym_grid": (spaces.pair_sym_grid, pair_sym_expr),
    "bianchi_grid": (bianchi_grid, bianchi_expr),
}


@pytest.mark.parametrize("stack", [False, True], ids=["grid", "stack"])
@pytest.mark.parametrize("kernel", sorted(IN_PLACE_KERNELS))
def test_in_place_kernel_is_its_expression_form_bit_for_bit(kernel, stack):
    f, expr = IN_PLACE_KERNELS[kernel]
    n = _SP.n
    q = np.random.default_rng(12).standard_normal((3,) * stack + (n,) * 4)
    for rows in (slice(None), slice(0, 1), slice(2, 5), slice(n - 1, n)):
        assert np.array_equal(f(q, rows), expr(q, rows))
    assert np.array_equal(f(q), expr(q))


@pytest.mark.parametrize("stack", [False, True], ids=["grid", "stack"])
def test_in_place_bianchi_projection_is_its_expression_form_bit_for_bit(stack):
    q = np.random.default_rng(13).standard_normal((3,) * stack + (_SP.n,) * 4)
    got = spaces.bianchi_project_grid(q)
    assert np.array_equal(got, bianchi_project_expr(q))
    assert not np.shares_memory(got, q)


def test_proven_curv4_skips_the_checks_and_freezes_its_tags(monkeypatch):
    sp = make_space(2)
    q = random_curv4(sp, KAHLER, seed=1).entries
    monkeypatch.setattr(spaces, "_check_curv4", None)  # a dense check would fail to run
    c = spaces._proven_curv4(sp, q, list(KAHLER))
    assert isinstance(c, Curv4) and c.entries is q and c.space is sp
    assert isinstance(c.tags, frozenset) and c.tags == KAHLER
    with pytest.raises(TagError, match="unknown tags"):
        spaces._proven_curv4(sp, q, {"holomorphic"})


def _perturb_one_kahler_slice(monkeypatch, index, change):
    """Make the sampler's last Kahler projection step hand back slice `index`
    changed; the checks never call that step, so they see the change."""
    project = spaces.kahler_bianchi_grid

    def perturbed(q, J):
        out = project(q, J)
        out[index] = change(out[index])
        return out

    monkeypatch.setattr(spaces, "kahler_bianchi_grid", perturbed)


def test_sampler_checks_each_slice_of_a_stack_against_its_tags(monkeypatch):
    sp = make_space(2, with_torsion=True)
    assert spaces._sample_curv4(sp, KAHLER, range(5)).shape == (5,) + (sp.n,) * 4
    # g % A is pair-symmetric and Bianchi closed but J-anti-invariant
    off = spaces.kulkarni_grid(sp.g, sp.A)
    _perturb_one_kahler_slice(monkeypatch, 3, lambda q: q + 1e-6 * off)
    with pytest.raises(TagError, match="could not be satisfied jointly") as err:
        spaces._sample_curv4(sp, KAHLER, range(5))
    assert "'j_plus'" in str(err.value.__cause__)


def test_sampler_rejects_a_stack_with_one_nan_slice(monkeypatch):
    sp = make_space(2, with_torsion=True)

    def with_nan(q):
        q[0, 1, 0, 1] = np.nan
        return q

    _perturb_one_kahler_slice(monkeypatch, 2, with_nan)
    with pytest.raises(ValueError, match="not finite"):
        spaces._sample_curv4(sp, KAHLER, range(5))


def test_random_curv4_is_the_sampler_slice_checked_once(monkeypatch):
    sp = make_space(3, with_torsion=True)
    stack = spaces._sample_curv4(sp, KAHLER, [4, 9])
    calls = []
    check = spaces._check_curv4
    monkeypatch.setattr(spaces, "_check_curv4", lambda *a: calls.append(a[3]) or check(*a))
    q = random_curv4(sp, KAHLER, 9)
    assert calls == [1e-10]  # the sampler's joint check, stricter than TOL; no second check
    assert np.array_equal(q.entries, stack[1]) and q.tags == KAHLER


def _whole_residual(space, q, check):
    """The residual of one Curv4 check computed on all of q at once."""
    if check == "antisymmetric":
        return spaces._max_abs_diff(q, spaces.antisym_pairs_grid(q))
    if check == "bianchi_closed":
        return np.max(np.abs(bianchi_grid(q)), axis=spaces._SLOTS)
    if check == "primitive":
        qw = spaces.hat_2form_grid(q, space.omega[(None,) * (q.ndim - 4)])
        return np.max(np.abs(qw @ space.omega.T), axis=(-2, -1))
    return spaces._max_abs_diff(q, spaces._PROJECTORS[check](space, q))


def _record_antisym_rows(monkeypatch):
    """The row blocks the antisymmetry check asks its kernel for, in order."""
    seen, kernel = [], spaces.antisym_pairs_grid
    monkeypatch.setattr(spaces, "antisym_pairs_grid", lambda q, rows: seen.append(rows) or kernel(q, rows))
    return seen


@pytest.mark.parametrize("stack", [False, True], ids=["grid", "stack"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("check", ("antisymmetric",) + spaces.CURV4_TAGS)
def test_row_blocked_residual_is_the_whole_residual_bit_for_bit(monkeypatch, check, d, stack):
    sp = make_space(d, with_torsion=True)
    n = sp.n
    q = np.random.default_rng(d).standard_normal((3,) * stack + (n,) * 4)
    whole = _whole_residual(sp, q, check)
    values = []
    for rows in (1, 2, n):  # rows per block under the patched budget
        monkeypatch.setattr(spaces, "_BLOCK_BYTES", rows * (q.nbytes // n))
        seen = _record_antisym_rows(monkeypatch)
        if check == "antisymmetric":
            values.append(spaces._antisym_residual(q))
            tiles = [list(range(n))[s] for s in seen]
            assert tiles == [list(range(x, min(x + rows, n))) for x in range(0, n, rows)]
            assert seen == [slice(None)] or rows < n  # all rows: one block, sliced as a view
        else:
            values.append(spaces._tag_residual(sp, q, check))
        monkeypatch.undo()
    assert values[0].shape == whole.shape
    for got in values:
        assert np.array_equal(got, whole)


# (count, unit bytes) of each caller of `_blocks`: rows of a 4-tensor grid or stack
# in the Curv4 checks (a row of 30 stacked n = 24 grids is over the budget), runs
# of a in the Killing form, trials of the identity suite
BLOCK_CALLERS = {
    "rows_d12": (24, 24**3 * 8),
    "rows_d12_stack3": (24, 3 * 24**3 * 8),
    "rows_d12_stack30": (24, 30 * 24**3 * 8),
    "rows_d2": (4, 4**3 * 8),
    "killing_su43": (48, 48 * 48 * 8),
    "killing_so16_2": (153, 153 * 153 * 8),
    "trials_d8": (5, 8 * 16**4),
    "trials_d8_many": (30, 8 * 16**4),
    "trials_d3": (100, 8 * 6**4),
}


@pytest.mark.parametrize("count,unit", BLOCK_CALLERS.values(), ids=list(BLOCK_CALLERS))
def test_blocks_tile_the_count_within_the_budget(count, unit):
    blocks = spaces._blocks(count, unit)
    tiles = [list(range(count)[b]) for b in blocks]
    assert sum(tiles, []) == list(range(count))  # consecutive, in order, each unit once
    assert all(len(t) * unit <= spaces._BLOCK_BYTES or len(t) == 1 for t in tiles)
    if count * unit <= spaces._BLOCK_BYTES:
        assert blocks == [slice(None)]  # a count that fits is one block, a view of all of it
    # the step arithmetic that each caller did on its own
    step = max(1, spaces._BLOCK_BYTES // unit)
    assert tiles == [list(range(x, min(x + step, count))) for x in range(0, count, step)]


@given(count=st.integers(0, 3000), unit=st.integers(0, 2**22))
def test_blocks_tile_any_count_within_the_budget(count, unit):
    blocks = spaces._blocks(count, unit)
    tiles = [list(range(count)[b]) for b in blocks]
    assert sum(tiles, []) == list(range(count))
    assert all(len(t) * unit <= spaces._BLOCK_BYTES or len(t) == 1 for t in tiles)
    assert (blocks == [slice(None)]) == (count * unit <= spaces._BLOCK_BYTES or count <= 1)


_SPACES = {n: make_space(n // 2, with_torsion=True) for n in (2, 4, 6, 8)}


@settings(max_examples=20)
@given(
    n=st.sampled_from(sorted(_SPACES)),
    stack=st.integers(1, 3),
    check=st.sampled_from(("antisymmetric",) + spaces.CURV4_TAGS),
    budget=st.integers(0, 3 * 8**4 * 8),  # up to all rows of the largest stack
    seed=st.integers(0, 2**16),
)
def test_any_row_budget_gives_the_whole_residual_bit_for_bit(n, stack, check, budget, seed):
    sp = _SPACES[n]
    q = np.random.default_rng(seed).standard_normal((stack,) + (n,) * 4)
    whole = _whole_residual(sp, q, check)
    with mock.patch.object(spaces, "_BLOCK_BYTES", budget):
        if check == "antisymmetric":
            got = spaces._antisym_residual(q)
        else:
            got = spaces._tag_residual(sp, q, check)
    assert got.shape == whole.shape and np.array_equal(got, whole)


def test_the_first_failing_tag_does_not_depend_on_the_hash_seed():
    # a Gaussian grid fails all three Kähler tags; the declared tags are a frozenset,
    # whose iteration order follows the string hash seed, but the check names the
    # first failing tag in `CURV4_TAGS` order
    code = (
        "import numpy as np\n"
        "from pherm.spaces import KAHLER_TAGS, Curv4, antisym_pairs_grid, make_space\n"
        "q = antisym_pairs_grid(np.random.default_rng(0).standard_normal((4,) * 4))\n"
        "try:\n"
        "    Curv4(make_space(2), q, KAHLER_TAGS)\n"
        "except ValueError as err:\n"
        "    print(err)\n"
    )
    src = str(Path(spaces.__file__).resolve().parent.parent)
    messages = set()
    for seed in range(6):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed), "OPENBLAS_NUM_THREADS": "1"}
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        messages.add(res.stdout.strip())
    assert messages == {"declared tag 'pair_symmetric' fails its projector check"}


def _first_and_last_row_blocks(q):
    """The first and the last row block of the default budget, as row ranges."""
    n = q.shape[-4]
    step = spaces._BLOCK_BYTES // (q.nbytes // n)
    assert 4 <= step < n // 2  # three blocks at least, each with four rows
    last = (n - 1) // step * step
    assert n - last >= 4
    return range(0, step), range(last, n)


def test_violations_in_the_first_or_last_row_block_are_caught():
    sp = make_space(12)  # n = 24: a 2.6 MiB grid in blocks of 9, 9 and 6 rows
    q = random_curv4(sp, KAHLER, seed=3).entries
    for block in _first_and_last_row_blocks(q):
        x, y, z, w = block[:4]
        one = np.zeros_like(q)
        one[x, y, z, w] = 1e-6
        # antisymmetric in both pairs, rows x..w only: neither pair symmetric nor
        # Bianchi closed, and neither defect shows outside rows x..w
        F = one - one.transpose(1, 0, 2, 3)
        F = F - F.transpose(0, 1, 3, 2)
        # J-anti-invariant in the last pair, so its j_plus projection is zero
        J_break = F - slot_contract(F, None, None, sp.J, sp.J)
        cases = [
            (one, KAHLER, ValueError, "entries are not antisymmetric in both slot pairs"),
            (F, {"pair_symmetric"}, TagError, "declared tag 'pair_symmetric' fails its projector check"),
            (F, {"bianchi_closed"}, TagError, "declared tag 'bianchi_closed' fails its projector check"),
            (J_break, {"j_plus"}, TagError, "declared tag 'j_plus' fails its projector check"),
        ]
        for change, tags, error, message in cases:
            assert set(np.nonzero(change)[0]) <= set(block)
            Curv4(sp, q, tags)
            with pytest.raises(error) as err:
                Curv4(sp, q + change, tags)
            assert str(err.value) == message



# ---------------------------------------------------------------------------
# the counter-based random streams (Hypothesis profile in conftest.py)
# ---------------------------------------------------------------------------

_PART = st.integers(0, 2**64 - 1)
_SEED3 = st.tuples(_PART, _PART, _PART)  # the (seed, trial, identity) form of the suite


@pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1), np.int64(7), (1, 2, 3), [0, 0]])
def test_check_seed_takes_integer_parts_below_2_to_the_64(seed):
    parts = check_seed(seed)
    assert all(type(p) is int for p in parts)
    assert parts == (tuple(map(int, seed)) if isinstance(seed, (tuple, list)) else (int(seed),))


@pytest.mark.parametrize(
    "seed, message",
    [
        (True, "seed part must be an integer, got True"),
        (np.True_, "seed part must be an integer, got np.True_"),
        ((3, False), "seed part must be an integer, got False"),
        (2.0, "seed part must be an integer, got 2.0"),
        ("3", "seed part must be an integer, got '3'"),
        (None, "seed part must be an integer, got None"),
        (-1, "seed part must be >= 0, got -1"),
        ((0, -5, 1), "seed part must be >= 0, got -5"),
        (2**64, f"seed part must be < 2**64, got {2**64}"),
        ((), "a seed needs at least one part, got ()"),
    ],
)
def test_check_seed_names_the_part_it_refuses(seed, message):
    # a part of 2**64 or more would alias the stream of a smaller one
    with pytest.raises(ValueError) as err:
        check_seed(seed)
    assert str(err.value) == message
    with pytest.raises(ValueError, match=re.escape(message)):
        _Streams([0, seed] if not isinstance(seed, tuple) else [seed])


@given(seed=st.one_of(_PART, _SEED3), k=st.integers(0, 40), l=st.integers(0, 40))
def test_normals_drawn_k_then_l_are_the_first_k_plus_l(seed, k, l):
    apart = _Streams([seed])
    got = np.concatenate([apart.normals(k)[0], *apart.normals(l, 1)], axis=1)
    (want,) = _Streams([seed]).normals(k + l + 1)
    assert np.array_equal(got, want)


@given(seeds=st.lists(_SEED3, min_size=1, max_size=6))
def test_each_row_of_a_batch_is_its_seeds_single_stream(seeds):
    def draws(streams):
        return (
            streams.integers(5),
            *streams.normals((2, 3), 4),
            streams.uniform(-1.0, 2.0),
            streams.integers(2**32),
            *streams.normals(1),
        )

    batch = draws(_Streams(seeds))
    for row, seed in enumerate(seeds):
        for got, want in zip(batch, draws(_Streams([seed]))):
            assert np.array_equal(got[row], want[0])


@given(seed=st.one_of(_PART, _SEED3))
def test_streams_follow_the_stated_definition(seed):
    # bit for bit on every integer step; math's log1p and cos may differ from numpy's by an ulp
    reference, streams = ReferenceStream(seed), _Streams([seed])
    assert np.array_equal(streams.integers(2**32), reference.integers(2**32))
    assert np.array_equal(streams.uniform(0.5, 2.0), reference.uniform(0.5, 2.0))
    got, want = streams.normals(50)[0], reference.normals(50)[0]
    assert np.max(np.abs(got - want)) <= 4e-15
    assert np.array_equal(streams.integers(3), reference.integers(3))  # both used 103 draws


_N_STAT = 200_000


def _normal_cdf(x):
    return 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_normals_are_standard_normal(seed):
    # each check is a fixed-seed test at about the 1 % level, so a correct stream fails
    # it at about one seed in a hundred (4 of 400 fresh seeds for the KS distance)
    (x,) = _Streams([seed]).normals(_N_STAT)[0]
    n = x.size
    assert abs(x.mean()) < 5 / math.sqrt(n)
    assert abs(x.var() - 1.0) < 5 * math.sqrt(2 / n)
    # Kolmogorov-Smirnov distance to the normal CDF, below its 1 % critical value
    cdf = _normal_cdf(np.sort(x))
    ks = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    assert ks < 1.628 / math.sqrt(n)


@pytest.mark.parametrize("s", [0, 1, 12345, 2**64 - 1])
def test_neighbouring_trial_streams_are_uncorrelated(s):
    # trial streams (s, 0, 0) and (s, 1, 0) share the seed and the identity
    x, y = _Streams([(s, 0, 0), (s, 1, 0)]).normals(_N_STAT)[0]
    assert abs(np.corrcoef(x, y)[0, 1]) < 5 / math.sqrt(_N_STAT)
