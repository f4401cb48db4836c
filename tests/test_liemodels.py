import dataclasses
import itertools
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pherm import liemodels, spaces
from pherm import (
    FAMILIES,
    Curv4,
    ModelError,
    TagError,
    build_model,
    c0_constant,
    c0_prime,
    closed_form_constants,
    hat,
    kappa,
    companion_tensor,
    make_space,
    model_constants,
    model_curvature,
    primitive_part,
    random_curv4,
    ricci_contraction,
    scalar_curvature,
    scalar_product,
    space_form,
)
from pherm.invariants import invariants

from conftest import load_workloads
from oracles import (
    adapted_frame_loop,
    dense_structure,
    holonomy_commutant_kron,
    kappa_dense,
    kappa_four_gathers,
    killing_form_einsum,
    model_curvature_einsum,
    rel_err,
    structure_constants_dense,
    structure_constants_einsum,
    structure_constants_loops,
    structure_triples,
    su11_oracle,
)

# frozen hand values for the signature (1,1) bracket computation
SU11_COMPONENT = -0.5
SU11_NORM2 = 0.125
SU11_SCALAR = -1.0
SU11_C0 = 0.5
SU11_KAPPA = -0.5


def test_su11_hand_oracle_self_consistent():
    comp, n2, s, c0, kp = su11_oracle()
    assert comp == pytest.approx(SU11_COMPONENT, abs=1e-12)
    assert n2 == pytest.approx(SU11_NORM2, abs=1e-12)
    assert s == pytest.approx(SU11_SCALAR, abs=1e-12)
    assert c0 == pytest.approx(SU11_C0, abs=1e-12)
    assert kp == pytest.approx(SU11_KAPPA, abs=1e-12)


def test_engine_reproduces_su11_oracle():
    m = build_model("su_pq", (1, 1))
    rw = model_curvature(m)
    assert rw.entries[0, 1, 0, 1] == pytest.approx(SU11_COMPONENT, abs=1e-10)
    assert scalar_product(rw, rw) == pytest.approx(SU11_NORM2, abs=1e-10)
    assert scalar_curvature(rw) == pytest.approx(SU11_SCALAR, abs=1e-10)
    assert c0_prime(rw) == pytest.approx(SU11_C0, abs=1e-10)
    assert kappa(rw) == pytest.approx(SU11_KAPPA, abs=1e-10)


@pytest.mark.parametrize(
    "family,params,d,dim",
    [
        ("su_pq", (2, 1), 2, 8),
        ("su_pq", (2, 2), 4, 15),
        ("sp_p_R", (2,), 3, 10),
        ("so_p_2", (3,), 3, 10),
        ("so_star_2p", (3,), 3, 15),
    ],
)
def test_model_dimensions(family, params, d, dim):
    m = build_model(family, params)
    assert m.d == d
    assert m.dim == dim
    # Killing form definiteness on the two parts
    li = np.arange(m.l_dim)
    pi = np.arange(m.l_dim, m.dim)
    assert np.linalg.eigvalsh(m.killing[np.ix_(li, li)]).max() < 0
    assert np.linalg.eigvalsh(m.killing[np.ix_(pi, pi)]).min() > 0
    # ad of the normalized center element squares to -Id on p
    ads = np.einsum("ijk->ikj", dense_structure(m.structure))
    ad_xi = np.einsum("i,iab->ab", m.xi_star, ads)[np.ix_(pi, pi)]
    assert np.max(np.abs(ad_xi @ ad_xi + np.eye(2 * d))) < 1e-9


def test_param_validation():
    for family, params in [
        ("su_pq", (0, 1)),
        ("sp_p_R", (0,)),
        ("so_p_2", (2,)),
        ("so_star_2p", (2,)),
        ("heisenberg", (0,)),
        ("su_pq", (2,)),
        ("mystery", (1,)),
    ]:
        with pytest.raises(ValueError):
            build_model(family, params)


# the smallest member of each constructible family and its half-dimension
SMALLEST_MEMBERS = {
    "heisenberg": ((1,), 1),
    "su_pq": ((1, 1), 1),
    "sp_p_R": ((1,), 1),
    "so_p_2": ((3,), 3),
    "so_star_2p": ((3,), 3),
}


def test_every_family_builds_at_its_minimum_params():
    assert set(SMALLEST_MEMBERS) == set(FAMILIES)
    for family, (params, d) in SMALLEST_MEMBERS.items():
        assert build_model(family, params).d == d


# (family, params, c0', dual Coxeter number h): the paper's closed forms, written
# apart from liemodels' family table; kappa = -1/h for the Killing metric
HAND_CONSTANTS = [
    ("su_pq", (2, 1), Fraction(1, 3), 3),
    ("su_pq", (4, 3), Fraction(13, 49), 7),
    ("sp_p_R", (3,), Fraction(11, 32), 4),
    ("so_p_2", (5,), Fraction(13, 50), 5),
    ("so_star_2p", (6,), Fraction(11, 50), 10),
    ("e6_spin10", (), Fraction(3, 16), 12),
    ("e7_e6", (), Fraction(29, 162), 18),
]


@pytest.mark.parametrize("family,params,c0,h", HAND_CONSTANTS)
def test_closed_form_constants_against_hand_values(family, params, c0, h):
    got_c0, got_kappa = closed_form_constants(family, params)
    assert abs(got_c0 - float(c0)) <= 1e-15 * float(c0)
    assert got_kappa == -1.0 / h


def test_closed_form_constants_arguments():
    # out-of-scope rows ignore their parameters
    assert closed_form_constants("e6_spin10", (1,)) == (3.0 / 16.0, -1.0 / 12.0)
    assert closed_form_constants("e7_e6", ()) == (29.0 / 162.0, -1.0 / 18.0)
    for family, params in [("su_pq", (2,)), ("so_star_2p", (1,)), ("heisenberg", (3,)), ("mystery", ())]:
        with pytest.raises(ValueError):
            closed_form_constants(family, params)


@pytest.mark.parametrize(
    "params",
    [(2.5, 1), (2.0, 1), (True, 1), ("2", "1")],
    ids=["float", "integral_float", "bool", "str"],
)
@pytest.mark.parametrize("call", [build_model, closed_form_constants])
def test_family_parameters_must_be_integers(call, params):
    with pytest.raises(ValueError, match="su_pq parameters must be integers"):
        call("su_pq", params)


def test_numpy_integer_family_parameters_are_accepted():
    m = build_model("su_pq", (np.int64(2), np.int32(1)))
    assert m.params == (2, 1) and all(type(x) is int for x in m.params)
    assert closed_form_constants("su_pq", (np.int64(2), 1)) == closed_form_constants("su_pq", (2, 1))


def test_heisenberg_flat():
    m = build_model("heisenberg", (3,))
    assert m.flat
    rw = model_curvature(m)
    assert np.max(np.abs(rw.entries)) == 0.0
    assert kappa(rw) == 0.0
    with pytest.raises(ValueError):
        c0_prime(rw)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_flat_curvature_is_proven_on_the_factor(monkeypatch, d):
    # the flat model takes the curved path: K[l, l] = 0 makes R exactly +0.0
    calls, prove = [], liemodels._prove_kahler_factor
    monkeypatch.setattr(liemodels, "_prove_kahler_factor", lambda *a: calls.append(a) or prove(*a))
    rw = model_curvature(build_model("heisenberg", (d,)))
    assert len(calls) == 1
    assert not np.any(rw.entries) and not np.signbit(rw.entries).any()
    assert rw.tags == spaces.KAHLER_TAGS


@pytest.mark.parametrize(
    "family,params",
    [
        ("su_pq", (2, 1)),
        ("su_pq", (2, 2)),
        ("sp_p_R", (2,)),
        ("so_p_2", (3,)),
        ("so_star_2p", (4,)),
    ],
)
def test_model_curvature_structure(family, params):
    m = build_model(family, params)
    rw = model_curvature(m)  # the constructor verifies the declared tags
    assert rw.tags == frozenset({"pair_symmetric", "bianchi_closed", "j_plus"})
    assert scalar_curvature(rw) < 0
    rep = invariants(rw)
    assert rep.pseudo_einstein


@pytest.mark.parametrize(
    "family,params",
    [
        ("su_pq", (2, 1)),
        ("su_pq", (3, 1)),
        ("sp_p_R", (2,)),
        ("so_p_2", (3,)),
        ("so_star_2p", (4,)),
    ],
)
def test_constants_against_closed_form(family, params):
    m = build_model(family, params)
    rw = model_curvature(m)
    ref_c0, ref_kappa = closed_form_constants(family, params)
    assert c0_prime(rw) == pytest.approx(ref_c0, rel=1e-10)
    assert kappa(rw) == pytest.approx(ref_kappa, rel=1e-10)
    # positivity of the rigidity margin, except on the complex-hyperbolic
    # boundary family where it vanishes identically
    if not (family == "su_pq" and min(params) == 1):
        assert c0_prime(rw) + kappa(rw) > 1e-3


def test_su_d1_rigidity_margin_vanishes():
    # the complex-hyperbolic family sits exactly on the boundary
    for d in (2, 3):
        rw = model_curvature(build_model("su_pq", (d, 1)))
        assert c0_prime(rw) + kappa(rw) == pytest.approx(0.0, abs=1e-10)


def test_su_d1_is_space_form():
    for d in (2, 3):
        m = build_model("su_pq", (d, 1))
        rw = model_curvature(m)
        rep = invariants(rw)
        assert rep.cm_norm2 < 1e-18
        sf = space_form(d, rep.scalar, rw.space)
        assert np.max(np.abs(rw.entries - sf.entries)) < 1e-9


def test_scale_covariance():
    lam = 2.0
    base = model_curvature(build_model("su_pq", (2, 1)))
    scaled = Curv4(base.space, base.entries / lam, base.tags)
    assert c0_prime(scaled) == pytest.approx(c0_prime(base) / lam, rel=1e-10)
    assert kappa(scaled) == pytest.approx(kappa(base) / lam, rel=1e-10)
    ratio = c0_prime(base) / kappa(base)
    assert c0_prime(scaled) / kappa(scaled) == pytest.approx(ratio, rel=1e-10)


@pytest.mark.parametrize(
    "family,params",
    [("su_pq", (2, 1)), ("sp_p_R", (2,)), ("so_p_2", (3,)), ("so_star_2p", (3,)), ("su_pq", (3, 2))],
)
def test_holonomy_commutant_is_id_and_j(family, params):
    rw = model_curvature(build_model(family, params))
    assert holonomy_commutant_kron(rw.entries) == 2


def test_companion_tensor_properties():
    for family, params in (("su_pq", (2, 2)), ("so_p_2", (3,))):
        m = build_model(family, params)
        rw = model_curvature(m)
        d = m.d
        s = scalar_curvature(rw)
        Q = companion_tensor(rw)
        assert c0_constant(rw) > 0
        rw0 = primitive_part(rw)
        assert abs(scalar_product(Q, rw0)) < 1e-9
        cq = ricci_contraction(Q).entries
        assert np.max(np.abs(cq - np.trace(cq) / (2 * d) * np.eye(2 * d))) < 1e-9
        # trace of the primitive curvature operator
        assert hat(rw0).trace == pytest.approx((d - 1) / (2 * d) * s, rel=1e-10)


def test_companion_tensor_space_form_degenerates():
    rw = space_form(2, -6.0)
    assert c0_constant(rw) == pytest.approx(0.0, abs=1e-12)
    Q = companion_tensor(rw)
    assert np.max(np.abs(Q.entries)) < 1e-12
    with pytest.raises(ValueError):
        c0_constant(space_form(2, 0.0))


def test_center_uniqueness_guard():
    # su(1,1) x su(1,1) style failures are not constructible through the
    # public families; instead check the guard by the error type exposure
    m = build_model("su_pq", (1, 1))
    assert m.xi_star.shape == (m.dim,)
    assert isinstance(ModelError("x"), ValueError)


def test_largest_supported_instance():
    # d = 10: the quadratic form lives on a 209-dimensional tensor space
    m = build_model("so_star_2p", (5,))
    assert m.d == 10
    rw = model_curvature(m)
    ref_c0, ref_kappa = closed_form_constants("so_star_2p", (5,))
    assert c0_prime(rw) == pytest.approx(ref_c0, rel=1e-10)
    assert kappa(rw) == pytest.approx(ref_kappa, rel=1e-10)


def test_nonpositive_sectional_sampling():
    from pherm import sample_curvatures

    rw = model_curvature(build_model("su_pq", (2, 1)))
    ranges = sample_curvatures(rw, n=200, seed=3)
    assert ranges["sectional"][1] <= 1e-10
    assert ranges["complex_sectional"][1] <= 1e-10


@pytest.mark.parametrize(
    "family, params",
    [("su_pq", (1, 1)), ("su_pq", (2, 1)), ("sp_p_R", (2,)), ("su_pq", (2, 2)), ("so_p_2", (4,))],
)
def test_model_curvature_matches_einsum_oracle(family, params):
    # half-dimensions 1, 2, 3, 4, 4
    m = build_model(family, params)
    want = model_curvature_einsum(m.p_frame, dense_structure(m.structure), m.killing)
    assert rel_err(model_curvature(m).entries, want) <= 1e-12


def _basis_of(family, params):
    """The family's (N, m, m) basis: its l matrices, then its p matrices."""
    l_mats, p_mats = liemodels._FAMILY_TABLE[family].basis(*params)
    return np.array(l_mats + p_mats, dtype=float)


# every family at its minimum parameters, then larger members
ORACLE_MODELS = [
    ("heisenberg", (1,)),
    ("su_pq", (1, 1)),
    ("sp_p_R", (1,)),
    ("so_p_2", (3,)),
    ("so_star_2p", (3,)),
    ("sp_p_R", (3,)),
    ("so_p_2", (8,)),
    ("su_pq", (4, 3)),
]


def test_oracle_models_cover_every_family():
    assert {f for f, _ in ORACLE_MODELS} == set(FAMILIES)


@pytest.mark.parametrize("family,params", ORACLE_MODELS)
def test_lie_model_matches_einsum_oracle(family, params):
    m = build_model(family, params)
    C, K = structure_constants_einsum(_basis_of(family, params))
    assert rel_err(dense_structure(m.structure), C) <= 1e-12
    assert rel_err(m.killing, K) <= 1e-12
    want = model_curvature_einsum(m.p_frame, C, K)
    assert rel_err(model_curvature(m).entries, want) <= 1e-12
    # xi_star spans the center of l: [z, l] = 0 ...
    L = m.l_dim
    z = m.xi_star[:L]
    assert np.max(np.abs(np.einsum("i,ijk->jk", z, C[:L, :L, :L]))) <= 1e-12
    # ... oriented so that its largest-magnitude entry is positive; where
    # several entries tie in magnitude (so*(2p), sp(p, R)) they share the sign
    top = np.abs(z) >= np.max(np.abs(z)) * (1 - 1e-12)
    assert np.all(z[top] > 0)
    if family in ("so_star_2p", "sp_p_R") and L > 1:
        assert np.count_nonzero(top) > 1


# the rows of the benchmark's table workload, d = 1 to 12
TABLE_ROWS = load_workloads().TABLE_MODELS


@pytest.mark.parametrize("family,params", TABLE_ROWS)
def test_structure_constants_are_exactly_antisymmetric(family, params):
    C = dense_structure(build_model(family, params).structure)
    assert np.array_equal(C, -np.einsum("ijk->jik", C))
    assert not np.any(np.einsum("iik->ik", C))


@pytest.mark.parametrize("family,params", TABLE_ROWS)
def test_lie_model_kernels_match_loop_oracles(family, params):
    m = build_model(family, params)
    C = dense_structure(m.structure)
    assert np.array_equal(C, np.rint(structure_constants_loops(_basis_of(family, params))))
    rw = model_curvature(m)
    assert rel_err(kappa(rw), kappa_dense(rw.entries)) <= 1e-12
    if m.flat:
        return
    L = m.l_dim
    G = m.killing[L:, L:]
    Jp = np.einsum("i,ikj->jk", m.xi_star, C)[L:, L:]  # ad(xi_star) on p
    assert rel_err(m.p_frame[:, L:], adapted_frame_loop(G, Jp, m.d)) <= 1e-12
    assert not np.any(m.p_frame[:, :L])


def test_brackets_that_do_not_close_raise(monkeypatch):
    fam = liemodels._FAMILY_TABLE["su_pq"]

    def dropped(p, q):
        l_mats, p_mats = fam.basis(p, q)
        return l_mats[1:], p_mats  # i(E_00 - E_11) lies in [p, p]

    monkeypatch.setitem(liemodels._FAMILY_TABLE, "su_pq", dataclasses.replace(fam, basis=dropped))
    with pytest.raises(ModelError, match=r"brackets do not close .*: max \|residual\| \S+ > 0e\+00"):
        build_model("su_pq", (2, 1))


def test_a_basis_with_non_integral_constants_raises(monkeypatch):
    # doubling one p element gives constants of +-0.5, which no rounding to integers rebuilds
    fam = liemodels._FAMILY_TABLE["su_pq"]

    def doubled(p, q):
        l_mats, p_mats = fam.basis(p, q)
        return l_mats, [2 * p_mats[0]] + p_mats[1:]

    monkeypatch.setitem(liemodels._FAMILY_TABLE, "su_pq", dataclasses.replace(fam, basis=doubled))
    with pytest.raises(ModelError, match=r"brackets do not close .*: max \|residual\| \S+ > 0e\+00$"):
        build_model("su_pq", (2, 1))


def _swap_l0_p0(l_mats, p_mats):
    return p_mats[:1] + l_mats[1:], l_mats[:1] + p_mats[1:]


def _shift_p_by_l0(l_mats, p_mats):
    return l_mats, p_mats[:2] + [m + l_mats[0] for m in p_mats[2:]]


def _p_a_commuting_copy_of_l(l_mats, p_mats):
    # l and a copy of it as p in two diagonal blocks: [p, p] lies in p
    Z = np.zeros_like(l_mats[0])
    return [np.block([[m, Z], [Z, Z]]) for m in l_mats], [np.block([[Z, Z], [Z, m]]) for m in l_mats]


# each message names the invariant, the measured value and the bound
@pytest.mark.parametrize(
    "change,message",
    [
        (_swap_l0_p0, r"\[l, l\] leaves l: max \|C\| 2\.0e\+00 > 0e\+00"),
        (_shift_p_by_l0, r"\[l, p\] leaves p: max \|C\| 2\.0e\+00 > 0e\+00"),
        (_p_a_commuting_copy_of_l, r"\[p, p\] leaves l: max \|C\| 2\.0e\+00 > 0e\+00"),
        (lambda l_mats, p_mats: (l_mats, p_mats[:-1]), r"odd horizontal dimension 3"),
        (
            lambda l_mats, p_mats: (l_mats, p_mats[:-2]),
            r"horizontal half-dimension 1 disagrees with the family table's 2",
        ),
    ],
)
def test_model_errors_carry_residual_and_bound(monkeypatch, change, message):
    fam = liemodels._FAMILY_TABLE["su_pq"]
    basis = dataclasses.replace(fam, basis=lambda p, q: change(*fam.basis(p, q)))
    monkeypatch.setitem(liemodels._FAMILY_TABLE, "su_pq", basis)
    with pytest.raises(ModelError, match=message):
        build_model("su_pq", (2, 1))


@pytest.mark.parametrize(
    "block,what",
    [((0, 1, -1), r"\[l, l\] leaves l"), ((0, -1, 0), r"\[l, p\] leaves p"), ((-2, -1, -1), r"\[p, p\] leaves l")],
)
def test_closure_gates_refuse_any_off_grade_constant(monkeypatch, block, what):
    # C is exact, so a constant of 1e-10 where the grading puts none is a bracket that does not close
    structure_constants = liemodels._structure_constants

    def perturbed(mats):
        C = dense_structure(structure_constants(mats))
        i, j, k = block
        C[i, j, k] += 1e-10
        C[j, i, k] -= 1e-10
        return structure_triples(C)

    monkeypatch.setattr(liemodels, "_structure_constants", perturbed)
    with pytest.raises(ModelError, match=rf"^{what}: max \|C\| 1\.0e-10 > 0e\+00$"):
        build_model("su_pq", (2, 1))


def test_killing_form_gate_carries_its_negative_bound(monkeypatch):
    killing_form = liemodels._killing_form
    monkeypatch.setattr(liemodels, "_killing_form", lambda C: -killing_form(C))
    with pytest.raises(
        ModelError, match=r"Killing form is not negative definite on l: max eigenvalue \S+ > -1e-09$"
    ):
        build_model("su_pq", (2, 1))


@pytest.mark.parametrize("bound", [1e-9, -1e-9])
def test_gate_passes_its_bound_and_raises_just_above_it(bound):
    liemodels._gate("residual", bound, bound)
    above = np.nextafter(bound, np.inf)
    with pytest.raises(ModelError, match=f"^residual {above:.1e} > {bound:.0e}$"):
        liemodels._gate("residual", above, bound)


def test_model_curvature_rejects_a_structure_that_breaks_jacobi():
    m = build_model("su_pq", (2, 1))
    C = dense_structure(m.structure)
    L = m.l_dim
    C[L, L + 1, 0] += 1e-6  # [p_0, p_1] moves along l_0; C stays antisymmetric
    C[L + 1, L, 0] -= 1e-6
    with pytest.raises(TagError):
        model_curvature(dataclasses.replace(m, structure=structure_triples(C)))


# so(16,2) raises ru_maxrss by about 12.6 MiB with one BLAS thread and 12.7 MiB with
# two, so the budget leaves 7 MiB of margin; the dense (N, N, N) C (N = 153, 27 MiB)
# took 69 and 70, and kernels that held all N^2 brackets of 18 x 18 took 263 and 315
BUILD_MEMORY_BUDGET_MIB = 20


def test_largest_model_builds_within_memory_budget():
    # ru_maxrss only grows, so the rise is measured in a fresh process
    code = (
        "import resource\n"
        "from pherm import build_model\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "build_model('so_p_2', (16,))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    src = str(Path(liemodels.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) / 1024 < BUILD_MEMORY_BUDGET_MIB  # ru_maxrss is in KiB on Linux


# the su(5,4) table row (n = 40) raises ru_maxrss by about 9 MiB with one BLAS
# thread, as it never forms the curvature grid, 40^4 doubles or 19.5 MiB; forming
# the grid made it 29.6, and full-size check transients on the grid made it 91
TABLE_ROW_MEMORY_BUDGET_MIB = 20


def test_largest_table_row_runs_within_memory_budget():
    code = (
        "import contextlib, io, resource\n"
        "import pherm.cli\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = pherm.cli.main(['table', '--family', 'su_pq', '--params', '5,4'])\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    src = str(Path(liemodels.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    code, rise = map(int, res.stdout.split())
    assert code == 0
    assert rise / 1024 < TABLE_ROW_MEMORY_BUDGET_MIB  # ru_maxrss is in KiB on Linux


# table rows and the larger rows whose curvature the factor proof must accept
PROVEN_ROWS = list(TABLE_ROWS) + [
    ("su_pq", (4, 4)),
    ("so_star_2p", (6,)),
    ("so_p_2", (16,)),
    ("su_pq", (5, 4)),
]


@pytest.mark.parametrize("family,params", PROVEN_ROWS)
def test_factor_proven_curvature_passes_the_dense_check(family, params):
    rw = model_curvature(build_model(family, params))
    assert rw.tags == spaces.KAHLER_TAGS
    spaces._check_curv4(rw.space, rw.entries, spaces.KAHLER_TAGS, spaces.TOL)  # raises on a failure


@pytest.mark.parametrize("family,params", TABLE_ROWS)
def test_model_curvature_never_runs_the_dense_check(monkeypatch, family, params):
    m = build_model(family, params)

    def dense(*args):
        raise AssertionError("model_curvature ran the dense Curv4 check")

    monkeypatch.setattr(spaces, "_check_curv4", dense)
    rw = model_curvature(m)
    assert isinstance(rw, Curv4) and rw.tags == spaces.KAHLER_TAGS


def _break_frame_j(m, eps, rng):
    """Move the Je rows of the frame, so that they are no longer J of the e rows."""
    f = m.p_frame.copy()
    L = m.l_dim
    f[m.d :, L:] += eps * np.max(np.abs(f)) * rng.standard_normal((m.d, m.dim - L))
    return dataclasses.replace(m, p_frame=f)


def _killing_plus(m, eps, rng, sign):
    """K[l, l] plus eps * max |K[l, l]| * (A + sign A^T) for a Gaussian A."""
    K = m.killing.copy()
    L = m.l_dim
    A = rng.standard_normal((L, L))
    K[:L, :L] += eps * np.max(np.abs(K[:L, :L])) * (A + sign * A.T)
    return dataclasses.replace(m, killing=K)


def _break_structure_antisymmetry(m, eps, rng):
    C = dense_structure(m.structure)
    L = m.l_dim
    block = C[L:, L:, :L]
    block += eps * np.max(np.abs(block)) * rng.standard_normal(block.shape)
    return dataclasses.replace(m, structure=structure_triples(C))


def _nan_in_killing(m, eps, rng):
    K = m.killing.copy()
    K[0, 0] = np.nan
    return dataclasses.replace(m, killing=K)


# each breaks one input of the factor; the dense check sees the grid formed from it
FACTOR_BREAKS = {
    "frame_breaks_j": _break_frame_j,
    "killing_plus_antisymmetric": lambda m, eps, rng: _killing_plus(m, eps, rng, -1),
    "killing_plus_symmetric_non_invariant": lambda m, eps, rng: _killing_plus(m, eps, rng, +1),
    "structure_not_antisymmetric": _break_structure_antisymmetry,
    "nan_in_killing": _nan_in_killing,
}


@pytest.mark.parametrize("family,params", [("su_pq", (3, 2)), ("sp_p_R", (3,)), ("so_star_2p", (4,))])
@pytest.mark.parametrize("eps", [1e-6, 1e-8])
@pytest.mark.parametrize("name", sorted(FACTOR_BREAKS))
def test_factor_proof_raises_what_the_dense_check_raises(monkeypatch, name, eps, family, params):
    m = FACTOR_BREAKS[name](build_model(family, params), eps, np.random.default_rng(7))
    grid = model_curvature_einsum(m.p_frame, dense_structure(m.structure), m.killing)
    space = make_space(m.d)
    with pytest.raises(ValueError) as dense:  # TagError is a ValueError
        Curv4(space, grid, spaces.KAHLER_TAGS)
    with pytest.raises(ValueError) as factor:
        model_curvature(m)
    assert (type(factor.value), str(factor.value)) == (type(dense.value), str(dense.value))
    # the tags are checked in `CURV4_TAGS` order, whatever order they come in: try every order
    for order in itertools.permutations(sorted(spaces.KAHLER_TAGS)):
        with pytest.raises(ValueError) as dense:
            spaces._check_curv4(space, grid, order, spaces.TOL)
        monkeypatch.setattr(liemodels, "KAHLER_TAGS", order)
        with pytest.raises(ValueError) as factor:
            model_curvature(m)
        assert (type(factor.value), str(factor.value)) == (type(dense.value), str(dense.value)), order


def _raises_the_grid_checks_bianchi_error(m):
    """The factor proof, on both of its paths, and the dense check on the formed grid all
    refuse the model's curvature for its first Bianchi identity."""
    grid = model_curvature_einsum(m.p_frame, dense_structure(m.structure), m.killing)
    message = "declared tag 'bianchi_closed' fails its projector check"
    with pytest.raises(TagError, match=f"^{message}$"):
        Curv4(make_space(m.d), grid, spaces.KAHLER_TAGS)
    for path in (model_curvature, model_constants):
        with pytest.raises(TagError, match=f"^{message}$"):
            path(m)


# two l-slices of C[p, p, l] whose exchange breaks Jacobi and the grid's Bianchi identity;
# C stays integral, antisymmetric and J-invariant, as each slice is
JACOBI_BREAKS = [
    ("su_pq", (2, 1), 0, 2),
    ("su_pq", (3, 2), 0, 1),
    ("sp_p_R", (3,), 0, 3),
    ("so_star_2p", (4,), 0, 4),
]


@pytest.mark.parametrize("budget", [None, 0])
@pytest.mark.parametrize("family,params,l1,l2", JACOBI_BREAKS)
def test_an_integer_edit_that_breaks_jacobi_fails_the_certificate(monkeypatch, family, params, l1, l2, budget):
    if budget is not None:  # one q and one l row per block
        monkeypatch.setattr(spaces, "_BLOCK_BYTES", budget)
    m = build_model(family, params)
    C = dense_structure(m.structure)
    L = m.l_dim
    block = C[L:, L:, :L]
    block[:, :, [l1, l2]] = block[:, :, [l2, l1]]
    edited = dataclasses.replace(m, structure=structure_triples(C))
    assert liemodels._bianchi_certificate(m) and not liemodels._bianchi_certificate(edited)
    _raises_the_grid_checks_bianchi_error(edited)


def test_the_certificate_checks_jacobi_at_each_q_apart():
    # one l, K = Id and C[p, p, l] = C[l, p, p] = a, the 5-cycle 2-form: K is ad-invariant and
    # J(a, b, c, q) = a_ab a_cq + a_ca a_bq + a_bc a_aq is not 0 (a has rank 4), but a's rows
    # sum to 0, so the sums of J over q all are; the certificate must not add across q
    n = 5
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n], a[(i + 1) % n, i] = 1.0, -1.0
    C = np.zeros((n + 1,) * 3)
    C[1:, 1:, 0], C[0, 1:, 1:], C[1:, 0, 1:] = a, a, -a
    model = SimpleNamespace(l_dim=1, structure=structure_triples(C), killing=np.eye(n + 1))
    assert not liemodels._bianchi_certificate(model)
    model.structure = structure_triples(np.zeros_like(C))
    assert liemodels._bianchi_certificate(model)


@pytest.mark.parametrize("budget", [None, 0])
def test_an_edit_that_breaks_only_jacobi_fails_the_certificate(monkeypatch, budget):
    # su(3,2)'s K[p, p] is 20 Id, so C[l, p, p] = K[l, l] C[p, p, l]^T / 20 keeps K
    # ad-invariant, in integers, after the exchange: only Jacobi fails
    if budget is not None:
        monkeypatch.setattr(spaces, "_BLOCK_BYTES", budget)
    m = build_model("su_pq", (3, 2))
    C = dense_structure(m.structure)
    L = m.l_dim
    C[L:, L:, [0, 1]] = C[L:, L:, [1, 0]]
    K = m.killing
    assert np.array_equal(K[L:, L:], 20.0 * np.eye(m.dim - L))
    C[:L, L:, L:] = np.einsum("lm,zwm->lzw", K[:L, :L], C[L:, L:, :L]) / 20.0
    C[L:, :L, L:] = -np.einsum("lzw->zlw", C[:L, L:, L:])
    assert np.array_equal(C, np.rint(C))
    edited = dataclasses.replace(m, structure=structure_triples(C))
    _raises_the_grid_checks_bianchi_error(edited)


@pytest.mark.parametrize("budget", [None, 0])
@pytest.mark.parametrize("family,params", [row[:2] for row in JACOBI_BREAKS])
def test_an_integer_edit_of_killing_that_breaks_invariance_fails_the_certificate(monkeypatch, family, params, budget):
    if budget is not None:
        monkeypatch.setattr(spaces, "_BLOCK_BYTES", budget)
    m = build_model(family, params)
    K = m.killing.copy()
    K[0, 1] += 1.0  # symmetric, on K[l, l]
    K[1, 0] += 1.0
    edited = dataclasses.replace(m, killing=K)
    assert not liemodels._bianchi_certificate(edited)
    _raises_the_grid_checks_bianchi_error(edited)


def test_the_certificate_is_sufficient_not_necessary():
    # at su(2,1) K[l, l] treats l_0 and l_1 alike, so exchanging their slices leaves R,
    # and its Bianchi identity, as they were; C no longer satisfies Jacobi, and the
    # factor proof refuses what the grid check passes: stricter, never looser
    m = build_model("su_pq", (2, 1))
    C = dense_structure(m.structure)
    L = m.l_dim
    C[L:, L:, [0, 1]] = C[L:, L:, [1, 0]]
    edited = dataclasses.replace(m, structure=structure_triples(C))
    Curv4(make_space(m.d), model_curvature_einsum(edited.p_frame, C, m.killing), spaces.KAHLER_TAGS)
    with pytest.raises(TagError, match="bianchi_closed"):
        model_curvature(edited)


@pytest.mark.parametrize("family,params", PROVEN_ROWS)
def test_bianchi_bound_covers_the_formed_grid_and_is_far_below_tol(family, params):
    m = build_model(family, params)
    rw = model_curvature(m)
    L, n = m.l_dim, rw.space.n
    frame = m.p_frame[:, L:].T
    F = spaces.slot_contract(dense_structure(m.structure)[L:, L:, :L], frame, frame).reshape(n * n, L)
    K = m.killing[:L, :L]
    k = max(np.max(np.sum(np.abs(K), axis=0)), np.max(np.sum(np.abs(K), axis=1)))
    bound = liemodels._bianchi_bound(m, np.max(np.sum(np.abs(F), axis=1)), k, np.max(np.abs(F)))
    assert np.max(np.abs(spaces.bianchi_grid(rw.entries))) <= bound <= 1e-3 * spaces.TOL


@pytest.mark.parametrize("family,params", list(TABLE_ROWS) + [("su_pq", (5, 4))])
def test_model_constants_match_the_grid_reductions(family, params):
    m = build_model(family, params)
    s, c0, kap = model_constants(m)
    rw = model_curvature(m)
    if m.flat:
        assert (s, c0, kap) == (0.0, None, 0.0) and scalar_curvature(rw) == 0.0 and kappa(rw) == 0.0
        return
    for got, want in ((s, scalar_curvature(rw)), (c0, c0_prime(rw)), (kap, kappa(rw))):
        assert abs(got - want) <= 1e-12 * abs(want)
    assert abs(kap - kappa_four_gathers(rw.entries)) <= 1e-12 * abs(kap)


@pytest.mark.parametrize("family,params", [("heisenberg", (2,)), ("su_pq", (3, 2))])
def test_model_constants_prove_the_factor_once_and_form_no_grid(monkeypatch, family, params):
    calls, prove = [], liemodels._prove_kahler_factor
    monkeypatch.setattr(liemodels, "_prove_kahler_factor", lambda *a: calls.append(a) or prove(*a))
    form = liemodels._proven_curv4

    def formed(*args):
        raise AssertionError("model_constants formed the curvature grid")

    monkeypatch.setattr(liemodels, "_proven_curv4", formed)
    m = build_model(family, params)
    model_constants(m)
    assert len(calls) == 1
    monkeypatch.setattr(liemodels, "_proven_curv4", form)
    model_curvature(m)  # from the same proven factor
    assert len(calls) == 1


@pytest.mark.parametrize("family,params", TABLE_ROWS)
def test_kappa_matches_the_four_gather_oracle_on_table_rows(family, params):
    rw = model_curvature(build_model(family, params))
    assert abs(kappa(rw) - kappa_four_gathers(rw.entries)) <= 1e-14


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "tags", [{"pair_symmetric"}, {"pair_symmetric", "bianchi_closed"}, set(spaces.KAHLER_TAGS)]
)
def test_kappa_matches_the_four_gather_oracle_on_random_draws(d, tags):
    for seed in range(3):
        rw = random_curv4(make_space(d), tags, seed)
        scale = np.max(np.abs(rw.entries))
        assert abs(kappa(rw) - kappa_four_gathers(rw.entries)) <= 1e-12 * scale


# the curved table rows and five larger rows of four families, up to d = 16
PINNED_ROWS = [row for row in TABLE_ROWS if row[0] != "heisenberg"] + [
    ("su_pq", (4, 4)),
    ("su_pq", (5, 3)),
    ("so_star_2p", (6,)),
    ("so_p_2", (16,)),
    ("sp_p_R", (5,)),
]


@pytest.mark.parametrize("family,params", PINNED_ROWS)
def test_kappa_is_pinned_within_five_lanczos_steps(family, params):
    rw = model_curvature(build_model(family, params))
    value, steps = liemodels._kappa_lanczos(rw.entries)
    assert kappa(rw) == value
    ref = closed_form_constants(family, params)[1]
    assert abs(value - ref) <= 1e-13 * abs(ref)
    dense = kappa_dense(rw.entries)
    assert abs(value - dense) <= 1e-12 * abs(dense)
    assert steps <= 5


@pytest.mark.parametrize("t", [1e-14, 1e14])
def test_kappa_is_scale_covariant_at_any_scale(t):
    # Lanczos stops relative to its own coefficients, so a tiny grid is not cut short
    for seed in range(3):
        rw = random_curv4(make_space(3), {"pair_symmetric"}, seed)
        scaled = Curv4(rw.space, t * rw.entries, rw.tags)
        want = t * kappa(rw)
        assert abs(kappa(scaled) - want) <= 1e-12 * abs(want)


def _structure_of(family, params):
    return liemodels._structure_constants(_basis_of(family, params))


@pytest.mark.parametrize("family,params", list(TABLE_ROWS) + [("so_p_2", (16,))])
def test_killing_form_matches_the_einsum_oracle(family, params):
    C = _structure_of(family, params)
    K = liemodels._killing_form(C)
    assert np.array_equal(K, killing_form_einsum(dense_structure(C)))


@pytest.mark.parametrize("family,params", list(TABLE_ROWS) + [("su_pq", (5, 4))])
def test_structure_constants_and_killing_form_are_exact_integers(family, params):
    m = build_model(family, params)
    C, K = m.structure.v, m.killing
    assert np.array_equal(C, np.rint(C)) and np.array_equal(K, np.rint(K))
    assert np.array_equal(K, K.T)


def test_killing_form_of_so16_2_stays_within_the_block_budget():
    # N = 153: the join of C's 4,896 entries holds 0.51 MiB beside K (the transposed copy
    # of a dense C that an einsum takes is 27 MiB)
    C = _structure_of("so_p_2", (16,))
    tracemalloc.start()
    try:
        K = liemodels._killing_form(C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - K.nbytes <= 2**20


# rows larger than the table's: N = 153 brackets of 18 x 18 matrices, N = 80 of 18 x 18,
# N = 66 of 24 x 24 and N = 168 of 26 x 26
@pytest.mark.parametrize(
    "family,params", [("so_p_2", (16,)), ("su_pq", (5, 4)), ("so_star_2p", (6,)), ("su_pq", (8, 5))]
)
def test_structure_constants_of_large_rows_match_the_loop_oracle(family, params):
    mats = _basis_of(family, params)
    C = dense_structure(liemodels._structure_constants(mats))
    assert np.array_equal(C, np.rint(structure_constants_loops(mats)))


@st.composite
def small_members(draw):
    """A family with a matrix model and small parameters, at most three above its minimum."""
    family = draw(st.sampled_from(FAMILIES))
    fam = liemodels._FAMILY_TABLE[family]
    return family, tuple(draw(st.integers(fam.min_param, fam.min_param + 3)) for _ in fam.param_names)


@given(member=small_members())
def test_structure_triples_match_the_loop_and_dense_oracles(member):
    mats = _basis_of(*member)
    C = liemodels._structure_constants(mats)
    key = (C.i * C.dim + C.j) * C.dim + C.k
    assert np.all(np.diff(key) > 0) and np.all(C.v)  # distinct nonzeros, in (i, j, k) order
    dense = dense_structure(C)
    assert np.array_equal(dense, np.rint(structure_constants_loops(mats)))
    assert np.array_equal(dense, structure_constants_dense(mats))  # the pseudo-inverse path's C


@pytest.mark.parametrize("family,params", TABLE_ROWS)
def test_structure_triples_equal_the_dense_path_on_table_rows(family, params):
    m = build_model(family, params)
    C = dense_structure(m.structure)
    assert np.array_equal(C, structure_constants_dense(_basis_of(family, params)))
    assert np.array_equal(m.killing, killing_form_einsum(C))


def _structure_peak(family, params):
    """The tracemalloc peak of building the row's structure-constant triples, in bytes."""
    mats = _basis_of(family, params)
    tracemalloc.start()
    try:
        liemodels._structure_constants(mats)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_structure_constants_of_so16_2_stay_within_a_few_rows():
    # the joins of the sparse basis peak at 1.52 MiB, C's triples included; the dense
    # C alone was 27 MiB, and its row-by-row build held 2.1 MiB beside it
    assert _structure_peak("so_p_2", (16,)) <= 2 * 2**20


def test_structure_constants_of_su10_8_hold_no_dense_array():
    # N = 323 elements of 36 x 36: the triples' build peaks at 11.9 MiB, where the
    # dense C is 270 MB
    assert _structure_peak("su_pq", (10, 8)) <= 16 * 2**20
