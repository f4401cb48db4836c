import dataclasses
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

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
    holonomy_commutant_dim,
    kappa,
    companion_tensor,
    make_space,
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
    holonomy_commutant_kron,
    kappa_dense,
    kappa_four_gathers,
    killing_form_einsum,
    model_curvature_einsum,
    rel_err,
    structure_constants_einsum,
    structure_constants_loops,
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
    ads = np.einsum("ijk->ikj", m.structure)
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


def test_closed_form_constants_arguments():
    # out-of-scope rows ignore their parameters
    assert closed_form_constants("e6_spin10", (1,)) == (3.0 / 16.0, -1.0 / 12.0)
    assert closed_form_constants("e7_e6", ()) == (29.0 / 162.0, -1.0 / 18.0)
    for family, params in [("su_pq", (2,)), ("so_star_2p", (1,)), ("heisenberg", (3,)), ("mystery", ())]:
        with pytest.raises(ValueError):
            closed_form_constants(family, params)


def test_heisenberg_flat():
    m = build_model("heisenberg", (3,))
    assert m.flat
    rw = model_curvature(m)
    assert np.max(np.abs(rw.entries)) == 0.0
    assert kappa(rw) == 0.0
    with pytest.raises(ValueError):
        c0_prime(rw)


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
    scaled = model_curvature(build_model("su_pq", (2, 1), metric_scale=lam))
    assert c0_prime(scaled) == pytest.approx(c0_prime(base) / lam, rel=1e-10)
    assert kappa(scaled) == pytest.approx(kappa(base) / lam, rel=1e-10)
    ratio = c0_prime(base) / kappa(base)
    assert c0_prime(scaled) / kappa(scaled) == pytest.approx(ratio, rel=1e-10)


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -1.0])
def test_build_model_rejects_a_metric_scale_that_is_not_positive_and_finite(scale):
    with pytest.raises(ValueError, match="metric_scale must be positive"):
        build_model("su_pq", (2, 1), metric_scale=scale)


@pytest.mark.parametrize(
    "family,params",
    [("su_pq", (2, 1)), ("sp_p_R", (2,)), ("so_p_2", (3,)), ("so_star_2p", (3,))],
)
def test_holonomy_commutant_is_id_and_j(family, params):
    rw = model_curvature(build_model(family, params))
    assert holonomy_commutant_dim(rw) == 2


_SU32 = model_curvature(build_model("su_pq", (3, 2)))  # n = 12


def _su32_plus_jminus(eps):
    return Curv4(_SU32.space, _SU32.entries + eps * random_curv4(_SU32.space, {"j_minus"}, 0).entries)


def _holonomy_cases():
    for d in (2, 3):
        space = make_space(d)
        yield f"space_form_{d}", space_form(d, -3.0)
        yield f"kahler_{d}", random_curv4(space, {"pair_symmetric", "bianchi_closed", "j_plus"}, 1)
        yield f"pair_symmetric_{d}", random_curv4(space, {"pair_symmetric"}, 2)
        yield f"j_minus_{d}", random_curv4(space, {"j_minus"}, 3)
    yield "zero", Curv4(make_space(2), np.zeros((4,) * 4))
    yield "heisenberg", model_curvature(build_model("heisenberg", (2,)))
    yield "su32", _SU32
    for k in range(2, 8):
        yield f"su32_plus_1e-{k}_j_minus", _su32_plus_jminus(10.0**-k)


_HOLONOMY_CASES = dict(_holonomy_cases())


@pytest.mark.parametrize("name", list(_HOLONOMY_CASES))
def test_holonomy_commutant_matches_the_stacked_kronecker_oracle(name):
    rw = _HOLONOMY_CASES[name]
    assert holonomy_commutant_dim(rw) == holonomy_commutant_kron(rw.entries)


def test_holonomy_commutant_counts_cover_one_to_n_squared():
    counts = {holonomy_commutant_dim(rw) for rw in _HOLONOMY_CASES.values()}
    assert {1, 2, 4, 16} <= counts


@pytest.mark.parametrize("scale", [1e-12, 1e6])
def test_holonomy_commutant_is_scale_invariant(scale):
    # an absolute floor on the singular values read 1e-12 * R(su(3,2)) as flat (n^2 = 144)
    assert holonomy_commutant_dim(Curv4(_SU32.space, scale * _SU32.entries)) == 2


def test_holonomy_commutant_sees_a_small_j_minus_perturbation():
    # the j_minus draw anticommutes with J, so only the identity survives
    assert holonomy_commutant_dim(_su32_plus_jminus(1e-6)) == 1


def test_holonomy_commutant_needs_no_stacked_system(monkeypatch):
    rw = model_curvature(build_model("so_star_2p", (6,)))  # n = 30
    monkeypatch.setattr(liemodels.np, "kron", None)
    assert holonomy_commutant_dim(rw) == 2


# su(5,4) (n = 40, a 20 MiB curvature grid) raises ru_maxrss by about 55 MiB with
# one or two BLAS threads: the 20 MiB n^2 x n^2 Gram and one copy of it at a time
# (the reshuffle, then eigvalsh's), plus BLAS buffers
HOLONOMY_MEMORY_BUDGET_MIB = 64


def test_holonomy_commutant_of_su54_within_memory_budget():
    code = (
        "import resource\n"
        "from pherm import build_model, holonomy_commutant_dim, model_curvature\n"
        "rw = model_curvature(build_model('su_pq', (5, 4)))\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "dim = holonomy_commutant_dim(rw)\n"
        "print(dim, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    src = str(Path(liemodels.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    dim, rise = map(int, res.stdout.split())
    assert dim == 2
    assert rise / 1024 < HOLONOMY_MEMORY_BUDGET_MIB  # ru_maxrss is in KiB on Linux


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
    for scale in (1.0, 2.5):
        m = build_model(family, params, metric_scale=scale)
        want = model_curvature_einsum(m.p_frame, m.structure, m.killing, m.metric_scale)
        assert rel_err(model_curvature(m).entries, want) <= 1e-12


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
    C, K = structure_constants_einsum(m.basis)
    assert rel_err(m.structure, C) <= 1e-12
    assert rel_err(m.killing, K) <= 1e-12
    want = model_curvature_einsum(m.p_frame, C, K, m.metric_scale)
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
    C = build_model(family, params).structure
    assert np.array_equal(C, -np.einsum("ijk->jik", C))
    assert not np.any(np.einsum("iik->ik", C))


@pytest.mark.parametrize("family,params", TABLE_ROWS)
def test_lie_model_kernels_match_loop_oracles(family, params):
    m = build_model(family, params)
    assert rel_err(m.structure, structure_constants_loops(m.basis)) <= 1e-12
    rw = model_curvature(m)
    assert rel_err(kappa(rw), kappa_dense(rw.entries)) <= 1e-12
    if m.flat:
        return
    L = m.l_dim
    G = m.metric_scale * m.killing[L:, L:]
    Jp = np.einsum("i,ikj->jk", m.xi_star, m.structure)[L:, L:]  # ad(xi_star) on p
    assert rel_err(m.p_frame[:, L:], adapted_frame_loop(G, Jp, m.d)) <= 1e-12
    assert not np.any(m.p_frame[:, :L])


def test_brackets_that_do_not_close_raise(monkeypatch):
    fam = liemodels._FAMILY_TABLE["su_pq"]

    def dropped(p, q):
        l_mats, p_mats = fam.basis(p, q)
        return l_mats[1:], p_mats  # i(E_00 - E_11) lies in [p, p]

    monkeypatch.setitem(liemodels._FAMILY_TABLE, "su_pq", dataclasses.replace(fam, basis=dropped))
    with pytest.raises(ModelError, match=r"brackets do not close .*: max \|residual\| \S+ > 1e-09"):
        build_model("su_pq", (2, 1))


def _swap_l0_p0(l_mats, p_mats):
    return p_mats[:1] + l_mats[1:], l_mats[:1] + p_mats[1:]


def _shift_p_by_l0(l_mats, p_mats):
    return l_mats, p_mats[:2] + [m + l_mats[0] for m in p_mats[2:]]


# each message names the invariant, the measured value and the bound
@pytest.mark.parametrize(
    "change,message",
    [
        (_swap_l0_p0, r"\[l, l\] leaves l: max \|C\| 2\.0e\+00 > 1e-09"),
        (_shift_p_by_l0, r"\[l, p\] leaves p: max \|C\| 2\.0e\+00 > 1e-09"),
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


def test_model_curvature_rejects_a_structure_that_breaks_jacobi():
    m = build_model("su_pq", (2, 1))
    C = m.structure.copy()
    L = m.l_dim
    C[L, L + 1, 0] += 1e-6  # [p_0, p_1] moves along l_0; C stays antisymmetric
    C[L + 1, L, 0] -= 1e-6
    with pytest.raises(TagError):
        model_curvature(dataclasses.replace(m, structure=C))


# so(16,2) raises ru_maxrss by about 69 MiB with one BLAS thread and 70 MiB with
# two (83 and 84 when the Killing form took a transposed copy of all of C); kernels
# that held all N^2 brackets (N = 153, 18 x 18) took 263 and 315
BUILD_MEMORY_BUDGET_MIB = 180


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


# the su(5,4) table row (n = 40, a 20 MiB curvature grid) raises ru_maxrss by
# about 48 MiB with one BLAS thread; full-size check transients made it 91
TABLE_ROW_MEMORY_BUDGET_MIB = 70


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
    C = m.structure.copy()
    L = m.l_dim
    block = C[L:, L:, :L]
    block += eps * np.max(np.abs(block)) * rng.standard_normal(block.shape)
    return dataclasses.replace(m, structure=C)


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
    grid = model_curvature_einsum(m.p_frame, m.structure, m.killing, m.metric_scale)
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


@pytest.mark.parametrize("family,params", TABLE_ROWS)
def test_kappa_two_gathers_match_the_four_gather_oracle(family, params):
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


def _structure_of(family, params):
    l_mats, p_mats = liemodels._FAMILY_TABLE[family].basis(*params)
    return liemodels._structure_constants(np.array(l_mats + p_mats, dtype=float))


@pytest.mark.parametrize("family,params", list(TABLE_ROWS) + [("so_p_2", (16,))])
def test_killing_form_matches_the_einsum_oracle(family, params):
    C = _structure_of(family, params)
    K = liemodels._killing_form(C)
    want = killing_form_einsum(C)
    assert np.max(np.abs(K - want)) <= 1e-15 * np.max(np.abs(want))


def test_killing_form_does_not_depend_on_the_runs(monkeypatch):
    C = _structure_of("su_pq", (4, 3))  # N = 48: one run of the default budget
    default = liemodels._killing_form(C)
    monkeypatch.setattr(spaces, "_BLOCK_BYTES", 0)  # one a per run
    assert np.max(np.abs(liemodels._killing_form(C) - default)) <= 1e-15 * np.max(np.abs(default))


def test_killing_form_of_so16_2_stays_within_the_block_budget():
    # N = 153: the transposed copy of all of C that an einsum takes is 27 MiB
    C = _structure_of("so_p_2", (16,))
    tracemalloc.start()
    try:
        K = liemodels._killing_form(C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - K.nbytes <= 2 * 2**20


# rows larger than the table's: N = 153 brackets of 18 x 18 matrices, N = 80 of 18 x 18
@pytest.mark.parametrize("family,params", [("so_p_2", (16,)), ("su_pq", (5, 4))])
def test_structure_constants_of_large_rows_match_the_loop_oracle(family, params):
    l_mats, p_mats = liemodels._FAMILY_TABLE[family].basis(*params)
    mats = np.array(l_mats + p_mats, dtype=float)
    assert rel_err(liemodels._structure_constants(mats), structure_constants_loops(mats)) <= 1e-12


def test_structure_constants_of_so16_2_stay_within_a_few_rows():
    # one bracket row at a time: beside C it holds a row's brackets, coordinates and
    # residual and the pseudo-inverse, 2.1 MiB (packed runs of rows held 5.4 MiB)
    l_mats, p_mats = liemodels._FAMILY_TABLE["so_p_2"].basis(16)
    mats = np.array(l_mats + p_mats, dtype=float)
    tracemalloc.start()
    try:
        C = liemodels._structure_constants(mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - C.nbytes <= 3 * 2**20
