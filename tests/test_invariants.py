import importlib

import numpy as np
import pytest
from hypothesis import assume, event, given, strategies as st
from hypothesis.extra.numpy import arrays

from pherm import (
    build_model,
    canonical_tensors,
    complex_sectional,
    first_bianchi_residual,
    full_curvature,
    fundamental_form,
    hat,
    kulkarni,
    make_space,
    metric_form,
    model_curvature,
    norm2,
    random_curv4,
    sample_curvatures,
    scalar_product,
    space_form,
    sym_product,
    torsion_curvature,
)
import pherm
from pherm.invariants import invariants, torsion_minus_part
from pherm.spaces import KAHLER_TAGS, TOL, Curv4, antisym_pairs_grid, kulkarni_grid

from oracles import (
    complex_pairing_einsum,
    complex_sectional_einsum,
    rel_err,
    sample_curvatures_loop,
    sectional_einsum,
)


def _starred_wedge(u, v):
    """(u* ^ v*)(Z) = g(u, Z) v - g(v, Z) u as an endomorphism grid."""
    return np.outer(v, u) - np.outer(u, v)


def starred_wedge_minus_oracle(sp):
    """Loop-built J-anti-invariant curvature part from the torsion frame
    forms; independent of the Kulkarni-product assembly."""
    n = sp.n
    out = np.zeros((n, n, n, n))
    for x in range(n):
        X = np.eye(n)[x]
        for y in range(n):
            Y = np.eye(n)[y]
            endo = -0.5 * (
                _starred_wedge(sp.tau @ X, sp.J @ Y)
                - _starred_wedge(sp.tau @ Y, sp.J @ X)
                - _starred_wedge(sp.J @ sp.tau @ X, Y)
                + _starred_wedge(sp.J @ sp.tau @ Y, X)
            )
            for z in range(n):
                out[x, y, z, :] = endo @ np.eye(n)[z]
    return out


def test_minus_part_matches_frame_form_construction():
    for d in (2, 3):
        sp = make_space(d, with_torsion=True)
        assert np.max(np.abs(torsion_minus_part(sp) - starred_wedge_minus_oracle(sp))) < 1e-12


def test_minus_part_tau_anticommutation():
    sp = make_space(2, with_torsion=True)
    mn = torsion_minus_part(sp)
    left = np.einsum("ax,abzw->xbzw", sp.tau, mn)
    right = np.einsum("by,abzw->ayzw", sp.tau, mn)
    assert np.max(np.abs(left + right)) < 1e-12


def test_space_form_zero_and_scaling():
    assert np.max(np.abs(space_form(2, 0.0).entries)) == 0.0
    rw = space_form(2, -6.0)
    rep = invariants(rw)
    assert rep.scalar == pytest.approx(-6.0, abs=1e-12)
    assert rep.cm_norm2 == pytest.approx(0.0, abs=1e-15)
    assert rep.pseudo_einstein
    assert np.allclose(rep.ric.entries, -1.5 * np.eye(4), atol=1e-12)
    assert np.allclose(rep.rho.entries, 1.5 * rw.space.omega, atol=1e-12)


def test_space_form_constant_holomorphic_curvature():
    # oracle: <Ic^(X^JX), X^JX> = |X|^4 by brute-force expansion
    sp = make_space(2)
    ic = canonical_tensors(sp).Ic
    rng = np.random.default_rng(5)
    for _ in range(10):
        X = rng.standard_normal(4)
        JX = sp.J @ X
        num = np.einsum("abcd,a,b,c,d->", ic.entries, X, JX, X, JX)
        assert num == pytest.approx(float(X @ X) ** 2, rel=1e-12)
    rw = space_form(2, -6.0)
    for _ in range(10):
        X = rng.standard_normal(4)
        assert complex_sectional(rw, X, rw.space.J @ X) == pytest.approx(-1.0, abs=1e-12)


def test_invariants_of_zero():
    sp = make_space(2)
    zero = Curv4(
        sp,
        np.zeros((4, 4, 4, 4)),
        frozenset({"pair_symmetric", "bianchi_closed", "j_plus"}),
    )
    rep = invariants(zero)
    assert rep.scalar == 0.0
    assert rep.cm_norm2 == 0.0
    assert rep.pseudo_einstein


def test_invariants_requires_tags_and_dimension():
    sp = make_space(2)
    q = random_curv4(sp, {"pair_symmetric"}, seed=0)
    with pytest.raises(ValueError):
        invariants(q)
    with pytest.raises(ValueError):
        invariants(space_form(1, -1.0))


@pytest.mark.parametrize("d", [2, 3])
def test_decomposition_reconstructs_random_admissible(d):
    sp = make_space(d)
    g, w = metric_form(sp), fundamental_form(sp)
    for seed in range(5):
        rw = random_curv4(sp, {"pair_symmetric", "bianchi_closed", "j_plus"}, seed=seed)
        rep = invariants(rw)
        scalar_piece = rep.scalar / (d * (d + 1)) * canonical_tensors(sp).Ic.entries
        ricci_piece = (
            0.5 * (kulkarni_grid(rep.ric0.entries, sp.g) - kulkarni_grid(rep.rho0.entries, sp.omega))
            - sym_product(rep.rho0, w)
        ) / (d + 2)
        recon = scalar_piece + ricci_piece + rep.cm.entries
        assert np.max(np.abs(recon - rw.entries)) < 1e-9
        # remainder orthogonality
        assert scalar_product(rep.cm, canonical_tensors(sp).Ic) == pytest.approx(0.0, abs=1e-9)
        r0g = kulkarni(rep.ric0, g)
        assert scalar_product(rep.cm, r0g) == pytest.approx(0.0, abs=1e-9)


def _orthogonal_split_residual(rw: Curv4) -> float:
    """|CM|^2 against |R|^2 - s^2/(4d(d+1)) - |Ric_0|^2/(d+2), relative to max(1, |R|^2)."""
    d = rw.space.d
    rep = invariants(rw)
    r2 = norm2(rw)
    want = r2 - rep.scalar**2 / (4 * d * (d + 1)) - np.sum(rep.ric0.entries**2) / (d + 2)
    return abs(norm2(rep.cm) - want) / max(1.0, r2)


@pytest.mark.parametrize("torsion", [False, True])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_trace_decomposition_is_orthogonal_in_norm(d, torsion):
    sp = make_space(d, with_torsion=torsion)
    for seed in range(3):
        assert _orthogonal_split_residual(random_curv4(sp, KAHLER_TAGS, seed=seed)) <= 1e-12


@pytest.mark.parametrize(
    "family,params",
    [
        ("su_pq", (2, 2)),
        ("su_pq", (3, 2)),
        ("sp_p_R", (3,)),
        ("so_p_2", (5,)),
        ("so_star_2p", (5,)),
        ("su_pq", (4, 3)),
    ],
)
def test_trace_decomposition_is_orthogonal_in_norm_on_lie_models(family, params):
    rw = model_curvature(build_model(family, params))
    assert _orthogonal_split_residual(rw) <= 1e-12


def test_torsion_model_properties():
    for d, s in ((2, -4.0), (3, -6.0)):
        sp = make_space(d, with_torsion=True)
        rw, cm = torsion_curvature(sp, s)
        rep = invariants(rw)
        assert rep.pseudo_einstein
        assert rep.scalar == pytest.approx(s, abs=1e-12)
        assert np.allclose(rep.rho.entries, -(s / (2 * d)) * sp.omega, atol=1e-12)
        assert np.max(np.abs(rep.cm.entries - cm.entries)) < 1e-9
        # tau-conjugation identity on the model curvature
        conj = np.einsum("ax,by,abzw->xyzw", sp.tau, sp.tau, rw.entries)
        w = fundamental_form(sp)
        expect = rw.entries - (s / (2 * d * d)) * sym_product(w, w)
        assert np.max(np.abs(conj - expect)) < 1e-9


def test_torsion_model_zero_scalar():
    sp = make_space(2, with_torsion=True)
    rw, cm = torsion_curvature(sp, 0.0)
    assert np.max(np.abs(rw.entries)) == 0.0
    with pytest.raises(ValueError):
        torsion_curvature(make_space(2), -4.0)


def test_torsion_model_default_scalar_gives_unit_ricci_form():
    sp = make_space(3, with_torsion=True)
    rw, _ = torsion_curvature(sp)
    rep = invariants(rw)
    assert rep.scalar == pytest.approx(-6.0, abs=1e-12)
    assert np.allclose(rep.rho.entries, sp.omega, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_torsion_model_is_the_shared_model_scaled(d):
    sp = make_space(d, with_torsion=True)
    can = canonical_tensors(sp)

    def formula(s):
        return (
            (s / d**2) * (can.Ic.entries + can.T.entries),
            (s / d**2) * (can.Ic0.entries / (d + 1) + can.T0.entries),
        )

    for got, want in zip(torsion_curvature(sp), formula(-2.0 * d)):
        assert np.array_equal(got.entries, want)  # bit for bit at the default
    for s in (-4.0, 3.5):
        for got, want in zip(torsion_curvature(sp, s), formula(s)):
            assert np.max(np.abs(got.entries - want)) <= 1e-14 * np.max(np.abs(want))
    assert canonical_tensors(make_space(1, with_torsion=True)).torsion_rw is None


@pytest.mark.parametrize("d", [2, 3])
def test_ricci_form_wedge_trace_relation(d):
    # the Lefschetz-adjoint trace of the Ricci form is -s/2
    from pherm import wedge_adjoint
    from pherm.spaces import random_curv4

    sp = make_space(d)
    for seed in range(5):
        rw = random_curv4(sp, {"pair_symmetric", "bianchi_closed", "j_plus"}, seed=seed)
        rep = invariants(rw)
        assert wedge_adjoint(rep.rho) == pytest.approx(-rep.scalar / 2, abs=1e-11)
        assert np.trace(rep.ric.entries) == pytest.approx(rep.scalar, abs=1e-12)


def test_first_bianchi_residual_assembled_model():
    sp = make_space(2, with_torsion=True)
    rw, _ = torsion_curvature(sp, -4.0)
    rh = full_curvature(rw)
    assert first_bianchi_residual(rh) < 1e-9


def test_first_bianchi_residual_torsionless_and_negative_control():
    sp = make_space(2)
    rw = random_curv4(sp, {"pair_symmetric", "bianchi_closed"}, seed=2)
    assert first_bianchi_residual(full_curvature(rw)) < 1e-12
    bad = random_curv4(sp, {"pair_symmetric"}, seed=3)
    assert first_bianchi_residual(full_curvature(bad)) > 1e-3


def test_sectional_degenerate_rejected():
    rw = space_form(2, -6.0)
    X = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        complex_sectional(rw, X, 2.0 * X)
    with pytest.raises(ValueError):
        complex_sectional(rw, X + 0j, (1 + 0j) * X)


def test_sample_curvature_ranges_deterministic():
    rw = space_form(2, -6.0)
    a = sample_curvatures(rw, n=50, seed=4)
    b = sample_curvatures(rw, n=50, seed=4)
    assert a == b
    lo, hi = a["holomorphic"]
    assert lo == pytest.approx(-1.0, abs=1e-12)
    assert hi == pytest.approx(-1.0, abs=1e-12)
    zero = Curv4(
        rw.space,
        np.zeros((4, 4, 4, 4)),
        frozenset({"pair_symmetric", "bianchi_closed", "j_plus"}),
    )
    z = sample_curvatures(zero, n=20, seed=0)
    assert z["sectional"] == (0.0, 0.0)


def test_pherm_invariants_is_the_submodule():
    # the package re-exports no function under the submodule's name, so a
    # patch of `pherm.invariants._BLOCK` reaches the sampler
    assert pherm.invariants is importlib.import_module("pherm.invariants")


def test_invariants_report_carries_ranges():
    # the ranges `pherm model` reports beside `invariants(rw)`
    rw = space_form(2, -6.0)
    ranges = sample_curvatures(rw, 30, 1)
    assert ranges["sectional"] is not None
    assert ranges["complex_sectional"] is not None
    assert ranges["holomorphic"][0] == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sectional_curvatures_match_einsum_oracle(d):
    sp = make_space(d)
    q = random_curv4(sp, KAHLER_TAGS, seed=d)
    rng = np.random.default_rng(d)
    for _ in range(5):
        X, Y = rng.standard_normal((2, sp.n))
        Z, W = rng.standard_normal((2, sp.n)) + 1j * rng.standard_normal((2, sp.n))
        assert rel_err(complex_sectional(q, X, Y), sectional_einsum(q.entries, X, Y)) <= 1e-12
        want = complex_sectional_einsum(q.entries, Z, W)
        assert rel_err(complex_sectional(q, Z, W), want) <= 1e-12


def _assert_ranges_match(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert rel_err(got[name], want[name]) <= 1e-12, name


# sample_curvatures draws its planes in blocks of _BLOCK = 128; n = 127, 128, 129
# and 300 cover a short block, one full block, a one-plane tail and several blocks
_B = pherm.invariants._BLOCK


@pytest.mark.parametrize("n", [1, _B - 1, _B, _B + 1, 2 * _B + 44])
@pytest.mark.parametrize("torsion", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_sample_curvatures_match_loop_oracle(d, torsion, n):
    sp = make_space(d, with_torsion=torsion)
    q = random_curv4(sp, KAHLER_TAGS, seed=d)
    _assert_ranges_match(sample_curvatures(q, n=n, seed=n), sample_curvatures_loop(q.entries, sp.J, n, n))


@pytest.mark.parametrize("n", [1, 64, 200])
@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("torsion", [False, True])
def test_sampled_ranges_are_exact_at_d1(torsion, seed, n):
    # at d = 1 every plane is the whole horizontal space, so every sampled
    # curvature is the one wedge component hat(q)[0, 0], up to a few roundings
    q = random_curv4(make_space(1, with_torsion=torsion), KAHLER_TAGS, seed=seed)
    want = hat(q).entries[0, 0]
    for name, got in sample_curvatures(q, n=n, seed=seed).items():
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-15 * abs(want), name


class _FlatStream:
    """A one-seed stream stand-in that serves one fixed flat stream of normals,
    whatever shapes each call asks for."""

    def __init__(self, stream):
        self.stream, self.used = stream, 0

    def normals(self, *shapes):
        out = []
        for shape in shapes:
            shape = tuple(np.atleast_1d(shape))
            k = int(np.prod(shape))
            assert self.used + k <= self.stream.size, "stream exhausted"
            out.append(self.stream[self.used : self.used + k].reshape(1, *shape))
            self.used += k
        return out


def test_sample_curvatures_redraw_degenerate_planes(monkeypatch):
    d, n = 2, 70
    dim = 2 * d
    sp = make_space(d)
    q = random_curv4(sp, KAHLER_TAGS, seed=5)
    stream = np.random.default_rng(11).standard_normal(4000)
    # per kind: numbers per plane, the degenerate planes (counted over every
    # plane drawn for that kind) and the slice of a plane set to zero
    kinds = (
        (2 * dim, [3, 66, 71], slice(0, dim)),  # X of a sectional plane
        (dim, [10, 65], slice(0, dim)),  # X of a holomorphic plane
        (4 * dim, [0, 64, 70], slice(2 * dim, 4 * dim)),  # W of a complex plane
    )
    start = 0
    for width, bad, part in kinds:
        for i in bad:
            stream[start + i * width :][part] = 0.0
        start += (n + len(bad)) * width
    streams = []

    def flat_streams(seeds):
        assert len(seeds) == 1
        streams.append(_FlatStream(stream))
        return streams[-1]

    monkeypatch.setattr(pherm.invariants, "_Streams", flat_streams)
    got = sample_curvatures(q, n=n, seed=0)
    want = sample_curvatures_loop(q.entries, sp.J, n, 0, flat_streams([0]))
    _assert_ranges_match(got, want)
    # both consumed every degenerate plane and its replacement, nothing more
    assert [s.used for s in streams] == [start, start]


def test_non_pair_symmetric_tensor_has_no_real_complex_sectional():
    sp = make_space(2)
    rng = np.random.default_rng(0)
    q = Curv4(sp, antisym_pairs_grid(rng.standard_normal((sp.n,) * 4)))
    Z, W = rng.standard_normal((2, sp.n)) + 1j * rng.standard_normal((2, sp.n))
    with pytest.raises(ArithmeticError, match="not real"):
        complex_sectional(q, Z, W)
    with pytest.raises(ArithmeticError, match="not real"):
        sample_curvatures(q, n=10, seed=0)


@pytest.mark.parametrize("bad", [0, -2])
def test_sample_curvatures_rejects_a_count_below_one(bad):
    with pytest.raises(ValueError, match="sample count must be an integer >= 1"):
        sample_curvatures(space_form(2, -6.0), n=bad)


@pytest.mark.parametrize("bad", [True, False, np.True_, 2.5, 3.0, np.float64(2.0), "3"])
def test_sample_counts_must_be_integral(bad):
    rw = space_form(2, -6.0)
    with pytest.raises(ValueError, match="sample count must be an integer"):
        sample_curvatures(rw, n=bad)


def test_numpy_integer_sample_counts_are_accepted():
    rw = space_form(2, -6.0)
    assert sample_curvatures(rw, n=np.int64(20), seed=3) == sample_curvatures(rw, n=20, seed=3)
    assert sample_curvatures(rw, n=np.int32(20))["sectional"] is not None


# ---------------------------------------------------------------------------
# property tests of the plane pairing (Hypothesis profile in conftest.py)
# ---------------------------------------------------------------------------

_UNIT = st.floats(-1.0, 1.0, allow_subnormal=False)


def _curvature(d, seed, kahler):
    """A random Kaehler tensor, or one antisymmetric in each slot pair only."""
    sp = make_space(d)
    if kahler:
        return random_curv4(sp, KAHLER_TAGS, seed=seed)
    grid = np.random.default_rng(seed).standard_normal((sp.n,) * 4)
    return Curv4(sp, antisym_pairs_grid(grid))


def _draw_plane(data, n, complex_):
    v = data.draw(arrays(np.float64, (4 if complex_ else 2, n), elements=_UNIT, fill=st.nothing()))
    X, Y = (v[0] + 1j * v[1], v[2] + 1j * v[3]) if complex_ else (v[0], v[1])
    xx, yy = np.real(X @ X.conj()), np.real(Y @ Y.conj())
    gram = xx * yy - abs(X @ Y.conj()) ** 2
    # well conditioned: the oracle's own rounding stays far below 1e-12
    assume(min(xx, yy) > 1e-6 and gram > 0.1 * xx * yy)
    return X, Y


@given(d=st.integers(1, 4), seed=st.integers(0, 2**16), kahler=st.booleans(), data=st.data())
def test_sectional_matches_einsum_oracle_property(d, seed, kahler, data):
    q = _curvature(d, seed, kahler)
    X, Y = _draw_plane(data, q.space.n, complex_=False)
    assert rel_err(complex_sectional(q, X, Y), sectional_einsum(q.entries, X, Y)) <= 1e-12


@given(d=st.integers(1, 4), seed=st.integers(0, 2**16), kahler=st.booleans(), data=st.data())
def test_complex_sectional_matches_einsum_oracle_property(d, seed, kahler, data):
    q = _curvature(d, seed, kahler)
    Z, W = _draw_plane(data, q.space.n, complex_=True)
    num = complex_pairing_einsum(q.entries, Z, W)
    excess = abs(num.imag) / (TOL * max(1.0, abs(num.real)))
    assume(not 0.5 < excess < 2.0)  # clear of the "not real" bound either way
    event("not real" if excess >= 2.0 else "real")
    if excess >= 2.0:
        assert not kahler
        with pytest.raises(ArithmeticError, match="not real"):
            complex_sectional(q, Z, W)
    else:
        want = complex_sectional_einsum(q.entries, Z, W)
        assert rel_err(complex_sectional(q, Z, W), want) <= 1e-12


@given(
    d=st.integers(1, 4),
    torsion=st.booleans(),
    n=st.integers(1, 150),
    seed=st.integers(0, 2**16),
)
def test_sample_curvature_ranges_do_not_depend_on_the_block_size(d, torsion, n, seed):
    q = random_curv4(make_space(d, with_torsion=torsion), KAHLER_TAGS, seed=seed)
    runs = []
    for block in (1, 7, 64, 1000):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pherm.invariants, "_BLOCK", block)
            runs.append(sample_curvatures(q, n=n, seed=seed))
    for got in runs:
        assert got.keys() == runs[2].keys()
        for name in got:
            assert rel_err(got[name], runs[2][name]) <= 1e-15, name
