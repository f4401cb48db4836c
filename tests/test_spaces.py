import numpy as np
import pytest

from pherm import (
    TagError,
    complexify,
    make_space,
    random_bil2,
    random_curv4,
    wedge_pairs,
)
from pherm.spaces import Bil2, Curv4, Endo2Forms, bianchi_grid, split_average_grid
from pherm.algebra import hat, unhat

from oracles import unhat_loops


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


def test_complex_frame_orthonormality():
    for d in (1, 2, 3):
        sp = make_space(d)
        Z = complexify(sp).Z
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
    conj = split_average_grid(q.entries, sp.J, +1)
    assert np.max(np.abs(q.entries - conj)) < 1e-12
    q = random_curv4(sp, {"pair_symmetric", "j_minus", "tau_plus"}, seed=5)
    assert np.max(np.abs(q.entries - split_average_grid(q.entries, sp.tau, +1))) < 1e-12


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
    pairs = wedge_pairs(sp)
    assert len(pairs) == d * (2 * d - 1)
    assert pairs == sorted(pairs)
    q = random_curv4(sp, {"pair_symmetric"}, seed=11)
    back = unhat(hat(q), tags=q.tags)
    assert np.array_equal(back.entries, q.entries)  # exact round trip


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_unhat_matches_loop_oracle(d):
    # an arbitrary operator grid, not only one in the image of hat: the
    # vectorised scatter must place every entry exactly where the loop does
    sp = make_space(d)
    m = len(wedge_pairs(sp))
    op = np.random.default_rng(d).standard_normal((m, m))
    assert np.array_equal(unhat(Endo2Forms(sp, op)).entries, unhat_loops(op, sp.n))
