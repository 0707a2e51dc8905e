import numpy as np
import pytest
from scipy.linalg import expm

from spinphase.angular import (EigenBasis, SpinDimension, build_spin_operator, jx_eigenbasis,
                               jy_eigenbasis, rotation_operator, wigner_d)

from reference import am_analytic, eigendecompose, projector_am

DIMS = [2, 3, 4, 5, 8, 11, 16]


def test_spin_operator_z_half():
    dim = SpinDimension.from_d(2)
    assert np.array_equal(build_spin_operator(dim, "z"),
                          np.diag([0.5, -0.5]).astype(complex))


def test_spin_operator_y_half():
    dim = SpinDimension.from_d(2)
    expected = np.array([[0.0, -0.5j], [0.5j, 0.0]])
    assert np.abs(build_spin_operator(dim, "y") - expected).max() == 0.0


@pytest.mark.parametrize("d", DIMS)
def test_commutation_relations(d):
    dim = SpinDimension.from_d(d)
    jx, jy, jz = (build_spin_operator(dim, a) for a in "xyz")
    scale = dim.j
    assert np.abs(jx @ jy - jy @ jx - 1j * jz).max() <= 1e-15 * scale
    assert np.abs(jy @ jz - jz @ jy - 1j * jx).max() <= 1e-15 * scale
    assert np.abs(jz @ jx - jx @ jz - 1j * jy).max() <= 1e-15 * scale


def test_eigendecompose_half_spectrum():
    basis = jy_eigenbasis(SpinDimension.from_d(2))
    assert np.array_equal(basis.eigenvalues, [-0.5, 0.5])


def test_eigendecompose_j5_residual():
    dim = SpinDimension.from_j(5)
    jy = build_spin_operator(dim, "y")
    basis = eigendecompose(jy)
    assert np.array_equal(basis.eigenvalues, np.arange(-5.0, 6.0))
    residual = jy @ basis.vectors - basis.vectors * basis.eigenvalues
    assert np.abs(residual).max() < 1e-12


@pytest.mark.parametrize("d", DIMS)
def test_unitarity_and_completeness(d):
    dim = SpinDimension.from_d(d)
    basis = jy_eigenbasis(dim)
    u = basis.vectors
    assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-12
    total = sum(projector_am(basis, m) for m in dim.m_values())
    assert np.abs(total - np.eye(d)).max() < 1e-12


def _tie_robust_gauge(vectors):
    """Columns scaled so the first entry within 1e-8 of the largest magnitude
    is real positive; mirror entries of equal size then pick the same one
    whatever their last-bit difference."""
    mags = np.abs(vectors)
    lead = np.argmax(mags >= mags.max(axis=0) * (1 - 1e-8), axis=0)
    lead_vals = vectors[lead, np.arange(vectors.shape[1])]
    return vectors * (np.abs(lead_vals) / lead_vals)


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("d", [2, 3, 4, 7, 64, 199, 200, 321, 400])
def test_basis_matches_dense_hermitian_solver(d, axis):
    dim = SpinDimension.from_d(d)
    basis = (jx_eigenbasis if axis == "x" else jy_eigenbasis)(dim)
    u = basis.vectors
    assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-14
    op = build_spin_operator(dim, axis)
    w, ref = np.linalg.eigh(op)
    assert np.abs(w - basis.eigenvalues).max() < 1e-12 * d
    assert np.abs(_tie_robust_gauge(u) - _tie_robust_gauge(ref)).max() < 1e-13
    # The checked reference solver takes the same route from the dense operator.
    assert np.abs(eigendecompose(op).vectors - u).max() < 1e-14


@pytest.mark.parametrize("d", [2, 5, 12])
def test_eigendecompose_accepts_non_palindromic_components(d):
    dim = SpinDimension.from_d(d)
    theta, phi = 0.7, 1.9
    n_dot_j = (np.sin(theta) * np.cos(phi) * build_spin_operator(dim, "x")
               + np.sin(theta) * np.sin(phi) * build_spin_operator(dim, "y")
               + np.cos(theta) * build_spin_operator(dim, "z"))
    for op in (build_spin_operator(dim, "z"), n_dot_j):
        basis = eigendecompose(op)
        assert np.array_equal(basis.eigenvalues, -dim.j + np.arange(d))
        u = basis.vectors
        assert np.abs(op @ u - u * basis.eigenvalues).max() < 1e-12
        assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-13


def test_eigendecompose_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        eigendecompose(bad)


def test_eigendecompose_rejects_non_tridiagonal():
    dim = SpinDimension.from_d(5)
    op = build_spin_operator(dim, "x")
    op = op @ op  # Hermitian but pentadiagonal
    with pytest.raises(ValueError, match="tridiagonal"):
        eigendecompose(op)


def test_projector_half_up_known_matrix():
    basis = jy_eigenbasis(SpinDimension.from_d(2))
    expected = 0.5 * np.array([[1.0, -1.0j], [1.0j, 1.0]])
    assert np.abs(projector_am(basis, 0.5) - expected).max() < 1e-14


@pytest.mark.parametrize("d", [2, 5, 9, 16])
def test_projector_rank_one_idempotent(d):
    dim = SpinDimension.from_d(d)
    basis = jy_eigenbasis(dim)
    for m in dim.m_values():
        a = projector_am(basis, m)
        assert abs(np.trace(a) - 1.0) < 1e-12
        assert np.abs(a @ a - a).max() < 1e-12
        assert np.abs(a - a.conj().T).max() < 1e-13


@pytest.mark.parametrize("d", [2, 7, 20, 40])
def test_projector_entries_bounded(d):
    dim = SpinDimension.from_d(d)
    basis = jy_eigenbasis(dim)
    for m in dim.m_values():
        assert np.abs(projector_am(basis, m)).max() <= 1.0 + 1e-12


def test_projector_out_of_range():
    basis = jy_eigenbasis(SpinDimension.from_d(3))
    with pytest.raises(ValueError):
        projector_am(basis, 2.0)


def test_gauge_invariance_of_projectors():
    dim = SpinDimension.from_d(7)
    basis = jy_eigenbasis(dim)
    rng = np.random.default_rng(5)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, dim.d))
    twisted = EigenBasis(dim=dim, eigenvalues=basis.eigenvalues,
                         vectors=basis.vectors * phases)
    for m in dim.m_values():
        diff = projector_am(basis, m) - projector_am(twisted, m)
        assert np.abs(diff).max() < 1e-15


def test_am_analytic_half_values():
    dim = SpinDimension.from_d(2)
    assert am_analytic(dim, 0.5, 0.5, 0.5) == pytest.approx(0.5)
    assert am_analytic(dim, 0.5, 0.5, -0.5) == pytest.approx(-0.5j)
    assert am_analytic(dim, 0.5, -0.5, 0.5) == pytest.approx(0.5j)


@pytest.mark.parametrize("d", [2, 3, 5, 8, 13, 16])
def test_am_analytic_matches_eigendecomposition(d):
    dim = SpinDimension.from_d(d)
    basis = jy_eigenbasis(dim)
    ms = dim.m_values()
    for m in ms:
        a = projector_am(basis, m)
        closed = np.array([[am_analytic(dim, m, m1, m2) for m2 in ms] for m1 in ms])
        assert np.abs(a - closed).max() < 1e-10


def test_am_analytic_completeness():
    dim = SpinDimension.from_d(6)
    ms = dim.m_values()
    for m1 in ms:
        for m2 in ms:
            total = sum(am_analytic(dim, m, m1, m2) for m in ms)
            expected = 1.0 if m1 == m2 else 0.0
            assert abs(total - expected) < 1e-11


def test_am_analytic_large_dim_guard():
    dim = SpinDimension.from_d(33)
    with pytest.raises(ValueError, match="cross-check"):
        am_analytic(dim, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("d", [2, 3, 6, 11])
def test_wigner_d_identity_and_spinor_phase(d):
    dim = SpinDimension.from_d(d)
    assert np.abs(wigner_d(dim, 0.0) - np.eye(d)).max() < 1e-13
    full_turn = wigner_d(dim, 2 * np.pi)
    sign = -1.0 if dim.two_j % 2 else 1.0
    assert np.abs(full_turn - sign * np.eye(d)).max() < 1e-12


def test_wigner_d_matches_matrix_exponential():
    dim = SpinDimension.from_d(2)
    theta = np.pi / 3
    expected = expm(1j * theta * build_spin_operator(dim, "y"))
    assert np.abs(wigner_d(dim, theta) - expected).max() < 1e-12


@pytest.mark.parametrize("d", [2, 5, 10])
def test_wigner_d_group_law_and_unitarity(d):
    dim = SpinDimension.from_d(d)
    th1, th2 = 0.37, 1.91
    prod = wigner_d(dim, th1) @ wigner_d(dim, th2)
    assert np.abs(prod - wigner_d(dim, th1 + th2)).max() < 1e-11
    w = wigner_d(dim, th1)
    assert np.abs(w @ w.conj().T - np.eye(d)).max() < 1e-12


def test_rotation_identity():
    dim = SpinDimension.from_d(4)
    assert np.abs(rotation_operator(dim, 0.0, 0.0) - np.eye(4)).max() < 1e-13


@pytest.mark.parametrize("d", [2, 3, 7])
def test_rotation_matches_matrix_exponentials(d):
    dim = SpinDimension.from_d(d)
    theta, phi = 0.83, 2.4
    jy = build_spin_operator(dim, "y")
    jz = build_spin_operator(dim, "z")
    expected = expm(-1j * phi * jz) @ expm(-1j * theta * jy)
    got = rotation_operator(dim, theta, phi)
    assert np.abs(got - expected).max() < 1e-12
    assert np.abs(got @ got.conj().T - np.eye(d)).max() < 1e-12


def test_rotation_column_is_coherent_state():
    from spinphase.states import coherent

    dim = SpinDimension.from_d(5)
    theta, phi = 1.1, 0.7
    psi = rotation_operator(dim, theta, phi)[:, 0]
    assert np.abs(coherent(dim, theta, phi) - np.outer(psi, psi.conj())).max() < 1e-14


def test_dimension_validation():
    with pytest.raises(ValueError):
        SpinDimension.from_d(1)
    with pytest.raises(ValueError):
        SpinDimension.from_j(0.3)
    dim = SpinDimension.from_j(1.5)
    assert dim.d == 4
    assert np.array_equal(dim.m_values(), [1.5, 0.5, -0.5, -1.5])
