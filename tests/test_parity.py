import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from spinphase.angular import SpinDimension, jy_eigenbasis, rotation_operator
from spinphase.cgc import clebsch_gordan_racah, spherical_harmonic, tensor_operator
from spinphase.parity import (ParityOperator, ParityOverflowError, build_parity,
                              gamma_j, log_gamma_j, sphere_radius, transform_parity)

SQRT2 = math.sqrt(2.0)


def test_gamma_half_values():
    dim = SpinDimension.from_d(2)
    assert gamma_j(dim, 0) == pytest.approx(1 / math.sqrt(2), abs=1e-14)
    assert gamma_j(dim, 1) == pytest.approx(1 / math.sqrt(6), abs=1e-14)
    with pytest.raises(ValueError):
        gamma_j(dim, 2)


@pytest.mark.parametrize("d", [3, 10, 41])
def test_gamma_strictly_decreasing(d):
    dim = SpinDimension.from_d(d)
    values = np.exp(log_gamma_j(dim))
    assert np.all(np.diff(values) < 0)
    assert np.all(values > 0)


def _gamma_exact(two_j: int, j: int) -> float:
    # Direct factorial path via exact rationals, for the log-domain cross-check.
    ratio = Fraction(math.factorial(two_j) ** 2,
                     math.factorial(two_j + j + 1) * math.factorial(two_j - j))
    radius_sq_4pi = two_j  # (R sqrt(4 pi))^2 = 2 J
    return math.sqrt(float(ratio) * radius_sq_4pi)


@pytest.mark.parametrize("two_j", [1, 2, 7, 40, 150])
def test_gamma_log_path_matches_factorials(two_j):
    dim = SpinDimension(two_j)
    log_gamma = log_gamma_j(dim)
    for j in range(0, two_j + 1, max(1, two_j // 7)):
        exact = _gamma_exact(two_j, j)
        assert math.exp(log_gamma[j]) == pytest.approx(exact, rel=1e-12)


def test_gamma_finite_at_extreme_dimension():
    values = log_gamma_j(SpinDimension.from_d(4001))
    assert np.all(np.isfinite(values))


def test_parity_half_wigner_values():
    parity = build_parity(SpinDimension.from_d(2), 0.0)
    expected = np.array([(1 + math.sqrt(3)) / SQRT2, (1 - math.sqrt(3)) / SQRT2])
    assert np.abs(parity.diag - expected).max() < 1e-14


def _parity_diag_oracle(dim: SpinDimension, s: float) -> np.ndarray:
    # Term-by-term summation with closed-form coupling coefficients.
    radius = sphere_radius(dim)
    log_gamma = log_gamma_j(dim)
    diag = np.zeros(dim.d)
    for idx, m in enumerate(dim.m_values()):
        total = 0.0
        for j in range(dim.two_j + 1):
            t_entry = (math.sqrt((2 * j + 1.0) / dim.d)
                       * clebsch_gordan_racah(dim.j, m, j, 0, dim.j, m))
            total += (math.sqrt((2 * j + 1) / (4 * math.pi))
                      * math.exp(-s * log_gamma[j]) * t_entry)
        diag[idx] = total / radius
    return diag


@pytest.mark.parametrize("d", [2, 3, 6, 10])
@pytest.mark.parametrize("s", [-1.0, -0.5, 0.0, 1.0])
def test_parity_matches_term_by_term_oracle(d, s):
    dim = SpinDimension.from_d(d)
    parity = build_parity(dim, s)
    assert np.abs(parity.diag - _parity_diag_oracle(dim, s)).max() < 1e-10


@pytest.mark.parametrize("d", [2, 4, 9])
def test_husimi_parity_is_spin_up_projector(d):
    # The s = -1 kernel collapses to the projector onto |J, J> with unit
    # coefficient (verified against the defining summation above).
    dim = SpinDimension.from_d(d)
    parity = build_parity(dim, -1.0)
    assert parity.diag[0] == pytest.approx(1.0, abs=1e-10)
    assert np.abs(parity.diag[1:]).max() < 1e-10


@pytest.mark.parametrize("s", [-1.0, -0.5, 0.0, 0.5, 1.0])
def test_parity_trace_identity(s):
    dim = SpinDimension.from_d(7)
    parity = build_parity(dim, s)
    expected = (math.sqrt(dim.d) * math.exp(-s * log_gamma_j(dim)[0])
                / (sphere_radius(dim) * math.sqrt(4 * math.pi)))
    assert np.sum(parity.diag) == pytest.approx(expected, rel=1e-13)


def test_parity_s_range_validation():
    dim = SpinDimension.from_d(4)
    with pytest.raises(ValueError, match="outside"):
        build_parity(dim, 1.5)
    parity = build_parity(dim, 1.5, allow_extended_s=True)
    assert np.all(np.isfinite(parity.diag))


def test_parity_overflow_is_loud():
    with pytest.raises(ParityOverflowError):
        build_parity(SpinDimension.from_d(1200), 1.0)


def test_parity_build_is_warning_free_at_large_dimension():
    # From d = 700 the up-sweep times the join ratio overflows on the rows the
    # Clebsch-Gordan join discards, so that product must never be formed.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parity = build_parity(SpinDimension.from_d(700), 0.0)
    assert np.all(np.isfinite(parity.diag))


def test_transform_identity_kernel():
    dim = SpinDimension.from_d(5)
    basis = jy_eigenbasis(dim)
    synthetic = ParityOperator(dim=dim, s=0.0, diag=np.ones(5),
                               radius=sphere_radius(dim))
    transformed = transform_parity(synthetic, basis)
    assert np.abs(transformed.matrix - np.eye(5)).max() < 1e-13


def test_transform_preserves_spectrum_and_hermiticity():
    dim = SpinDimension.from_d(2)
    parity = build_parity(dim, 0.0)
    transformed = transform_parity(parity, jy_eigenbasis(dim))
    assert np.abs(transformed.matrix - transformed.matrix.conj().T).max() < 1e-13
    eigs = np.sort(np.linalg.eigvalsh(transformed.matrix))
    expected = np.sort([(1 + math.sqrt(3)) / SQRT2, (1 - math.sqrt(3)) / SQRT2])
    assert np.abs(eigs - expected).max() < 1e-10

    dim = SpinDimension.from_d(9)
    parity = build_parity(dim, -0.5)
    transformed = transform_parity(parity, jy_eigenbasis(dim))
    eigs = np.sort(np.linalg.eigvalsh(transformed.matrix))
    assert np.abs(eigs - np.sort(parity.diag)).max() < 1e-10


def test_transform_dimension_mismatch():
    parity = build_parity(SpinDimension.from_d(3), 0.0)
    with pytest.raises(ValueError, match="mismatch"):
        transform_parity(parity, jy_eigenbasis(SpinDimension.from_d(4)))


@pytest.mark.parametrize("d", [2, 3, 5, 8])
@pytest.mark.parametrize("s", [-1.0, 0.0])
def test_rotated_kernel_recovers_harmonic_expansion(d, s):
    # R M_s R^dagger == (1/R) sum_jm gamma_j^(-s) T_jm^dagger Y_jm entrywise.
    dim = SpinDimension.from_d(d)
    parity = build_parity(dim, s)
    gamma_pow = np.exp(-s * log_gamma_j(dim))
    radius = sphere_radius(dim)
    for theta, phi in [(0.35, 1.2), (2.4, 4.8)]:
        r = rotation_operator(dim, theta, phi)
        lhs = (r * parity.diag) @ r.conj().T
        rhs = np.zeros((d, d), dtype=complex)
        for j in range(dim.two_j + 1):
            for m in range(-j, j + 1):
                rhs += (gamma_pow[j] * tensor_operator(dim, j, m).conj().T
                        * spherical_harmonic(j, m, theta, phi))
        rhs /= radius
        assert np.abs(lhs - rhs).max() < 1e-10
