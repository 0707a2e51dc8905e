import numpy as np
import pytest
from scipy.linalg import expm

from spinphase.angular import SpinDimension, build_spin_operator
from spinphase.cgc import expansion_coefficients
from spinphase.fourier import fourier_coefficients_method_c
from spinphase.kcache import fourier_coefficients_method_d, precompute_cache
from spinphase.parity import build_parity
from spinphase.sampling import (direct_eval, direct_grid, method_b_grid, minimal_grid_size,
                                sample_fft)
from spinphase.states import (as_density_matrix, coherent, dicke, ghz, maximally_mixed,
                              random_density, squeezed)

from reference import method_b_eval


def _assert_density(rho):
    assert np.abs(rho - rho.conj().T).max() < 1e-12
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert abs(np.trace(rho).imag) < 1e-14


def test_ghz_structure():
    rho = ghz(SpinDimension.from_d(9))
    _assert_density(rho)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)
    nonzero = np.abs(rho) > 1e-15
    assert nonzero.sum() == 4
    assert np.abs(rho[nonzero] - 0.5).max() < 1e-15


def test_ghz_edge_frequency_signature():
    dim = SpinDimension.from_d(7)
    table = fourier_coefficients_method_c(ghz(dim), build_parity(dim, 0.0))
    two_j = dim.two_j
    assert np.abs(table.coeffs[:, 0]).max() > 1e-3
    assert np.abs(table.coeffs[:, -1]).max() > 1e-3
    interior = table.coeffs[:, 1:-1].copy()
    interior[:, two_j - 1] = 0.0  # m = 0 column also carries weight
    assert np.abs(interior).max() < 1e-12


def test_dicke_extremes_and_validation():
    dim = SpinDimension.from_d(5)
    rho = dicke(dim, 2.0)
    assert rho[0, 0] == 1.0 and np.abs(rho).sum() == 1.0
    rho = dicke(dim, -2.0)
    assert rho[-1, -1] == 1.0
    with pytest.raises(ValueError):
        dicke(dim, 2.5)
    with pytest.raises(ValueError):
        dicke(dim, 3.0)


def test_dicke_grid_is_axially_symmetric():
    dim = SpinDimension.from_d(9)
    table = fourier_coefficients_method_c(dicke(dim, 1.0), build_parity(dim, 0.0))
    grid = sample_fft(table, minimal_grid_size(dim))
    spread = np.abs(grid.values - grid.values[:, :1]).max()
    assert spread < 1e-11


def test_dicke_balanced_configuration_exists():
    dim = SpinDimension.from_d(129)
    rho = dicke(dim, 0.0)
    assert rho[64, 64] == 1.0


def test_squeezed_zero_angle_is_spin_up():
    dim = SpinDimension.from_d(6)
    assert np.abs(squeezed(dim, 0.0) - dicke(dim, dim.j)).max() < 1e-14


def test_squeezed_matches_matrix_exponential():
    dim = SpinDimension.from_d(7)
    jx = build_spin_operator(dim, "x")
    for xi in (0.05, 0.3, 2.0):
        psi = expm(-1j * xi * (jx @ jx))[:, 0]
        expected = np.outer(psi, psi.conj())
        assert np.abs(squeezed(dim, xi) - expected).max() < 1e-12


@pytest.mark.parametrize("d", [2, 3, 64, 65, 320, 500])
def test_squeezed_is_exactly_zero_off_its_parity(d):
    # exp(-i xi J_x^2) keeps J - m even; the even entries are the evolved
    # state's own, bit for bit.
    from spinphase.angular import jx_eigenbasis

    dim = SpinDimension.from_d(d)
    xi = 0.3
    basis = jx_eigenbasis(dim)
    v = basis.vectors
    psi = v @ (np.exp(-1j * xi * basis.eigenvalues ** 2) * v[0, :].conj())
    rho = squeezed(dim, xi)
    assert not rho[1::2].any() and not rho[:, 1::2].any()
    even = psi[::2]
    expected = np.triu(np.outer(even, even.conj()), 1)
    expected += expected.conj().T
    expected[np.diag_indices_from(expected)] = np.abs(even) ** 2
    assert rho[::2, ::2].tobytes() == expected.tobytes()


def test_squeezed_norm_preserved_large_dimension():
    rho = squeezed(SpinDimension.from_d(500), 0.2)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_squeezed_sweep_configurations_build():
    dim = SpinDimension.from_d(500)
    for xi in (0.0, 0.003125, 0.0125, 0.05, 0.2):
        rho = squeezed(dim, xi)
        assert abs(np.trace(rho).real - 1.0) < 1e-12


def test_coherent_at_pole_is_spin_up():
    dim = SpinDimension.from_d(8)
    assert np.abs(coherent(dim, 0.0, 0.0) - dicke(dim, dim.j)).max() < 1e-13


def test_coherent_husimi_is_nonnegative_and_peaks_at_center():
    dim = SpinDimension.from_d(8)
    n = minimal_grid_size(dim)
    k0, l0 = 5, 7
    theta0 = np.pi * k0 / n
    phi0 = 2 * np.pi * l0 / n
    rho = coherent(dim, theta0, phi0)
    table = fourier_coefficients_method_c(rho, build_parity(dim, -1.0))
    grid = sample_fft(table, n)
    values = grid.values.real
    assert grid.values.real.min() > -1e-12
    assert grid.imag_residual() < 1e-11
    peak = np.unravel_index(np.argmax(values), values.shape)
    assert peak == (k0, l0)


def test_coherent_z_rotation_shifts_grid():
    dim = SpinDimension.from_d(6)
    n = minimal_grid_size(dim)
    shift = 3
    alpha = 2 * np.pi * shift / n
    theta0 = 0.9
    parity = build_parity(dim, 0.0)
    base = sample_fft(fourier_coefficients_method_c(coherent(dim, theta0, 1.1), parity), n)
    moved = sample_fft(fourier_coefficients_method_c(coherent(dim, theta0, 1.1 + alpha), parity), n)
    assert np.abs(moved.values - np.roll(base.values, shift, axis=1)).max() < 1e-10


def test_random_density_determinism_and_spectrum():
    dim = SpinDimension.from_d(12)
    a = random_density(dim, 123)
    b = random_density(dim, 123)
    assert np.array_equal(a, b)
    _assert_density(a)
    eigs = np.linalg.eigvalsh(a)
    assert eigs.min() > 0
    assert eigs.sum() == pytest.approx(1.0, abs=1e-12)


def test_random_density_seeds_differ():
    dim = SpinDimension.from_d(10)
    for s1, s2 in [(0, 1), (7, 8), (123, 321)]:
        diff = np.abs(random_density(dim, s1) - random_density(dim, s2)).max()
        assert diff > 1e-3


def test_maximally_mixed():
    rho = maximally_mixed(SpinDimension.from_d(5))
    _assert_density(rho)
    assert np.abs(rho - np.eye(5) / 5).max() == 0.0


def test_as_density_matrix_checks_shape_and_values():
    dim = SpinDimension.from_d(3)
    rho = as_density_matrix(np.eye(3) / 3, dim)
    assert rho.dtype == complex and rho.shape == (3, 3)
    with pytest.raises(ValueError, match="does not match d = 3"):
        as_density_matrix(np.eye(4) / 4, dim)
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        rho = np.eye(3, dtype=complex) / 3
        rho[2, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            as_density_matrix(rho, dim)


@pytest.mark.parametrize("name", ["xi", "theta0", "phi0"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e308])
def test_state_parameters_that_are_not_finite_are_refused(name, value):
    # 1e308 is finite, but times J (J^2 for xi) it overflows to inf; the
    # error comes before any arithmetic, so no RuntimeWarning either.
    dim = SpinDimension.from_d(5)
    build = {"xi": lambda: squeezed(dim, value),
             "theta0": lambda: coherent(dim, value, 0.3),
             "phi0": lambda: coherent(dim, 0.3, value)}[name]
    with pytest.raises(ValueError, match=f"^{name} = "):
        build()


@pytest.mark.parametrize("route", ["c", "d", "direct_grid", "direct_eval", "b_grid",
                                   "b_eval", "expansion"])
def test_grid_routes_reject_non_finite_rho(tmp_path, route):
    dim = SpinDimension.from_d(2)
    parity = build_parity(dim, 0.0)
    rho = maximally_mixed(dim)
    rho[0, 1] = np.nan
    calls = {
        "c": lambda: fourier_coefficients_method_c(rho, parity),
        "d": lambda: fourier_coefficients_method_d(
            rho, precompute_cache(dim, 0.0, tmp_path / "cache")),
        "direct_grid": lambda: direct_grid(rho, parity, 4),
        "direct_eval": lambda: direct_eval(rho, parity, 0.3, 0.4),
        "b_grid": lambda: method_b_grid(rho, 0.0, 4),
        "b_eval": lambda: method_b_eval(rho, 0.0, 0.3, 0.4),
        "expansion": lambda: expansion_coefficients(rho),
    }
    with pytest.raises(ValueError, match="non-finite"):
        calls[route]()


@pytest.mark.parametrize("d", [7, 64, 200, 320])
def test_every_family_is_exactly_hermitian(d, monkeypatch):
    # Methods c and d mirror the rows ell < 0 only for an exactly Hermitian rho.
    from spinphase import states

    pure_inputs = []
    original = states._pure

    def recording_pure(psi):
        pure_inputs.append(psi)
        return original(psi)

    monkeypatch.setattr(states, "_pure", recording_pure)
    dim = SpinDimension.from_d(d)
    pure = [ghz(dim), dicke(dim, dim.j - 1), squeezed(dim, 0.05), coherent(dim, 0.7, 1.3)]
    for rho in pure + [random_density(dim, d), maximally_mixed(dim)]:
        assert np.array_equal(rho, rho.conj().T)
    assert len(pure_inputs) == len(pure)
    for psi, rho in zip(pure_inputs, pure):
        assert np.abs(rho - np.outer(psi, psi.conj())).max() <= 1e-15
