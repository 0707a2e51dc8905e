import math

import numpy as np
import pytest

from spinphase.angular import SpinDimension
from spinphase.fourier import (FourierTable, derivative_coefficients,
                               fourier_coefficients_method_c)
from spinphase.parity import build_parity, sphere_radius
from spinphase.sampling import (direct_eval, direct_grid, grid_phis, grid_thetas,
                                method_b_grid, minimal_grid_size, sample_fft,
                                sample_fft_full, window_extract)
from spinphase.states import dicke, maximally_mixed, random_density

from reference import eval_series, method_b_eval

SQRT2 = math.sqrt(2.0)


def test_constant_table_fills_grid():
    dim = SpinDimension.from_d(4)
    coeffs = np.zeros((7, 7), dtype=complex)
    coeffs[3, 3] = 0.25 - 0.1j
    grid = sample_fft(FourierTable(dim=dim, s=0.0, coeffs=coeffs), 16)
    assert np.abs(grid.values - (0.25 - 0.1j)).max() < 1e-14


def test_grid_size_validation():
    dim = SpinDimension.from_d(5)
    table = FourierTable(dim=dim, s=0.0, coeffs=np.zeros((9, 9), dtype=complex))
    with pytest.raises(ValueError, match="4J\\+2"):
        sample_fft(table, 8)
    with pytest.raises(ValueError, match="even"):
        sample_fft(table, 11)


def test_glide_symmetry_of_full_array():
    dim = SpinDimension.from_d(6)
    rho = random_density(dim, 8)
    parity = build_parity(dim, 0.0)
    table = fourier_coefficients_method_c(rho, parity)
    n = 16
    full = sample_fft_full(table, n)
    for k in range(1, n):
        for l in range(0, n, 3):
            mirrored = full[2 * n - k, (l + n // 2) % n]
            assert abs(mirrored - full[k, l]) < 1e-10
    # rows beyond theta = pi trace the sphere again: check against the oracle
    thetas = np.pi * np.arange(2 * n) / n
    phis = grid_phis(n)
    for k in (n + 1, 2 * n - 3):
        for l in (0, 5):
            ref = direct_eval(rho, parity, thetas[k], phis[l])
            assert abs(full[k, l] - ref) < 1e-11


def test_refinement_agrees_on_shared_nodes():
    dim = SpinDimension.from_d(5)
    rho = random_density(dim, 4)
    table = fourier_coefficients_method_c(rho, build_parity(dim, 0.0))
    coarse = sample_fft(table, 12)
    fine = sample_fft(table, 24)
    assert np.abs(fine.values[::2, ::2] - coarse.values).max() < 1e-11


def test_series_matches_fft_on_grid():
    dim = SpinDimension.from_d(8)
    rho = random_density(dim, 15)
    table = fourier_coefficients_method_c(rho, build_parity(dim, 0.0))
    n = 34
    grid = sample_fft(table, n)
    thetas, phis = grid_thetas(n), grid_phis(n)
    worst = 0.0
    for k in range(0, n, 5):
        for l in range(0, n, 7):
            worst = max(worst, abs(eval_series(table, thetas[k], phis[l])
                                   - grid.values[k, l]))
    assert worst < 1e-11


def test_series_at_origin_and_periodicity():
    dim = SpinDimension.from_d(3)
    rho = random_density(dim, 2)
    table = fourier_coefficients_method_c(rho, build_parity(dim, 0.0))
    assert eval_series(table, 0.0, 0.0) == pytest.approx(np.sum(table.coeffs), abs=1e-13)
    a = eval_series(table, 0.9, 1.1)
    b = eval_series(table, 0.9, 1.1 + 2 * np.pi)
    assert abs(a - b) < 1e-12


def test_direct_eval_half_pole_values():
    dim = SpinDimension.from_d(2)
    parity = build_parity(dim, 0.0)
    rho = dicke(dim, 0.5)
    up = direct_eval(rho, parity, 0.0, 0.0)
    down = direct_eval(rho, parity, np.pi, 0.0)
    assert up == pytest.approx((1 + math.sqrt(3)) / SQRT2, abs=1e-12)
    assert down == pytest.approx((1 - math.sqrt(3)) / SQRT2, abs=1e-12)


def test_direct_eval_mixed_state_constant():
    for d in (2, 6):
        dim = SpinDimension.from_d(d)
        parity = build_parity(dim, 0.0)
        expected = 1.0 / (sphere_radius(dim) * math.sqrt(4 * math.pi * d))
        for theta, phi in [(0.0, 0.0), (1.3, 2.2), (3.0, 5.9)]:
            got = direct_eval(maximally_mixed(dim), parity, theta, phi)
            assert got == pytest.approx(expected, abs=1e-12)


def test_direct_eval_dimension_mismatch():
    parity = build_parity(SpinDimension.from_d(3), 0.0)
    with pytest.raises(ValueError, match="match"):
        direct_eval(np.eye(4) / 4.0, parity, 0.1, 0.2)


def test_direct_grid_matches_pointwise_oracle():
    dim = SpinDimension.from_d(7)
    rho = random_density(dim, 23)
    parity = build_parity(dim, -0.5)
    n = minimal_grid_size(dim)
    grid = direct_grid(rho, parity, n)
    thetas, phis = grid_thetas(n), grid_phis(n)
    for k in range(0, n, 3):
        for l in range(0, n, 4):
            ref = direct_eval(rho, parity, thetas[k], phis[l])
            assert abs(grid.values[k, l] - ref) < 1e-12


def test_method_b_grid_matches_pointwise():
    dim = SpinDimension.from_d(5)
    rho = random_density(dim, 51)
    n = 12
    grid = method_b_grid(rho, -1.0, n)
    thetas, phis = grid_thetas(n), grid_phis(n)
    for k in (0, 3, 7):
        for l in (0, 5, 11):
            ref = method_b_eval(rho, -1.0, thetas[k], phis[l])
            assert abs(grid.values[k, l] - ref) < 1e-12


def test_pole_row_is_phi_independent():
    dim = SpinDimension.from_d(9)
    rho = random_density(dim, 3)
    table = fourier_coefficients_method_c(rho, build_parity(dim, 0.0))
    grid = sample_fft(table, minimal_grid_size(dim))
    pole = grid.values[0, :]
    assert np.abs(pole - pole[0]).max() < 1e-10


def test_full_grid_mean_is_dc_coefficient():
    dim = SpinDimension.from_d(6)
    rho = random_density(dim, 14)
    table = fourier_coefficients_method_c(rho, build_parity(dim, 0.0))
    full = sample_fft_full(table, 20)
    assert abs(full.mean() - table.get(0, 0)) < 1e-12


def test_imag_residual_small_for_hermitian_input():
    dim = SpinDimension.from_d(10)
    rho = random_density(dim, 77)
    table = fourier_coefficients_method_c(rho, build_parity(dim, 0.0))
    grid = sample_fft(table, minimal_grid_size(dim))
    assert grid.imag_residual() < 1e-10


@pytest.mark.parametrize("d", [4, 9, 16])
def test_tensor_operator_grid_reproduces_harmonic(d):
    from spinphase.cgc import harmonic_grid, tensor_operator

    dim = SpinDimension.from_d(d)
    parity = build_parity(dim, 0.0)
    radius = sphere_radius(dim)
    n = minimal_grid_size(dim)
    for j in {1, int(dim.j), dim.two_j}:
        for m in {0, j}:
            table = fourier_coefficients_method_c(tensor_operator(dim, j, m), parity)
            grid = sample_fft(table, n)
            reference = harmonic_grid(j, m, grid_thetas(n), grid_phis(n)) / radius
            rms = np.sqrt(np.mean(np.abs(grid.values - reference) ** 2))
            assert rms < 1e-10


def test_window_full_range_is_identity():
    dim = SpinDimension.from_d(4)
    rho = random_density(dim, 6)
    grid = sample_fft(fourier_coefficients_method_c(rho, build_parity(dim, 0.0)), 10)
    window = window_extract(grid, np.pi, None)
    assert np.array_equal(window.values, grid.values)
    assert window.thetas.size == grid.n


def test_window_first_rows():
    dim = SpinDimension.from_d(4)
    rho = maximally_mixed(dim)
    n = 12
    grid = sample_fft(fourier_coefficients_method_c(rho, build_parity(dim, 0.0)), n)
    window = window_extract(grid, np.pi / n, None)
    assert window.values.shape[0] == 2  # theta_0 = 0 and theta_1 = pi/n
    counted = np.count_nonzero(grid.thetas() <= np.pi / n + 1e-12)
    assert window.values.shape[0] == counted


def test_window_phi_range_and_empty():
    dim = SpinDimension.from_d(4)
    rho = maximally_mixed(dim)
    grid = sample_fft(fourier_coefficients_method_c(rho, build_parity(dim, 0.0)), 12)
    window = window_extract(grid, np.pi, (0.0, np.pi))
    assert np.all(window.phis <= np.pi + 1e-12)
    assert window.values.shape == (12, window.phis.size)
    with pytest.raises(ValueError, match="no grid points"):
        window_extract(grid, -1.0, None)


@pytest.mark.parametrize("s", [0.5, 1.0])
@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_positive_s_routes_agree(d, s):
    # The singular-side kernels (towards the P function) grow quickly with d,
    # so agreement is measured relative to the function's own scale.
    dim = SpinDimension.from_d(d)
    rho = random_density(dim, 60 + d)
    parity = build_parity(dim, s)
    n = minimal_grid_size(dim)
    grid_c = sample_fft(fourier_coefficients_method_c(rho, parity), n).values
    grid_direct = direct_grid(rho, parity, n).values
    grid_b = method_b_grid(rho, s, n).values
    scale = np.abs(grid_c).max()
    assert np.sqrt(np.mean(np.abs(grid_c - grid_direct) ** 2)) < 1e-12 * scale
    assert np.sqrt(np.mean(np.abs(grid_c - grid_b) ** 2)) < 1e-12 * scale


def test_series_matches_direct_oracle_off_grid():
    dim = SpinDimension.from_d(9)
    rho = random_density(dim, 90)
    parity = build_parity(dim, -0.5)
    table = fourier_coefficients_method_c(rho, parity)
    rng = np.random.default_rng(1)
    for _ in range(12):
        theta = rng.uniform(0, np.pi)
        phi = rng.uniform(0, 2 * np.pi)
        assert abs(eval_series(table, theta, phi)
                   - direct_eval(rho, parity, theta, phi)) < 1e-12


@pytest.mark.parametrize("d", [3, 8])
@pytest.mark.parametrize("s", [-1.0, 0.0])
def test_general_operator_inputs_flow_through_all_routes(d, s):
    # General (non-Hermitian) operators are first-class inputs everywhere.
    dim = SpinDimension.from_d(d)
    rng = np.random.default_rng(d)
    op = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    parity = build_parity(dim, s)
    n = minimal_grid_size(dim)
    grid_c = sample_fft(fourier_coefficients_method_c(op, parity), n).values
    grid_direct = direct_grid(op, parity, n).values
    grid_b = method_b_grid(op, s, n).values
    assert np.abs(grid_c - grid_direct).max() < 1e-12
    assert np.abs(grid_c - grid_b).max() < 1e-12


@pytest.mark.parametrize("d,j,m,s", [(6, 4, 2, -1.0), (9, 5, 5, -0.5), (5, 2, 1, 1.0)])
def test_tensor_grid_carries_s_weight(d, j, m, s):
    from spinphase.cgc import harmonic_grid, tensor_operator
    from spinphase.parity import log_gamma_j

    dim = SpinDimension.from_d(d)
    parity = build_parity(dim, s)
    n = minimal_grid_size(dim)
    table = fourier_coefficients_method_c(tensor_operator(dim, j, m), parity)
    grid = sample_fft(table, n).values
    weight = np.exp(-s * log_gamma_j(dim)[j]) / sphere_radius(dim)
    reference = weight * harmonic_grid(j, m, grid_thetas(n), grid_phis(n))
    assert np.abs(grid - reference).max() < 1e-13


def test_method_b_overflow_is_raised_before_the_expansion(monkeypatch):
    from spinphase.parity import ParityOverflowError

    def expansion_must_not_run(*args, **kwargs):
        raise AssertionError("tensor expansion ran before the overflow check")

    monkeypatch.setattr("spinphase.sampling.expansion_coefficients", expansion_must_not_run)
    monkeypatch.setattr("reference.expansion_coefficients", expansion_must_not_run)
    d = 1100
    rho = np.eye(d, dtype=complex) / d
    with pytest.raises(ParityOverflowError, match=f"d = {d}, s = 1.0"):
        method_b_grid(rho, 1.0, 2 * d)
    with pytest.raises(ParityOverflowError, match=f"d = {d}, s = 1.0"):
        method_b_eval(rho, 1.0, 0.3, 0.4)


def _reference_full(table, n):
    """The complex synthesis used before the two-step transform: one ifft2."""
    two_j = table.dim.two_j
    freqs = np.arange(-two_j, two_j + 1)
    padded = np.zeros((2 * n, n), dtype=complex)
    padded[np.ix_(freqs % (2 * n), freqs % n)] = table.coeffs
    return np.fft.ifft2(padded) * (2 * n * n)


def _direct_error(grid, rho, parity, points=6):
    """Largest |grid - direct_eval| over a spread of nodes."""
    n = grid.n
    thetas, phis = grid_thetas(n), grid_phis(n)
    nodes = np.linspace(0, n - 1, points).astype(int)
    return max(abs(grid.values[k, l] - direct_eval(rho, parity, thetas[k], phis[l]))
               for k in nodes for l in nodes[::-1])


@pytest.mark.parametrize("d", [2, 3, 64, 65])
@pytest.mark.parametrize("s", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("n_of_d", [lambda d: 2 * d, lambda d: 512], ids=["2d", "512"])
def test_real_synthesis_matches_reference_and_oracle(d, s, n_of_d):
    dim = SpinDimension.from_d(d)
    rho = random_density(dim, 300 + d)
    parity = build_parity(dim, s)
    table = fourier_coefficients_method_c(rho, parity)
    n = n_of_d(d)
    grid = sample_fft(table, n)
    assert grid.values.dtype == complex
    assert not grid.values.imag.any()
    assert grid.imag_residual() == 0.0
    reference = _reference_full(table, n)[:n]
    peak = np.abs(reference).max()
    assert np.abs(grid.values - reference).max() <= 1e-14 * peak
    assert _direct_error(grid, rho, parity) <= 1e-12 * max(1.0, peak)


@pytest.mark.parametrize("hermitian", [True, False])
def test_sample_fft_is_the_first_half_of_the_full_array(hermitian):
    dim = SpinDimension.from_d(7)
    rng = np.random.default_rng(7)
    general = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    rho = random_density(dim, 7) if hermitian else general
    table = fourier_coefficients_method_c(rho, build_parity(dim, 0.0))
    for n in (14, 40):
        assert np.array_equal(sample_fft(table, n).values, sample_fft_full(table, n)[:n])


@pytest.mark.parametrize("hermitian", [True, False], ids=["conjugate-symmetric", "general"])
def test_grids_do_not_depend_on_the_memory_layout_of_the_table(hermitian):
    d, n = 12, 32
    dim = SpinDimension.from_d(d)
    rng = np.random.default_rng(d)
    general = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = random_density(dim, d) if hermitian else general
    coeffs = fourier_coefficients_method_c(rho, build_parity(dim, 0.0)).coeffs
    assert np.array_equal(coeffs, np.conj(coeffs[::-1, ::-1])) == hermitian
    grids = []
    for layout in (np.ascontiguousarray(coeffs), np.asfortranarray(coeffs)):
        table = FourierTable(dim=dim, s=0.0, coeffs=layout)
        grids.append([sample_fft(t, n).values.tobytes()
                      for t in (table, derivative_coefficients(table, "theta"),
                                derivative_coefficients(table, "phi"))])
    assert grids[1] == grids[0]


def test_operators_off_hermitian_keep_the_complex_path():
    d = 9
    dim = SpinDimension.from_d(d)
    parity = build_parity(dim, -1.0)
    rng = np.random.default_rng(d)
    a, b = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(2))
    one_ulp = random_density(dim, 9)
    one_ulp[0, 1] = complex(np.nextafter(one_ulp[0, 1].real, np.inf), one_ulp[0, 1].imag)
    for rho in (np.outer(a, b.conj()), one_ulp):
        table = fourier_coefficients_method_c(rho, parity)
        for n in (2 * d, 64):
            grid = sample_fft(table, n)
            assert grid.values.imag.any()
            reference = _reference_full(table, n)[:n]
            peak = np.abs(reference).max()
            assert np.abs(grid.values - reference).max() <= 1e-14 * peak
            assert _direct_error(grid, rho, parity) <= 1e-12 * max(1.0, peak)


@pytest.mark.parametrize("s", [-1.0, 0.0])
def test_built_in_families_give_exactly_real_grids(s, tmp_path):
    from spinphase.fourier import derivative_coefficients
    from spinphase.kcache import fourier_coefficients_method_d, precompute_cache
    from spinphase.states import coherent, ghz, squeezed

    # d = 24: method c computes the pure families by its rank-one path.
    for d, n in ((9, 24), (24, 48)):
        dim = SpinDimension.from_d(d)
        cache = precompute_cache(dim, s, tmp_path / str(d))
        parity = build_parity(dim, s)
        families = [ghz(dim), dicke(dim, dim.j % 1), squeezed(dim, 0.05),
                    coherent(dim, 0.7, 1.9), maximally_mixed(dim), random_density(dim, 4)]
        for rho in families:
            for table in (fourier_coefficients_method_c(rho, parity),
                          fourier_coefficients_method_d(rho, cache)):
                for t in (table, derivative_coefficients(table, "theta"),
                          derivative_coefficients(table, "phi")):
                    assert not sample_fft(t, n).values.imag.any()


def _axis_0_synthesis(table, n, rows):
    """The two-step synthesis with step 1 run down the columns of the padded table.

    It keeps every output row of step 1 as a view; ``_synthesize`` now runs
    step 1 along rows of the transposed table and copies back only ``rows``.
    """
    two_j = table.dim.two_j
    c = table.coeffs
    real = np.array_equal(c, np.conj(c[::-1, ::-1]))
    cols = c[:, two_j:] if real else c
    padded = np.zeros((2 * n, cols.shape[1]), dtype=complex)
    padded[: two_j + 1] = cols[two_j:]
    padded[2 * n - two_j:] = cols[:two_j]
    theta = np.fft.ifft(padded, axis=0, norm="forward")[:rows]
    if real:
        return np.fft.irfft(theta, n, axis=1, norm="forward").astype(complex)
    wrapped = np.zeros((rows, n), dtype=complex)
    wrapped[:, : two_j + 1] = theta[:, two_j:]
    wrapped[:, n - two_j:] = theta[:, :two_j]
    return np.fft.ifft(wrapped, axis=1, norm="forward")


@pytest.mark.parametrize("hermitian", [True, False], ids=["conjugate-symmetric", "general"])
@pytest.mark.parametrize("d, n", [(5, 10), (33, 66), (40, 512)])
def test_synthesis_bits_equal_the_axis_0_formulation(hermitian, d, n):
    dim = SpinDimension.from_d(d)
    rng = np.random.default_rng(d)
    general = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = random_density(dim, d) if hermitian else general
    table = fourier_coefficients_method_c(rho, build_parity(dim, -1.0))
    assert np.array_equal(table.coeffs, np.conj(table.coeffs[::-1, ::-1])) == hermitian
    assert sample_fft(table, n).values.tobytes() == _axis_0_synthesis(table, n, n).tobytes()
    assert sample_fft_full(table, n).tobytes() == _axis_0_synthesis(table, n, 2 * n).tobytes()


@pytest.mark.parametrize("place", ["top half", "middle row", "bottom half"])
def test_one_ulp_off_symmetry_anywhere_keeps_the_complex_path(place):
    d, n = 9, 18
    dim = SpinDimension.from_d(d)
    table = fourier_coefficients_method_c(random_density(dim, 9), build_parity(dim, 0.0))
    two_j = dim.two_j
    i, j = {"top half": (1, 3), "middle row": (two_j, two_j + 2),
            "bottom half": (two_j + 3, 5)}[place]
    coeffs = table.coeffs.copy()
    coeffs[i, j] = complex(np.nextafter(coeffs[i, j].real, np.inf), coeffs[i, j].imag)
    nudged = FourierTable(dim=dim, s=0.0, coeffs=coeffs)
    values = sample_fft(nudged, n).values
    assert values.imag.any()
    assert values.tobytes() == _axis_0_synthesis(nudged, n, n).tobytes()
