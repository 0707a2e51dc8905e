import math

import numpy as np
import pytest
from scipy.special import sph_harm_y

from spinphase.angular import SpinDimension
from spinphase.cgc import (TensorOperatorTable, cg_families, expansion_coefficients,
                           harmonic_grid, harmonic_theta_profile, tensor_band,
                           tensor_bands, tensor_operator)
from spinphase.states import maximally_mixed, random_density

from reference import clebsch_gordan, clebsch_gordan_racah, method_b_eval, spherical_harmonic


def test_selection_rule_zero():
    assert clebsch_gordan(0.5, 0.5, 0.5, 0.5, 1, 0) == 0.0
    assert clebsch_gordan(2, 0, 1, 0, 5, 0) == 0.0  # outside triangle
    with pytest.raises(ValueError):
        clebsch_gordan(1, 1, 1, 1, 1, 2)  # |m| > j breaks the query invariant


def test_known_small_coefficients():
    assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0) == pytest.approx(1 / math.sqrt(2), abs=1e-14)
    assert clebsch_gordan(0.5, 0.5, 0.5, 0.5, 1, 1) == pytest.approx(1.0, abs=1e-14)
    assert clebsch_gordan(0.5, -0.5, 0.5, 0.5, 0, 0) == pytest.approx(-1 / math.sqrt(2), abs=1e-14)


def test_domain_errors():
    with pytest.raises(ValueError):
        clebsch_gordan(0.5, 0.0, 0.5, 0.5, 1, 0.5)  # m1 not half-integer for j1
    with pytest.raises(ValueError):
        clebsch_gordan(0.5, 0.5, 0.5, 0.5, 0.5, 1)  # j1+j2+j half-integer
    with pytest.raises(ValueError):
        clebsch_gordan(1, 2, 1, -1, 1, 1)  # |m1| > j1


def test_recursion_matches_racah_random_queries():
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(300):
        two_j1 = int(rng.integers(1, 30))
        two_j2 = int(rng.integers(1, 30))
        two_m1 = int(rng.integers(-two_j1, two_j1 + 1))
        two_m2 = int(rng.integers(-two_j2, two_j2 + 1))
        if (two_j1 - two_m1) % 2 or (two_j2 - two_m2) % 2:
            continue
        grid, fam = cg_families(two_j1, two_j2, two_m1, two_m2)
        for row, two_j in enumerate(grid):
            ref = clebsch_gordan_racah(two_j1 / 2, two_m1 / 2, two_j2 / 2,
                                       two_m2 / 2, two_j / 2, (two_m1 + two_m2) / 2)
            assert abs(fam[row, 0] - ref) < 1e-11
            checked += 1
    assert checked > 500


@pytest.mark.parametrize("two_j", [3, 8, 17, 40])
def test_tensor_bands_match_racah(two_j):
    dim = SpinDimension(two_j)
    j_spin = two_j / 2
    rng = np.random.default_rng(two_j)
    js = rng.choice(np.arange(two_j + 1), size=min(6, two_j + 1), replace=False)
    for j in js:
        m = int(rng.integers(-j, j + 1))
        bands = tensor_bands(dim, m)
        assert bands.shape == (dim.d - abs(m), dim.d - abs(m))
        assert np.array_equal(tensor_band(dim, int(j), m), bands[j - abs(m)])
        start = (dim.two_j + min(0, 2 * m)) / 2
        for rank, band in enumerate(bands, start=abs(m)):
            for i in range(band.size):
                m1 = start - i
                m2 = m1 - m
                ref = ((-1) ** round(j_spin - m2)
                       * clebsch_gordan_racah(j_spin, m1, j_spin, -m2, rank, m))
                assert abs(band[i] - ref) < 1e-11


def test_large_family_stays_normalized():
    grid, fam = cg_families(800, 800, 100, -60)
    assert np.all(np.isfinite(fam))
    assert abs(np.sum(fam ** 2) - 1.0) < 1e-12
    assert fam[-1, 0] > 0


def test_bands_at_d_1000_are_finite_and_orthonormal():
    # At these orders the two sweeps' values at the pivot row are more than
    # double range apart.
    dim = SpinDimension.from_d(1000)
    for m in (35, 40, 42, 43, 61, 75, 78):
        bands = tensor_bands(dim, m)
        assert np.all(np.isfinite(bands)), m
        assert np.abs(bands @ bands.T - np.eye(len(bands))).max() < 1e-13, m


def test_tensor_zero_rank_is_scaled_identity():
    for d in (2, 5, 12):
        dim = SpinDimension.from_d(d)
        expected = np.eye(d) / math.sqrt(d)
        assert np.abs(tensor_operator(dim, 0, 0) - expected).max() < 1e-13


def test_tensor_t10_half():
    dim = SpinDimension.from_d(2)
    expected = np.diag([1.0, -1.0]) / math.sqrt(2)
    assert np.abs(tensor_operator(dim, 1, 0) - expected).max() < 1e-14


def test_tensor_single_band():
    dim = SpinDimension.from_d(6)
    op = tensor_operator(dim, 3, -2)
    rows, cols = np.nonzero(op)
    assert np.all(cols - rows == -2)


def test_tensor_validation():
    dim = SpinDimension.from_d(4)
    with pytest.raises(ValueError):
        tensor_operator(dim, 4, 0)  # j > 2J
    with pytest.raises(ValueError):
        tensor_operator(dim, 2, 3)  # |m| > j
    with pytest.raises(ValueError):
        tensor_operator(dim, 1.5, 0)  # non-integer rank
    table = TensorOperatorTable(dim)
    for j, m in ((4, 0), (2, 3), (1.5, 0), (2, 0.5)):
        with pytest.raises(ValueError):
            table.band(j, m)
    for m in (4, -4, 0.5, 1.5):  # |m| > 2J or non-integer order
        with pytest.raises(ValueError):
            tensor_bands(dim, m)


def test_table_sweeps_once_per_order_and_cold_expansion_once_per_operator(monkeypatch):
    # The cold expansion is the method-b baseline that criterion 6 times; it
    # must keep paying one sweep per (j, m).
    from spinphase import cgc

    calls = []
    original = cgc.cg_families

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cgc, "cg_families", counting)
    dim = SpinDimension.from_d(4)
    table = TensorOperatorTable(dim)
    for m in range(-dim.two_j, dim.two_j + 1):
        for j in range(abs(m), dim.two_j + 1):
            table.band(j, m)
    assert len(calls) == 2 * dim.two_j + 1
    calls.clear()
    expansion_coefficients(random_density(dim, 3))
    assert len(calls) == (dim.two_j + 1) ** 2


@pytest.mark.parametrize("d", [2, 3, 5, 16])
def test_tensor_orthonormality(d):
    # Different m's occupy disjoint diagonals, so only same-m pairs matter.
    dim = SpinDimension.from_d(d)
    table = TensorOperatorTable(dim)
    for m in range(-dim.two_j, dim.two_j + 1):
        js = range(abs(m), dim.two_j + 1)
        for j1 in js:
            for j2 in js:
                gram = np.dot(np.conj(table.band(j1, m)), table.band(j2, m))
                expected = 1.0 if j1 == j2 else 0.0
                assert abs(gram - expected) < 1e-12


@pytest.mark.parametrize("d", [2, 4, 9, 16])
def test_tensor_column_completeness(d):
    # For each matrix position, the squared tensor entries over all (j, m) sum to 1.
    dim = SpinDimension.from_d(d)
    table = TensorOperatorTable(dim)
    totals = np.zeros((d, d))
    for m in range(-dim.two_j, dim.two_j + 1):
        for j in range(abs(m), dim.two_j + 1):
            band = table.band(j, m)
            idx = np.arange(band.size)
            if m >= 0:
                totals[idx, idx + m] += band ** 2
            else:
                totals[idx - m, idx] += band ** 2
    assert np.abs(totals - 1.0).max() < 1e-12


def test_printed_tensor_forms_coincide():
    # sqrt((2j+1)/d) C^{J m1}_{J m2, j m} equals the band entries built from
    # the exchanged-coupling form, entry by entry.
    for d in (2, 3, 6):
        dim = SpinDimension.from_d(d)
        j_spin = dim.j
        for j in range(dim.two_j + 1):
            for m in range(-j, j + 1):
                band = tensor_band(dim, j, m)
                start = j_spin + min(0, m)
                for i in range(band.size):
                    m1 = start - i
                    m2 = m1 - m
                    # first printed form couples (J, m2) with (j, m) to total (J, m1)
                    direct = (math.sqrt((2 * j + 1.0) / d)
                              * clebsch_gordan(j_spin, m2, j, m, j_spin, m1))
                    assert abs(band[i] - direct) < 1e-12


def test_expansion_of_identity():
    dim = SpinDimension.from_d(7)
    table = expansion_coefficients(maximally_mixed(dim))
    assert table.get(0, 0) == pytest.approx(1 / math.sqrt(7), abs=1e-13)
    for j in range(1, dim.two_j + 1):
        assert np.abs(table.rows[j]).max() < 1e-14


def test_expansion_of_tensor_operator():
    dim = SpinDimension.from_d(4)
    rho = tensor_operator(dim, 1, 1)
    table = expansion_coefficients(rho)
    for j in range(dim.two_j + 1):
        for m in range(-j, j + 1):
            expected = 1.0 if (j, m) == (1, 1) else 0.0
            assert abs(table.get(j, m) - expected) < 1e-12


def test_expansion_of_spin_up_is_axial():
    dim = SpinDimension.from_d(6)
    rho = np.zeros((6, 6), dtype=complex)
    rho[0, 0] = 1.0
    table = expansion_coefficients(rho)
    for j in range(dim.two_j + 1):
        for m in range(-j, j + 1):
            if m != 0:
                assert table.get(j, m) == 0.0


def test_expansion_hermitian_symmetry():
    dim = SpinDimension.from_d(9)
    table = expansion_coefficients(random_density(dim, 42))
    assert abs(table.get(0, 0) - 1 / math.sqrt(9)) < 1e-12
    for j in range(dim.two_j + 1):
        for m in range(0, j + 1):
            lhs = table.get(j, -m)
            rhs = (-1) ** m * np.conj(table.get(j, m))
            assert abs(lhs - rhs) < 1e-12


def test_harmonic_constants():
    assert spherical_harmonic(0, 0, 1.234, 5.0) == pytest.approx(0.28209479177387814, abs=1e-12)
    assert spherical_harmonic(1, 0, 0.0, 0.0) == pytest.approx(math.sqrt(3 / (4 * math.pi)), abs=1e-12)


def test_harmonic_rejects_bad_order():
    with pytest.raises(ValueError):
        spherical_harmonic(2, 3, 0.1, 0.2)


def test_harmonics_match_scipy():
    rng = np.random.default_rng(3)
    for _ in range(40):
        j = int(rng.integers(0, 30))
        m = int(rng.integers(-j, j + 1)) if j else 0
        theta = rng.uniform(0.05, np.pi - 0.05)
        phi = rng.uniform(0, 2 * np.pi)
        ref = complex(sph_harm_y(j, m, theta, phi))
        assert abs(spherical_harmonic(j, m, theta, phi) - ref) < 1e-11


def test_harmonic_quadrature_orthonormality():
    # Gauss-Legendre in cos(theta) x uniform trapezoid in phi integrates the
    # band-limited products exactly.
    j_max = 20
    nodes, weights = np.polynomial.legendre.leggauss(2 * j_max + 2)
    thetas = np.arccos(nodes)
    n_phi = 4 * j_max + 4
    phis = 2 * np.pi * np.arange(n_phi) / n_phi
    rng = np.random.default_rng(7)
    pairs = [((int(rng.integers(0, j_max + 1))), (int(rng.integers(0, j_max + 1))))
             for _ in range(10)]
    for j1, j2 in pairs:
        m1 = int(rng.integers(-j1, j1 + 1)) if j1 else 0
        m2 = int(rng.integers(-j2, j2 + 1)) if j2 else 0
        y1 = harmonic_grid(j1, m1, thetas, phis)
        y2 = harmonic_grid(j2, m2, thetas, phis)
        inner = np.sum(weights[:, None] * np.conj(y1) * y2) * (2 * np.pi / n_phi)
        expected = 1.0 if (j1, m1) == (j2, m2) else 0.0
        assert abs(inner - expected) < 1e-10


def test_harmonic_extreme_degree_is_finite():
    prof = harmonic_theta_profile(4000, 137, np.linspace(0.2, 2.9, 7))
    assert np.all(np.isfinite(prof))
    assert np.abs(prof).max() > 0


def test_harmonic_addition_theorem():
    j = 300
    theta = 0.7
    total = sum(abs(harmonic_theta_profile(j, m, theta)[0]) ** 2
                for m in range(-j, j + 1))
    assert abs(total - (2 * j + 1) / (4 * np.pi)) < 1e-11


def test_method_b_mixed_state_value():
    from spinphase.parity import sphere_radius

    for d in (2, 5, 9):
        dim = SpinDimension.from_d(d)
        got = method_b_eval(maximally_mixed(dim), 0.0, 0.9, 2.1)
        expected = 1.0 / (sphere_radius(dim) * math.sqrt(4 * math.pi * d))
        assert abs(got - expected) < 1e-13
    assert abs(method_b_eval(maximally_mixed(SpinDimension.from_d(2)), 0.0, 0.3, 0.4)
               - 1 / math.sqrt(2)) < 1e-13


def test_method_b_tensor_gives_harmonic():
    from spinphase.parity import sphere_radius

    dim = SpinDimension.from_d(5)
    radius = sphere_radius(dim)
    for (j, m) in [(1, 1), (3, -2), (4, 0)]:
        rho = tensor_operator(dim, j, m)
        for theta, phi in [(0.4, 1.0), (2.2, 5.5)]:
            got = method_b_eval(rho, 0.0, theta, phi)
            assert abs(got - spherical_harmonic(j, m, theta, phi) / radius) < 1e-12


@pytest.mark.parametrize("d", [2, 5, 10, 16])
def test_method_b_matches_direct_oracle(d):
    from spinphase.parity import build_parity
    from spinphase.sampling import direct_eval

    dim = SpinDimension.from_d(d)
    rho = random_density(dim, d)
    for s in (-1.0, -0.5, 0.0):
        parity = build_parity(dim, s)
        for theta, phi in [(0.3, 0.9), (1.8, 4.0)]:
            assert abs(method_b_eval(rho, s, theta, phi)
                       - direct_eval(rho, parity, theta, phi)) < 1e-10


@pytest.mark.parametrize("d_table, d_rho", [(4, 5), (5, 4)])
def test_expansion_rejects_a_table_of_another_dimension(d_table, d_rho):
    table = TensorOperatorTable(SpinDimension.from_d(d_table))
    rho = random_density(SpinDimension.from_d(d_rho), 3)
    with pytest.raises(ValueError, match=f"table is for d = {d_table}, but rho has d = {d_rho}"):
        expansion_coefficients(rho, table)
