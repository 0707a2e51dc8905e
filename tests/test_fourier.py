import math
import threading

import numpy as np
import pytest

from spinphase import fourier
from spinphase.angular import EigenBasis, SpinDimension, jy_eigenbasis
from spinphase.fourier import (FourierTable, compute_k, derivative_coefficients,
                               fourier_coefficients_method_c)
from spinphase.kcache import KCache, fourier_coefficients_method_d, precompute_cache
from spinphase.parity import ParityOperator, build_parity, transform_parity
from spinphase.sampling import direct_eval, direct_grid, grid_phis, grid_thetas, \
    method_b_grid, minimal_grid_size, sample_fft
from spinphase.states import coherent, dicke, ghz, maximally_mixed, random_density, squeezed

from reference import column, eval_series, projector_am


def _table(d, s, seed=None, rho=None):
    dim = SpinDimension.from_d(d)
    if rho is None:
        rho = random_density(dim, seed)
    parity = build_parity(dim, s)
    return rho, parity, fourier_coefficients_method_c(rho, parity)


def test_k_band_edge_is_rank_one():
    dim = SpinDimension.from_d(6)
    basis = jy_eigenbasis(dim)
    mtilde = transform_parity(build_parity(dim, 0.0), basis)
    two_j = dim.two_j
    k = compute_k(basis, mtilde, two_j)
    lo = column(basis, -dim.j)
    hi = column(basis, dim.j)
    expected = mtilde[0, -1] * np.outer(lo, hi.conj())
    assert np.abs(k - expected).max() < 1e-13
    assert np.linalg.matrix_rank(k, tol=1e-10) == 1


def test_k_outside_band_is_zero():
    dim = SpinDimension.from_d(4)
    basis = jy_eigenbasis(dim)
    mtilde = transform_parity(build_parity(dim, 0.0), basis)
    assert np.abs(compute_k(basis, mtilde, dim.two_j + 1)).max() == 0.0
    assert np.abs(compute_k(basis, mtilde, -dim.two_j - 3)).max() == 0.0


def test_k_and_transformed_parity_are_read_only_arrays():
    dim = SpinDimension.from_d(4)
    basis = jy_eigenbasis(dim)
    mtilde = transform_parity(build_parity(dim, 0.0), basis)
    for matrix in (mtilde, compute_k(basis, mtilde, 1)):
        assert type(matrix) is np.ndarray and matrix.shape == (4, 4)
        assert not matrix.flags.writeable


def test_k_dimension_mismatch():
    basis = jy_eigenbasis(SpinDimension.from_d(4))
    dim = SpinDimension.from_d(5)
    mtilde = transform_parity(build_parity(dim, 0.0), jy_eigenbasis(dim))
    with pytest.raises(ValueError, match="dimensions differ"):
        compute_k(basis, mtilde, 0)


@pytest.mark.parametrize("d", [2, 5, 10, 16])
def test_k_matches_projector_chain(d):
    # Dense oracle: K_ell = sum_nu A_nu M A_{nu+ell}.
    dim = SpinDimension.from_d(d)
    basis = jy_eigenbasis(dim)
    parity = build_parity(dim, -0.5)
    mtilde = transform_parity(parity, basis)
    m_dense = parity.matrix()
    projectors = {m: projector_am(basis, m) for m in dim.m_values()}
    for ell in range(-dim.two_j, dim.two_j + 1):
        expected = np.zeros((d, d), dtype=complex)
        for nu in np.arange(-dim.j, dim.j + 1):
            if abs(nu + ell) > dim.j:
                continue
            expected += projectors[nu] @ m_dense @ projectors[nu + ell]
        got = compute_k(basis, mtilde, ell)
        assert np.abs(got - expected).max() < 1e-11


def test_k_gauge_invariance():
    dim = SpinDimension.from_d(9)
    basis = jy_eigenbasis(dim)
    parity = build_parity(dim, 0.0)
    rng = np.random.default_rng(21)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, dim.d))
    twisted = EigenBasis(dim=dim, eigenvalues=basis.eigenvalues,
                         vectors=basis.vectors * phases)
    for ell in (-dim.two_j, -3, 0, 2, dim.two_j):
        reference = compute_k(basis, transform_parity(parity, basis), ell)
        regauged = compute_k(twisted, transform_parity(parity, twisted), ell)
        assert np.abs(reference - regauged).max() < 1e-13


def test_k_conjugation_symmetry():
    dim = SpinDimension.from_d(7)
    basis = jy_eigenbasis(dim)
    mtilde = transform_parity(build_parity(dim, 0.0), basis)
    for ell in range(0, dim.two_j + 1):
        plus = compute_k(basis, mtilde, ell)
        minus = compute_k(basis, mtilde, -ell)
        assert np.abs(minus - plus.conj().T).max() < 1e-12


def test_method_c_mixed_state_half():
    _, _, table = _table(2, 0.0, rho=maximally_mixed(SpinDimension.from_d(2)))
    assert table.get(0, 0) == pytest.approx(1 / math.sqrt(2), abs=1e-13)
    coeffs = table.coeffs.copy()
    coeffs[1, 1] = 0.0  # the checked center entry
    assert np.abs(coeffs).max() < 1e-13


@pytest.mark.parametrize("d", [3, 7, 10])
def test_method_c_mixed_state_dc_only(d):
    _, _, table = _table(d, 0.0, rho=maximally_mixed(SpinDimension.from_d(d)))
    two_j = d - 1
    for ell in range(-two_j, two_j + 1):
        if ell != 0:
            assert abs(table.get(ell, 0)) < 1e-13


def test_method_c_diagonal_state_single_column():
    dim = SpinDimension.from_d(7)
    rho = dicke(dim, 1.0)
    _, _, table = _table(7, 0.0, rho=rho)
    two_j = dim.two_j
    off = table.coeffs.copy()
    off[:, two_j] = 0.0
    assert np.abs(off).max() == 0.0


def test_method_c_ghz_edge_columns():
    dim = SpinDimension.from_d(6)
    rho = ghz(dim)
    basis = jy_eigenbasis(dim)
    parity = build_parity(dim, 0.0)
    table = fourier_coefficients_method_c(rho, parity)
    mtilde = transform_parity(parity, basis)
    two_j = dim.two_j
    for ell in range(-two_j, two_j + 1):
        k = compute_k(basis, mtilde, ell)
        # single-term sums at the band edges: only one corner entry survives
        assert table.get(ell, two_j) == pytest.approx(rho[0, -1] * k[-1, 0], abs=1e-15)
        assert table.get(ell, -two_j) == pytest.approx(rho[-1, 0] * k[0, -1], abs=1e-15)
    edge = np.abs(table.coeffs[:, [0, -1]]).max()
    assert edge > 1e-3  # the interference fringes live in these columns


@pytest.mark.parametrize("d,s", [(5, 0.0), (12, -1.0), (9, -0.5)])
def test_hermitian_symmetry(d, s):
    _, _, table = _table(d, s, seed=d)
    two_j = d - 1
    for ell in range(-two_j, two_j + 1):
        for m in range(-two_j, two_j + 1):
            assert abs(table.get(-ell, -m) - np.conj(table.get(ell, m))) < 1e-11


def test_z_rotation_covariance():
    d = 8
    dim = SpinDimension.from_d(d)
    rho = random_density(dim, 31)
    parity = build_parity(dim, 0.0)
    table = fourier_coefficients_method_c(rho, parity)
    phi0 = 0.619
    jz_phases = np.exp(1j * phi0 * dim.m_values())
    rotated = (jz_phases[:, None] * rho) * jz_phases.conj()[None, :]
    table_rot = fourier_coefficients_method_c(rotated, parity)
    m_freqs = table.frequencies()
    expected = table.coeffs * np.exp(1j * m_freqs * phi0)[None, :]
    assert np.abs(table_rot.coeffs - expected).max() < 1e-11


def test_linearity():
    dim = SpinDimension.from_d(6)
    parity = build_parity(dim, 0.0)
    rho1 = random_density(dim, 1)
    rho2 = random_density(dim, 2)
    a, b = 0.3, 1.7
    direct = fourier_coefficients_method_c(a * rho1 + b * rho2, parity)
    combo = (a * fourier_coefficients_method_c(rho1, parity).coeffs
             + b * fourier_coefficients_method_c(rho2, parity).coeffs)
    assert np.abs(direct.coeffs - combo).max() < 1e-14


@pytest.mark.parametrize("d", [2, 5, 8, 16])
@pytest.mark.parametrize("s", [-1.0, -0.5, 0.0])
def test_series_equals_rotated_kernel_oracle(d, s):
    dim = SpinDimension.from_d(d)
    rho = random_density(dim, 100 + d)
    parity = build_parity(dim, s)
    table = fourier_coefficients_method_c(rho, parity)
    n = minimal_grid_size(dim)
    grid = sample_fft(table, n)
    thetas, phis = grid_thetas(n), grid_phis(n)
    errs = []
    for k in range(0, n, max(1, n // 6)):
        for l in range(0, n, max(1, n // 6)):
            ref = direct_eval(rho, parity, thetas[k], phis[l])
            errs.append(abs(grid.values[k, l] - ref))
    assert np.sqrt(np.mean(np.square(errs))) < 1e-10


def test_derivative_of_constant_is_zero():
    dim = SpinDimension.from_d(4)
    coeffs = np.zeros((7, 7), dtype=complex)
    coeffs[3, 3] = 2.2
    table = FourierTable(dim=dim, s=0.0, coeffs=coeffs)
    for variable in ("theta", "phi"):
        assert np.abs(derivative_coefficients(table, variable).coeffs).max() == 0.0


def test_phi_derivative_of_diagonal_state_is_zero():
    dim = SpinDimension.from_d(9)
    _, _, table = _table(9, 0.0, rho=dicke(dim, -2.0))
    assert np.abs(derivative_coefficients(table, "phi").coeffs).max() == 0.0


def test_derivative_rejects_unknown_variable():
    _, _, table = _table(3, 0.0, seed=0)
    with pytest.raises(ValueError):
        derivative_coefficients(table, "psi")


def _shifted(table, dtheta=0.0, dphi=0.0):
    f = table.frequencies()
    coeffs = (table.coeffs * np.exp(1j * f * dtheta)[:, None]
              * np.exp(1j * f * dphi)[None, :])
    return FourierTable(dim=table.dim, s=table.s, coeffs=coeffs)


def test_theta_derivative_matches_central_differences():
    d = 8
    dim = SpinDimension.from_d(d)
    rho = random_density(dim, 77)
    table = fourier_coefficients_method_c(rho, build_parity(dim, 0.0))
    n = 8 * d
    h = 1e-5
    analytic = sample_fft(derivative_coefficients(table, "theta"), n).values
    fd = (sample_fft(_shifted(table, dtheta=h), n).values
          - sample_fft(_shifted(table, dtheta=-h), n).values) / (2 * h)
    assert np.abs(analytic - fd).max() < 1e-6


def _diag_sum_plan(d):
    """Diagonal index (offset + d - 1) of every flat entry of a d x d array.

    ``np.bincount(plan, weights=h.ravel())`` adds each diagonal of h in the
    order of ``_RowSums``' running sums, which makes it their reference.
    """
    idx = np.arange(d)
    return (idx[None, :] - idx[:, None] + (d - 1)).ravel()


def _diagonal_sums(h):
    """Sums of every diagonal of h through ``_RowSums``, offset -(d-1)..(d-1).

    Each term is 1 * h[i, j]: h itself up to the sign of a zero, which no
    sum from +0.0 keeps.
    """
    rows = fourier._RowSums(np.ones_like(h))
    return rows.row(h.T, rows.scratch())


def test_diagonal_sum_branches_agree():
    # d > 256 switches from running sums in the skew buffer, which add in
    # bincount's order, to per-diagonal pairwise summation.
    rng = np.random.default_rng(12)
    d = 300
    h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    pairwise = _diagonal_sums(h)  # d > threshold: pairwise branch
    binned = (np.bincount(_diag_sum_plan(d), weights=h.real.ravel(), minlength=2 * d - 1)
              + 1j * np.bincount(_diag_sum_plan(d), weights=h.imag.ravel(), minlength=2 * d - 1))
    scale = np.abs(binned).max()
    assert np.abs(pairwise - binned).max() < 1e-13 * scale


def test_scatter_add_branch_matches_bincount_bit_for_bit():
    rng = np.random.default_rng(13)
    for d in (2, 7, 200, 256):
        h = ((rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
             * 10.0 ** rng.integers(-30, 30, (d, d)))
        plan = _diag_sum_plan(d)
        binned = (np.bincount(plan, weights=h.real.ravel(), minlength=2 * d - 1)
                  + 1j * np.bincount(plan, weights=h.imag.ravel(), minlength=2 * d - 1))
        assert np.array_equal(_diagonal_sums(h), binned)


@pytest.mark.parametrize("d", [12, 65])
@pytest.mark.parametrize("s", [-1.0, 0.0])
def test_mirrored_rows_match_rows_built_from_their_own_k(d, s, tmp_path):
    # The half path fills ell < 0 from ell > 0, so criterion 4's Hermitian
    # symmetry check passes by construction there; here every ell < 0 row is
    # built from K_ell itself, which keeps K_{-ell} = K_ell^H under test.
    from spinphase.fourier import _k_matrix, _RowSums, accumulate_row

    dim = SpinDimension.from_d(d)
    rho = random_density(dim, 40 + d)
    basis = jy_eigenbasis(dim)
    parity = build_parity(dim, s)
    mtilde = transform_parity(parity, basis)
    two_j = dim.two_j
    rows = _RowSums(rho)
    direct = np.array([accumulate_row(rows, _k_matrix(basis.vectors, mtilde, ell), rows.scratch())
                       for ell in range(-two_j, 0)])
    for table in (fourier_coefficients_method_c(rho, parity),
                  fourier_coefficients_method_d(rho, precompute_cache(dim, s, tmp_path))):
        assert np.abs(table.coeffs[:two_j] - direct).max() < 1e-13


@pytest.mark.parametrize("d", [12, 65])
def test_mirrored_half_of_row_zero_matches_its_own_k(d, tmp_path):
    # Row 0 keeps its m >= 0 half from K_0 and mirrors the rest, so here the
    # m < 0 half of accumulate_row(rho, K_0) keeps K_0 = K_0^H under test.
    from spinphase.fourier import _k_matrix, _RowSums, accumulate_row

    dim = SpinDimension.from_d(d)
    rho = random_density(dim, 50 + d)
    basis = jy_eigenbasis(dim)
    parity = build_parity(dim, 0.0)
    two_j = dim.two_j
    rows = _RowSums(rho)
    row0 = accumulate_row(rows, _k_matrix(basis.vectors, transform_parity(parity, basis), 0),
                          rows.scratch())
    for table in (fourier_coefficients_method_c(rho, parity),
                  fourier_coefficients_method_d(rho, precompute_cache(dim, 0.0, tmp_path))):
        assert np.abs(table.coeffs[two_j, :two_j] - row0[:two_j]).max() < 1e-13
        assert abs(table.coeffs[two_j, two_j] - row0[two_j]) < 1e-13


def test_hermitian_table_is_exactly_conjugate_symmetric_despite_roundoff(monkeypatch):
    # A different BLAS may leave roundoff in Im F_00 or in F_{0,-m} - conj(F_{0m});
    # inject some into every accumulated row and expect an exact mirror anyway.
    accumulate = fourier.accumulate_row
    monkeypatch.setattr(fourier, "accumulate_row",
                        lambda rows, k, skew: accumulate(rows, k, skew) + (1e-19 + 3e-19j))
    dim = SpinDimension.from_d(7)
    rho = random_density(dim, 3)
    table = fourier_coefficients_method_c(rho, build_parity(dim, 0.0))
    c = table.coeffs
    assert np.array_equal(c, np.conj(c[::-1, ::-1]))
    assert not sample_fft(table, 14).values.imag.any()


@pytest.mark.parametrize("d", [6, 9])
def test_only_exactly_hermitian_rho_takes_the_half_path(d, tmp_path, monkeypatch):
    calls = {"accumulate_row": 0, "read_k": 0}
    lock = threading.Lock()  # method d counts from two threads

    def counted(name, func):
        def wrapper(*args):
            with lock:
                calls[name] += 1
            return func(*args)
        return wrapper

    monkeypatch.setattr(fourier, "accumulate_row",
                        counted("accumulate_row", fourier.accumulate_row))
    monkeypatch.setattr(KCache, "read_k", counted("read_k", KCache.read_k))
    dim = SpinDimension.from_d(d)
    parity = build_parity(dim, -0.5)
    cache = precompute_cache(dim, -0.5, tmp_path)
    n = minimal_grid_size(dim)
    two_j = dim.two_j
    rng = np.random.default_rng(d)
    a, b = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(2))
    hermitian = random_density(dim, 9)
    one_ulp = hermitian.copy()
    one_ulp[0, 1] = complex(np.nextafter(one_ulp[0, 1].real, np.inf), one_ulp[0, 1].imag)
    for rho in (hermitian, np.outer(a, b.conj()), one_ulp):
        rows = two_j + 1 if rho is hermitian else 2 * two_j + 1  # 2J+1 or 4J+1
        calls.update(accumulate_row=0, read_k=0)
        grid_c = sample_fft(fourier_coefficients_method_c(rho, parity), n).values
        assert calls["accumulate_row"] == rows
        calls.update(accumulate_row=0, read_k=0)
        grid_d = sample_fft(fourier_coefficients_method_d(rho, cache), n).values
        assert calls == {"accumulate_row": rows, "read_k": 2 * d - 1}
        oracles = [direct_grid(rho, parity, n).values, method_b_grid(rho, -0.5, n).values]
        for grid in (grid_c, grid_d):
            for oracle in oracles:
                assert np.sqrt(np.mean(np.abs(grid - oracle) ** 2)) <= 1e-9


def _theta_integrals(two_j):
    """I_ell = int_0^pi exp(i ell theta) sin(theta) dtheta for ell = -2J..2J."""
    ells = np.arange(-two_j, two_j + 1)
    out = np.zeros(ells.size, dtype=complex)
    for k, ell in enumerate(ells):
        if abs(ell) == 1:
            out[k] = 0.5j * np.pi * ell
        else:
            out[k] = (1 + (-1) ** abs(ell)) / (1 - ell * ell)
    return out


@pytest.mark.parametrize("d", [2, 5, 30, 101])
@pytest.mark.parametrize("s", [-1.0, 0.0])
def test_sphere_integral_equals_weighted_trace(d, s):
    # R^2 * int f dOmega = gamma_0^(1-s) Tr rho, from column m = 0 of the table.
    # Glauber (s = 1) is left out: its residual grows with max 1/gamma_j.
    dim = SpinDimension.from_d(d)
    radius_sq = dim.j / (2 * np.pi)
    gamma_0 = np.sqrt(dim.two_j / (dim.two_j + 1))
    parity = build_parity(dim, s)
    rng = np.random.default_rng(d)
    general = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    general /= np.linalg.norm(general)  # non-Hermitian, on the scale of a density matrix
    # Dicke and GHZ take the diagonal K build at d = 101, the full one below.
    for rho in (random_density(dim, d), general, dicke(dim, dim.j - 1), ghz(dim)):
        table = fourier_coefficients_method_c(rho, parity)
        integral = 2 * np.pi * table.coeffs[:, dim.two_j] @ _theta_integrals(dim.two_j)
        expected = gamma_0 ** (1 - s) * np.trace(rho)
        assert abs(radius_sq * integral - expected) < 1e-12


# The fused accumulation against reference formulas: the diagonal sums
# of rho * K^T, term by term through np.add.at for d <= 256 and one pairwise
# np.sum per diagonal above.  Bytes are compared, so even the sign of a zero
# coefficient counts.

def _reference_row(rho, k):
    h = rho * k.T
    d = h.shape[0]
    if d <= 256:
        out = np.zeros(2 * d - 1, dtype=complex)
        np.add.at(out, _diag_sum_plan(d), h.ravel())
        return out
    out = np.empty(2 * d - 1, dtype=complex)
    for off in range(-(d - 1), d):
        out[off + d - 1] = np.sum(np.diagonal(h, off))
    return out


def _wide_range(rng, d):
    """Complex entries spanning 1e-20..1e20, so any change of summation order shows."""
    shape = (d, d)
    return ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            * 10.0 ** rng.integers(-20, 21, shape))


def _accumulation_inputs(d, rng):
    from spinphase.cgc import tensor_operator

    dim = SpinDimension.from_d(d)
    dense = _wide_range(rng, d)  # non-Hermitian
    one_zero_diagonal = dense.copy()
    one_zero_diagonal[np.arange(d - 1), np.arange(1, d)] = 0.0
    inputs = {
        "dense": dense,
        "one zero diagonal": one_zero_diagonal,
        "dicke": dicke(dim, dim.j - 1),
        "ghz": ghz(dim),
        "diagonal only": np.diag(dense.diagonal()),
        "band": np.triu(np.tril(dense, 2), -3),
        "F-ordered": np.asfortranarray(dense),
        "non-contiguous": _wide_range(rng, 2 * d)[::2, ::2],
        "zero": np.zeros((d, d), dtype=complex),
    }
    for j, m in ((min(3, d - 1), -min(2, d - 1)), (d - 1, d - 1), (1, 0)):
        inputs[f"T_{j}{m}"] = tensor_operator(dim, j, m)
    return inputs


@pytest.mark.parametrize("d", [2, 7, 200, 256, 257, 320])
def test_fused_rows_match_the_reference_formula_bit_for_bit(d):
    from spinphase.fourier import _RowSums, accumulate_row

    rng = np.random.default_rng(d)
    k = _wide_range(rng, d)
    for name, rho in _accumulation_inputs(d, rng).items():
        expected = _reference_row(rho, k).tobytes()
        prepared = _RowSums(rho)
        skew = prepared.scratch()
        for _ in range(2):  # the skew buffer is reused row after row
            assert accumulate_row(prepared, k, skew).tobytes() == expected, name
        k = _wide_range(rng, d)


@pytest.mark.parametrize("d", [7, 200])
def test_running_sums_start_from_positive_zero(d):
    # rho_ii * K_ii underflows to -0.0 on the whole main diagonal; np.add.at
    # starts from +0.0, so the coefficient is +0.0, not -0.0.
    from spinphase.fourier import _RowSums, accumulate_row

    for rho in (np.diag(np.full(d, 1e-300 + 0j)), np.full((d, d), 1e-300 + 0j)):
        k = np.full((d, d), -1e-300 + 0j)
        prepared = _RowSums(rho)
        row = accumulate_row(prepared, k, prepared.scratch())
        assert row.tobytes() == _reference_row(rho, k).tobytes()
        assert not np.signbit(row[d - 1].real)


def _reference_table(monkeypatch, build, rho):
    """The table ``build`` makes when every row comes from the reference formula."""
    with monkeypatch.context() as patch:
        patch.setattr(fourier, "accumulate_row",
                      lambda prepared, k, skew: _reference_row(prepared.rho_t.T, k))
        return build(rho).coeffs


@pytest.mark.parametrize("d", [7, 40])
@pytest.mark.parametrize("s", [-1.0, 0.5])
def test_fused_tables_match_the_reference_formula_bit_for_bit(d, s, tmp_path, monkeypatch):
    # Rows above d = 256 are covered row by row above; their tables take seconds.
    from spinphase.cgc import tensor_operator

    dim = SpinDimension.from_d(d)
    parity = build_parity(dim, s)
    cache = precompute_cache(dim, s, tmp_path)
    rng = np.random.default_rng(d)
    rhos = [ghz(dim), dicke(dim, -dim.j), tensor_operator(dim, 2, 1),
            random_density(dim, d), _wide_range(rng, d)]
    for rho in rhos:
        for build in (lambda r: fourier_coefficients_method_c(r, parity),
                      lambda r: fourier_coefficients_method_d(r, cache)):
            expected = _reference_table(monkeypatch, build, rho)
            assert build(rho).coeffs.tobytes() == expected.tobytes()


def test_tables_built_in_threads_match_the_serial_tables(tmp_path):
    # Each filling thread of a table has its own skew buffer, while the
    # memoized Mtilde rows are shared; a shared buffer would mix rows of
    # different states once threads interleave inside NumPy calls.
    import sys
    from concurrent.futures import ThreadPoolExecutor

    d = 64
    dim = SpinDimension.from_d(d)
    parity = build_parity(dim, 0.0)
    cache = precompute_cache(dim, 0.0, tmp_path)
    rng = np.random.default_rng(5)
    rhos = [random_density(dim, 1), ghz(dim), _wide_range(rng, d), dicke(dim, 0.5),
            random_density(dim, 2), np.triu(np.tril(_wide_range(rng, d), 1), -1)]
    jobs = [(rho, method) for rho in rhos for method in "cd"]

    def table(job):
        rho, method = job
        if method == "c":
            return fourier_coefficients_method_c(rho, parity).coeffs.tobytes()
        return fourier_coefficients_method_d(rho, cache).coeffs.tobytes()

    serial = [table(job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            for _ in range(3):
                assert list(pool.map(table, jobs, timeout=120)) == serial
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("d", [2, 3, 64, 65, 257])
def test_two_thread_method_d_tables_match_one_thread_tables(d, tmp_path, monkeypatch):
    # Odd and even row counts, on both sides of _PAIRWISE_THRESHOLD.  The
    # helper thread runs whatever the CPU count of the machine.
    import shutil

    monkeypatch.setattr(fourier, "_usable_cpus", lambda: 2)
    dim = SpinDimension.from_d(d)
    cache = precompute_cache(dim, 0.0, tmp_path / "cache")
    read_k = cache.read_k
    readers = set()

    def recorded(ell):
        readers.add(threading.get_ident())
        return read_k(ell)

    monkeypatch.setattr(cache, "read_k", recorded)
    rng = np.random.default_rng(d)
    a, b = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(2))
    one_ulp = random_density(dim, d)
    one_ulp[0, -1] = complex(np.nextafter(one_ulp[0, -1].real, np.inf), one_ulp[0, -1].imag)
    rhos = {"ghz": ghz(dim), "dicke": dicke(dim, dim.j - 1), "squeezed": squeezed(dim, 0.3),
            "coherent": coherent(dim, 0.7, 1.9), "mixed": maximally_mixed(dim),
            "random": random_density(dim, d), "|a><b|": np.outer(a, b.conj()),
            "one ulp": one_ulp}
    try:
        for name, rho in rhos.items():
            serial = fourier._fill_table(fourier._RowSums(rho), np.array_equal(rho, rho.conj().T),
                                         range(1 - d, d), read_k, on_mirrored=read_k)
            readers.clear()
            table = fourier_coefficients_method_d(rho, cache)
            assert len(readers) == 2, name
            assert table.coeffs.tobytes() == serial.tobytes(), name
    finally:
        shutil.rmtree(cache.directory)  # 540 MB at d = 257


def test_one_usable_cpu_starts_no_thread(tmp_path, monkeypatch):
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert fourier._usable_cpus() == 1
    dim = SpinDimension.from_d(9)
    cache = precompute_cache(dim, 0.0, tmp_path)
    threads = threading.active_count()
    readers = set()
    read_k = cache.read_k

    def recorded(ell):
        readers.add(threading.get_ident())
        assert threading.active_count() == threads
        return read_k(ell)

    monkeypatch.setattr(cache, "read_k", recorded)
    fourier_coefficients_method_d(random_density(dim, 4), cache)
    assert readers == {threading.get_ident()}


# Method c forms one product per nonzero diagonal of rho, and no K_ell, when
# those diagonals hold at most d^2 / _FEW_DIAGONAL_GATE cells.

def _band(dim, half_width):
    """Hermitian random rho restricted to the diagonals |k| <= half_width."""
    rho = random_density(dim, dim.d)
    return np.triu(np.tril(rho, half_width), -half_width)


def _cells(rho):
    """Cells on the nonzero diagonals of rho: the E the switch compares with d^2."""
    d = rho.shape[0]
    return sum(d - abs(k) for k in range(1 - d, d) if np.diagonal(rho, k).any())


def _sparse_inputs(dim):
    from spinphase.cgc import tensor_operator

    d = dim.d
    budget = d * d // fourier._FEW_DIAGONAL_GATE
    widest = max(b for b in range(d) if sum(d - abs(k) for k in range(-b, b + 1)) <= budget)
    corners = np.zeros((d, d), dtype=complex)  # enough diagonals for the dense product
    for k in range(d - 1, d - 1 - -(-d * d // 2048), -1):
        corners += np.diag(np.full(d - k, 0.25 + 0.5j), k)
    corners += corners.conj().T
    outer = np.zeros((d, d), dtype=complex)
    outer[dim.index_of_m(dim.j - 1), dim.index_of_m(-dim.j + 3)] = 1.0  # |J, J-1><J, 3-J|
    return {
        "dicke J": dicke(dim, dim.j),
        "dicke 0": dicke(dim, dim.j % 1),
        "dicke 1-J": dicke(dim, 1 - dim.j),
        "ghz": ghz(dim),
        "T_32": tensor_operator(dim, 3, 2),
        "outer": outer,
        "zero": np.zeros((d, d), dtype=complex),
        "corners": corners,
        "band below": _band(dim, widest),
        "band above": _band(dim, widest + 1),
    }


def _full_k_tables(rhos, dim, s):
    """Tables ``_fill_table`` builds from full ``compute_k`` matrices.

    One pass over ell computes each K_ell once and accumulates from it the
    row of every rho that ``_fill_table`` reads (a Hermitian rho mirrors its
    rows ell < 0); ``_fill_table`` then lays each table out from those rows.
    """
    basis = jy_eigenbasis(dim)
    mtilde = transform_parity(build_parity(dim, s), basis)
    prepared = [fourier._RowSums(rho) for rho in rhos]
    hermitian = [np.array_equal(rho, rho.conj().T) for rho in rhos]
    first = [0 if h else -dim.two_j for h in hermitian]
    rows = [{} for _ in rhos]
    for ell in range(-dim.two_j, dim.two_j + 1):
        k = compute_k(basis, mtilde, ell)
        for p, lowest, r in zip(prepared, first, rows):
            if ell >= lowest:
                r[ell] = p.row(k, p.scratch())
    for p, r in zip(prepared, rows):
        p.row = lambda ell, skew, r=r: r[ell]  # k_of_ell below passes ell itself: replay its row
    ells = range(-dim.two_j, dim.two_j + 1)
    return [fourier._fill_table(p, h, ells, lambda ell: ell) for p, h in zip(prepared, hermitian)]


def _assert_matches_full_k(table, reference, rho, parity, name):
    # Each build rounds a K entry at eps times its terms, which reach 7e7
    # at s = 0.5 and d = 64 while the table stays near 1: the bound adds
    # eps ||rho||_F ||M_s||_F, the rounding scale of any route there.
    bound = (1e-13 * max(1.0, np.abs(reference).max())
             + np.finfo(float).eps * np.linalg.norm(rho) * np.linalg.norm(parity.diag))
    assert np.abs(table - reference).max() <= bound, name


# Every order below _PAIRWISE_THRESHOLD, and every order once above it:
# the full-K reference takes seconds per order there.
@pytest.mark.parametrize("d, s", [(d, s) for d in (34, 64, 65) for s in (-1.0, 0.0, 0.5)]
                         + [(257, -1.0), (257, 0.5), (320, 0.0)])
def test_diagonal_k_build_matches_tables_from_full_k(d, s, monkeypatch):
    dim = SpinDimension.from_d(d)
    inputs = _sparse_inputs(dim)
    assert fourier._RowSums(inputs["corners"]).dense  # many diagonals, few cells
    references = _full_k_tables(list(inputs.values()), dim, s)
    calls = []
    rows = []
    k_matrix = fourier._k_matrix
    accumulate = fourier.accumulate_row

    def counted(*args):
        calls.append(args[2])
        return k_matrix(*args)

    def counted_rows(*args):
        rows.append(args)
        return accumulate(*args)

    monkeypatch.setattr(fourier, "_k_matrix", counted)
    monkeypatch.setattr(fourier, "accumulate_row", counted_rows)
    parity = build_parity(dim, s)
    for (name, rho), reference in zip(inputs.items(), references):
        calls.clear()
        rows.clear()
        table = fourier_coefficients_method_c(rho, parity).coeffs
        _assert_matches_full_k(table, reference, rho, parity, name)
        hermitian = np.array_equal(rho, rho.conj().T)
        full = _cells(rho) * fourier._FEW_DIAGONAL_GATE > d * d
        assert len(calls) == (0 if not full else dim.two_j + 1 if hermitian
                              else 2 * dim.two_j + 1), name
        # One row sum per K_ell built, else one per column computed: a
        # nonzero diagonal m of rho, only m >= 0 for a Hermitian rho.
        columns = [m for m in range(1 - d, d) if np.diagonal(rho, m).any()
                   and not (hermitian and m < 0)]
        assert len(rows) == (len(calls) if full else len(columns)), name


def test_method_c_builds_full_k_only_for_dense_rho(monkeypatch):
    # Criterion 6 times method c on random_density(dim, SEED): it must keep
    # building every full K.
    from spinphase.bench import SEED

    calls = []
    k_matrix = fourier._k_matrix

    def counted(*args):
        calls.append(args[2])
        return k_matrix(*args)

    monkeypatch.setattr(fourier, "_k_matrix", counted)

    def ells_built(rho, dim):
        calls.clear()
        fourier_coefficients_method_c(rho, build_parity(dim, 0.0))
        return sorted(calls)

    dim = SpinDimension.from_d(64)
    for rho in (dicke(dim, 0.5), dicke(dim, dim.j), ghz(dim)):
        assert ells_built(rho, dim) == []
    for d in (50, 100):
        dim = SpinDimension.from_d(d)
        assert ells_built(random_density(dim, SEED), dim) == list(range(dim.two_j + 1))
    rng = np.random.default_rng(7)
    general = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
    dim = SpinDimension.from_d(50)
    assert ells_built(general, dim) == list(range(-dim.two_j, dim.two_j + 1))


@pytest.mark.parametrize("d", [64, 257])
def test_method_c_and_d_agree_on_dicke_and_ghz(d, tmp_path):
    # They no longer share bits here: method c forms one product per diagonal.
    import shutil

    dim = SpinDimension.from_d(d)
    parity = build_parity(dim, 0.0)
    cache = precompute_cache(dim, 0.0, tmp_path / "cache")
    try:
        for rho in (dicke(dim, dim.j % 1), dicke(dim, 1 - dim.j), ghz(dim)):
            table_c = fourier_coefficients_method_c(rho, parity).coeffs
            table_d = fourier_coefficients_method_d(rho, cache).coeffs
            assert np.abs(table_c - table_d).max() <= 1e-13 * np.abs(table_d).max()
    finally:
        shutil.rmtree(cache.directory)  # 540 MB at d = 257


@pytest.mark.parametrize("d", [12, 40])
def test_tables_do_not_depend_on_the_memory_layout_of_rho(d, tmp_path):
    # Random rho takes method c's full build and coherent its rank-one path;
    # GHZ and Dicke take the rank-one path at d = 12 and the few-diagonal
    # path, whose table is a transposed view, at d = 40.
    dim = SpinDimension.from_d(d)
    parity = build_parity(dim, 0.0)
    cache = precompute_cache(dim, 0.0, tmp_path)
    rhos = {"random": random_density(dim, d), "ghz": ghz(dim),
            "coherent": coherent(dim, 0.7, 1.9), "dicke": dicke(dim, dim.j - 1)}
    for name, rho in rhos.items():
        wide = np.zeros((2 * d, 2 * d), dtype=complex)
        wide[::2, ::2] = rho
        copies = (np.ascontiguousarray(rho), np.asfortranarray(rho), wide[::2, ::2])
        for build in (lambda r: fourier_coefficients_method_c(r, parity),
                      lambda r: fourier_coefficients_method_d(r, cache)):
            tables = [build(r).coeffs.tobytes() for r in copies]
            assert tables[1] == tables[0] and tables[2] == tables[0], name


def _assert_matches_direct_at_three_nodes(rho, parity, name):
    table = fourier_coefficients_method_c(rho, parity)
    for theta, phi in [(0.3, 1.1), (1.7, 4.0), (2.9, 0.2)]:
        value = direct_eval(rho, parity, theta, phi)
        assert abs(eval_series(table, theta, phi) - value) <= 1e-9 * max(1.0, abs(value)), name


def test_few_diagonal_states_reach_d_1000():
    # GHZ and Dicke states at d = 1000 take the per-diagonal products.
    dim = SpinDimension.from_d(1000)
    parity = build_parity(dim, 0.0)
    for name, rho in (("ghz", ghz(dim)), ("dicke", dicke(dim, dim.j - 7))):
        _assert_matches_direct_at_three_nodes(rho, parity, name)


def test_pure_states_reach_d_1000():
    # A coherent state at d = 1000 takes the rank-one path.
    dim = SpinDimension.from_d(1000)
    _assert_matches_direct_at_three_nodes(coherent(dim, 0.7, 1.9), build_parity(dim, 0.0),
                                          "coherent")


@pytest.mark.parametrize("s", [-1.0, 0.5])
def test_memo_hit_tables_equal_cold_tables_byte_for_byte(s):
    # d = 40: random takes the full build, squeezed and coherent the
    # rank-one path, GHZ, Dicke and maximally mixed the per-diagonal products.
    # A rebuilt basis (its memo alone cleared) pairs with the memoized Mtilde.
    from spinphase import angular, parity as parity_module

    dim = SpinDimension.from_d(40)
    families = {"random": random_density(dim, 40), "squeezed": squeezed(dim, 0.3),
                "coherent": coherent(dim, 0.7, 1.9), "ghz": ghz(dim),
                "dicke": dicke(dim, dim.j - 7), "mixed": maximally_mixed(dim)}
    for name, rho in families.items():
        angular._cached_basis.cache_clear()
        parity_module._cached_parity.cache_clear()
        fourier._cached_mtilde.cache_clear()
        cold = fourier_coefficients_method_c(rho, build_parity(dim, s))
        hit = fourier_coefficients_method_c(rho, build_parity(dim, s))
        angular._cached_basis.cache_clear()
        rebased = fourier_coefficients_method_c(rho, build_parity(dim, s))
        grid = sample_fft(cold, 96).values.tobytes()
        for table in (hit, rebased):
            assert table.coeffs.tobytes() == cold.coeffs.tobytes(), name
            assert sample_fft(table, 96).values.tobytes() == grid, name


def test_a_hand_built_operator_gets_its_own_mtilde():
    # Doubling the diagonal doubles every table entry exactly (up to signs of zero).
    dim = SpinDimension.from_d(12)
    rho = random_density(dim, 12)
    built = build_parity(dim, 0.0)
    table = fourier_coefficients_method_c(rho, built)
    doubled = ParityOperator(dim=dim, s=0.0, diag=2 * built.diag)  # same (d, s)
    assert np.array_equal(fourier_coefficients_method_c(rho, doubled).coeffs, 2 * table.coeffs)
    copied = ParityOperator(dim=dim, s=0.0, diag=built.diag.copy())
    assert fourier_coefficients_method_c(rho, copied).coeffs.tobytes() == table.coeffs.tobytes()


def test_the_mtilde_memo_is_read_only_and_bounded():
    dim = SpinDimension.from_d(3)
    basis = jy_eigenbasis(dim)
    assert fourier._cached_mtilde.cache_info().maxsize == fourier._MTILDE_MEMO
    for k in range(fourier._MTILDE_MEMO + 3):
        diag = np.full(3, k + 1.0)
        rows = fourier._cached_mtilde(dim.two_j, diag.dtype.str, diag.tobytes())
        mtilde = rows.rho_t.T
        parity = ParityOperator(dim=dim, s=0.0, diag=diag)
        assert mtilde.tobytes() == transform_parity(parity, basis).tobytes()
        assert not mtilde.flags.writeable
        with pytest.raises(ValueError):
            mtilde[0, 0] = 1.0
        assert fourier._cached_mtilde.cache_info().currsize <= fourier._MTILDE_MEMO


def test_few_diagonal_tables_reuse_the_memoized_mtilde_rows(monkeypatch):
    # Mtilde is laid out for the row sums once per memo entry, not once per table.
    dim = SpinDimension.from_d(64)
    parity = build_parity(dim, 0.5)
    row_sums = fourier._RowSums
    built = []

    def counted(matrix):
        built.append(matrix.shape)
        return row_sums(matrix)

    monkeypatch.setattr(fourier, "_RowSums", counted)
    fourier._cached_mtilde.cache_clear()
    for rho in (ghz(dim), dicke(dim, dim.j - 7)):
        fourier_coefficients_method_c(rho, parity)
    assert len(built) == 1  # the memo's entry
    built.clear()
    for rho in (ghz(dim), dicke(dim, dim.j - 1)):
        fourier_coefficients_method_c(rho, parity)
    assert built == []
    diag = parity.diag
    rows = fourier._cached_mtilde(dim.two_j, diag.dtype.str, diag.tobytes())
    assert isinstance(rows, row_sums) and rows.rho_t.flags.c_contiguous
    for array in (rows.rho_t, rows.offsets, rows.columns, rows.places, *rows.rho_diagonals):
        assert not array.flags.writeable


def _hermitian_pure(psi):
    rho = np.outer(psi, psi.conj())
    return (rho + rho.conj().T) / 2  # exactly Hermitian: x + conj(y) is commutative


def _random_on(rng, d, levels):
    """A random vector that is nonzero exactly on ``levels``."""
    psi = np.zeros(d, dtype=complex)
    psi[levels] = rng.standard_normal(len(levels)) + 1j * rng.standard_normal(len(levels))
    return psi


def _interior_block(d):
    return np.arange(min(3, d // 4), d - min(4, d // 4))  # levels 3..d-5 from d = 16


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("s", [-1.0, 0.0, 0.5])
def test_one_level_states_match_direct_grid(d, s):
    # Dicke states below the few-diagonal and rank-one sizes take the full build.
    dim = SpinDimension.from_d(d)
    parity = build_parity(dim, s)
    n = minimal_grid_size(dim)
    for m in dim.m_values():
        rho = dicke(dim, m)
        grid = sample_fft(fourier_coefficients_method_c(rho, parity), n).values
        assert np.abs(grid - direct_grid(rho, parity, n).values).max() < 1e-12, m


def test_criterion_6_states_are_not_rank_one():
    # Criterion 6 times method c on random_density(dim, SEED): the rank-one
    # path must never take it over.
    from spinphase.bench import SEED

    for d in (50, 100, 200, 400):
        assert fourier._rank_one_factor(random_density(SpinDimension.from_d(d), SEED)) is None


# Method c computes an exactly Hermitian rho = a a^H / c of _RANK_ONE_MIN_D
# or more levels from two FFTs, with no K_ell.

def _rank_one_inputs(dim):
    d = dim.d
    rng = np.random.default_rng(d + 1)
    psi = _random_on(rng, d, np.arange(d))
    inputs = {
        "coherent": coherent(dim, 0.7, 1.9),
        "squeezed": squeezed(dim, 0.3),
        "pure": _hermitian_pure(psi),
        "-pure": -_hermitian_pure(psi),
        "stride 3": _hermitian_pure(_random_on(rng, d, np.arange(1, d, 3))),
        "interior block": _hermitian_pure(_random_on(rng, d, _interior_block(d))),
        "ghz": ghz(dim),
        "dicke": dicke(dim, dim.j - 1),
    }
    # The few-diagonal check runs first: GHZ and Dicke from d = 32-34.
    return {name: rho for name, rho in inputs.items()
            if _cells(rho) * fourier._FEW_DIAGONAL_GATE > d * d}


@pytest.mark.parametrize("d, s", [(d, s) for d in (fourier._RANK_ONE_MIN_D,
                                                   fourier._RANK_ONE_MIN_D + 1, 34, 64, 65)
                                  for s in (-1.0, 0.0, 0.5)]
                         + [(257, -1.0), (320, 0.0)])
def test_rank_one_tables_match_tables_from_full_k(d, s, monkeypatch):
    dim = SpinDimension.from_d(d)
    inputs = _rank_one_inputs(dim)
    assert ("ghz" in inputs) == (d < 34)
    references = _full_k_tables(list(inputs.values()), dim, s)

    def refused(*args):
        raise AssertionError("a rank-one rho needs no K_ell and no row sums")

    parity = build_parity(dim, s)
    diag = parity.diag  # Mtilde's own rows are prepared once per (d, s), before the refusals
    fourier._cached_mtilde(dim.two_j, diag.dtype.str, diag.tobytes())
    for name in ("_k_matrix", "_RowSums", "accumulate_row"):
        monkeypatch.setattr(fourier, name, refused)
    for (name, rho), reference in zip(inputs.items(), references):
        table = fourier_coefficients_method_c(rho, parity).coeffs
        _assert_matches_full_k(table, reference, rho, parity, name)
        assert np.array_equal(table, np.conj(table[::-1, ::-1])), name


def test_method_c_keeps_its_k_builds_for_all_but_hermitian_rank_one_rho(monkeypatch):
    dim = SpinDimension.from_d(40)
    rng = np.random.default_rng(40)
    psi, phi = (_random_on(rng, dim.d, np.arange(dim.d)) for _ in range(2))
    pure = _hermitian_pure(psi)
    nudged = pure.copy()
    nudged[0, 1] = np.nextafter(nudged[0, 1].real, np.inf) + 1j * nudged[0, 1].imag
    even = np.arange(0, dim.d, 2)
    inputs = {
        "rank two": pure + _hermitian_pure(phi),
        "rank two, 1e-9 of it": pure + 1e-9 * _hermitian_pure(phi),
        "pure, one ulp off Hermitian": nudged,
        "|a><b|": np.outer(psi, phi.conj()),
        "squeezed mixture": (squeezed(dim, 0.3) + squeezed(dim, 0.7)) / 2,
        "|a><b| on even levels": np.outer(_random_on(rng, dim.d, even),
                                          _random_on(rng, dim.d, even).conj()),
    }
    calls = []
    k_matrix = fourier._k_matrix

    def counted(u, mtilde, ell):
        calls.append(u.shape[0])
        return k_matrix(u, mtilde, ell)

    def refused(*args):
        raise AssertionError("only an exactly Hermitian rank-one rho skips K")

    monkeypatch.setattr(fourier, "_k_matrix", counted)
    monkeypatch.setattr(fourier, "_rank_one_table", refused)
    parity = build_parity(dim, 0.0)
    for name, rho in inputs.items():
        calls.clear()
        fourier_coefficients_method_c(rho, parity)
        hermitian = np.array_equal(rho, rho.conj().T)
        assert len(calls) == (dim.two_j + 1 if hermitian else 2 * dim.two_j + 1), name
        assert set(calls) == {dim.d}, name  # every K_ell over all d levels
