"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 6 builds
multi-hundred-MB caches (up to d = 400) in a temporary directory and is by
far the slowest item; everything else finishes in seconds to a couple of
minutes.
"""

import math
import shutil
import time

import numpy as np
import pytest

from spinphase.angular import SpinDimension, jy_eigenbasis
from spinphase.bench import run_bench
from spinphase.cgc import TensorOperatorTable, expansion_coefficients, harmonic_grid, \
    tensor_operator
from spinphase.fourier import (FourierTable, compute_k, derivative_coefficients,
                               fourier_coefficients_method_c)
from spinphase.gridfile import read_grid, write_grid
from spinphase.kcache import (CacheCorruptError, cache_directory, fourier_coefficients_method_d,
                              precompute_cache)
from spinphase.parity import build_parity, sphere_radius, transform_parity
from spinphase.sampling import (direct_eval, direct_grid, grid_phis, grid_thetas,
                                method_b_grid, minimal_grid_size, sample_fft,
                                sample_fft_full)
from spinphase.states import dicke, maximally_mixed, random_density

SEEDS = list(range(8))
S_VALUES = (-1.0, -0.5, 0.0)


def _report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} [{status}] {description}  {detail}")
    assert ok, f"criterion {num} failed: {description} ({detail})"


def _rms(a, b) -> float:
    return float(np.sqrt(np.mean(np.abs(a - b) ** 2)))


def test_criterion_1_four_way_oracle_equivalence(tmp_path):
    started = time.perf_counter()
    worst = 0.0
    for d in range(2, 33):
        dim = SpinDimension.from_d(d)
        n = minimal_grid_size(dim)
        op_table = TensorOperatorTable(dim)
        rhos = [random_density(dim, seed) for seed in SEEDS]
        coeff_tables = [expansion_coefficients(rho, op_table) for rho in rhos]
        for s in S_VALUES:
            parity = build_parity(dim, s)
            cache = precompute_cache(dim, s, cache_directory(tmp_path, d, s))
            for rho, coeffs in zip(rhos, coeff_tables):
                table_c = fourier_coefficients_method_c(rho, parity)
                grids = {
                    "c": sample_fft(table_c, n).values,
                    "d": sample_fft(fourier_coefficients_method_d(rho, cache), n).values,
                    "b": method_b_grid(rho, s, n, coeffs=coeffs).values,
                    "direct": direct_grid(rho, parity, n).values,
                }
                names = list(grids)
                for i, first in enumerate(names):
                    for second in names[i + 1:]:
                        worst = max(worst, _rms(grids[first], grids[second]))
    elapsed = time.perf_counter() - started
    _report(1, "four-way oracle equivalence, d = 2..32, 8 seeds, s in {-1,-1/2,0}",
            worst <= 1e-9, f"max pairwise RMS = {worst:.3e}, elapsed {elapsed:.0f}s")


def test_criterion_2_tensor_operator_precision():
    started = time.perf_counter()
    worst = 0.0
    for d in range(2, 65):
        dim = SpinDimension.from_d(d)
        parity = build_parity(dim, 0.0)
        radius = sphere_radius(dim)
        n = minimal_grid_size(dim)
        thetas, phis = grid_thetas(n), grid_phis(n)
        ranks = {1, int(dim.j), dim.two_j}
        for j in sorted(ranks):
            if j < 1:
                continue
            for m in sorted({0, j}):
                rho = tensor_operator(dim, j, m)
                grid = sample_fft(fourier_coefficients_method_c(rho, parity), n)
                reference = harmonic_grid(j, m, thetas, phis) / radius
                worst = max(worst, _rms(grid.values, reference))
    elapsed = time.perf_counter() - started
    _report(2, "tensor-operator grids reproduce spherical harmonics, d <= 64",
            worst <= 1e-10, f"max RMS = {worst:.3e}, elapsed {elapsed:.0f}s")


def test_criterion_3_closed_form_spot_values():
    checks = []
    for d in (2, 3, 10, 33):
        dim = SpinDimension.from_d(d)
        parity = build_parity(dim, 0.0)
        expected = 1.0 / (sphere_radius(dim) * math.sqrt(4 * math.pi * d))
        got = direct_eval(maximally_mixed(dim), parity, 1.1, 0.4)
        checks.append(abs(got - expected))
    dim = SpinDimension.from_d(2)
    got_mixed = direct_eval(maximally_mixed(dim), build_parity(dim, 0.0), 0.0, 0.0)
    checks.append(abs(got_mixed - 0.7071067811865476))
    rho_up = dicke(dim, 0.5)
    parity = build_parity(dim, 0.0)
    checks.append(abs(direct_eval(rho_up, parity, 0.0, 0.0) - 1.9318516525781364))
    checks.append(abs(direct_eval(rho_up, parity, np.pi, 0.0) - (-0.5176380902050414)))
    worst = max(checks)
    _report(3, "closed-form spot values (mixed constant, J=1/2 poles)",
            worst <= 1e-12, f"max deviation = {worst:.3e}")


def test_criterion_4_symmetry_suite():
    failures = []

    # diagonal state: phi-independent grid
    dim = SpinDimension.from_d(11)
    table = fourier_coefficients_method_c(dicke(dim, 2.0), build_parity(dim, 0.0))
    grid = sample_fft(table, minimal_grid_size(dim))
    spread = np.abs(grid.values - grid.values[:, :1]).max()
    if spread >= 1e-11:
        failures.append(f"phi spread {spread:.2e}")

    # Hermitian symmetry of the coefficient table
    dim = SpinDimension.from_d(12)
    rho = random_density(dim, 4)
    table = fourier_coefficients_method_c(rho, build_parity(dim, -0.5))
    sym = np.abs(table.coeffs - np.conj(table.coeffs[::-1, ::-1])).max()
    if sym >= 1e-11:
        failures.append(f"hermitian symmetry {sym:.2e}")

    # z-rotation covariance in coefficient space
    parity = build_parity(dim, 0.0)
    base = fourier_coefficients_method_c(rho, parity)
    phi0 = 0.77
    phases = np.exp(1j * phi0 * dim.m_values())
    rotated = fourier_coefficients_method_c((phases[:, None] * rho) * phases.conj(),
                                            parity)
    cov = np.abs(rotated.coeffs
                 - base.coeffs * np.exp(1j * base.frequencies() * phi0)[None, :]).max()
    if cov >= 1e-10:
        failures.append(f"z-rotation covariance {cov:.2e}")

    # gauge invariance of K under randomized eigenvector phases
    from spinphase.angular import EigenBasis

    basis = jy_eigenbasis(dim)
    rng = np.random.default_rng(17)
    twisted = EigenBasis(dim=dim, eigenvalues=basis.eigenvalues,
                         vectors=basis.vectors * np.exp(1j * rng.uniform(0, 2 * np.pi, dim.d)))
    gauge = 0.0
    for ell in (-dim.two_j, -1, 0, 5, dim.two_j):
        k_ref = compute_k(basis, transform_parity(parity, basis), ell)
        k_tw = compute_k(twisted, transform_parity(parity, twisted), ell)
        gauge = max(gauge, np.abs(k_ref - k_tw).max())
    if gauge >= 1e-13:
        failures.append(f"gauge invariance {gauge:.2e}")

    # glide symmetry of the pre-discard array
    n = 2 * dim.d
    full = sample_fft_full(fourier_coefficients_method_c(rho, parity), n)
    glide = 0.0
    for k in range(1, n):
        mirrored = np.roll(full[2 * n - k], -(n // 2))
        glide = max(glide, np.abs(mirrored - full[k]).max())
    if glide >= 1e-10:
        failures.append(f"glide symmetry {glide:.2e}")

    _report(4, "symmetry suite (axial, Hermitian, covariance, gauge, glide)",
            not failures, "; ".join(failures) or "all five within tolerance")


def test_criterion_5_storage_accounting(tmp_path):
    started = time.perf_counter()
    expectations = {10: 30_400, 50: 3_960_000, 100: 31_840_000}
    ok = True
    details = []
    for d, expected in expectations.items():
        dim = SpinDimension.from_d(d)
        cache = precompute_cache(dim, 0.0, cache_directory(tmp_path, d, 0.0))
        got = cache.k_payload_bytes()
        formula = (2 * d - 1) * d * d * 16
        details.append(f"d={d}: {got} B")
        ok = ok and got == expected == formula
    companion = precompute_cache(SpinDimension.from_d(10), 0.0,
                                 cache_directory(tmp_path, 10, 0.0))
    ok = ok and companion.companion_payload_bytes() == 16 * 10 * 11 == 1760
    details.append("companion d=10: 1760 B")
    elapsed = time.perf_counter() - started
    _report(5, "cache payloads match the storage table exactly", ok,
            "; ".join(details) + f", elapsed {elapsed:.0f}s")


@pytest.fixture(scope="module")
def bench_caches(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench_caches")
    yield root
    shutil.rmtree(root, ignore_errors=True)


def test_criterion_6_performance_scaling(bench_caches):
    started = time.perf_counter()
    dims = (50, 100, 200, 400)
    for d in dims:
        precompute_cache(SpinDimension.from_d(d), 0.0,
                         cache_directory(bench_caches, d, 0.0))
    prep = time.perf_counter() - started

    ratio_report = run_bench([100], methods=("b", "c"), repetitions=3,
                             measure_memory=False)
    times = {row.method: row.time_s for row in ratio_report.rows}
    ratio = times["b"] / times["c"]
    ok_a = ratio >= 5.0

    scaling = run_bench(list(dims), methods=("c", "d"), repetitions=3,
                        cache_root=bench_caches, measure_memory=False)
    slope_c = scaling.slopes.get("c", float("nan"))
    slope_d = scaling.slopes.get("d", float("nan"))
    ok_b = 3.3 <= slope_c <= 4.7 and 2.3 <= slope_d <= 3.7

    dim200 = SpinDimension.from_d(200)
    rho = random_density(dim200, 0)
    from spinphase.kcache import open_cache
    cache200 = open_cache(cache_directory(bench_caches, 200, 0.0), 200, 0.0)
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        table = fourier_coefficients_method_d(rho, cache200)
        sample_fft(table, 1024)
        runs.append(time.perf_counter() - t0)
    t_grid = sorted(runs)[1]
    ok_c = t_grid < 5.0

    elapsed = time.perf_counter() - started
    detail = (f"(a) B/C ratio at d=100: {ratio:.1f}x; "
              f"(b) slopes C {slope_c:.2f} in [3.3,4.7], D {slope_d:.2f} in [2.3,3.7]; "
              f"(c) cached grid d=200: {t_grid:.2f}s; "
              f"precompute {prep:.0f}s, total {elapsed:.0f}s")
    _report(6, "performance ratios and log-log slopes", ok_a and ok_b and ok_c, detail)


def _shifted(table, dtheta=0.0, dphi=0.0):
    f = table.frequencies()
    coeffs = (table.coeffs * np.exp(1j * f * dtheta)[:, None]
              * np.exp(1j * f * dphi)[None, :])
    return FourierTable(dim=table.dim, s=table.s, coeffs=coeffs)


def test_criterion_7_derivative_correctness():
    started = time.perf_counter()
    step = 1e-5
    worst = 0.0
    for d in (8, 32):
        dim = SpinDimension.from_d(d)
        rho = random_density(dim, 3 * d)
        table = fourier_coefficients_method_c(rho, build_parity(dim, 0.0))
        n = 8 * d
        for variable in ("theta", "phi"):
            analytic = sample_fft(derivative_coefficients(table, variable), n).values
            plus = sample_fft(_shifted(table, **{"d" + variable: step}), n).values
            minus = sample_fft(_shifted(table, **{"d" + variable: -step}), n).values
            fd = (plus - minus) / (2 * step)
            worst = max(worst, float(np.abs(analytic - fd).max()))
    elapsed = time.perf_counter() - started
    _report(7, "analytic derivatives match central differences at n = 8d",
            worst < 1e-6, f"max abs error = {worst:.3e}, elapsed {elapsed:.0f}s")


def test_criterion_8_persistence_robustness(tmp_path):
    dim = SpinDimension.from_d(12)
    cache = precompute_cache(dim, 0.0, cache_directory(tmp_path, 12, 0.0))
    rho = random_density(dim, 8)
    victim = cache.directory / "k_p00005.bin"
    raw = bytearray(victim.read_bytes())
    raw[40] ^= 0x04
    victim.write_bytes(raw)
    failed_loudly = False
    try:
        fourier_coefficients_method_d(rho, cache)
    except CacheCorruptError as exc:
        failed_loudly = "5" in str(exc)

    grid = sample_fft(fourier_coefficients_method_c(rho, build_parity(dim, 0.0)),
                      minimal_grid_size(dim))
    path = tmp_path / "grid.bin"
    write_grid(path, grid, "robustness")
    loaded, _ = read_grid(path)
    roundtrip = np.array_equal(loaded.values, grid.values)

    _report(8, "corrupt cache fails loudly; grid files round-trip bit-identically",
            failed_loudly and roundtrip,
            f"corrupt detected: {failed_loudly}, round-trip identical: {roundtrip}")
