"""Test-only references that cross-check the library against independent formulas.

spinphase keeps method b (``method_b_grid``) and ``direct_eval`` as validation
oracles, but carries no machinery that only a validation oracle needs.  The
functions here are such machinery, so they live with the tests:

- ``eigendecompose``: a checked eigensolver for any Hermitian tridiagonal spin
  component; the library only ever diagonalizes J_x and J_y.
- ``column``, ``projector_am`` and the closed-form projector entry
  ``am_analytic``.
- ``clebsch_gordan`` (one query through the production recursion) and the
  Racah closed form ``clebsch_gordan_racah``.
- ``spherical_harmonic`` at one angle pair, ``method_b_eval`` (method b at one
  angle pair) and ``eval_series`` (the Fourier series summed at one angle pair).

None of them is reached from ``spinphase``.
"""

from __future__ import annotations

import math

import numpy as np

from spinphase.angular import (EigenBasis, SpinDimension, _basis_from_tridiagonal,
                               _reversal_split_eigh, _symmetric_tridiagonal, as_two)
from spinphase.cgc import cg_families, expansion_coefficients, harmonic_theta_profile
from spinphase.fourier import FourierTable
from spinphase.parity import gamma_power, sphere_radius, validate_s
from spinphase.states import as_density_matrix

HERMITICITY_TOL = 1e-12


# ---------------------------------------------------------------------------
# Eigenbases and eigenvector projectors
# ---------------------------------------------------------------------------

def eigendecompose(op: np.ndarray) -> EigenBasis:
    """Diagonalize a Hermitian tridiagonal spin component (J_x, J_y, J_z, n.J).

    A diagonal phase similarity maps the matrix to a real symmetric
    tridiagonal one.  A zero diagonal with a palindromic off-diagonal (J_x,
    J_y) takes the library's reversal split; any other matrix, such as a
    diagonal J_z or a rotated n.J, is solved densely.  The phases are then
    restored on the eigenvectors, and each eigenvector is gauge-fixed so its
    largest-magnitude entry is real positive.
    """
    op = np.asarray(op)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {op.shape}")
    d = op.shape[0]
    dim = SpinDimension.from_d(d)
    scale = max(1.0, float(np.abs(op).max()))
    if np.abs(op - op.conj().T).max() > HERMITICITY_TOL * scale:
        raise ValueError("operator is not Hermitian to tolerance")
    band_mask = np.abs(np.arange(d)[:, None] - np.arange(d)[None, :]) > 1
    if d > 2 and np.abs(op[band_mask]).max() > 1e-14 * scale:
        raise ValueError("operator is not tridiagonal")

    main = op.diagonal().real.copy()
    off = np.diag(op, -1).copy()
    # Rotate each sub-diagonal entry onto the positive real axis.
    phases = np.ones(d, dtype=complex)
    for k, e in enumerate(off):
        if abs(e) == 0.0:
            phases[k + 1] = phases[k]
        else:
            phases[k + 1] = phases[k] * e / abs(e)
    off = np.abs(off)
    if not main.any() and np.array_equal(off, off[::-1]):
        w, v = _reversal_split_eigh(off)
    else:
        w, v = np.linalg.eigh(_symmetric_tridiagonal(main, off))
    return _basis_from_tridiagonal(dim, w, v, phases)


def column(basis: EigenBasis, nu) -> np.ndarray:
    """Eigenvector for eigenvalue nu (a half-integer in -J..J)."""
    two_nu = as_two(nu, "nu")
    idx = (two_nu + basis.dim.two_j) // 2
    if idx < 0 or idx >= basis.dim.d:
        raise ValueError(f"eigenvalue {nu} out of range for 2J = {basis.dim.two_j}")
    return basis.vectors[:, idx]


def projector_am(basis: EigenBasis, m) -> np.ndarray:
    """Rank-1 projector |U_m><U_m| onto the eigenvector with eigenvalue m."""
    col = column(basis, m)
    return np.outer(col, col.conj())


def am_analytic(dim: SpinDimension, m, m1, m2) -> complex:
    """Closed-form eigenvector-projector entry [A_m]_{m1 m2}.

    Evaluates the factorial double sum with log-domain factorials.  The
    alternating sums cancel catastrophically at large J, so this is a
    cross-check for d <= 32 only; the eigendecomposition route is the
    production path.
    """
    if dim.d > 32:
        raise ValueError("am_analytic is a cross-check, restricted to d <= 32")
    two_m = as_two(m, "m")
    two_m1 = as_two(m1, "m1")
    two_m2 = as_two(m2, "m2")
    for name, t in (("m", two_m), ("m1", two_m1), ("m2", two_m2)):
        if abs(t) > dim.two_j or (t - dim.two_j) % 2 != 0:
            raise ValueError(f"{name} out of range for 2J = {dim.two_j}")

    def lf(two_n):  # log((two_n/2)!) for even two_n
        return math.lgamma(two_n // 2 + 1)

    two_j2 = dim.two_j
    # (-1)^x for quarter-turn powers: i^(-2x) over doubled integers.
    total = 0.0 + 0.0j
    k_lo = max(0, (two_m2 - two_m1) // 2)
    k_hi = min((two_j2 - two_m1) // 2, (two_j2 + two_m2) // 2)
    log_w_num = 0.5 * (lf(two_j2 + two_m1) + lf(two_j2 - two_m1)
                       + lf(two_j2 + two_m2) + lf(two_j2 - two_m2))
    for k in range(k_lo, k_hi + 1):
        lam = 2 * k + (two_m1 - two_m2) // 2
        log_w = log_w_num - (lf(two_j2 - two_m1 - 2 * k) + lf(two_j2 + two_m2 - 2 * k)
                             + lf(2 * k + two_m1 - two_m2) + lf(2 * k))
        sign_w = -1.0 if (k + (two_m1 - two_m2) // 2) % 2 else 1.0
        total += sign_w * math.exp(log_w) * _i_sum(two_j2, two_m, lam)
    return complex(total)


def _i_sum(two_j, two_m, lam: int) -> complex:
    """Inner binomial sum of the closed-form projector entry (complex branch)."""
    lo = max(0, (-two_j + two_m) // 2 + lam)
    hi = min(lam, (two_j + two_m) // 2)
    # exp(i*pi*(l - lam/2)) = (-1)^l * (-i)^lam
    quarter = ((1 + 0j), (0 - 1j), (-1 + 0j), (0 + 1j))[lam % 4]
    acc = 0.0
    for el in range(lo, hi + 1):
        log_b1 = _log_binom(two_j - lam, (two_j + two_m) // 2 - el)
        log_b2 = _log_binom(lam, el)
        term = math.exp(log_b1 + log_b2 - two_j * math.log(2.0))
        acc += -term if el % 2 else term
    return acc * quarter


def _log_binom(n: int, k: int) -> float:
    if k < 0 or k > n:
        return -math.inf
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


# ---------------------------------------------------------------------------
# Clebsch-Gordan coefficients
# ---------------------------------------------------------------------------

def _validate_query(two_j1, two_m1, two_j2, two_m2, two_j, two_m):
    for two_jj, two_mm, name in ((two_j1, two_m1, "1"), (two_j2, two_m2, "2"),
                                 (two_j, two_m, "")):
        if two_jj < 0:
            raise ValueError(f"j{name} must be nonnegative")
        if abs(two_mm) > two_jj:
            raise ValueError(f"|m{name}| exceeds j{name}")
        if (two_jj - two_mm) % 2 != 0:
            raise ValueError(f"j{name} and m{name} mix integer and half-integer")
    if (two_j1 + two_j2 + two_j) % 2 != 0:
        raise ValueError("j1, j2, j do not couple: integer/half-integer mismatch")


def clebsch_gordan(j1, m1, j2, m2, j, m) -> float:
    """Coupling coefficient <j1 m1; j2 m2 | j m> (Condon-Shortley).

    Exactly zero when the projection or triangle selection rules fail;
    inconsistent integer/half-integer inputs raise.
    """
    two = (as_two(j1, "j1"), as_two(m1, "m1"), as_two(j2, "j2"),
           as_two(m2, "m2"), as_two(j, "j"), as_two(m, "m"))
    two_j1, two_m1, two_j2, two_m2, two_j, two_m = two
    _validate_query(two_j1, two_m1, two_j2, two_m2, two_j, two_m)
    if two_m1 + two_m2 != two_m:
        return 0.0
    if two_j < abs(two_j1 - two_j2) or two_j > two_j1 + two_j2:
        return 0.0
    two_grid, coeffs = cg_families(two_j1, two_j2, two_m1, two_m2)
    if two_j < two_grid[0]:
        return 0.0
    row = (two_j - two_grid[0]) // 2
    return float(coeffs[row, 0])


def clebsch_gordan_racah(j1, m1, j2, m2, j, m) -> float:
    """Closed-form coupling coefficient; exact reference for small spins.

    The Racah single sum (log-domain factorials) alternates and cancels
    badly for large arguments.
    """
    two_j1, two_m1 = as_two(j1, "j1"), as_two(m1, "m1")
    two_j2, two_m2 = as_two(j2, "j2"), as_two(m2, "m2")
    two_j, two_m = as_two(j, "j"), as_two(m, "m")
    _validate_query(two_j1, two_m1, two_j2, two_m2, two_j, two_m)
    if two_m1 + two_m2 != two_m:
        return 0.0
    if two_j < abs(two_j1 - two_j2) or two_j > two_j1 + two_j2:
        return 0.0

    def lf(two_n):
        if two_n < 0 or two_n % 2:
            raise ValueError("factorial of a negative or non-integer argument")
        return math.lgamma(two_n // 2 + 1)

    log_delta = 0.5 * (lf(two_j1 + two_j2 - two_j) + lf(two_j1 - two_j2 + two_j)
                       + lf(-two_j1 + two_j2 + two_j) - lf(two_j1 + two_j2 + two_j + 2))
    log_pref = 0.5 * (math.log(two_j + 1.0) + lf(two_j + two_m) + lf(two_j - two_m)
                      + lf(two_j1 + two_m1) + lf(two_j1 - two_m1)
                      + lf(two_j2 + two_m2) + lf(two_j2 - two_m2))
    k_lo = max(0, (two_j2 - two_j - two_m1) // 2, (two_j1 + two_m2 - two_j) // 2)
    k_hi = min((two_j1 + two_j2 - two_j) // 2, (two_j1 - two_m1) // 2,
               (two_j2 + two_m2) // 2)
    acc = 0.0
    for k in range(k_lo, k_hi + 1):
        log_term = -(lf(2 * k) + lf(two_j1 + two_j2 - two_j - 2 * k)
                     + lf(two_j1 - two_m1 - 2 * k) + lf(two_j2 + two_m2 - 2 * k)
                     + lf(two_j - two_j2 + two_m1 + 2 * k)
                     + lf(two_j - two_j1 - two_m2 + 2 * k))
        term = math.exp(log_delta + log_pref + log_term)
        acc += -term if k % 2 else term
    return acc


# ---------------------------------------------------------------------------
# Pointwise evaluation
# ---------------------------------------------------------------------------

def spherical_harmonic(j: int, m: int, theta: float, phi: float) -> complex:
    """Y_jm(theta, phi) with the Condon-Shortley phase."""
    prof = harmonic_theta_profile(j, m, theta)[0]
    return complex(prof * np.exp(1j * m * phi))


def method_b_eval(rho: np.ndarray, s: float, theta: float, phi: float) -> complex:
    """Phase-space value at one angle from the tensor-operator expansion.

    This is the traditional baseline: expand rho into c_jm, then sum
    (gamma_j)^(-s) c_jm Y_jm(theta, phi) / R term by term.
    """
    dim = SpinDimension.from_d(np.shape(rho)[0])
    rho = as_density_matrix(rho, dim)
    gamma_pow = gamma_power(dim, validate_s(s))
    coeffs = expansion_coefficients(rho)
    total = 0.0 + 0.0j
    for j in range(dim.two_j + 1):
        row = coeffs.rows[j]
        for m in range(-j, j + 1):
            c = row[m + j]
            if c == 0:
                continue
            total += gamma_pow[j] * c * spherical_harmonic(j, m, theta, phi)
    return complex(total / sphere_radius(dim))


def eval_series(table: FourierTable, theta: float, phi: float) -> complex:
    """Direct double sum of the Fourier series at one arbitrary angle pair."""
    freqs = table.frequencies()
    e_theta = np.exp(1j * theta * freqs)
    e_phi = np.exp(1j * phi * freqs)
    return complex(e_theta @ table.coeffs @ e_phi)
