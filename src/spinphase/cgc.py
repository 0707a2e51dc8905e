"""Angular-momentum coupling, tensor operators, and spherical harmonics.

Two Clebsch-Gordan paths live here.  The production path runs a
three-term recursion in the total angular momentum, swept from both ends
of the admissible range and renormalized, which stays stable for large
spins.  The Racah single-sum closed form (log-domain factorials) is kept
as an exact small-spin reference; its alternating sum cancels badly for
large arguments and is never used in production.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angular import SpinDimension, as_two
from .states import as_density_matrix

__all__ = [
    "clebsch_gordan",
    "clebsch_gordan_racah",
    "tensor_operator",
    "tensor_band",
    "TensorOperatorTable",
    "CoefficientTable",
    "expansion_coefficients",
    "spherical_harmonic",
    "harmonic_theta_profile",
    "harmonic_grid",
    "harmonic_theta_sums",
    "method_b_eval",
]

_RESCALE_LIMIT = 1e250


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


def cg_families(two_j1: int, two_j2: int, two_m1, two_m2):
    """<j1 m1; j2 m2 | j, m1+m2> for every admissible total j at once.

    ``two_m1``/``two_m2`` are doubled quantum numbers and may be arrays with
    a constant sum, in which case each column of the result is one family.
    Returns ``(two_j_grid ascending, coeffs[j_index, family])``.
    """
    two_m1 = np.atleast_1d(np.asarray(two_m1, dtype=np.int64))
    two_m2 = np.atleast_1d(np.asarray(two_m2, dtype=np.int64))
    two_m = int(two_m1[0] + two_m2[0])
    if np.any(two_m1 + two_m2 != two_m):
        raise ValueError("all families in one sweep must share m1 + m2")

    two_jmin = max(abs(two_j1 - two_j2), abs(two_m))
    two_jmax = two_j1 + two_j2
    two_grid = np.arange(two_jmin, two_jmax + 2, 2, dtype=np.int64)
    n_j = two_grid.size
    n_fam = two_m1.size
    if n_j == 1:
        return two_grid, np.ones((1, n_fam))

    j = two_grid / 2.0
    j1 = two_j1 / 2.0
    j2 = two_j2 / 2.0
    m = two_m / 2.0
    m1 = two_m1 / 2.0

    # Off-diagonal and diagonal matrix elements of the first spin's z
    # component in the coupled basis; T[0] corresponds to j = jmin and is
    # zero by the triangle/projection bounds, so it is never divided by.
    x = np.sqrt(np.maximum((j * j - m * m)
                           * (j * j - (j1 - j2) ** 2)
                           * ((j1 + j2 + 1.0) ** 2 - j * j), 0.0))
    den = 2.0 * j * np.sqrt(np.maximum(4.0 * j * j - 1.0, 0.0))
    t = np.zeros(n_j + 1)
    t[:n_j] = np.where(j > 0, x / np.maximum(den, 1e-300), 0.0)
    dvec = np.where(j > 0,
                    m * (j * (j + 1.0) + j1 * (j1 + 1.0) - j2 * (j2 + 1.0))
                    / np.maximum(2.0 * j * (j + 1.0), 1e-300),
                    0.0)

    # t ends in a zero, so t[::-1][k] couples reversed rows k - 1 and k and
    # the downward sweep is the upward one on the reversed index.
    down = _sweep(t[::-1], dvec[::-1], m1)[::-1]
    up = _sweep(t, dvec, m1)

    # Join the sweeps where both carry signal, keeping each on its stable side.
    score = np.abs(down) * np.abs(up)
    pivot = np.argmax(score, axis=0)
    cols = np.arange(n_fam)
    up_at = up[pivot, cols]
    down_at = down[pivot, cols]
    safe = np.abs(up_at) > 0
    ratio = np.where(safe, down_at / np.where(safe, up_at, 1.0), 1.0)
    combined = np.array(down)
    np.multiply(up, ratio, out=combined, where=np.arange(n_j)[:, None] < pivot)

    # Normalize in two stages so squaring cannot overflow the sweeps'
    # dynamic range, then fix the sign of the stretched coefficient.
    combined /= np.abs(combined).max(axis=0)[None, :]
    norm = np.sqrt(np.sum(combined * combined, axis=0))
    combined /= norm[None, :]
    sign = np.where(combined[-1, :] < 0, -1.0, 1.0)
    combined *= sign[None, :]
    return two_grid, combined


def _sweep(t, dvec, m1):
    """Upward pass of the coupled-basis three-term recursion, rescaled as it goes."""
    n_j = dvec.size
    out = np.zeros((n_j, m1.size))
    out[0] = 1.0
    out[1] = -(dvec[0] - m1) * out[0] / t[1]
    for r in range(1, n_j - 1):
        out[r + 1] = -((dvec[r] - m1) * out[r] + t[r] * out[r - 1]) / t[r + 1]
        big = np.abs(out[r + 1]) > _RESCALE_LIMIT
        if np.any(big):
            out[: r + 2, big] *= 1.0 / np.abs(out[r + 1][big])
    return out


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
    """Closed-form coupling coefficient; exact reference for small spins."""
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
# Irreducible tensor operators
# ---------------------------------------------------------------------------

def _band_two_m1(dim: SpinDimension, two_m: int) -> np.ndarray:
    """Doubled row quantum numbers along the tensor band, in diagonal order."""
    length = dim.d - abs(two_m) // 2
    start = dim.two_j + min(0, two_m)
    return start - 2 * np.arange(length, dtype=np.int64)


def tensor_band(dim: SpinDimension, j, m) -> np.ndarray:
    """Nonzero entries of the tensor operator T_jm along its diagonal.

    The values line up with ``np.diagonal(A, offset=m)`` of a d x d array.
    Each call runs one fresh recursion sweep over the total angular
    momentum; nothing is memoized here (see TensorOperatorTable).
    """
    two_j_op = as_two(j, "j")
    two_m = as_two(m, "m")
    if two_j_op % 2 or two_j_op < 0 or two_j_op > 2 * dim.two_j:
        raise ValueError(f"tensor rank j must be an integer in 0..2J, got {j}")
    if two_m % 2 or abs(two_m) > two_j_op:
        raise ValueError(f"tensor order m must be an integer with |m| <= j, got {m}")
    two_m1 = _band_two_m1(dim, two_m)
    two_second = two_m - two_m1  # doubled value of -m2
    two_grid, coeffs = cg_families(dim.two_j, dim.two_j, two_m1, two_second)
    row = (two_j_op - two_grid[0]) // 2
    if row < 0:
        return np.zeros(two_m1.size)
    two_m2 = two_m1 - two_m
    sign = np.where(((dim.two_j - two_m2) // 2) % 2, -1.0, 1.0)
    return sign * coeffs[row]


def tensor_operator(dim: SpinDimension, j, m) -> np.ndarray:
    """Dense d x d irreducible tensor operator T_jm."""
    band = tensor_band(dim, j, m)
    m_int = as_two(m, "m") // 2
    op = np.zeros((dim.d, dim.d), dtype=complex)
    idx = np.arange(band.size)
    if m_int >= 0:
        op[idx, idx + m_int] = band
    else:
        op[idx - m_int, idx] = band
    return op


class TensorOperatorTable:
    """Lazily built cache of tensor-operator bands for one dimension."""

    def __init__(self, dim: SpinDimension):
        self.dim = dim
        self._bands: dict[tuple[int, int], np.ndarray] = {}

    def band(self, j: int, m: int) -> np.ndarray:
        key = (int(j), int(m))
        if key not in self._bands:
            self._bands[key] = tensor_band(self.dim, *key)
        return self._bands[key]


@dataclass
class CoefficientTable:
    """Spherical-tensor expansion coefficients c_jm of one operator.

    ``rows[j]`` holds c_jm for m = -j..j ascending (ragged triangular layout).
    """

    dim: SpinDimension
    rows: list

    def get(self, j: int, m: int) -> complex:
        if j < 0 or j > self.dim.two_j:
            raise ValueError(f"j out of range: {j}")
        if abs(m) > j:
            raise ValueError(f"|m| > j: {m}")
        return self.rows[j][m + j]

    def dense(self) -> np.ndarray:
        """(2J+1) x (4J+1) array with columns indexed by m + 2J."""
        two_j = self.dim.two_j
        out = np.zeros((two_j + 1, 2 * two_j + 1), dtype=complex)
        for j, row in enumerate(self.rows):
            out[j, two_j - j:two_j + j + 1] = row
        return out


def expansion_coefficients(rho: np.ndarray,
                           table: TensorOperatorTable | None = None) -> CoefficientTable:
    """c_jm = Tr[rho T_jm^dagger] via banded sums.

    Only the m-th diagonal of rho is touched for each (j, m).  When no
    pre-built operator table is supplied, every band is recomputed, which
    reproduces the traditional per-operator coupling-coefficient cost.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = SpinDimension.from_d(rho.shape[0])
    band_of = table.band if table is not None else (lambda j, m: tensor_band(dim, j, m))
    rows = []
    for j in range(dim.two_j + 1):
        row = np.zeros(2 * j + 1, dtype=complex)
        for m in range(-j, j + 1):
            row[m + j] = np.dot(np.diagonal(rho, m), np.conj(band_of(j, m)))
        rows.append(row)
    return CoefficientTable(dim=dim, rows=rows)


# ---------------------------------------------------------------------------
# Spherical harmonics (stable normalized-Legendre recursions)
# ---------------------------------------------------------------------------

_Y00 = 0.5 / math.sqrt(math.pi)


def _theta_profiles(m: int, j_max: int, x: np.ndarray, s: np.ndarray):
    """Yield (j, Ybar_jm(theta)) for j = m..j_max at fixed order m >= 0."""
    pmm = np.full_like(x, _Y00)
    for mm in range(1, m + 1):
        pmm = -math.sqrt((2.0 * mm + 1.0) / (2.0 * mm)) * s * pmm
    yield m, pmm
    prev2 = np.zeros_like(x)
    prev = pmm
    for j in range(m + 1, j_max + 1):
        a = math.sqrt((4.0 * j * j - 1.0) / (j * j - m * m))
        if j == m + 1:
            cur = a * x * prev
        else:
            b = math.sqrt((2.0 * j + 1.0) * ((j - 1.0) ** 2 - m * m)
                          / ((2.0 * j - 3.0) * (j * j - m * m)))
            cur = a * x * prev - b * prev2
        yield j, cur
        prev2, prev = prev, cur


def harmonic_theta_profile(j: int, m: int, thetas) -> np.ndarray:
    """Ybar_jm(theta): the harmonic with its azimuthal phase factored off."""
    if abs(m) > j:
        raise ValueError(f"|m| must not exceed j, got m={m}, j={j}")
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    x, s = np.cos(thetas), np.sin(thetas)
    mm = abs(m)
    for jj, prof in _theta_profiles(mm, j, x, s):
        if jj == j:
            return prof if (m >= 0 or mm % 2 == 0) else -prof
    raise AssertionError("unreachable")


def spherical_harmonic(j: int, m: int, theta: float, phi: float) -> complex:
    """Y_jm(theta, phi) with the Condon-Shortley phase."""
    prof = harmonic_theta_profile(j, m, theta)[0]
    return complex(prof * np.exp(1j * m * phi))


def harmonic_grid(j: int, m: int, thetas, phis) -> np.ndarray:
    """Y_jm sampled on the Cartesian product of theta and phi arrays."""
    prof = harmonic_theta_profile(j, m, thetas)
    phase = np.exp(1j * m * np.asarray(phis, dtype=float))
    return prof[:, None] * phase[None, :]


def harmonic_theta_sums(weights: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Sum_j weights[j, m] Ybar_jm(theta_k) for every order m.

    ``weights`` has shape (j_max+1, 2*j_max+1) with columns indexed by
    m + j_max.  Returns an array of shape (len(thetas), 2*j_max+1).
    Memory stays at O(j_max * len(thetas)): profiles are consumed on the
    fly rather than stored.
    """
    j_max = weights.shape[0] - 1
    thetas = np.asarray(thetas, dtype=float)
    x, s = np.cos(thetas), np.sin(thetas)
    out = np.zeros((thetas.size, 2 * j_max + 1), dtype=complex)
    for m in range(0, j_max + 1):
        neg_sign = -1.0 if m % 2 else 1.0
        for j, prof in _theta_profiles(m, j_max, x, s):
            out[:, j_max + m] += weights[j, j_max + m] * prof
            if m > 0:
                out[:, j_max - m] += weights[j, j_max - m] * (neg_sign * prof)
    return out


def method_b_eval(rho: np.ndarray, s: float, theta: float, phi: float,
                  table: TensorOperatorTable | None = None,
                  coeffs: CoefficientTable | None = None) -> complex:
    """Phase-space value at one angle from the tensor-operator expansion.

    This is the traditional baseline: expand rho into c_jm, then sum
    (gamma_j)^(-s) c_jm Y_jm(theta, phi) / R term by term.
    """
    from .parity import gamma_power, sphere_radius, validate_s

    dim = SpinDimension.from_d(np.shape(rho)[0])
    rho = as_density_matrix(rho, dim)
    gamma_pow = gamma_power(dim, validate_s(dim, s))
    if coeffs is None:
        coeffs = expansion_coefficients(rho, table)
    total = 0.0 + 0.0j
    for j in range(dim.two_j + 1):
        row = coeffs.rows[j]
        for m in range(-j, j + 1):
            c = row[m + j]
            if c == 0:
                continue
            total += gamma_pow[j] * c * spherical_harmonic(j, m, theta, phi)
    return complex(total / sphere_radius(dim))
