"""Equiangular sampling of phase-space functions and the direct and method-b oracles.

The grid convention is theta_k = pi k / n, phi_l = 2 pi l / n for
k, l = 0..n-1.  A band-limited spin-J function is fully determined by any
such grid with n >= 4J + 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angular import SpinDimension, rotation_operator, wigner_d
from .cgc import CoefficientTable, expansion_coefficients, harmonic_theta_sums
from .fourier import FourierTable
from .parity import ParityOperator, gamma_power, sphere_radius, validate_s
from .states import as_density_matrix

__all__ = [
    "PhaseSpaceGrid",
    "GridWindow",
    "grid_thetas",
    "grid_phis",
    "minimal_grid_size",
    "default_grid_size",
    "sample_fft",
    "sample_fft_full",
    "direct_eval",
    "direct_grid",
    "method_b_grid",
    "window_extract",
]


def minimal_grid_size(dim: SpinDimension) -> int:
    """Coarsest complete grid: n = 4J + 2 = 2d (always even)."""
    return 2 * dim.d


def default_grid_size(dim: SpinDimension) -> int:
    """max(512, next power of two >= 4J+2)."""
    return max(512, 1 << (2 * dim.d - 1).bit_length())


def grid_thetas(n: int) -> np.ndarray:
    return np.pi * np.arange(n) / n


def grid_phis(n: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(n) / n


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """n x n complex samples of a phase-space function.

    ``values[k, l]`` is the function at (theta_k, phi_l).  The real part is
    the physical function for Hermitian inputs; the imaginary part is kept
    as a diagnostic because general operators are first-class inputs.  A
    grid synthesized from an exactly conjugate-symmetric table (methods c
    and d on an exactly Hermitian rho) is exactly real: every imaginary
    part is +0.0.
    """

    dim: SpinDimension
    s: float
    n: int
    values: np.ndarray
    method: str

    def thetas(self) -> np.ndarray:
        return grid_thetas(self.n)

    def phis(self) -> np.ndarray:
        return grid_phis(self.n)

    def imag_residual(self) -> float:
        """max |Im| relative to max |value|.

        Exactly 0 for grids from exactly conjugate-symmetric tables; small
        for other Hermitian inputs (direct, method b).
        """
        peak = np.abs(self.values).max()
        if peak == 0.0:
            return 0.0
        return float(np.abs(self.values.imag).max() / peak)


@dataclass(frozen=True)
class GridWindow:
    """Rectangular angular window cut out of a PhaseSpaceGrid."""

    thetas: np.ndarray
    phis: np.ndarray
    values: np.ndarray


def _check_grid_size(dim: SpinDimension, n: int) -> int:
    n = int(n)
    bound = 2 * dim.two_j + 2
    if n < bound:
        raise ValueError(
            f"grid size n = {n} cannot represent 2J = {dim.two_j}: need n >= 4J+2 = {bound}")
    if n % 2:
        raise ValueError(f"grid size must be even, got n = {n}")
    return n


def _synthesize(table: FourierTable, n: int, rows: int) -> np.ndarray:
    """Rows k = 0..rows-1 of the series on theta_k = pi k / n, phi_l = 2 pi l / n.

    Step 1 (theta) is a length-2n transform of each m-column, run along the
    contiguous rows of the transposed, zero-padded table; only its first
    ``rows`` outputs are copied back, as grid rows.  Step 2 (phi) is a
    length-n transform along each kept row.  An exactly conjugate-symmetric
    table, F_{-ell,-m} = conj(F_{ell m}) with no tolerance (the rule of
    fourier._fill_table), describes a real function: only its columns
    m >= 0 go through step 1, step 2 is a real-output transform, and every
    imaginary part is +0.0.  Any other table keeps both transforms complex.
    The symmetry test compares rows 0..2J with the conjugated reverse of rows
    4J..2J, which covers every pair, and the real output is written straight
    into the real parts of a zeroed complex grid.
    """
    n = _check_grid_size(table.dim, n)
    two_j = table.dim.two_j
    c = table.coeffs
    real = np.array_equal(c[: two_j + 1], np.conj(c[:two_j - 1:-1, ::-1]))
    cols = c[:, two_j:] if real else c
    padded = np.zeros((cols.shape[1], 2 * n), dtype=complex)  # row m: column m, padded
    padded[:, : two_j + 1] = cols[two_j:].T
    padded[:, 2 * n - two_j:] = cols[:two_j].T
    # Unnormalized synthesis with e^{+i freq angle}: norm="forward" drops the 1/N.
    theta = np.fft.ifft(padded, axis=1, norm="forward")[:, :rows].T.copy()
    del padded
    if real:
        values = np.zeros((rows, n), dtype=complex)
        np.fft.irfft(theta, n, axis=1, norm="forward", out=values.real)
        return values
    wrapped = np.zeros((rows, n), dtype=complex)
    wrapped[:, : two_j + 1] = theta[:, two_j:]
    wrapped[:, n - two_j:] = theta[:, :two_j]
    return np.fft.ifft(wrapped, axis=1, norm="forward")


def sample_fft_full(table: FourierTable, n: int) -> np.ndarray:
    """FFT synthesis over the doubled theta domain.

    Returns the full 2n x n array covering 0 <= theta < 2 pi; rows n..2n-1
    trace the same sphere a second time (glide images of rows 1..n-1).
    """
    return _synthesize(table, n, 2 * int(n))


def sample_fft(table: FourierTable, n: int, method: str = "c") -> PhaseSpaceGrid:
    """Equiangular n x n sampling of the series; O(n^2 log n)."""
    return PhaseSpaceGrid(dim=table.dim, s=table.s, n=int(n),
                          values=_synthesize(table, n, int(n)), method=method)


def direct_eval(rho: np.ndarray, parity: ParityOperator, theta: float, phi: float) -> complex:
    """Ground-truth oracle: Tr[rho R(theta, phi) M_s R^dagger(theta, phi)].

    Dense matrix algebra, O(d^3) per point; used to validate every faster
    path, never for production grids.
    """
    dim = parity.dim
    rho = as_density_matrix(rho, dim)
    r = rotation_operator(dim, theta, phi)
    rotated = (r * parity.diag) @ r.conj().T
    return complex(np.sum(rho * rotated.T))


def direct_grid(rho: np.ndarray, parity: ParityOperator, n: int) -> PhaseSpaceGrid:
    """Rotated-parity expectation values evaluated at every grid node.

    Reuses one Wigner-d conjugation per theta row; the phi sweep is a
    diagonal-phase quadratic form, still plain dense linear algebra.
    """
    dim = parity.dim
    rho = as_density_matrix(rho, dim)
    n = _check_grid_size(dim, n)
    m_desc = dim.m_values()
    e_phi = np.exp(1j * np.outer(grid_phis(n), m_desc))
    values = np.empty((n, n), dtype=complex)
    for k, theta in enumerate(grid_thetas(n)):
        y = wigner_d(dim, -theta)
        w = (y * parity.diag) @ y.conj().T
        x = w * rho.T
        values[k, :] = np.einsum("lb,ba,la->l", e_phi.conj(), x, e_phi, optimize=True)
    return PhaseSpaceGrid(dim=dim, s=parity.s, n=n, values=values, method="direct")


def method_b_grid(rho: np.ndarray, s: float, n: int,
                  coeffs: CoefficientTable | None = None) -> PhaseSpaceGrid:
    """Tensor-operator baseline evaluated pointwise on the grid.

    Expands rho into c_jm, then sums (gamma_j)^(-s) c_jm Y_jm / R at every
    node; no FFT is involved, so this cross-checks the Fourier pipeline end
    to end.
    """
    dim = SpinDimension.from_d(np.shape(rho)[0])
    rho = as_density_matrix(rho, dim)
    n = _check_grid_size(dim, n)
    s = validate_s(s)
    gamma_pow = gamma_power(dim, s)
    if coeffs is None:
        coeffs = expansion_coefficients(rho)
    weights = coeffs.dense() * (gamma_pow / sphere_radius(dim))[:, None]
    profile_sums = harmonic_theta_sums(weights, grid_thetas(n))
    m_vals = np.arange(-dim.two_j, dim.two_j + 1)
    phase = np.exp(1j * np.outer(m_vals, grid_phis(n)))
    return PhaseSpaceGrid(dim=dim, s=s, n=n, values=profile_sums @ phase, method="b")


def window_extract(grid: PhaseSpaceGrid, theta_max: float,
                   phi_range: tuple[float, float] | None = None) -> GridWindow:
    """Sub-array of samples whose angles satisfy theta <= theta_max and
    phi inside the closed phi_range (full circle when omitted)."""
    thetas = grid.thetas()
    phis = grid.phis()
    rows = np.flatnonzero(thetas <= theta_max + 1e-12)
    if phi_range is None:
        cols = np.arange(grid.n)
    else:
        lo, hi = phi_range
        cols = np.flatnonzero((phis >= lo - 1e-12) & (phis <= hi + 1e-12))
    if rows.size == 0 or cols.size == 0:
        raise ValueError("window contains no grid points")
    return GridWindow(thetas=thetas[rows], phis=phis[cols],
                      values=grid.values[np.ix_(rows, cols)])
