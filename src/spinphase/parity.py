"""Normalization constants and the diagonal parity operator.

The parity operator is the fixed kernel whose rotated expectation values
produce the whole family of s-parametrized phase-space functions: s = 0
gives the Wigner function, s = -1 the Husimi Q function, s = +1 the
Glauber P function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angular import EigenBasis, SpinDimension
from .cgc import tensor_bands

__all__ = [
    "ParityOverflowError",
    "ParityOperator",
    "sphere_radius",
    "log_gamma_j",
    "gamma_j",
    "gamma_power",
    "validate_s",
    "build_parity",
    "rounding_bound",
    "transform_parity",
]

LOG_4PI = math.log(4.0 * math.pi)

# build_parity keeps this many operators, each a length-d float diagonal:
# at most 64 x 8 kB = 0.5 MB at d = 1000.
_PARITY_MEMO = 64


class ParityOverflowError(OverflowError):
    """(gamma_j)^(-s) left double range; the parity operator is not representable."""


def sphere_radius(dim: SpinDimension) -> float:
    """Radius R = sqrt(J / (2 pi)) of the phase-space sphere."""
    return math.sqrt(dim.j / (2.0 * math.pi))


def log_gamma_j(dim: SpinDimension) -> np.ndarray:
    """log(gamma_j) for j = 0..2J, evaluated entirely in the log domain."""
    two_j = dim.two_j
    j = np.arange(two_j + 1, dtype=float)
    return (math.log(sphere_radius(dim)) + 0.5 * LOG_4PI
            + math.lgamma(two_j + 1)
            - 0.5 * _lgamma_vec(two_j + j + 2)
            - 0.5 * _lgamma_vec(two_j - j + 1))


def _lgamma_vec(values: np.ndarray) -> np.ndarray:
    return np.array([math.lgamma(v) for v in values])


def gamma_j(dim: SpinDimension, j: int) -> float:
    """The decay constant gamma_j; strictly decreasing in j."""
    j = int(j)
    if j < 0 or j > dim.two_j:
        raise ValueError(f"j must lie in 0..2J = 0..{dim.two_j}, got {j}")
    return float(np.exp(log_gamma_j(dim)[j]))


def _exp_weights(log_weight: np.ndarray, dim: SpinDimension, s: float) -> np.ndarray:
    """exp(log_weight) over j = 0..2J; ParityOverflowError names the first j it overflows at."""
    with np.errstate(over="ignore"):
        weight = np.exp(log_weight)
    if not np.all(np.isfinite(weight)):
        bad = int(np.argmax(~np.isfinite(weight)))
        raise ParityOverflowError(
            f"(gamma_j)^(-s) overflows double precision at j = {bad} "
            f"for d = {dim.d}, s = {s}; use s <= 0 representations at this scale")
    return weight


def gamma_power(dim: SpinDimension, s: float) -> np.ndarray:
    """(gamma_j)^(-s) for j = 0..2J; ParityOverflowError if it leaves double range."""
    return _exp_weights(-s * log_gamma_j(dim), dim, s)


def validate_s(s: float) -> float:
    s = float(s)
    if not math.isfinite(s):
        raise ValueError("s must be a finite real number")
    if not -1.0 <= s <= 1.0:
        raise ValueError(f"s = {s} outside [-1, 1]")
    return s


@dataclass(frozen=True)
class ParityOperator:
    """Diagonal parity kernel M_s, stored as its length-d diagonal."""

    dim: SpinDimension
    s: float
    diag: np.ndarray

    def __post_init__(self):
        if np.shape(self.diag) != (self.dim.d,):
            raise ValueError(f"parity diag has shape {np.shape(self.diag)}, not ({self.dim.d},)")

    def matrix(self) -> np.ndarray:
        return np.diag(self.diag.astype(complex))


def _kernel_weights(dim: SpinDimension, s: float) -> np.ndarray:
    """Weight sqrt((2j+1)/4pi) (gamma_j)^(-s) / R of T_j0 in M_s, j = 0..2J."""
    j = np.arange(dim.two_j + 1, dtype=float)
    log_weight = (0.5 * (np.log(2.0 * j + 1.0) - LOG_4PI)
                  - s * log_gamma_j(dim) - math.log(sphere_radius(dim)))
    return _exp_weights(log_weight, dim, s)


def build_parity(dim: SpinDimension, s: float) -> ParityOperator:
    """Assemble M_s = (1/R) sum_j sqrt((2j+1)/4pi) (gamma_j)^(-s) T_j0.

    Shared and memoized: one read-only operator per (2J, s), s = -0.0 kept
    apart from 0.0, at most _PARITY_MEMO of them.
    """
    s = validate_s(s)
    return _cached_parity(dim.two_j, s, math.copysign(1.0, s))


@lru_cache(maxsize=_PARITY_MEMO)
def _cached_parity(two_j: int, s: float, sign: float) -> ParityOperator:
    # lru_cache finds -0.0 == 0.0, so ``sign`` keeps their operators apart.
    dim = SpinDimension(two_j)
    diag = _kernel_weights(dim, s) @ tensor_bands(dim, 0)
    if not np.all(np.isfinite(diag)):
        raise ParityOverflowError(f"parity diagonal overflows for d = {dim.d}, s = {s}")
    diag.setflags(write=False)
    return ParityOperator(dim=dim, s=s, diag=diag)


def rounding_bound(rho: np.ndarray, dim: SpinDimension, s: float) -> float:
    """E = eps ||rho||_F ||M_s||_F, the rounding scale of every phase-space value.

    A value is tr(rho R M_s R^dagger) with R unitary, so perturbing rho by
    delta moves it by at most ||delta||_F ||M_s||_F, and rounding rho (and
    the products formed from it) to doubles is a delta of about
    eps ||rho||_F.  The T_j0 are orthonormal, so ||M_s||_F = ||diag||_2 is
    the 2-norm of their weights: O(d), with no parity operator built.  The
    routes' own rounding, about d eps of the peak, comes on top.
    """
    kernel = math.hypot(*_kernel_weights(dim, validate_s(s)))  # cannot overflow midway
    return float(np.finfo(float).eps * np.linalg.norm(rho) * kernel)


def transform_parity(parity: ParityOperator, basis: EigenBasis) -> np.ndarray:
    """Read-only U^dagger M_s U: the diagonal kernel rotated into the eigenbasis of J_y."""
    if basis.dim != parity.dim:
        raise ValueError(f"dimension mismatch: parity d = {parity.dim.d}, "
                         f"basis d = {basis.dim.d}")
    u = basis.vectors
    matrix = (u.conj().T * parity.diag) @ u
    matrix.setflags(write=False)
    return matrix
