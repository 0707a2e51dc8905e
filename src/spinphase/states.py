"""Density matrices for the standard example families.

Permutation-symmetric N-qubit states are represented in the mapped spin
basis with N = 2J: the all-zeros product state is |J, J> (index 0), the
all-ones state is |J, -J> (index d-1).
"""

from __future__ import annotations

import math

import numpy as np

from .angular import SpinDimension, jx_eigenbasis, rotation_operator

__all__ = [
    "as_density_matrix",
    "ghz",
    "dicke",
    "squeezed",
    "coherent",
    "maximally_mixed",
    "random_density",
]


def as_density_matrix(rho, dim: SpinDimension) -> np.ndarray:
    """``rho`` as a complex d x d array, checked to be finite.

    Every route from rho to phase-space values validates its input here, so
    a wrong shape or a NaN or infinite entry fails with ValueError instead
    of yielding NaN values.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim.d, dim.d):
        raise ValueError(f"density matrix shape {rho.shape} does not match d = {dim.d}")
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has non-finite (NaN or infinite) entries")
    return rho


def _pure(psi: np.ndarray) -> np.ndarray:
    """|psi><psi|, exactly Hermitian: the lower triangle mirrors the upper one.

    ``np.outer`` alone can leave the two triangles one ulp apart and a tiny
    imaginary part on the diagonal, which would keep the state off the
    Hermitian half-table path of methods c and d.
    """
    rho = np.triu(np.outer(psi, psi.conj()), 1)
    rho += rho.conj().T
    rho[np.diag_indices_from(rho)] = np.abs(psi) ** 2
    return rho


def ghz(dim: SpinDimension) -> np.ndarray:
    """Equal superposition of the all-zeros and all-ones states."""
    psi = np.zeros(dim.d, dtype=complex)
    psi[0] = psi[-1] = 1.0 / np.sqrt(2.0)
    return _pure(psi)


def dicke(dim: SpinDimension, m) -> np.ndarray:
    """Projector onto |J, m>: the symmetrized state with J - m excitations."""
    psi = np.zeros(dim.d, dtype=complex)
    psi[dim.index_of_m(m)] = 1.0
    return _pure(psi)


def _phase_parameter(name: str, value, dim: SpinDimension, power: int) -> float:
    """``value`` as a float, refused unless value * J^power is finite.

    ``squeezed`` and ``coherent`` take exp(-i value x) for eigenvalues x
    up to J^power, and an infinite or NaN product would yield a NaN state.
    """
    value = float(value)
    if not math.isfinite(value * dim.j ** power):
        scale = "J" if power == 1 else f"J^{power}"
        raise ValueError(f"{name} = {value!r} is not finite or {name} * {scale} "
                         f"overflows at J = {dim.j:g}")
    return value


def squeezed(dim: SpinDimension, xi: float) -> np.ndarray:
    """One-axis-twisting evolution exp(-i xi J_x^2) applied to spin-up.

    Evolved exactly through the eigendecomposition of J_x; unitary for
    every xi, so the state stays normalized to machine precision.  J_x^2
    changes m by 0 or 2, so only the levels of even index (J - m even) are
    reached; the rounding the eigenbasis leaves on the others is set to
    exact zeros.  xi and xi * J^2 must be finite.
    """
    xi = _phase_parameter("xi", xi, dim, 2)
    basis = jx_eigenbasis(dim)
    v = basis.vectors
    phases = np.exp(-1j * xi * basis.eigenvalues ** 2)
    psi = v @ (phases * v[0, :].conj())
    psi[1::2] = 0.0
    return _pure(psi)


def coherent(dim: SpinDimension, theta0: float, phi0: float) -> np.ndarray:
    """Spin-coherent state pointing along (theta0, phi0).

    theta0 * J and phi0 * J must be finite.
    """
    theta0 = _phase_parameter("theta0", theta0, dim, 1)
    phi0 = _phase_parameter("phi0", phi0, dim, 1)
    psi = rotation_operator(dim, theta0, phi0)[:, 0]
    return _pure(psi)


def maximally_mixed(dim: SpinDimension) -> np.ndarray:
    return np.eye(dim.d, dtype=complex) / dim.d


def random_density(dim: SpinDimension, seed: int) -> np.ndarray:
    """Seeded random full-rank density matrix.

    A complex Gaussian matrix is symmetrized, shifted until positive
    definite, and trace-normalized; the same seed always reproduces the
    same matrix bit for bit.
    """
    rng = np.random.default_rng(int(seed))
    g = rng.standard_normal((dim.d, dim.d)) + 1j * rng.standard_normal((dim.d, dim.d))
    h = (g + g.conj().T) / 2.0
    lift = abs(float(np.linalg.eigvalsh(h)[0])) + 1.0
    h += lift * np.eye(dim.d)
    return h / np.trace(h).real
