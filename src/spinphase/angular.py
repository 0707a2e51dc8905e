"""Spin operators, their eigendecompositions, and rotation operators.

All matrices use the descending magnetic-number basis: array index ``i``
corresponds to the quantum number m = J - i, so index 0 is the spin-up
state |J, J> and index d-1 is |J, -J>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "SpinDimension",
    "EigenBasis",
    "build_spin_operator",
    "jy_eigenbasis",
    "jx_eigenbasis",
    "wigner_d",
    "rotation_operator",
]


def as_two(value, name="value"):
    """Return the doubled-integer representation of a half-integer."""
    doubled = round(2 * float(value))
    if abs(2 * float(value) - doubled) > 1e-9:
        raise ValueError(f"{name} must be an integer or half-integer, got {value!r}")
    return int(doubled)


@dataclass(frozen=True)
class SpinDimension:
    """The pair (J, d = 2J + 1) governing every array shape in the package."""

    two_j: int

    def __post_init__(self):
        if self.two_j < 1:
            raise ValueError(f"need 2J >= 1 (d >= 2), got 2J = {self.two_j}")

    @classmethod
    def from_d(cls, d: int) -> "SpinDimension":
        d = int(d)
        if d < 2:
            raise ValueError(f"dimension must be at least 2, got {d}")
        return cls(two_j=d - 1)

    @classmethod
    def from_j(cls, j) -> "SpinDimension":
        return cls(two_j=as_two(j, "J"))

    @property
    def d(self) -> int:
        return self.two_j + 1

    @property
    def j(self) -> float:
        return self.two_j / 2.0

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers in basis order (J, J-1, ..., -J)."""
        return self.j - np.arange(self.d)

    def index_of_m(self, m) -> int:
        two_m = as_two(m, "m")
        if abs(two_m) > self.two_j or (two_m - self.two_j) % 2 != 0:
            raise ValueError(f"m = {m} is not a valid level for 2J = {self.two_j}")
        return (self.two_j - two_m) // 2


@dataclass(frozen=True)
class EigenBasis:
    """Eigenvalues and eigenvectors of a spin component.

    ``eigenvalues`` ascend from -J to J; column nu of ``vectors`` holds the
    eigenvector with eigenvalue ``eigenvalues[nu]`` expressed in the z basis.
    """

    dim: SpinDimension
    eigenvalues: np.ndarray
    vectors: np.ndarray


def _ladder_coeffs(dim: SpinDimension) -> np.ndarray:
    """sqrt(J(J+1) - m(m+1)) for the raising transition m -> m+1, m = J-1..-J."""
    j = dim.j
    m = j - np.arange(1, dim.d)
    return np.sqrt(j * (j + 1) - m * (m + 1))


def build_spin_operator(dim: SpinDimension, axis: str) -> np.ndarray:
    """Angular-momentum component matrix in the z basis.

    z is diagonal with entries J..-J; x and y are tridiagonal through the
    ladder operators and satisfy [J_a, J_b] = i eps_abc J_c.
    """
    d = dim.d
    op = np.zeros((d, d), dtype=complex)
    if axis == "z":
        np.fill_diagonal(op, dim.m_values())
        return op
    c = _ladder_coeffs(dim)
    idx = np.arange(1, d)
    if axis == "x":
        op[idx - 1, idx] = c / 2.0
        op[idx, idx - 1] = c / 2.0
    elif axis == "y":
        op[idx - 1, idx] = -0.5j * c
        op[idx, idx - 1] = 0.5j * c
    else:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    return op


def _symmetric_tridiagonal(main: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Dense real symmetric matrix with diagonal ``main`` and off-diagonal ``off``."""
    return np.diag(main) + np.diag(off, 1) + np.diag(off, -1)


def _reversal_split_eigh(off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the zero-diagonal tridiagonal matrix T with palindromic ``off``.

    T commutes with index reversal, so every eigenvector is even or odd under
    it.  Each parity sector is a half-size tridiagonal matrix; two dense
    solves of size d/2 replace one of size d.
    """
    d = off.size + 1
    p = d // 2
    inner = off[: p - 1]
    edge = off[p - 1]  # the coupling that crosses the centre of the chain
    if d % 2 == 0:
        # x = (y, +-reversed y): the coupling across the centre feeds +-edge
        # back into y[p-1].
        even = _symmetric_tridiagonal(np.zeros(p), inner)
        odd = even.copy()
        even[p - 1, p - 1] = edge
        odd[p - 1, p - 1] = -edge
    else:
        # Even: x = (y, z, reversed y), the middle entry z coupled with weight
        # sqrt(2) in the normalized basis; odd: x = (y, 0, -reversed y).
        even = _symmetric_tridiagonal(np.zeros(p + 1), np.append(inner, math.sqrt(2.0) * edge))
        odd = _symmetric_tridiagonal(np.zeros(p), inner)
    w_even, y_even = np.linalg.eigh(even)
    w_odd, y_odd = np.linalg.eigh(odd)

    vectors = np.zeros((d, d))
    n_even = w_even.size
    top_even = y_even[:p] / math.sqrt(2.0)
    vectors[:p, :n_even] = top_even
    vectors[d - p:, :n_even] = top_even[::-1]
    if d % 2:
        vectors[p, :n_even] = y_even[p]
    top_odd = y_odd / math.sqrt(2.0)
    vectors[:p, n_even:] = top_odd
    vectors[d - p:, n_even:] = -top_odd[::-1]

    eigenvalues = np.concatenate([w_even, w_odd])
    order = np.argsort(eigenvalues)
    return eigenvalues[order], vectors[:, order]


def _basis_from_tridiagonal(dim: SpinDimension, w: np.ndarray, v: np.ndarray,
                            phases: np.ndarray) -> EigenBasis:
    """Eigenbasis of diag(phases) T diag(phases)^* from the eigenpairs (w, v) of a real T.

    ``w`` ascends and column k of ``v`` is its eigenvector; ``phases`` have
    unit modulus.  Each eigenvector is gauge-fixed so its largest-magnitude
    entry is real positive.
    """
    d = dim.d
    expected = -dim.j + np.arange(d)
    if np.abs(w - expected).max() > 1e-9 * max(1.0, dim.j):
        raise ValueError("spectrum is not the arithmetic sequence -J..J")

    # Gauge fix on the real vectors: the phases have unit modulus, so the
    # largest-magnitude entry of each column is found before they are applied.
    lead = np.argmax(np.abs(v), axis=0)
    column_phases = np.sign(v[lead, np.arange(d)]) * phases[lead].conj()
    vectors = phases[:, None] * v
    vectors *= column_phases

    eigenvalues = expected.astype(float)
    eigenvalues.setflags(write=False)
    vectors.setflags(write=False)
    return EigenBasis(dim=dim, eigenvalues=eigenvalues, vectors=vectors)


@lru_cache(maxsize=64)
def _cached_basis(two_j: int, axis: str) -> EigenBasis:
    """J_x or J_y basis built straight from the ladder coefficients.

    A diagonal phase similarity, +1 on every sub-diagonal step for J_x and
    +i for J_y, maps the operator to the real zero-diagonal tridiagonal
    matrix with the palindromic off-diagonal c/2, which takes the reversal
    split.
    """
    dim = SpinDimension(two_j)
    if axis == "x":
        phases = np.ones(dim.d, dtype=complex)
    elif axis == "y":
        phases = np.array([1, 1j, -1, -1j])[np.arange(dim.d) % 4]
    else:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    w, v = _reversal_split_eigh(_ladder_coeffs(dim) / 2.0)
    return _basis_from_tridiagonal(dim, w, v, phases)


def jy_eigenbasis(dim: SpinDimension) -> EigenBasis:
    """Shared, memoized eigenbasis of J_y."""
    return _cached_basis(dim.two_j, "y")


def jx_eigenbasis(dim: SpinDimension) -> EigenBasis:
    """Shared, memoized eigenbasis of J_x."""
    return _cached_basis(dim.two_j, "x")


def wigner_d(dim: SpinDimension, theta: float) -> np.ndarray:
    """exp(i theta J_y) assembled from the J_y eigenprojectors."""
    basis = jy_eigenbasis(dim)
    phases = np.exp(1j * theta * basis.eigenvalues)
    u = basis.vectors
    return (u * phases) @ u.conj().T


def rotation_operator(dim: SpinDimension, theta: float, phi: float) -> np.ndarray:
    """Spherical rotation exp(-i phi J_z) exp(-i theta J_y).

    Column 0 is the spin-coherent state pointing along (theta, phi).
    """
    z_phases = np.exp(-1j * phi * dim.m_values())
    return z_phases[:, None] * wigner_d(dim, -theta)
