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
    "eigendecompose",
    "jy_eigenbasis",
    "jx_eigenbasis",
    "projector_am",
    "am_analytic",
    "wigner_d",
    "rotation_operator",
]

HERMITICITY_TOL = 1e-12


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

    def column(self, nu) -> np.ndarray:
        """Eigenvector for eigenvalue nu (a half-integer in -J..J)."""
        two_nu = as_two(nu, "nu")
        idx = (two_nu + self.dim.two_j) // 2
        if idx < 0 or idx >= self.dim.d:
            raise ValueError(f"eigenvalue {nu} out of range for 2J = {self.dim.two_j}")
        return self.vectors[:, idx]


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


def _tridiagonal_eigh(main: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenpairs of a real symmetric tridiagonal matrix.

    J_x and J_y (after the phase similarity) have a zero diagonal and a
    palindromic off-diagonal and take the reversal split; any other matrix,
    such as a diagonal J_z or a rotated n.J, is solved densely.
    """
    if not main.any() and np.array_equal(off, off[::-1]):
        return _reversal_split_eigh(off)
    return np.linalg.eigh(_symmetric_tridiagonal(main, off))


def _basis_from_tridiagonal(dim: SpinDimension, main: np.ndarray, off: np.ndarray,
                            phases: np.ndarray) -> EigenBasis:
    """Eigenbasis of diag(phases) T diag(phases)^* for the real tridiagonal T = (main, off).

    ``phases`` have unit modulus.  Each eigenvector is gauge-fixed so its
    largest-magnitude entry is real positive.
    """
    d = dim.d
    w, v = _tridiagonal_eigh(main, off)
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


def eigendecompose(op: np.ndarray) -> EigenBasis:
    """Diagonalize a Hermitian tridiagonal spin component (J_x, J_y, J_z, n.J).

    A diagonal phase similarity maps the matrix to a real symmetric
    tridiagonal one, which is diagonalized with NumPy; the phases are then
    restored on the eigenvectors.  Each eigenvector is gauge-fixed so its
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
    return _basis_from_tridiagonal(dim, main, np.abs(off), phases)


@lru_cache(maxsize=64)
def _cached_basis(two_j: int, axis: str) -> EigenBasis:
    """J_x or J_y basis built straight from the ladder coefficients.

    The operator is known to be Hermitian and tridiagonal, so the checks
    of ``eigendecompose`` are skipped; the phases are those its similarity
    computes: +1 on every sub-diagonal step for J_x, +i for J_y.
    """
    dim = SpinDimension(two_j)
    if axis == "x":
        phases = np.ones(dim.d, dtype=complex)
    elif axis == "y":
        phases = np.array([1, 1j, -1, -1j])[np.arange(dim.d) % 4]
    else:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    return _basis_from_tridiagonal(dim, np.zeros(dim.d), _ladder_coeffs(dim) / 2.0, phases)


def jy_eigenbasis(dim: SpinDimension) -> EigenBasis:
    """Shared, memoized eigenbasis of J_y."""
    return _cached_basis(dim.two_j, "y")


def jx_eigenbasis(dim: SpinDimension) -> EigenBasis:
    """Shared, memoized eigenbasis of J_x."""
    return _cached_basis(dim.two_j, "x")


def projector_am(basis: EigenBasis, m) -> np.ndarray:
    """Rank-1 projector |U_m><U_m| onto the eigenvector with eigenvalue m."""
    col = basis.column(m)
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
