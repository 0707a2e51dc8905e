"""Band-limited Fourier description of phase-space functions.

A spin-J phase-space function is a finite Fourier series with frequencies
|ell|, |m| <= 2J.  Its coefficient table is obtained from the density
matrix by a linear map built from the K_ell transformation matrices; each
K_ell couples one theta frequency to every phi frequency through the
diagonals of the density matrix.  Entry [ell, m] is one bilinear form: a
sum over levels i and basis vectors nu of rho[i, i+m] Mtilde[nu, nu+ell]
times basis terms.  Every table built from per-index products comes from
one loop, ``_fill_table``: from one matrix laid out read-only
(``_RowSums``) it forms, per index, only the products on that matrix's
nonzero diagonals and sums each diagonal in a fixed order, in the filling
thread's own buffer.  Methods c and d sum over nu first: row ell is the
diagonal sums of rho against K_ell, built as one d x d product (method c)
or read from the cache (method d).  When rho's nonzero diagonals hold few
cells (Dicke, GHZ), method c sums over i first: column m is the diagonal
sums of the memoized Mtilde against one BLAS product per nonzero diagonal
m of rho (``_diagonal_product``), the same loop with rho and Mtilde
swapped, whose table comes back transposed.  An exactly Hermitian rank-one
rho (a pure state) of at least _RANK_ONE_MIN_D levels gets its rows from
two FFTs over the levels (``_rank_one_table``).  Method d's loop runs on
two threads when the process may use two CPUs; method c's stays on one.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angular import EigenBasis, SpinDimension, jy_eigenbasis
from .parity import ParityOperator, transform_parity
from .states import as_density_matrix

__all__ = [
    "FourierTable",
    "compute_k",
    "fourier_coefficients_method_c",
    "derivative_coefficients",
]

# Above this size, diagonal sums switch from a sequential running sum to
# per-diagonal pairwise summation to keep the accumulation error at machine level.
_PAIRWISE_THRESHOLD = 256

# One NumPy call costs about as much as multiplying this many complex entries,
# so a rho with fewer than d^2 / _ENTRIES_PER_CALL nonzero diagonals has its
# products formed one diagonal per call instead of in one d x d call.
_ENTRIES_PER_CALL = 1024

# Method c takes a rho whose nonzero diagonals hold at most d^2 /
# _FEW_DIAGONAL_GATE cells through ``_diagonal_product`` instead of building
# every K_ell.  Its products cost d^2 complex multiply-adds per cell on those
# diagonals, the full build's d^2 per cell of rho.  The value is the measured
# crossover of the per-diagonal einsum build that path replaced (banded random
# states, 2-vCPU VM, numpy 2.4, OpenBLAS: that build won below cells / d^2 =
# 0.028 and lost above 0.040 at d = 320), kept so that every input keeps its path.
_FEW_DIAGONAL_GATE = 32

# Method c takes an exactly Hermitian rho = a a^H / c from ``_rank_one_table``
# (O(d^3)) instead of building its K_ell from this many levels up.  Per table
# against the K build it replaced (2-vCPU VM, numpy 2.4, OpenBLAS on one
# thread, medians of 7-9 alternating rounds), coherent and random pure states
# break even at d = 9-10 (0.23 -> 0.25 ms and 0.26 -> 0.26 ms at d = 8;
# 0.37 -> 0.33 and 0.36 -> 0.35 ms at d = 10; 0.68 -> 0.53 and 0.66 -> 0.51 ms
# at d = 20; 4.8 -> 2.0 ms for a coherent state at d = 64), while squeezed,
# GHZ and Dicke states already gain at d = 6-8 (squeezed 0.26 -> 0.21 ms at
# d = 8).  A coherent state at d = 320 takes 0.08-0.10 s instead of 1.7 s.
_RANK_ONE_MIN_D = 10

# rho counts as a a^H / c when ||rho - a a^H / c||_F <= this many eps ||rho||_F.
# Coherent, squeezed, GHZ and Dicke states read at most 1.6 eps, random and
# maximally mixed ones at least 0.35 (1.6e15 eps), at d in {2, 3, 17, 64,
# 65, 200, 320}.
_RANK_ONE_TOLERANCE = 64

# Method c keeps the Mtilde of this many parity diagonals, each a d x d
# complex matrix: at most 4 x 16 MB = 64 MB at d = 1000.
_MTILDE_MEMO = 4

# Rows nu of the rank-one product formed per call: a 32 x 2d buffer, 0.3 MB
# at d = 320 where a whole (d - ell) x 2d product would take 3.3 MB.  At
# d = 320, 32 rows took 79 ms per table against 89-93 ms for 16, 64 or 128
# (one ell at a time); taking every ell per chunk cut that to 44-63 ms
# against 66-88 ms in the same runs.  The value fixes the order of the sums,
# so the table's bits.
_RANK_ONE_CHUNK = 32


@dataclass(frozen=True)
class FourierTable:
    """(4J+1) x (4J+1) coefficient array F_{ell m}.

    Row index is the theta frequency ell + 2J, column index the phi
    frequency m + 2J, both ascending in signed order.
    """

    dim: SpinDimension
    s: float
    coeffs: np.ndarray

    def frequencies(self) -> np.ndarray:
        return np.arange(-self.dim.two_j, self.dim.two_j + 1)

    def get(self, ell: int, m: int) -> complex:
        two_j = self.dim.two_j
        if abs(ell) > two_j or abs(m) > two_j:
            return 0.0 + 0.0j
        return self.coeffs[ell + two_j, m + two_j]


def _k_matrix(u: np.ndarray, mtilde: np.ndarray, ell: int) -> np.ndarray:
    """K_ell = sum_nu [Mtilde]_{nu, nu+ell} |U_nu><U_{nu+ell}| as a dense array."""
    d = u.shape[0]
    if abs(ell) >= d:
        return np.zeros((d, d), dtype=complex)
    w = np.diagonal(mtilde, ell)
    if ell >= 0:
        left = u[:, : d - ell]
        right = u[:, ell:]
    else:
        left = u[:, -ell:]
        right = u[:, : d + ell]
    return (left * w) @ right.conj().T


def compute_k(basis: EigenBasis, mtilde: np.ndarray, ell: int) -> np.ndarray:
    """Read-only K_ell for theta frequency ell, from ``transform_parity``'s ``mtilde``.

    |ell| > 2J yields the zero matrix (empty sum), not an error.
    """
    if mtilde.shape != basis.vectors.shape:
        raise ValueError("basis and transformed parity dimensions differ")
    matrix = _k_matrix(basis.vectors, mtilde, int(ell))
    matrix.setflags(write=False)
    return matrix


def _skew_cells(skew: np.ndarray) -> np.ndarray:
    """d x d view of a (d + 1) x (2d - 1) array: cell [i, j] is skew[1 + i, j - i + d - 1].

    Diagonal k of the view is column k + d - 1, in row order, and row 0 is
    no cell's.
    """
    d, width = skew.shape[0] - 1, skew.shape[1]
    flat = skew.ravel()[width + d - 1:]  # rows of width - 1 entries from cell [0, 0]
    return flat[: d * (width - 1)].reshape(d, width - 1)[:, :d]


def _nonzero_diagonals(matrix: np.ndarray) -> np.ndarray:
    """Offsets k, ascending, of the diagonals [i, i+k] of a square matrix that hold a nonzero."""
    d = matrix.shape[0]
    seen = np.zeros((d + 1, 2 * d - 1), dtype=bool)
    _skew_cells(seen)[...] = matrix != 0
    return np.flatnonzero(seen.any(axis=0)) - (d - 1)


class _RowSums:
    """One matrix rho laid out, read-only, for ``accumulate_row``.

    rho is a density matrix, or Mtilde when method c sums over i first.
    Entry m + d - 1 of a row is sum_i rho[i, i+m] K[i+m, i] (array indices):
    the sum of diagonal k = -m of rho^T * K.  rho^T is stored C-contiguous,
    so the product reads K contiguously, and each term has the same operands
    in the same order as in rho * K^T, so the same bits.

    A diagonal of rho that is all zero is neither multiplied nor summed: its
    terms are 0 * K = +-0, whose sum, from +0.0, is +0.0 (K is finite).  The
    others are summed in a fixed order.  For d <= _PAIRWISE_THRESHOLD the
    product goes into a zeroed skew buffer (``scratch``) in which diagonal k
    is column k + d - 1, its terms in row order below a first row that stays
    zero, and each column is a running sum from that row, term by term as
    ``np.add.at`` would add them.  Above it, each diagonal is one pairwise
    ``np.sum`` and the buffer is None.  Each thread that fills rows passes
    its own buffer; nothing here is written after construction, so threads
    and tables may share one object.
    """

    def __init__(self, rho: np.ndarray):
        d = rho.shape[0]
        self.rho_t = np.ascontiguousarray(rho.T)
        self.offsets = _nonzero_diagonals(self.rho_t)  # diagonals k = -m of rho^T * K to sum
        self.columns = self.offsets + (d - 1)  # their skew columns
        self.places = (d - 1) - self.offsets  # and their row entries m + d - 1
        self.dense = self.columns.size * _ENTRIES_PER_CALL >= d * d
        self.rho_diagonals = [np.diagonal(self.rho_t, k) for k in self.offsets]
        self.cells = [(slice(1 + max(0, -k), 1 + min(d, d - k)), k + d - 1) for k in self.offsets]
        for array in (self.rho_t, self.offsets, self.columns, self.places):
            array.setflags(write=False)

    def scratch(self) -> np.ndarray | None:
        """A zeroed skew buffer for one thread's rows; None above _PAIRWISE_THRESHOLD."""
        d = self.rho_t.shape[0]
        return np.zeros((d + 1, 2 * d - 1), dtype=complex) if d <= _PAIRWISE_THRESHOLD else None

    def row(self, k_matrix: np.ndarray, skew: np.ndarray | None) -> np.ndarray:
        d = self.rho_t.shape[0]
        out = np.zeros(2 * d - 1, dtype=complex)
        if skew is None:
            product = self.rho_t * k_matrix if self.dense else None
            for place, k, rho_k in zip(self.places, self.offsets, self.rho_diagonals):
                terms = np.diagonal(product, k) if self.dense else rho_k * np.diagonal(k_matrix, k)
                out[place] = np.sum(terms)
        elif self.dense:
            np.multiply(self.rho_t, k_matrix, out=_skew_cells(skew))
            # C-contiguous with >= 3 columns: NumPy adds the rows in order.
            out[self.places] = np.add.reduce(skew, axis=0)[self.columns]
        else:
            for k, rho_k, cells_k in zip(self.offsets, self.rho_diagonals, self.cells):
                np.multiply(rho_k, np.diagonal(k_matrix, k), out=skew[cells_k])
            # A reduce over one column would sum it pairwise; accumulate never does.
            out[self.places] = np.add.accumulate(skew[:, self.columns], axis=0)[-1]
        return out


def accumulate_row(rows: _RowSums, k_matrix: np.ndarray, skew) -> np.ndarray:
    """All phi-frequency coefficients carried by one K matrix.

    Returns the length-(4J+1) vector with entries
    sum_lambda rho_{lambda, lambda+m} [K]_{lambda+m, lambda}, m ascending,
    for the rho that ``rows`` was prepared from; ``skew`` is ``rows.scratch()``.
    """
    return rows.row(k_matrix, skew)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _on_two_threads(ells: range, fill: Callable[[int, object], None],
                    scratch: Callable[[], object]) -> None:
    """fill(ell, buffer) for every ell: the even ones here, the odd ones on a helper thread.

    Each thread passes its own buffer from ``scratch()``, made before the
    helper starts, and a failure stops both threads before any larger ell.
    The helper is joined first, then the error of the smallest failing ell
    is raised: the one the serial loop raises, since every smaller ell has run.
    """
    lock = threading.Lock()
    errors: dict[int, BaseException] = {}  # at most one per thread
    stop = ells.stop  # smallest failing ell so far

    def work(parity: int, buffer: object) -> None:
        nonlocal stop
        for ell in ells:
            if ell % 2 != parity:
                continue
            if ell > stop:
                return
            try:
                fill(ell, buffer)
            except BaseException as exc:
                with lock:
                    errors[ell] = exc
                    stop = min(stop, ell)
                return

    helper = threading.Thread(target=work, args=(1, scratch()),
                              name="spinphase-rows", daemon=True)
    helper.start()
    work(0, scratch())
    helper.join()
    if errors:
        raise errors[min(errors)]


def _fill_table(rows: _RowSums, hermitian: bool, ells,
                k_of_ell: Callable[[int], np.ndarray],
                on_mirrored: Callable[[int], object] | None = None,
                two_threads: bool = False) -> np.ndarray:
    """Coefficient array with row ell = accumulate_row(rows, k_of_ell(ell), skew), ell in ``ells``.

    ``rows`` is one read-only ``_RowSums`` of dimension d, and each thread
    that fills rows has its own ``rows.scratch()``.  Rows not in ``ells``
    stay zero.  Methods c and d pass every ell with K_ell for ``k_of_ell``;
    method c's few-diagonal path passes rho's nonzero diagonals m with the
    memoized Mtilde in ``rows`` and transposes the result.

    ``hermitian`` says that the caller found rho exactly Hermitian, so its
    phase-space function is real and F_{-ell,-m} = conj(F_{ell m}): only the
    rows ell >= 0 are accumulated and the rows ell < 0 are their conjugated,
    reversed copies.  Row 0 mirrors its own m > 0 half onto m < 0 and keeps
    Re F_00, so the array is exactly conjugate-symmetric, transposed or not,
    and sampling.sample_fft synthesizes a real grid.  ``on_mirrored`` is
    called with each ell < 0 instead of ``k_of_ell``.  Any other operator,
    even one ulp from Hermitian, takes every row from its own product.

    With ``two_threads`` (method d, whose ``ells`` is a ``range``) and at
    least two usable CPUs, the calling thread takes the even ell and one
    helper thread the odd ell, each calling ``k_of_ell``/``on_mirrored`` for
    its own ell.  Method d's record reads, CRCs and large NumPy products
    release the GIL, so the two overlap; each row is computed as on one
    thread, so the table is the same bytes.  Method c stays on one thread:
    BLAS already threads its products.  On one CPU no thread is started.

    ``accumulate_row`` is looked up as a module global, so wrappers of it see
    every table.  With two threads, wrappers of it or of the record reader
    run on both, and times they record add up over the two.
    """
    d = rows.rho_t.shape[0]
    coeffs = np.zeros((2 * d - 1, 2 * d - 1), dtype=complex)

    def fill(ell: int, skew: np.ndarray | None) -> None:
        if hermitian and ell < 0:
            if on_mirrored is not None:
                on_mirrored(ell)
        else:
            coeffs[ell + d - 1] = accumulate_row(rows, k_of_ell(ell), skew)

    if two_threads and _usable_cpus() >= 2:
        _on_two_threads(ells, fill, rows.scratch)
    else:
        skew = rows.scratch()
        for ell in ells:
            fill(ell, skew)
    if hermitian:
        _mirror_hermitian(coeffs)
    return coeffs


def _mirror_hermitian(coeffs: np.ndarray) -> None:
    """Make a table exactly conjugate-symmetric, F_{-ell,-m} = conj(F_{ell m}), in place.

    Rows ell < 0 become conjugated, reversed copies of rows ell > 0, row 0's
    m < 0 half the mirror of its m > 0 half, and F_00 its real part.
    """
    two_j = coeffs.shape[0] // 2
    row0 = coeffs[two_j]
    np.conjugate(row0[:two_j:-1], out=row0[:two_j])
    row0[two_j] = row0[two_j].real
    np.conjugate(coeffs[:two_j:-1, ::-1], out=coeffs[:two_j])


def _rank_one_factor(rho: np.ndarray) -> tuple[np.ndarray, float] | None:
    """(a, c) with rho = a a^H / c to _RANK_ONE_TOLERANCE eps ||rho||_F, else None.

    For an exactly Hermitian rho: a is the column j of its largest |rho_jj|
    and c = rho_jj, which is real.  Substituting a a^H / c for rho moves each
    table value by at most _RANK_ONE_TOLERANCE times parity.rounding_bound.
    """
    j = int(np.argmax(np.abs(np.diagonal(rho))))
    c = float(rho[j, j].real)
    if c == 0.0:
        return None
    a = rho[:, j]
    with np.errstate(over="ignore", invalid="ignore"):  # a huge rho is no match
        residual = np.outer(a, a.conj() / c)
        residual -= rho
        bound = _RANK_ONE_TOLERANCE * np.finfo(float).eps * np.linalg.norm(rho)
        if not np.linalg.norm(residual) <= bound < np.inf:
            return None
    return a, c


def _rank_one_table(a: np.ndarray, c: float, u: np.ndarray, mtilde: np.ndarray) -> np.ndarray:
    """Exactly conjugate-symmetric coefficient array of rho = a a^H / c, without any K_ell.

    Row ell entry m is sum_i rho[i, i+m] K_ell[i+m, i]
    = sum_nu w_nu sum_i A[nu+ell, i] B[nu, i+m] with w = diag(Mtilde, ell),
    A = a conj(U) and B = conj(a) U / c over the levels i: per nu a
    correlation over i, so a product of length-2d transforms (long enough
    that no m wraps around) at each frequency.  Rows ell >= 0 are computed
    so, their sums over nu formed a chunk of nu at a time, for every ell
    before the next chunk, and the rest are mirrored as in
    ``_fill_table``: O(d^3) time, O(d^2) memory.
    """
    d = a.size
    n = 2 * d
    # Row nu of each is basis vector nu, column f its frequency f.
    a_hat = np.fft.ifft((u.conj() * a[:, None]).T, n, axis=1, norm="forward")
    b_hat = np.fft.fft((u * (a.conj() / c)[:, None]).T, n, axis=1)
    sums = np.empty((d, n), dtype=complex)
    product = np.empty((min(d, _RANK_ONE_CHUNK), n), dtype=complex)
    weights = [np.diagonal(mtilde, ell) for ell in range(d)]
    # Chunk by chunk of nu: its rows of b_hat stay in cache while each next
    # ell moves the rows of a_hat by one, and every sums[ell] still adds its
    # chunks in ascending order, so the bits are those of an ell-major loop.
    for lo in range(0, d, _RANK_ONE_CHUNK):
        for ell in range(d - lo):
            hi = min(d - ell, lo + _RANK_ONE_CHUNK)
            chunk = np.multiply(a_hat[ell + lo:ell + hi], b_hat[lo:hi], out=product[:hi - lo])
            w = weights[ell]
            if lo == 0:
                np.matmul(w[:hi], chunk, out=sums[ell])
            else:
                sums[ell] += w[lo:hi] @ chunk
    del a_hat, b_hat, product
    rows = np.fft.ifft(sums, axis=1)  # entry m at m mod n
    del sums
    coeffs = np.empty((2 * d - 1, 2 * d - 1), dtype=complex)
    coeffs[d - 1:, d - 1:] = rows[:, :d]
    coeffs[d - 1:, :d - 1] = rows[:, d + 1:]
    _mirror_hermitian(coeffs)
    return coeffs


def _diagonal_product(rho: np.ndarray, u: np.ndarray, m: int) -> np.ndarray:
    """X_m^T for diagonal m of rho, over the cells where rho[i, i+m] is nonzero.

    Entry [ell, m] of the table is sum_i rho[i, i+m] K_ell[i+m, i]
    = sum_nu Mtilde[nu, nu+ell] X_m[nu, nu+ell] with
    X_m = sum_i rho[i, i+m] U[i+m, :]^T conj(U[i, :]), so column m is
    accumulate_row(_RowSums(Mtilde), X_m^T): the row sums of every other
    path, with Mtilde in rho's place and X_m^T in K's.  X_m^T is one
    (d x E) @ (E x d) product over the E cells i where rho[i, i+m] is nonzero.
    """
    w = np.diagonal(rho, m)  # rho[i, i+m] from i = max(0, -m)
    cells = np.flatnonzero(w)
    i = cells + max(0, -m)
    return u[i].conj().T @ (w[cells, None] * u[i + m])


@lru_cache(maxsize=_MTILDE_MEMO)
def _cached_mtilde(two_j: int, dtype: str, diag: bytes) -> _RowSums:
    """Read-only ``_RowSums`` of the Mtilde of the parity diagonal with these bytes.

    Mtilde, ``transform_parity`` in J_y's basis, is ``rho_t.T``.  Keyed on
    the diagonal's content, so an operator built by hand never receives
    another's Mtilde; ``transform_parity`` reads only its dim and diag.
    """
    dim = SpinDimension(two_j)
    parity = ParityOperator(dim=dim, s=0.0, diag=np.frombuffer(diag, dtype))
    return _RowSums(transform_parity(parity, jy_eigenbasis(dim)))


def fourier_coefficients_method_c(rho: np.ndarray, parity: ParityOperator) -> FourierTable:
    """Fourier coefficients with K matrices built on the fly and discarded.

    O(d^4) time for a general rho, O(d^2) memory: one K matrix exists at a
    time.  rho is scanned once for Hermitian-ness and its nonzero diagonals,
    before the path is chosen.  A rho whose nonzero diagonals hold
    E <= d^2 / _FEW_DIAGONAL_GATE cells builds no K_ell: ``_fill_table``
    runs over those diagonals m with Mtilde's ``_RowSums`` and one
    ``_diagonal_product`` X_m^T each, in O(d^2) time per diagonal and per
    nonzero cell (O(d^2) for Dicke and GHZ states once Mtilde is prepared,
    which ``_cached_mtilde`` keeps for the next call), and its rows are the
    table's columns.  Any other exactly Hermitian rho of at least
    _RANK_ONE_MIN_D levels that is a a^H / c to rounding (a pure state)
    builds none either: ``_rank_one_table`` gets its rows from two FFTs in
    O(d^3) time.  Every other rho takes the full build: ``_fill_table`` over
    every ell with rho's ``_RowSums`` and K_ell.
    """
    dim = parity.dim
    rho = as_density_matrix(rho, dim)
    hermitian = np.array_equal(rho, rho.conj().T)
    diagonals = _nonzero_diagonals(rho)
    diag = np.asarray(parity.diag)
    mtilde_rows = _cached_mtilde(dim.two_j, diag.dtype.str, diag.tobytes())
    u = jy_eigenbasis(dim).vectors
    d = dim.d
    cells = int(np.sum(d - np.abs(diagonals)))
    if cells * _FEW_DIAGONAL_GATE <= d * d:
        # The columns' array, transposed: a view, not a (2d - 1)^2 copy.
        coeffs = _fill_table(mtilde_rows, hermitian, diagonals,
                             lambda m: _diagonal_product(rho, u, m)).T
    elif hermitian and d >= _RANK_ONE_MIN_D and (factor := _rank_one_factor(rho)) is not None:
        coeffs = _rank_one_table(*factor, u, mtilde_rows.rho_t.T)
    else:
        coeffs = _fill_table(_RowSums(rho), hermitian, range(1 - d, d),
                             lambda ell: _k_matrix(u, mtilde_rows.rho_t.T, ell))
    return FourierTable(dim=dim, s=parity.s, coeffs=coeffs)


def derivative_coefficients(table: FourierTable, variable: str) -> FourierTable:
    """Coefficients of the analytic angular derivative of the series.

    Differentiation is diagonal in frequency space: each F_{ell m} picks up
    i*ell (theta) or i*m (phi).
    """
    freqs = table.frequencies().astype(float)
    if variable == "theta":
        coeffs = (1j * freqs)[:, None] * table.coeffs
    elif variable == "phi":
        coeffs = table.coeffs * (1j * freqs)[None, :]
    else:
        raise ValueError(f"variable must be 'theta' or 'phi', got {variable!r}")
    return FourierTable(dim=table.dim, s=table.s, coeffs=coeffs)
