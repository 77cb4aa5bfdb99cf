"""Sylvester-Hadamard codebooks and the fast Walsh-Hadamard transform.

A codebook of order 2^k holds the 2^k x 2^k +/-1 matrix whose rows are the
class codewords. Rows are mutually orthogonal and any two distinct rows
disagree in exactly 2^(k-1) positions, which is what makes them usable as
error-correcting class codes.

The fast Walsh-Hadamard transform uses the Kronecker structure of these
matrices (Fino & Algorri 1976, "Unified matrix treatment of the fast
Walsh-Hadamard transform"): H_{2^(a+b)} = H_{2^a} (x) H_{2^b}. A transform
of length 2^k is split into Kronecker factors of at most 2^6 each, and every
factor is one dense float64 matrix product with a small cached Sylvester
block. Lengths up to 64 take a single product; longer ones cost
O(n * sum of factor sizes) per vector instead of the dense O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, FormatError, ShapeError

# 2^16 x 2^16 is already 4 GiB of int8; anything above is rejected outright.
MAX_ORDER_EXPONENT = 16

_H2 = np.array([[1, 1], [1, -1]], dtype=np.int8)


@dataclass(frozen=True)
class Codebook:
    """An order-2^k Sylvester-Hadamard matrix, whose rows are the class
    codewords."""

    k: int
    n: int
    matrix: np.ndarray  # (n, n) int8, entries in {-1, +1}, read-only

    def __post_init__(self) -> None:
        if self.n != 2**self.k:
            raise ValueError(f"n={self.n} is not 2^k for k={self.k}")
        if self.matrix.shape != (self.n, self.n):
            raise ShapeError(f"matrix shape {self.matrix.shape} != ({self.n}, {self.n})")
        self.matrix.setflags(write=False)


def sylvester(k: int) -> Codebook:
    """Build the order-2^k Sylvester-Hadamard codebook.

    The construction doubles the matrix k times starting from [[1]]:
    H_{2n} = [[H_n, H_n], [H_n, -H_n]].
    """
    if k < 0 or k > MAX_ORDER_EXPONENT:
        raise CapacityError(
            f"order exponent k={k} outside supported range [0, {MAX_ORDER_EXPONENT}]"
        )
    matrix = np.array([[1]], dtype=np.int8)
    for _ in range(k):
        matrix = np.kron(_H2, matrix)
    return Codebook(k=k, n=2**k, matrix=matrix)


# The largest Kronecker factor, as a power of two. Over 16,384 vectors (one
# OpenBLAS thread, 2-vCPU VM) one 64x64 block took 3.6-6.0 ms against
# 5.7-9.5 ms for 8x8 then 8x8, so every length up to 64 (both heads the
# benchmark trains) stays a single product. At 128 one block was already
# slower than 16x16 then 8x8 (20 against 16 ms): its work grows as n^2 per
# vector, the split's as n * sum of factors.
_MAX_BLOCK_EXPONENT = 6


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


_BLOCKS = tuple(
    _read_only(sylvester(e).matrix.astype(np.float64))
    for e in range(_MAX_BLOCK_EXPONENT + 1)
)


def _factor_exponents(k: int) -> list[int]:
    """Split k into the fewest exponents <= _MAX_BLOCK_EXPONENT, as even as
    possible (13 -> [5, 4, 4]), so the factor sizes sum to as little as can be."""
    count = max(1, -(-k // _MAX_BLOCK_EXPONENT))
    q, r = divmod(k, count)
    return [q + 1] * r + [q] * (count - r)


def fwht(values: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform H @ v over the last axis, natural ordering.

    The length n = 2^k is split into Kronecker factors H_{f_1} (x) ... (x)
    H_{f_m}, each f_i <= 2^6 (Fino & Algorri 1976). The last factor is the
    matrix product ``v.reshape(-1, f_m) @ H_{f_m}`` (H is symmetric); each
    earlier one multiplies H_{f_i} into ``v.reshape(-1, f_i, stride)`` from
    the left, where stride is the product of the factors after it. For
    n <= 64 that is one product; above, O(n * sum f_i) work per vector.
    The output ordering matches the dense product with the Sylvester matrix,
    and it is always a new float64 array, also for n = 1.
    """
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[-1]
    if n < 1 or n & (n - 1) != 0:
        raise ShapeError(f"last axis length {n} is not a power of two")
    *outer, inner = _factor_exponents(n.bit_length() - 1)
    out = values
    stride = n
    for e in outer:
        stride >>= e
        out = np.matmul(_BLOCKS[e], out.reshape(-1, 1 << e, stride))
    out = out.reshape(-1, 1 << inner) @ _BLOCKS[inner]
    return out.reshape(values.shape)


def fwht_apply(cb: Codebook, v: np.ndarray) -> np.ndarray:
    """Apply cb's matrix to v (last axis) via the fast transform.

    Sylvester matrices are symmetric, so this is simultaneously H @ v and
    H^T @ v.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != cb.n:
        raise ShapeError(f"vector length {v.shape[-1]} != codebook order {cb.n}")
    return fwht(v)


def min_pairwise_distance(cb: Codebook) -> int:
    """Minimum Hamming distance over all distinct row pairs.

    For +/-1 rows, distance(i, j) = (n - <row_i, row_j>) / 2. The Gram
    matrix is computed in float64, which is exact for these integer sums.
    """
    if cb.k < 1:
        raise ValueError("pairwise distance needs at least two rows (k >= 1)")
    m = cb.matrix.astype(np.float64)
    gram = m @ m.T
    distances = (cb.n - gram) / 2.0
    off_diagonal = distances[~np.eye(cb.n, dtype=bool)]
    return int(off_diagonal.min())


def verify(cb: Codebook) -> None:
    """Check every codebook invariant, raising FormatError on violation.

    The CLI runs it after construction: entries are +/-1, the matrix is
    symmetric with all-ones first row and column, rows are orthogonal, and
    (for k >= 1) distinct rows are 2^(k-1) apart.
    """
    m = cb.matrix
    if not np.all(np.abs(m) == 1):
        raise FormatError("codebook entries must all be -1 or +1")
    if not np.array_equal(m, m.T):
        raise FormatError("codebook matrix must be symmetric")
    if not np.all(m[0] == 1) or not np.all(m[:, 0] == 1):
        raise FormatError("row 0 and column 0 must be all +1")
    f = m.astype(np.float64)
    if not np.array_equal(f @ f.T, cb.n * np.eye(cb.n)):
        raise FormatError("codebook rows are not orthogonal")
    if cb.k >= 1 and min_pairwise_distance(cb) != 2 ** (cb.k - 1):
        raise FormatError("pairwise row distance is not 2^(k-1)")


def write_codebook_csv(cb: Codebook, path) -> None:
    """Export the matrix as plain-text CSV of +/-1 integers, one row per line."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(codebook_csv(cb))


def codebook_csv(cb: Codebook) -> str:
    """The CSV text for cb's matrix."""
    return "\n".join(",".join(str(int(e)) for e in row) for row in cb.matrix) + "\n"
