"""Bit-sliced Walsh-Hadamard kernels for XOR convolutions on 2^n vectors.

The length-2^n coefficient vectors used throughout the package live on the
group (Z_2)^n. Convolving over a subset of bit positions (XOR on those bits,
coincidence on the rest) diagonalizes under a Walsh-Hadamard transform
applied to just those bits, which is what `wht_bits` computes: one butterfly
pass per selected bit, O(2^n) work each.
"""

from __future__ import annotations

import numpy as np


def bit_positions(mask: int) -> list[int]:
    """Set-bit positions of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def wht_bits(vec: np.ndarray, n: int, mask: int, inverse: bool = False) -> np.ndarray:
    """Walsh-Hadamard transform over the bit positions selected by mask.

    Returns a new array; the input is not modified. The inverse divides by
    2^popcount(mask) so that wht_bits(wht_bits(v, n, m), n, m, inverse=True)
    round-trips exactly.
    """
    if vec.shape != (1 << n,):
        raise ValueError(f"vector length {vec.shape} does not match n={n}")
    out = np.array(vec, dtype=np.float64, copy=True)
    for b in bit_positions(mask):
        pairs = out.reshape(-1, 2, 1 << b)  # [higher bits, bit b, lower bits]
        lo, hi = pairs[:, 0], pairs[:, 1]
        diff = lo - hi
        lo += hi
        hi[...] = diff
    if inverse:
        out /= 1 << mask.bit_count()
    return out


PLANE_BLOCK_BITS = 10
# Bit b of i for every i below 2^PLANE_BLOCK_BITS, one row per low bit b.
_LOW_PLANES = (np.arange(1 << PLANE_BLOCK_BITS, dtype=np.uint16)
               >> np.arange(PLANE_BLOCK_BITS, dtype=np.uint16)[:, None] & 1).astype(np.uint8)
_LOW_PLANES.setflags(write=False)


def bit_plane(n: int, b: int) -> np.ndarray:
    """Bit b of i for i in 0..2^n-1, as a read-only uint8 array of 0/1.

    A low bit's pattern repeats within 2^PLANE_BLOCK_BITS entries, so its
    plane is a row of a precomputed table: a view when n is small, else
    broadcast over the rest in long contiguous rows. A high bit's plane is
    a (2^(n-b-1), 2, 2^b) block whose runs of zeros and ones are already long.
    """
    if b >= PLANE_BLOCK_BITS:
        plane = np.empty(1 << n, dtype=np.uint8)
        halves = plane.reshape(-1, 2, 1 << b)
        halves[:, 0] = 0
        halves[:, 1] = 1
    elif n <= PLANE_BLOCK_BITS:
        return _LOW_PLANES[b, : 1 << n]
    else:
        rows = (1 << (n - PLANE_BLOCK_BITS), 1 << PLANE_BLOCK_BITS)
        plane = np.broadcast_to(_LOW_PLANES[b], rows).reshape(-1)
    plane.setflags(write=False)
    return plane


def parity_lookup(n: int, mask: int) -> np.ndarray:
    """parity(i & mask) for i in 0..2^n-1, as a uint8 array of 0/1: the XOR
    of the bit planes of mask."""
    out = np.zeros(1 << n, dtype=np.uint8)
    for b in bit_positions(mask):
        out ^= bit_plane(n, b)
    return out


def xor_convolve(a: np.ndarray, b: np.ndarray, n: int, mask: int) -> np.ndarray:
    """XOR convolution of a and b over the bits in mask (coincidence elsewhere).

    out[g] = sum over (x, y) with x^y == g, x & ~mask == y & ~mask == g & ~mask
    of a[x] * b[y] ... restricted so the unselected bits of x and y both equal
    those of g.
    """
    fa = wht_bits(a, n, mask)
    fb = wht_bits(b, n, mask)
    return wht_bits(fa * fb, n, mask, inverse=True)


def spread_submasks(mask: int) -> np.ndarray:
    """All 2^popcount(mask) submasks of mask, ordered so that the XOR of the
    i-th and j-th entries is the (i^j)-th entry (binary-counter order)."""
    bits = bit_positions(mask)
    out = np.zeros(1 << len(bits), dtype=np.int64)
    for i, b in enumerate(bits):
        half = 1 << i
        out[half : 2 * half] = out[:half] + (1 << b)
    return out
