"""Bit-sliced Walsh-Hadamard kernels for XOR convolutions on 2^n vectors.

The length-2^n coefficient vectors used throughout the package live on the
group (Z_2)^n. Convolving over a subset of bit positions (XOR on those bits,
coincidence on the rest) diagonalizes under a Walsh-Hadamard transform
applied to just those bits: `wht_bits` as one butterfly pass per bit, and
a protocol round's, over one run of adjacent bits, as products with small
Sylvester-Hadamard matrices in the vector's own layout.
"""

from __future__ import annotations

import functools
import operator

import numpy as np


def _as_mask(mask) -> int:
    """mask as a plain int: numpy integers are accepted, a bool or a float
    is refused with TypeError."""
    if isinstance(mask, bool):
        raise TypeError(f"mask {mask!r} is a bool, not an integer bit mask")
    try:
        return operator.index(mask)
    except TypeError:
        raise TypeError(f"mask {mask!r} is not an integer bit mask") from None


def bit_positions(mask: int) -> list[int]:
    """Set-bit positions of mask, ascending."""
    mask = _as_mask(mask)
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


WHT_BLOCK_BITS = 15  # 2^15 doubles (256 KiB) stay in L2 across the low-bit passes


def _cg_kernel(src: np.ndarray) -> np.ndarray:
    """The transform of src over all its bits, as a new array. Each pass
    reads memory bit 0 as its pair bit, lo, hi = x[0::2], x[1::2], and
    writes lo + hi and lo - hi to the two halves of the other buffer, which
    rotates the memory bits right by one: after one pass per bit the layout
    is the natural one again. src is never written."""
    h, x, y = src.size >> 1, src, np.empty(src.size)
    for _ in range(h.bit_length()):
        lo, hi = x[0::2], x[1::2]
        np.add(lo, hi, y[:h])  # out= given by position: less call overhead
        np.subtract(lo, hi, y[h:])
        x, y = y, (x if x is not src else np.empty(src.size))
    return src.copy() if x is src else x


def _butterflies(out: np.ndarray, mask: int) -> None:
    """The plain pass-by-pass transform over the bits of mask, in place, in
    ascending bit order."""
    for b in bit_positions(mask):
        pairs = out.reshape(-1, 2, 1 << b)  # [higher bits, bit b, lower bits]
        lo, hi = pairs[:, 0], pairs[:, 1]
        diff = np.subtract(lo, hi)
        np.add(lo, hi, out=lo)
        hi[...] = diff
        del diff  # a high pass's half-vector goes before the next one's comes


def wht_bits(vec: np.ndarray, n: int, mask: int, inverse: bool = False) -> np.ndarray:
    """Walsh-Hadamard transform over the bit positions selected by mask.

    Returns a new array; the input is not modified. The inverse divides by
    2^popcount(mask) so that wht_bits(wht_bits(v, n, m), n, m, inverse=True)
    round-trips exactly.

    Over all n bits (every spectrum read-out), the passes below bit
    WHT_BLOCK_BITS run in `_cg_kernel`, one block of 2^WHT_BLOCK_BITS
    entries at a time while it is in cache, and the higher ones over the
    whole array; any other mask runs the plain loop, `_butterflies`. Each
    entry sees that loop's sums in its order, so the output is the same to
    the bit.
    """
    mask = _as_mask(mask)
    if vec.shape != (1 << n,):
        raise ValueError(f"vector length {vec.shape} does not match n={n}")
    if mask >> n:
        raise ValueError(f"mask {mask:#b} selects bits outside 0..{n - 1} (n={n})")
    if mask != (1 << n) - 1:
        out = np.array(vec, dtype=np.float64)
        _butterflies(out, mask)
    elif n <= WHT_BLOCK_BITS:
        out = _cg_kernel(np.asarray(vec, dtype=np.float64))
    else:
        out = np.empty(1 << n)
        blocks = np.asarray(vec, dtype=np.float64).reshape(-1, 1 << WHT_BLOCK_BITS)
        for block_in, block_out in zip(blocks, out.reshape(blocks.shape)):
            block_out[...] = _cg_kernel(block_in)
        _butterflies(out, mask >> WHT_BLOCK_BITS << WHT_BLOCK_BITS)
    if inverse:
        out /= 1 << mask.bit_count()
    return out


# OpenBLAS runs a gemm of at most 2^18 multiply-adds (65536 times its default
# GEMM_MULTITHREAD_THRESHOLD of 4) on the calling thread. Above that it may
# hand work to a second thread: on a shared 2-vCPU host a 2^20 product,
# 1024 x 32 by 32 x 32, took 24 us at the median and 8 ms at the 90th
# percentile over 400 calls.
BLAS_ONE_THREAD_MADDS = 1 << 18
PRODUCT_GROUP_BITS = 5  # bits one Sylvester matrix transforms: 32 x 32
# The lowest group's product over a block of 2^PRODUCT_BLOCK_BITS entries,
# 2^(13-5) rows by 32 by 32, is the largest one that limit allows.
PRODUCT_BLOCK_BITS = BLAS_ONE_THREAD_MADDS.bit_length() - 1 - PRODUCT_GROUP_BITS


@functools.lru_cache(maxsize=2 * PRODUCT_GROUP_BITS)
def _sylvester(f: int, inverse: bool) -> np.ndarray:
    """The 2^f x 2^f Walsh-Hadamard matrix, H[i, j] = (-1)^popcount(i & j),
    read-only; divided by 2^f for the inverse, which scales every sum by an
    exact power of two."""
    h = np.ones((1, 1))
    for _ in range(f):
        h = np.block([[h, h], [h, -h]])
    if inverse:
        h /= 1 << f
    h.setflags(write=False)
    return h


@functools.lru_cache(maxsize=64)
def _run_groups(mask: int) -> tuple[tuple[int, int], ...]:
    """(f, lo) per product of a transform over mask, one run of adjacent
    bits: bits lo..lo+f-1 go through one 2^f Sylvester matrix. The run's
    bits below PRODUCT_BLOCK_BITS and those above each split into the fewest
    groups of at most PRODUCT_GROUP_BITS bits, with sizes within one."""
    if not mask:
        return ()
    lo, hi = (mask & -mask).bit_length() - 1, mask.bit_length()
    if mask != (1 << hi) - (1 << lo):
        raise ValueError(f"mask {mask:#b} is not one run of adjacent bits")
    cut = min(max(lo, PRODUCT_BLOCK_BITS), hi)
    groups = []
    for start, k in ((lo, cut - lo), (cut, hi - cut)):
        count = -(-k // PRODUCT_GROUP_BITS)
        for i in range(count):
            f = k // count + (i < k % count)
            groups.append((f, start))
            start += f
    return tuple(groups)


def _hadamard_products(x: np.ndarray, groups: tuple[tuple[int, int], ...], inverse: bool = False) -> np.ndarray:
    """The transform of x over the bits its groups name (`_run_groups`), as
    a new array; x is never written, and inverse divides by 2^(total bits).
    Up to 2^PRODUCT_BLOCK_BITS entries the lowest group is
    x.reshape(-1, 2^f) @ H, and a higher one multiplies each stacked
    (2^f, 2^lo) block from the left. Above, each block goes through the
    groups below its top, and the others run in place on the result, 2^f
    rows of 2^(13-f) columns at a time, so no product exceeds 2^(13+f) <=
    BLAS_ONE_THREAD_MADDS."""
    if x.size > 1 << PRODUCT_BLOCK_BITS:
        low = tuple(g for g in groups if g[1] < PRODUCT_BLOCK_BITS)
        if not low:
            out = x.copy()
        else:
            out = np.empty(x.size)
            for block, dst in zip(x.reshape(-1, 1 << PRODUCT_BLOCK_BITS), out.reshape(-1, 1 << PRODUCT_BLOCK_BITS)):
                dst[...] = _hadamard_products(block, low, inverse)
        for f, lo in groups[len(low):]:
            h, width = _sylvester(f, inverse), (1 << PRODUCT_BLOCK_BITS) >> f
            for block in out.reshape(-1, 1 << f, 1 << lo):
                for c in range(0, 1 << lo, width):
                    block[:, c:c + width] = np.matmul(h, block[:, c:c + width])
        return out
    out = x
    for f, lo in groups:
        h = _sylvester(f, inverse)
        out = out.reshape(-1, 1 << f) @ h if lo == 0 else np.matmul(h, out.reshape(-1, 1 << f, 1 << lo))
    return x.copy() if out is x else out.reshape(-1)


SPAN_TABLE_COLS = 10  # the span of up to this many low columns is cached: 4-8 KiB


@functools.lru_cache(maxsize=64)  # a few column sets per graph in use
def _span_table(cols: tuple[int, ...], dtype: type) -> np.ndarray:
    """xor_span of cols, read-only."""
    out = np.zeros(1 << len(cols), dtype=dtype)
    _span_doubling(out, cols, 0)
    out.setflags(write=False)
    return out


def _span_doubling(out: np.ndarray, cols, start: int) -> None:
    """Fill out from 2^start upward, the entries below 2^start being the
    span of the columns before cols[start]: those from 2^b to 2^(b+1) are
    the ones below 2^b XOR cols[b]."""
    for b in range(start, len(cols)):
        np.bitwise_xor(out[: 1 << b], cols[b], out=out[1 << b : 2 << b])


def xor_span(cols) -> np.ndarray:
    """out[k] is the XOR of cols[b] over the set bits b of k, for k in
    0..2^len(cols)-1, so out[i ^ j] == out[i] ^ out[j]: int32 while every
    column is below 2^31, else int64. The span of the lowest SPAN_TABLE_COLS
    columns is a cached table; binary-counter doubling extends it over the
    rest, one ufunc call per column."""
    cols = [_as_mask(c) for c in cols]
    if any(c < 0 for c in cols):
        raise ValueError(f"columns {cols} hold a negative mask")
    dtype = np.int32 if all(c < 1 << 31 for c in cols) else np.int64
    low = _span_table(tuple(cols[:SPAN_TABLE_COLS]), dtype)
    if len(cols) <= SPAN_TABLE_COLS:
        return low.copy()
    out = np.empty(1 << len(cols), dtype=dtype)
    out[: low.size] = low
    _span_doubling(out, cols, SPAN_TABLE_COLS)
    return out


def spread_submasks(mask: int) -> np.ndarray:
    """All 2^popcount(mask) submasks of mask, ordered so that the XOR of the
    i-th and j-th entries is the (i^j)-th entry (binary-counter order)."""
    return xor_span([1 << b for b in bit_positions(mask)])
