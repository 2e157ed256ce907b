"""Bit-sliced Walsh-Hadamard kernels for XOR convolutions on 2^n vectors.

The length-2^n coefficient vectors used throughout the package live on the
group (Z_2)^n. Convolving over a subset of bit positions (XOR on those bits,
coincidence on the rest) diagonalizes under a Walsh-Hadamard transform
applied to just those bits, which is what `wht_bits` computes: one butterfly
pass per selected bit, O(2^n) work each. A protocol round on at most
PRODUCT_MAX_BITS bits runs its transforms as matrix products with small
Sylvester-Hadamard matrices instead (`_hadamard_products`).
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


def _gather_index(order: list[int]) -> np.ndarray | None:
    """For a layout whose memory bit t holds bit order[t] of the natural
    index: the natural index of each memory position, read-only, or None
    when the layout is the natural one."""
    if order == list(range(len(order))):
        return None
    pos = np.arange(1 << len(order), dtype=np.intp)
    idx = np.zeros_like(pos)
    for t, b in enumerate(order):
        idx |= (pos >> t & 1) << b
    idx.setflags(write=False)
    return idx


@functools.lru_cache(maxsize=64)
def _cg_layout(n: int, mask: int) -> tuple[np.ndarray | None, np.ndarray | None, int]:
    """Index arrays of the constant-geometry kernel on 2^n entries, and its
    number of passes: (gather in, gather out, popcount(mask)).

    The kernel pairs memory bit 0 in every pass and rotates the memory bits
    right by one, so it starts from a layout with the bits of mask at the
    bottom in ascending order, the others above them, and after k passes
    ends rotated by k. Gathering with the first array puts an entry in the
    start layout; gathering with the second puts the result in natural
    order. Either is None where its layout is the natural one: a full mask
    gathers nothing.
    """
    bits = bit_positions(mask)
    start = bits + [b for b in range(n) if not mask >> b & 1]
    end = start[len(bits):] + start[: len(bits)]
    # natural bit b sits at memory bit end.index(b) after the last pass
    return _gather_index(start), _gather_index([end.index(b) for b in range(n)]), len(bits)


def _cg_kernel(src: np.ndarray, gather_in: np.ndarray | None, gather_out: np.ndarray | None,
               k: int) -> np.ndarray:
    """The transform of src over the k bits of its layout, as a new array.

    Each pass reads memory bit 0 as its pair bit, lo, hi = x[0::2], x[1::2],
    and writes lo + hi to the first half of the other buffer and lo - hi to
    the second: one stride-2 read and two contiguous writes. src is never
    written.
    """
    h = src.size >> 1
    x = src if gather_in is None else src[gather_in]
    y = np.empty(src.size)
    for _ in range(k):
        lo, hi = x[0::2], x[1::2]
        np.add(lo, hi, y[:h])  # out= given by position: less call overhead
        np.subtract(lo, hi, y[h:])
        x, y = y, (x if x is not src else np.empty(src.size))
    if x is src:
        return src.copy()
    return x if gather_out is None else x[gather_out]


def _butterflies(out: np.ndarray, mask: int) -> None:
    """The passes of wht_bits over the bits of mask across the whole array,
    in place, in ascending bit order: the high bits above the block size,
    whose rows hold at least 2^WHT_BLOCK_BITS entries."""
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

    The passes over the bits below WHT_BLOCK_BITS run in the constant-geometry
    kernel `_cg_kernel`, one contiguous block of 2^WHT_BLOCK_BITS entries at
    a time above that size, while the block is in cache; the passes over
    the high bits then run over the whole array. Every entry sees the same
    sums in the same ascending bit order as a plain pass-by-pass loop, so
    the output is the same to the bit.
    """
    mask = _as_mask(mask)
    if vec.shape != (1 << n,):
        raise ValueError(f"vector length {vec.shape} does not match n={n}")
    if mask >> n:
        raise ValueError(f"mask {mask:#b} selects bits outside 0..{n - 1} (n={n})")
    src = np.asarray(vec, dtype=np.float64)
    m = min(n, WHT_BLOCK_BITS)
    layout = _cg_layout(m, mask & ((1 << m) - 1))
    if n == m:
        out = _cg_kernel(src, *layout)
    else:
        out = np.empty(1 << n)
        for block_in, block_out in zip(src.reshape(-1, 1 << m), out.reshape(-1, 1 << m)):
            block_out[...] = _cg_kernel(block_in, *layout)
        _butterflies(out, mask >> m << m)
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
# A round on 2^n entries runs as products at n <= PRODUCT_MAX_BITS: the
# lowest group's product, 2^(n-5) rows by 32 by 32, is the largest one.
PRODUCT_MAX_BITS = BLAS_ONE_THREAD_MADDS.bit_length() - 1 - PRODUCT_GROUP_BITS


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
def _product_layout(n: int, mask: int) -> tuple[np.ndarray | None, np.ndarray | None, tuple[tuple[int, int], ...]]:
    """Index arrays and product groups of a round over the bits of mask on
    2^n entries: (gather, scatter, groups).

    Gathering with the first array puts the bits of mask at the bottom of
    memory in ascending order, the others above them; gathering with the
    second, its inverse, puts them back in natural order. Both are None
    where that layout is the natural one. groups is `_product_groups` of
    popcount(mask).
    """
    bits = bit_positions(mask)
    order = bits + [b for b in range(n) if not mask >> b & 1]
    return _gather_index(order), _gather_index([order.index(b) for b in range(n)]), _product_groups(len(bits))


def _product_groups(k: int) -> tuple[tuple[int, int], ...]:
    """(f, lo) per product over the lowest k memory bits: bits lo..lo+f-1
    go through one 2^f Sylvester matrix. The fewest groups of at most
    PRODUCT_GROUP_BITS bits, whose sizes differ by at most one."""
    count = -(-k // PRODUCT_GROUP_BITS)
    groups, lo = [], 0
    for i in range(count):
        f = k // count + (i < k % count)
        groups.append((f, lo))
        lo += f
    return tuple(groups)


def _hadamard_products(x: np.ndarray, groups: tuple[tuple[int, int], ...], inverse: bool = False) -> np.ndarray:
    """The transform of x over its memory bits named by groups (from
    `_product_layout`), as a new array in the same layout; inverse divides
    by 2^(total bits). The lowest group is x.reshape(-1, 2^f) @ H; a higher
    one multiplies each stacked (2^f, 2^lo) block from the left."""
    out = x
    for f, lo in groups:
        h = _sylvester(f, inverse)
        if lo == 0:
            out = out.reshape(-1, 1 << f) @ h
        else:
            out = np.matmul(h, out.reshape(-1, 1 << f, 1 << lo))
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
