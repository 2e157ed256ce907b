import numpy as np
import pytest

from gspurify import protocol, transforms
from gspurify.graphs import GraphKind, standard_graph
from gspurify.protocol import p1_step, p2_step
from gspurify.states import prepared_with_channel_noise
from gspurify.transforms import (
    BLAS_ONE_THREAD_MADDS,
    PRODUCT_BLOCK_BITS,
    PRODUCT_GROUP_BITS,
    WHT_BLOCK_BITS,
    _run_groups,
    _span_table,
    _sylvester,
    bit_positions,
    spread_submasks,
    wht_bits,
    xor_span,
)
from reference import plain_wht, xor_cross_naive


def brute_wht(vec, n, mask):
    """Character-sum definition, kept independent of the butterfly code."""
    out = np.zeros_like(vec)
    for s in range(1 << n):
        acc = 0.0
        for x in range(1 << n):
            if (s & ~mask) != (x & ~mask):
                continue
            sign = (-1) ** ((s & x & mask).bit_count())
            acc += sign * vec[x]
        out[s] = acc
    return out


def test_bit_positions():
    assert bit_positions(0b10110) == [1, 2, 4]
    assert bit_positions(0) == []


def test_bit_positions_refuses_negative_mask():
    with pytest.raises(ValueError, match="-1"):
        bit_positions(-1)


@pytest.mark.parametrize("mask", [0b10001, 1 << 3, -1])
def test_wht_refuses_mask_beyond_n(mask):
    # Refused before any pass runs, with the mask and n in the message.
    with pytest.raises(ValueError, match=f"{mask:#b}.*n=3"):
        wht_bits(np.ones(8), 3, mask)


@pytest.mark.parametrize("mask", [np.int64(5), np.uint8(5)], ids=["int64", "uint8"])
def test_numpy_integer_masks(mask):
    vec = np.arange(8.0)
    assert bit_positions(mask) == [0, 2]
    assert np.array_equal(wht_bits(vec, 3, mask), wht_bits(vec, 3, 5))
    assert np.array_equal(spread_submasks(mask), spread_submasks(5))
    assert np.array_equal(xor_span([mask, 3]), xor_span([5, 3]))


@pytest.mark.parametrize("mask", [True, 5.0], ids=["bool", "float"])
def test_non_integer_masks_refused(mask):
    # The mask is read before the vector: a wrong-length one still gives
    # the mask's TypeError.
    with pytest.raises(TypeError, match="mask"):
        wht_bits(np.ones(5), 3, mask)
    for call in (bit_positions, spread_submasks, lambda m: xor_span([3, m])):
        with pytest.raises(TypeError, match="mask"):
            call(mask)


@pytest.mark.parametrize("n,mask", [(3, 0b111), (3, 0b101), (4, 0b0110), (5, 0b10011)])
def test_wht_matches_character_sum(rng, n, mask):
    vec = rng.standard_normal(1 << n)
    assert np.allclose(wht_bits(vec, n, mask), brute_wht(vec, n, mask), atol=1e-12)


@pytest.mark.parametrize("n,mask", [(4, 0b1111), (6, 0b101010), (6, 0)])
def test_wht_roundtrip(rng, n, mask):
    vec = rng.standard_normal(1 << n)
    back = wht_bits(wht_bits(vec, n, mask), n, mask, inverse=True)
    assert np.abs(back - vec).max() < 1e-12


@pytest.mark.parametrize("n", [WHT_BLOCK_BITS + 1, WHT_BLOCK_BITS + 2, WHT_BLOCK_BITS + 3])
def test_blocked_wht_matches_plain_loop(rng, n):
    # Above the block size the low-bit passes run block by block before the
    # high ones; every entry must still see the plain loop's sums in its order.
    vec = rng.standard_normal(1 << n)
    low = (1 << WHT_BLOCK_BITS) - 1
    masks = [(1 << n) - 1, low, ((1 << n) - 1) ^ low, 0b110, 1 << (n - 1)]
    masks += [int(m) for m in rng.integers(0, 1 << n, size=3)]
    for mask in masks:
        for inverse in (False, True):
            want = plain_wht(vec, n, mask, inverse)
            assert np.array_equal(wht_bits(vec, n, mask, inverse), want), (n, bin(mask), inverse)


@pytest.mark.parametrize("n", range(1, WHT_BLOCK_BITS + 1))
def test_cg_kernel_matches_plain_loop(rng, n):
    # At 2^15 entries and below every pass runs in the constant-geometry
    # kernel; its sums must be the plain loop's, in its order, for any
    # input wht_bits accepts, and the input must be left as it was.
    full = (1 << n) - 1
    masks = [0, full, 1, 1 << (n - 1), full >> (n // 2), full // 3]  # full // 3: alternate bits
    masks += [int(m) for m in rng.integers(0, 1 << n, size=3)]
    wide = rng.standard_normal(2 << n)
    inputs = {"float64": wide[::2].copy(), "strided": wide[1::2],
              "int64": rng.integers(-(1 << 62), 1 << 62, size=1 << n)}
    for name, vec in inputs.items():
        keep = vec.copy()
        for mask in masks:
            for inverse in (False, True):
                want = plain_wht(vec, n, mask, inverse)
                assert np.array_equal(wht_bits(vec, n, mask, inverse), want), (name, bin(mask), inverse)
        assert np.array_equal(vec, keep), name


def test_wht_does_not_mutate_input(rng):
    vec = rng.standard_normal(8)
    keep = vec.copy()
    wht_bits(vec, 3, 0b111)
    assert np.array_equal(vec, keep)


def brute_xor_convolve(a, b, n, mask):
    out = np.zeros_like(a)
    for x in range(1 << n):
        for y in range(1 << n):
            if (x & ~mask) != (y & ~mask):
                continue
            # x^y is supported on the mask bits; the coincidence part rides along
            out[(x ^ y) | (x & ~mask)] += a[x] * b[y]
    return out


@pytest.mark.parametrize("n,mask", [(3, 0b110), (4, 0b1010), (4, 0b1111)])
def test_xor_convolve_matches_brute(rng, n, mask):
    # The direct-sum cross convolution is the reference the round tests
    # trust; it is checked here against the definition with a != b.
    a = rng.random(1 << n)
    b = rng.random(1 << n)
    assert np.allclose(xor_cross_naive(a, b, n, mask), brute_xor_convolve(a, b, n, mask), atol=1e-12)


@pytest.mark.parametrize("n,mask", [(3, 0b110), (4, 0b1010), (4, 0b1111), (5, 0)])
def test_xor_square_matches_brute(rng, n, mask):
    # An XOR self-convolution is the square of its spectrum over the mask bits.
    a = rng.random(1 << n)
    spectrum = wht_bits(a, n, mask)
    square = wht_bits(spectrum * spectrum, n, mask, inverse=True)
    assert np.allclose(square, brute_xor_convolve(a, a, n, mask), atol=1e-12)


def test_spread_submasks_rank_xor():
    subs = spread_submasks(0b10110)
    assert len(subs) == 8
    assert set(subs) == {m for m in range(32) if m & ~0b10110 == 0}
    for i in range(8):
        for j in range(8):
            assert subs[i] ^ subs[j] == subs[i ^ j]


@pytest.mark.parametrize("cols", [[0b101, 0b011, 0b110, 0b1000], [1 << 40, 3, (1 << 62) | 5, 1 << 31]],
                         ids=["int32", "int64"])
def test_xor_span_rank_xor(cols):
    # Entry k is the XOR of the columns at k's set bits, so ranks XOR.
    span = xor_span(cols)
    assert span.dtype == (np.int32 if max(cols) < 1 << 31 else np.int64)
    assert len(span) == 1 << len(cols)
    for k in range(1 << len(cols)):
        want = 0
        for b in bit_positions(k):
            want ^= cols[b]
        assert int(span[k]) == want
    for i in range(1 << len(cols)):
        for j in range(1 << len(cols)):
            assert span[i] ^ span[j] == span[i ^ j]


def test_xor_span_of_no_columns_and_negative_columns():
    assert np.array_equal(xor_span([]), [0])
    with pytest.raises(ValueError, match="negative"):
        xor_span([1, -2])


def test_run_groups_and_sylvester_caches():
    # A round transforms one run of adjacent bits. Its groups are bounded
    # and split at a block's top, so no group straddles it; a mask that is
    # not one run is refused. The Sylvester matrices come from a bounded
    # cache of read-only arrays.
    assert 0 < _run_groups.cache_info().maxsize <= 64
    assert 0 < _sylvester.cache_info().maxsize <= 2 * PRODUCT_GROUP_BITS
    assert _run_groups(0) == ()
    assert _run_groups(0b11111) == ((5, 0),)
    assert _run_groups(0b111111000) == ((3, 3), (3, 6))
    top = PRODUCT_BLOCK_BITS
    assert _run_groups((1 << 20) - (1 << 10)) == ((3, 10), (4, top), (3, top + 4))
    assert _run_groups(1 << top) == ((1, top),)
    for mask in (0b101, 0b1101, (1 << 20) - 2 - (1 << 15)):
        with pytest.raises(ValueError, match="one run"):
            _run_groups(mask)
    for f in range(1, PRODUCT_GROUP_BITS + 1):
        h, h_inv = _sylvester(f, False), _sylvester(f, True)
        assert not h.flags.writeable and not h_inv.flags.writeable
        assert np.array_equal(h @ h_inv, np.eye(1 << f))
        assert all(h[i, j] == (-1) ** (i & j).bit_count() for i in range(1 << f) for j in range(1 << f))


def test_products_stay_on_one_blas_thread(monkeypatch, rng):
    # OpenBLAS runs a gemm of at most BLAS_ONE_THREAD_MADDS multiply-adds on
    # the calling thread. Every product of a round takes a Sylvester matrix,
    # so one that records each matmul it enters sees every gemm (a stacked
    # product is one gemm per stacked matrix): P1 and P2 of paths, rings, a
    # 4 x 5 grid and stars at 14, 16 and 20 qubits, and lone bits at 0 and
    # 12, below a block's top, at 13, its top, and at 15 and 19, above it.
    for k in range(3 * PRODUCT_GROUP_BITS + 1):
        for lo in (0, 1, PRODUCT_BLOCK_BITS - 3):
            groups = _run_groups((1 << lo + k) - (1 << lo))
            assert [b for _, b in groups] == [lo + sum(f for f, _ in groups[:i]) for i in range(len(groups))]
            assert sum(f for f, _ in groups) == k and all(1 <= f <= PRODUCT_GROUP_BITS for f, _ in groups)
    madds = []

    class Recording(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            assert ufunc is np.matmul and method == "__call__" and not kwargs
            a, b = (np.asarray(x) for x in inputs)
            madds.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
            return np.matmul(a, b)

    real = transforms._sylvester
    monkeypatch.setattr(transforms, "_sylvester", lambda f, inverse: real(f, inverse).view(Recording))
    named = [(f"{kind.value}-{n}", standard_graph(kind, n)) for n in (14, 16, 20)
             for kind in (GraphKind.LINEAR_CLUSTER, GraphKind.CLOSED_CLUSTER, GraphKind.GHZ)]
    for name, g in named + [("grid-4x5", standard_graph(GraphKind.GRID_CLUSTER, 4, 5))]:
        s = prepared_with_channel_noise(g, 0.9)
        for step in (p1_step, p2_step):
            madds.clear()
            assert step(s, 0.95, 0.01).p_succ > 0.0
            assert madds and max(madds) <= BLAS_ONE_THREAD_MADDS, (name, step.__name__)
    n = 20
    spectrum = rng.random(1 << n)
    for b in (0, 12, 13, 15, 19):
        madds.clear()
        got = protocol._meet_products(spectrum, 1 << b, spectrum)
        assert type(got) is np.ndarray
        assert madds and max(madds) <= BLAS_ONE_THREAD_MADDS, b
        x = wht_bits(spectrum, n, 1 << b, inverse=True)
        x *= wht_bits(spectrum * spectrum, n, 1 << b, inverse=True)
        assert np.abs(got - wht_bits(x, n, 1 << b)).max() <= 1e-12, b


def test_xor_span_table_is_cached_and_read_only():
    # The low columns' span comes from a bounded cache of read-only tables;
    # what xor_span returns is a fresh array the caller may write.
    cols = [0b101, 0b011, 0b110]
    span = xor_span(cols)
    table = _span_table(tuple(cols), np.int32)
    assert 0 < _span_table.cache_info().maxsize <= 64
    assert not table.flags.writeable and span.flags.writeable
    assert np.array_equal(span, table) and span is not table
