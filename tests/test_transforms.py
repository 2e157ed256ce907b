import numpy as np
import pytest

from gspurify.transforms import (
    bit_positions,
    parity_lookup,
    spread_submasks,
    wht_bits,
    xor_convolve,
)


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


@pytest.mark.parametrize("n,mask", [(3, 0b111), (3, 0b101), (4, 0b0110), (5, 0b10011)])
def test_wht_matches_character_sum(rng, n, mask):
    vec = rng.standard_normal(1 << n)
    assert np.allclose(wht_bits(vec, n, mask), brute_wht(vec, n, mask), atol=1e-12)


@pytest.mark.parametrize("n,mask", [(4, 0b1111), (6, 0b101010), (6, 0)])
def test_wht_roundtrip(rng, n, mask):
    vec = rng.standard_normal(1 << n)
    back = wht_bits(wht_bits(vec, n, mask), n, mask, inverse=True)
    assert np.abs(back - vec).max() < 1e-12


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
    a = rng.random(1 << n)
    b = rng.random(1 << n)
    assert np.allclose(xor_convolve(a, b, n, mask), brute_xor_convolve(a, b, n, mask), atol=1e-12)


def test_spread_submasks_rank_xor():
    subs = spread_submasks(0b10110)
    assert len(subs) == 8
    assert set(subs) == {m for m in range(32) if m & ~0b10110 == 0}
    for i in range(8):
        for j in range(8):
            assert subs[i] ^ subs[j] == subs[i ^ j]


def test_parity_and_sign_lookup():
    n, mask = 5, 0b10101
    par = parity_lookup(n, mask)
    for i in range(1 << n):
        want = (i & mask).bit_count() & 1
        assert par[i] == want
