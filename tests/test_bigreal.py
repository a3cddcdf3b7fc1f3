import decimal
import math
import operator
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (atan_fraction_plain, divide_all_quotients, divide_for_floor_two_divisions,
                     machin_pi)

from pibilliards import BigReal, bigreal, classical


def _fraction(num: int, den: int, bits: int) -> BigReal:
    """The tightest interval at ``bits`` around num/den >= 0."""
    scaled = num << bits
    return BigReal(scaled // den, -(-scaled // den), bits)


def _contains(outer: BigReal, inner: BigReal) -> bool:
    """True if ``inner`` (any precision) lies inside ``outer``."""
    a, b = outer.bits, inner.bits
    return (outer.lo << b) <= (inner.lo << a) and (inner.hi << a) <= (outer.hi << b)


def test_constructor_rejects_negative_or_reversed_endpoints():
    with pytest.raises(ValueError):
        BigReal(-1, 1, 64)
    with pytest.raises(ValueError):
        BigReal(2, 1, 64)


def test_pi_brackets_reference():
    with mpmath.workdps(120):
        ref = mpmath.mpf(mpmath.pi)
        for bits in (64, 128, 256, 400):
            iv = BigReal.pi(bits)
            scale = mpmath.mpf(2) ** bits
            assert iv.lo <= ref * scale <= iv.hi
            assert iv.hi - iv.lo < 2 ** 4


def test_atan_brackets_reference():
    with mpmath.workdps(120):
        for num, den in [(1, 5), (1, 239), (1, 10), (3, 7), (1, 100000)]:
            ref = mpmath.atan(mpmath.mpf(num) / den)
            iv = BigReal.atan_fraction(num, den, 192)
            scale = mpmath.mpf(2) ** 192
            assert iv.lo <= ref * scale <= iv.hi
            assert iv.hi - iv.lo < 2 ** 4


def test_interval_containment_under_precision_doubling():
    # results at 2x precision must lie inside the lower-precision intervals
    rng = random.Random(99)
    for _ in range(50):
        a_num, a_den = rng.randint(0, 10 ** 6), rng.randint(1, 10 ** 6)
        b_num, b_den = rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)
        results = []
        for bits in (96, 192):
            a = _fraction(a_num, a_den, bits)
            b = _fraction(b_num, b_den, bits)
            results.append((a + b, (a + b) - b, a.divide(b)))
        for op, coarse, fine in zip(("add", "sub", "div"), *results):
            assert _contains(coarse, fine), op


def test_pi_containment_under_doubling():
    assert _contains(BigReal.pi(80), BigReal.pi(160))
    assert _contains(BigReal.atan_fraction(1, 10, 80), BigReal.atan_fraction(1, 10, 160))


def test_floor_certified():
    assert _fraction(7, 2, 64).floor_certified() == 3
    # interval straddling an integer cannot certify
    straddle = BigReal((4 << 64) - 3, (4 << 64) + 3, 64)
    assert straddle.floor_certified() is None


def test_divide_rejects_zero_straddle():
    # a non-negative divisor reaches zero exactly when its lower endpoint is 0
    with pytest.raises(ZeroDivisionError):
        BigReal(1 << 64, 1 << 64, 64).divide(BigReal(0, 1, 64))


def test_pi_over_atan_floor_matches_float_math():
    # pi / arctan(1/10) just above 31.4; certified floor must say 31
    pi_iv = BigReal.pi(128)
    beta_iv = BigReal.atan_fraction(1, 10, 128)
    q = pi_iv.divide(beta_iv)
    assert q.floor_certified() == 31
    assert (q.lo + q.hi) / 2 / 2 ** 128 == pytest.approx(math.pi / math.atan(0.1), rel=1e-12)


def test_scale_int_exact():
    iv = _fraction(1, 7, 96)
    scaled = iv.scale_int(21)
    assert scaled.lo <= 3 * (1 << 96) <= scaled.hi
    assert (scaled.lo, scaled.hi) == (21 * iv.lo, 21 * iv.hi)


ENDPOINTS = st.integers(0, 1 << 200)


@settings(max_examples=300, deadline=None)
@given(ENDPOINTS, ENDPOINTS, st.integers(1, 1 << 200), st.integers(1, 1 << 200),
       st.integers(1, 160))
def test_divide_equals_all_quotient_oracle(a, b, c, d, bits):
    num = BigReal(min(a, b), max(a, b), bits)
    den = BigReal(min(c, d), max(c, d), bits)
    got, expected = num.divide(den), divide_all_quotients(num, den)
    assert (got.lo, got.hi) == (expected.lo, expected.hi)


# the upper floor of divide carries when R 2^b > (2^b - 1) other.lo, with
# R = hi mod other.lo: these three sit at that boundary for b = 64, where the
# lower floor, 7 d // d with d = 3 2^b + 2, is 7
_B = 1 << 64
_AT_CARRY = 7 * (3 * _B) + (_B - 1) * 3            # R 2^b == (2^b - 1) other.lo
_ABOVE_CARRY = 7 * (3 * _B + 1) + (_B - 1) * 3 + 1  # R 2^b is 1 above it
_BELOW_CARRY = 7 * (3 * _B - 1) + (_B - 1) * 3 - 1  # R 2^b is 1 below it


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1 << 3000), st.integers(0, 1 << 3000), st.integers(1, 1 << 1000),
       st.integers(1, 1 << 1000), st.integers(1, 300))
@example(7 * (3 * _B + 2), _AT_CARRY, 3 * _B, 3 * _B + 2, 64)  # floor 7
@example(7 * (3 * _B + 2), _ABOVE_CARRY, 3 * _B + 1, 3 * _B + 2, 64)  # floors 7, 8
@example(7 * (3 * _B + 2), _BELOW_CARRY, 3 * _B - 1, 3 * _B + 2, 64)  # floor 7
@example(0, 1 << 200, 1 << 90, 1 << 91, 64)  # lo = 0
@example(12345 << 80, 12345 << 80, 7, 1 << 40, 80)  # a zero-width numerator
@example(1, 1 << 100, 0, 1 << 50, 32)  # a divisor that reaches zero
def test_divide_for_floor_certifies_the_floor_of_divide(a, b, c, d, bits):
    num = BigReal(min(a, b), max(a, b), bits)
    den = BigReal(min(c, d), max(c, d), bits)
    if den.lo == 0:
        for method in (num.divide, num._divide_for_floor):
            with pytest.raises(ZeroDivisionError):
                method(den)
        return
    got, full = num._divide_for_floor(den), num.divide(den)
    assert got.bits == bits
    assert got.floor_certified() == full.floor_certified()
    assert _contains(got, full)


DENOMINATORS = st.one_of(
    st.integers(0, 400).map(lambda k: 10 ** k),
    st.integers(0, 400).map(lambda k: 1 << k),
    st.integers(0, 1 << 300).map(lambda v: 2 * v + 1),
    st.integers(1, 1 << 300))


@settings(max_examples=200, deadline=None)
@given(DENOMINATORS.flatmap(lambda den: st.tuples(st.integers(0, 3 * den), st.just(den))),
       st.integers(1, 300))
@example((1, 10 ** 100), 400)  # route (a) of digits at N = 100
@example((12345, 1 << 64), 64)  # the non-square branch: den = 1 << bits
@example((1, 1 << 400), 10)  # den's power of two exceeds the working bits
@example((7, 9), 100)  # an odd den with 1/2 < x <= 2
@example((3, 1 << 0), 100)  # x > 2
@example((10 ** 5, 10 ** 5), 64)  # x = 1
def test_atan_divides_by_the_odd_part_of_den_exactly(fraction, bits):
    num, den = fraction
    got, plain = BigReal.atan_fraction(num, den, bits), atan_fraction_plain(num, den, bits)
    assert (got.lo, got.hi, got.bits) == (plain.lo, plain.hi, plain.bits)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 40000))
@example(40000)
def test_pi_contains_reference_and_overlaps_machin(bits):
    iv = BigReal.pi(bits)
    with mpmath.workprec(bits + 64):
        ref = mpmath.pi * mpmath.mpf(2) ** bits
        assert iv.lo <= ref <= iv.hi
    machin = machin_pi(bits)
    assert iv.lo <= machin.hi and machin.lo <= iv.hi
    assert iv.hi - iv.lo <= 2


@settings(max_examples=40, deadline=None)
@given(st.integers(64, 3000).flatmap(
    lambda bits: st.tuples(st.just(bits), st.integers(0, bits - 64))))
@example((64, 0))
@example((3000, 2936))
def test_pi_widened_by_a_shift_contains_machin(bits_lift):
    # a certified count computes pi at bits - lift and shifts it up to bits:
    # the interval must hold pi, proven by Machin's interval 64 bits finer
    # inside it
    bits, lift = bits_lift
    widened = BigReal.pi(bits - lift).round_to(bits)
    assert widened.bits == bits and widened.hi - widened.lo == 2 ** (lift + 1)
    assert _contains(widened, machin_pi(bits + 64))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 1 << 80), st.integers(1, 1 << 80), st.integers(2, 300))
@example(1, 1 << 80, 2)  # the series' lower endpoint falls below 0 before clamping
def test_atan_contains_reference_for_any_nonnegative_argument(num, den, bits):
    # arguments above 1/2 go through the pi/2 and pi/4 reductions
    iv = BigReal.atan_fraction(num, den, bits)
    with mpmath.workprec(bits + 200):
        ref = mpmath.atan(mpmath.mpf(num) / den) * mpmath.mpf(2) ** bits
        assert 0 <= iv.lo <= ref <= iv.hi
    assert iv.hi - iv.lo <= 4


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 1 << 80).flatmap(
           lambda den: st.tuples(st.integers(0, den // 2), st.just(den))),
       st.integers(1, 300))
@example((1, 2), 200)  # x = 1/2: the series has the most terms
@example((1, 1 << 80), 64)  # x < 2^-work: the series has no term
def test_atan_series_bound_holds_without_guard_bits(fraction, bits):
    # with no guard bits the interval is the counted 3k + 3 bound itself
    num, den = fraction
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bigreal, "_GUARD_BITS", 0)
        iv = BigReal.atan_fraction(num, den, bits)
    with mpmath.workprec(bits + 200):
        ref = mpmath.atan(mpmath.mpf(num) / den) * mpmath.mpf(2) ** bits
        assert iv.lo <= ref <= iv.hi


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 20000))
@example(1)
@example(20000)
def test_pi_upper_bound_holds_with_eight_guard_bits(bits):
    # the upper end lo + 2 is proven for at least 7 guard bits
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bigreal, "_GUARD_BITS", 8)
        iv = BigReal.pi(bits)
    with mpmath.workprec(bits + 64):
        assert iv.lo <= mpmath.pi * mpmath.mpf(2) ** bits <= iv.hi


# -- the integer layer ----------------------------------------------------------

_DIV = bigreal._BZ_DIVISOR_BITS
_QUOT = bigreal._BZ_QUOTIENT_BITS
_BLOCK = bigreal._BZ_BLOCK_BITS
_ROOT = bigreal._ISQRT_BITS
_STR = bigreal._STR_DIGITS
SEEDS = st.integers(0, 2 ** 32)


def _lengths(most: int):
    """Bit lengths from 1 to ``most``, spread evenly over their own bit lengths."""
    return st.integers(1, most.bit_length()).flatmap(
        lambda e: st.integers(1 << (e - 1), min((1 << e) - 1, most)))


def _top_bits(rng: random.Random, bits: int) -> int:
    """A random integer of exactly ``bits`` bits."""
    return rng.getrandbits(bits) | 1 << (bits - 1)


DIVISIONS = ("random", "multiple", "ones", "power of two", "zero", "below", "negative")


@settings(max_examples=60, deadline=None)
@given(_lengths(1_500_000), _lengths(1_500_000), SEEDS, st.sampled_from(DIVISIONS))
@example(_DIV - 1, 2 * _QUOT, 0, "random")  # the divisor length threshold
@example(_DIV, 2 * _QUOT, 0, "random")
@example(_DIV + 1, 2 * _QUOT, 0, "random")
@example(2 * _DIV, _QUOT - 1, 0, "random")  # the quotient length threshold
@example(2 * _DIV, _QUOT, 0, "random")
@example(2 * _DIV, _QUOT + 1, 0, "random")
@example(4 * _BLOCK, 9 * _QUOT, 1, "random")  # one more level of recursion from here
@example(4 * _BLOCK + 1, 9 * _QUOT, 1, "random")
@example(3 * _DIV, 3 * _QUOT, 2, "below")  # a < b
@example(3 * _DIV, 5 * _QUOT, 3, "multiple")  # remainder 0
@example(3 * _DIV, 5 * _QUOT, 4, "ones")  # every quotient bit is 1
@example(3 * _DIV, 5 * _QUOT, 5, "power of two")
@example(3 * _DIV, 5 * _QUOT, 6, "zero")
@example(3 * _DIV, 5 * _QUOT, 7, "negative")  # a ceiling division
@example(200_000, 200_000, 8, "random")
def test_floordiv_is_the_builtin_floordiv(divisor_bits, quotient_bits, seed, form):
    rng = random.Random(seed)
    b = 1 << (divisor_bits - 1) if form == "power of two" else _top_bits(rng, divisor_bits)
    a = _top_bits(rng, divisor_bits + quotient_bits)
    a = {"random": a, "multiple": b * (a >> divisor_bits), "ones": (b << quotient_bits) - 1,
         "zero": 0, "below": a % b, "negative": -a, "power of two": a}[form]
    assert bigreal._floordiv(a, b) == a // b
    if a >= 0:
        assert bigreal._divmod(a, b) == divmod(a, b)


ROOTS = ("random", "square", "square - 1", "square + 1", "power of four", "zero")


@settings(max_examples=50, deadline=None)
@given(_lengths(3_000_000), SEEDS, st.sampled_from(ROOTS))
@example(_ROOT - 1, 0, "random")  # the radicand length threshold
@example(_ROOT, 0, "random")
@example(_ROOT + 1, 0, "random")
@example(4 * _ROOT + 1, 1, "square")
@example(4 * _ROOT + 1, 2, "square - 1")
@example(4 * _ROOT + 1, 3, "square + 1")
@example(4 * _ROOT + 2, 4, "power of four")
@example(4 * _ROOT, 5, "zero")
@example(1_000_000, 6, "square - 1")
def test_isqrt_is_math_isqrt(bits, seed, form):
    rng = random.Random(seed)
    root = _top_bits(rng, (bits + 1) // 2)
    n = {"random": _top_bits(rng, bits), "square": root * root, "square - 1": root * root - 1,
         "square + 1": root * root + 1, "power of four": 1 << (bits & ~1), "zero": 0}[form]
    assert bigreal._isqrt(n) == math.isqrt(n)


NUMERALS = ("random", "power of ten", "power of ten - 1", "power of ten + 1", "negative", "zero")


# str() itself takes quadratic time on CPython 3.11, 12 s at 3e6 bits, so the
# sizes stop at 1e6 bits, about the 300 000 digits of digits --N 300000
@settings(max_examples=30, deadline=None)
@given(_lengths(1_000_000), SEEDS, st.sampled_from(NUMERALS))
@example(3 * _STR, 0, "random")  # str() alone up to 3 _STR bits
@example(3 * _STR + 1, 0, "random")
@example(4 * _STR, 1, "power of ten - 1")  # 10^_STR - 1: the first split
@example(4 * _STR, 2, "power of ten")
@example(7 * _STR, 3, "power of ten + 1")  # 10^(2 _STR) + 1: a padded zero block
@example(7 * _STR, 4, "power of ten - 1")
@example(60_000, 5, "negative")
@example(1, 6, "zero")
def test_format_int_is_str(bits, seed, form):
    rng = random.Random(seed)
    # the powers of ten land on the split points 10^(_STR 2^i) near ``bits``
    ten = 10 ** (_STR << max(round(math.log2(bits / 3.33 / _STR)), 0)) if bits > 3 * _STR else 10
    value = _top_bits(rng, bits)
    value = {"random": value, "power of ten": ten, "power of ten - 1": ten - 1,
             "power of ten + 1": ten + 1, "negative": -value, "zero": 0}[form]
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)  # the least limit str() may be given
        got = bigreal._format_int(value)
        sys.set_int_max_str_digits(0)
        assert got == str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _builtin_kernels(mp: pytest.MonkeyPatch) -> None:
    """Put the builtins back in place of the integer layer's kernels."""
    mp.setattr(bigreal, "_divmod", divmod)
    mp.setattr(bigreal, "_floordiv", operator.floordiv)
    mp.setattr(bigreal, "_isqrt", math.isqrt)
    mp.setattr(bigreal, "_format_int", lambda value: str(decimal.Decimal(value)))


def _digits_layer(digits: int):
    """The intervals and results of digits --N at its starting precision."""
    bits = classical._ratio_start(Fraction(100 ** digits))
    pi = BigReal.pi(bits)
    beta = BigReal.atan_fraction(1, 10 ** digits, bits)
    ends = [(iv.lo, iv.hi, iv.bits) for iv in (pi, beta, pi._divide_for_floor(beta))]
    detail = classical.pi_digits_detail(digits)
    return ends, detail, bigreal._format_int(detail.value)


@pytest.mark.parametrize("digits", [0, 1, 2700, 5000, 20000])
def test_digits_are_the_same_with_the_builtin_kernels(digits):
    fast = _digits_layer(digits)
    with pytest.MonkeyPatch.context() as mp:
        _builtin_kernels(mp)
        assert _digits_layer(digits) == fast


# a 3000-bit numerator over an odd denominator of up to 1500 bits: the non-square branch
_LONG_RATIO = Fraction(_top_bits(random.Random(3000), 3000), random.Random(3).getrandbits(1500) | 1)


@pytest.mark.parametrize("ratio", [1e300, _LONG_RATIO])
def test_counts_are_the_same_with_the_builtin_kernels(ratio):
    exact = Fraction(ratio)
    bits = classical._ratio_start(exact)
    ends = classical._pi_over_beta(BigReal.pi(bits), exact)
    fast = (ends.lo, ends.hi), classical.count_certified(ratio)
    with pytest.MonkeyPatch.context() as mp:
        _builtin_kernels(mp)
        ends = classical._pi_over_beta(BigReal.pi(bits), exact)
        assert ((ends.lo, ends.hi), classical.count_certified(ratio)) == fast


@settings(max_examples=100, deadline=None)
@given(_lengths(40_000), _lengths(20_000), st.integers(0, 1 << 64), st.integers(0, 1 << 64),
       st.integers(1, 4000), SEEDS)
@example(40_000, 20_000, 0, 0, 3000, 0)  # a point numerator: one division
@example(40_000, 20_000, 1 << 64, 1 << 64, 3000, 1)  # wide: R reaches other.lo
def test_divide_for_floor_is_its_two_divisions(num_bits, den_bits, num_width, den_width,
                                               bits, seed):
    # R = hi - low other.lo reaches other.lo once the interval is wide enough;
    # only then is R divided again
    rng = random.Random(seed)
    lo, d = _top_bits(rng, num_bits), _top_bits(rng, den_bits)
    num = BigReal(lo, lo + (num_width << max(num_bits - 64, 0)), bits)
    den = BigReal(d, d + (den_width << max(den_bits - 64, 0)), bits)
    calls = []

    def counted(a, b):
        calls.append(a)
        return divmod(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bigreal, "_floordiv", operator.floordiv)
        mp.setattr(bigreal, "_divmod", counted)
        got = num._divide_for_floor(den)
    low = num.lo // den.hi
    assert bool(calls) == (num.hi - low * den.lo >= den.lo)
    expected = divide_for_floor_two_divisions(num, den)
    assert (got.lo, got.hi, got.bits) == (expected.lo, expected.hi, expected.bits)
