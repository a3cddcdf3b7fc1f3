import math
import random

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import atan_fraction_plain, divide_all_quotients, machin_pi

from pibilliards import BigReal, bigreal


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
