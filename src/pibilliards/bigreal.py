"""Arbitrary-precision non-negative intervals that provably contain their values.

A :class:`BigReal` is an interval [lo, hi] with 0 <= lo <= hi, whose endpoints
are dyadic fixed-point numbers lo/2**bits and hi/2**bits stored as Python
integers; every value the certificates need (pi, arctangents of ratios >= 0,
their sums, differences, multiples and quotients) is non-negative, and the
constructor enforces it.  The arithmetic rounds the lower endpoint down and
the upper endpoint up; pi and the arctangents are computed once, at
_GUARD_BITS extra bits, and widened by a counted error bound.  Either way the
true real value of any expression stays inside the returned interval.  That
containment is what lets a floor be *certified* rather than guessed: if both
endpoints share the same integer part, the floor of the enclosed real number
is known exactly.

pi comes from the Chudnovsky series summed by binary splitting, in integers
only (the Machin identity pi = 16 arctan(1/5) - 4 arctan(1/239), which it
replaced, is the containment oracle in ``tests/oracles.py``).  Arctangents
come from the alternating Taylor series after reducing the argument to at
most 1/2, dividing each power by the odd part of the denominator alone.
Division forms only the two endpoint quotients that bound the result; where
only the floor of the quotient is wanted, ``_divide_for_floor`` forms just
the floors of those two quotients, from one short division and one product.

Every long division, square root and decimal conversion goes through three
private kernels, ``_floordiv`` (with ``_divmod``), ``_isqrt`` and
``_format_int``.  Each returns exactly the integer or string of the builtin
it replaces, so no endpoint, bit count or printed digit depends on them; on
CPython 3.11, where the builtins take quadratic time, they recurse on
multiplications once the operands pass a few thousand bits: Burnikel and
Ziegler's division, Zimmermann's square root and a conversion split at
powers of ten.
"""

from __future__ import annotations

import math
import sys

_GUARD_BITS = 48

# -- the integer layer ----------------------------------------------------------
#
# CPython 3.11's long division, math.isqrt and int-to-decimal conversion all
# take time quadratic in the length, while its multiplication is Karatsuba's.
# These kernels return exactly the integers of divmod, math.isqrt and str, and
# above the thresholds below recurse on half-size multiplications instead.  The
# thresholds were chosen by timing against the builtins on CPython 3.11; from
# 3.12 on, // switches to a recursive division by itself and _divmod leaves it
# to the interpreter.
_NATIVE_DIVMOD = sys.version_info >= (3, 12)
_BZ_DIVISOR_BITS = 7000   # recursive division from this divisor length on
_BZ_QUOTIENT_BITS = 3000  # ... and this quotient length on
_BZ_BLOCK_BITS = 3000     # the recursion hands blocks this short to divmod
_ISQRT_BITS = 4000        # math.isqrt up to this radicand length
_STR_DIGITS = 600         # str() converts pieces this long; its limit is at least 640


def _divmod(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b) for a >= 0 and b > 0.

    Above the thresholds this is Burnikel and Ziegler's recursive division
    ("Fast Recursive Division", MPI-I-98-1-022, 1998): b is shifted up to a
    block of m 2^k bits with m <= _BZ_BLOCK_BITS, and a is divided by it block
    by block, most significant first, each step a division of two blocks by
    one (:func:`_div2n1n`).
    """
    n = b.bit_length()
    if _NATIVE_DIVMOD or n < _BZ_DIVISOR_BITS or a.bit_length() - n < _BZ_QUOTIENT_BITS:
        return divmod(a, b)
    k = ((n - 1) // _BZ_BLOCK_BITS).bit_length()
    block = -(-n >> k) << k
    # shifting both by the pad leaves the quotient and shifts the remainder
    pad = block - n
    a, b = a << pad, b << pad
    mask = (1 << block) - 1
    # t blocks with the top one below 2^(block - 1) <= b, so a running
    # remainder and the next block are always below b 2^block
    t = max(2, (a.bit_length() + block) // block)
    quotient, remainder = _div2n1n(a >> ((t - 2) * block), b, block)
    for i in range(t - 3, -1, -1):
        digit, remainder = _div2n1n((remainder << block) | ((a >> (i * block)) & mask), b, block)
        quotient = (quotient << block) | digit
    return quotient, remainder >> pad


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of exactly n = m 2^j bits (m <= _BZ_BLOCK_BITS) and
    a < b 2^n: two steps of three half-blocks by two.

    Each step guesses the next half-block of the quotient from b's top half b1
    alone, recursively, and corrects the guess, which exceeds it by at most 2,
    with one product by b's low half; so the cost is that of the products.
    """
    if n <= _BZ_BLOCK_BITS:
        return divmod(a, b)
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    quotient, rest = 0, a >> n
    for low in ((a >> half) & mask, a & mask):
        if rest >> half == b1:
            digit, remainder = mask, rest - (b1 << half) + b1
        else:
            digit, remainder = _div2n1n(rest, b1, half)
        rest = ((remainder << half) | low) - digit * b2
        while rest < 0:
            digit -= 1
            rest += b
        quotient = (quotient << half) | digit
    return quotient, rest


def _floordiv(a: int, b: int) -> int:
    """a // b for b > 0, by :func:`_divmod`."""
    return ~_divmod(~a, b)[0] if a < 0 else _divmod(a, b)[0]


def _ceil_div(a: int, b: int) -> int:
    return -_floordiv(-a, b)


def _sqrtrem(n: int) -> tuple[int, int]:
    """(s, n - s^2) with s = math.isqrt(n), for n >= 0.

    Zimmermann's Karatsuba square root (INRIA RR-3805, 1999): with
    n = h 2^(2k) + a1 2^k + a0, a1 and a0 below 2^k and h >= 2^(2k - 2),
    the root s' and remainder r' of h give s = s' 2^k + q, with
    q = (r' 2^k + a1) // (2 s'), and n - s^2 = u 2^k + a0 - q^2 with u the
    remainder of that division.  s is at most one above isqrt(n), since
    q^2 < 2 s once s' >= 2^(k - 1).
    """
    if n.bit_length() <= _ISQRT_BITS:
        root = math.isqrt(n)
        return root, n - root * root
    k = (n.bit_length() + 1) >> 2
    mask = (1 << k) - 1
    root, remainder = _sqrtrem(n >> (2 * k))
    q, u = _divmod((remainder << k) | ((n >> k) & mask), root << 1)
    root = (root << k) + q
    remainder = (u << k) + (n & mask) - q * q
    if remainder < 0:
        remainder += 2 * root - 1
        root -= 1
    return root, remainder


def _isqrt(n: int) -> int:
    """math.isqrt(n), by :func:`_sqrtrem` above _ISQRT_BITS bits."""
    if n < 0 or n.bit_length() <= _ISQRT_BITS:
        return math.isqrt(n)
    return _sqrtrem(n)[0]


def _format_int(value: int) -> str:
    """All decimal digits of ``value``, as str() gives them, but not bounded by
    sys.get_int_max_str_digits() (4300 digits by default).

    Divide and conquer on powers of ten: a value below 10^(2d) is split as
    hi 10^d + lo, where 10^d = 5^d 2^d makes the quotient (value >> d) // 5^d,
    down to pieces of _STR_DIGITS digits, which str() converts; every piece
    but the leading one is padded with zeros to its full width.
    """
    if value < 0:
        return "-" + _format_int(-value)
    if value.bit_length() <= 3 * _STR_DIGITS:  # 3 bits < 1 digit
        return str(value)
    # fives[i] = 5^d with d = _STR_DIGITS 2^i, until value < 10^(2d): 10^d is
    # at least 2^(d + bit_length(5^d) - 1)
    fives, d = [5 ** _STR_DIGITS], _STR_DIGITS
    while value.bit_length() > 2 * (d + fives[-1].bit_length() - 1):
        fives.append(fives[-1] * fives[-1])
        d <<= 1
    return _decimal_digits(value, fives, len(fives) - 1, False)


def _decimal_digits(value: int, fives: list[int], i: int, pad: bool) -> str:
    """The digits of value < 10^(2d), d = _STR_DIGITS 2^i, padded with zeros
    to 2d digits when ``pad``; fives[i] = 5^d."""
    if i < 0:
        return str(value).zfill(_STR_DIGITS) if pad else str(value)
    d = _STR_DIGITS << i
    hi, rest = _divmod(value >> d, fives[i])
    lo = (rest << d) | (value & ((1 << d) - 1))
    if hi or pad:
        return _decimal_digits(hi, fives, i - 1, pad) + _decimal_digits(lo, fives, i - 1, True)
    return _decimal_digits(lo, fives, i - 1, False)


# Chudnovsky series: A + B k in each term, and 640320^3 / 24 in each q_k.
_CHUD_A = 13591409
_CHUD_B = 545140134
_CHUD_C3_OVER_24 = 10939058860032000


def _chudnovsky_pqt(a: int, b: int, need_p: bool = True) -> tuple[int | None, int, int]:
    """Binary splitting of the Chudnovsky terms a <= k < b.

    With f_k = (6k)! / ((3k)! (k!)^3 640320^(3k)) and f_(-1) = 1, the
    integers returned satisfy P/Q = f_(b-1) / f_(a-1) and
    T/Q = sum_k (-1)^k f_k (13591409 + 545140134 k) / f_(a-1).
    T reads only the left half's P, so with ``need_p`` false P is None, and
    its products are skipped along the right spine of the splitting tree.
    """
    if b - a == 1:
        if a == 0:
            p = q = 1
        else:
            p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
            q = a * a * a * _CHUD_C3_OVER_24
        t = p * (_CHUD_A + _CHUD_B * a)
        return p, q, -t if a & 1 else t
    mid = (a + b) // 2
    p1, q1, t1 = _chudnovsky_pqt(a, mid)
    p2, q2, t2 = _chudnovsky_pqt(mid, b, need_p)
    return p1 * p2 if need_p else None, q1 * q2, q2 * t1 + p1 * t2


class BigReal:
    __slots__ = ("lo", "hi", "bits")

    def __init__(self, lo: int, hi: int, bits: int):
        if not 0 <= lo <= hi:
            raise ValueError("interval endpoints must satisfy 0 <= lo <= hi")
        if bits <= 0:
            raise ValueError("precision must be positive")
        self.lo = lo
        self.hi = hi
        self.bits = bits

    # -- helpers -----------------------------------------------------------

    def _require_same_precision(self, other: "BigReal") -> None:
        if self.bits != other.bits:
            raise ValueError("mixed-precision interval arithmetic")

    def round_to(self, bits: int) -> "BigReal":
        """The enclosing interval at precision ``bits``: rounded outward when
        coarser, and the same interval, by an exact left shift, when finer."""
        shift = self.bits - bits
        if shift < 0:
            return BigReal(self.lo << -shift, self.hi << -shift, bits)
        return BigReal(self.lo >> shift, -((-self.hi) >> shift), bits)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "BigReal") -> "BigReal":
        self._require_same_precision(other)
        return BigReal(self.lo + other.lo, self.hi + other.hi, self.bits)

    def __sub__(self, other: "BigReal") -> "BigReal":
        self._require_same_precision(other)
        return BigReal(self.lo - other.hi, self.hi - other.lo, self.bits)

    def scale_int(self, k: int) -> "BigReal":
        """Exact multiplication by an integer k >= 0; hi k is formed as
        lo k + (hi - lo) k, since a certified interval is far narrower than lo."""
        low = self.lo * k
        return BigReal(low, low + (self.hi - self.lo) * k, self.bits)

    def divide(self, other: "BigReal") -> "BigReal":
        """Quotient interval [lo 2^b // other.hi, ceil(hi 2^b / other.lo)]: for
        non-negative operands these are the least and the greatest of the four
        endpoint quotients.  Raises ZeroDivisionError when other.lo is 0."""
        self._require_same_precision(other)
        if other.lo <= 0:
            raise ZeroDivisionError("divisor interval reaches zero")
        return BigReal((self.lo << self.bits) // other.hi,
                       _ceil_div(self.hi << self.bits, other.lo), self.bits)

    def _divide_for_floor(self, other: "BigReal") -> "BigReal":
        """An enclosure of self/other whose :meth:`floor_certified` is that of
        :meth:`divide`, from one short division instead of two b-bit quotients.

        The floor of :meth:`divide`'s lower end is floor(floor(lo 2^b / d)/2^b)
        = low = lo // d with d = other.hi.  With Q, R = divmod(hi, other.lo), its
        upper end is Q 2^b + ceil(R 2^b / other.lo), and the ceiling, below or at
        2^b, carries into Q exactly when R 2^b > (2^b - 1) other.lo, that is
        when (other.lo - R) 2^b < other.lo.  Since hi >= lo and other.lo <= d,
        Q >= low: Q = low and R = hi - low other.lo unless that R reaches
        other.lo, and only then is it divided again.  With high the upper floor,
        the result [low 2^b, (high + 1) 2^b - 1] contains :meth:`divide`'s
        interval.  Raises ZeroDivisionError when other.lo is 0.
        """
        self._require_same_precision(other)
        if other.lo <= 0:
            raise ZeroDivisionError("divisor interval reaches zero")
        bits = self.bits
        low = _floordiv(self.lo, other.hi)
        quotient, remainder = low, self.hi - low * other.lo
        if remainder >= other.lo:
            carry, remainder = _divmod(remainder, other.lo)
            quotient += carry
        high = quotient + (((other.lo - remainder) << bits) < other.lo)
        return BigReal(low << bits, ((high + 1) << bits) - 1, bits)

    # -- certified queries ----------------------------------------------------

    def floor_certified(self):
        """Floor of the enclosed real number, or None if the interval straddles
        an integer boundary and the floor cannot be certified at this precision."""
        lo_floor = self.lo >> self.bits
        hi_floor = self.hi >> self.bits
        return int(lo_floor) if lo_floor == hi_floor else None

    # -- transcendental constants ----------------------------------------------

    @classmethod
    def atan_fraction(cls, num: int, den: int, bits: int) -> "BigReal":
        """arctan(num/den) for num/den >= 0.

        Arguments above 1/2 are first reduced to at most 1/2, where the series
        gains at least two bits per term: arctan x = pi/2 - arctan(1/x) for
        x > 2, and arctan x = pi/4 + arctan((x - 1)/(x + 1)) for 1/2 < x <= 2.
        For x <= 1/2 the alternating series x - x^3/3 + x^5/5 - ... is summed
        once at ``work`` = bits + _GUARD_BITS bits, from floored powers and
        floored terms, until the power is at most 2k + 1 units after k terms.
        Counted bound: since x^2 <= 1/4, each power is less than 4/3 units
        below its exact value, each term less than 7/3 units below, and the
        omitted tail, no larger than the first omitted term, is below 3 units;
        so the sum lies within 3k + 3 units of arctan(x) 2^work, which the
        interval at ``work`` bits covers before it is rounded out to ``bits``.
        """
        if num < 0 or den <= 0:
            raise ValueError("atan_fraction requires num/den >= 0")
        if num == 0:
            return cls(0, 0, bits)
        work = bits + _GUARD_BITS
        if 2 * num > den:
            pi = cls.pi(work)
            if num > 2 * den:
                half_pi = BigReal(pi.lo, pi.hi, work + 1).round_to(work)
                return (half_pi - cls.atan_fraction(den, num, work)).round_to(bits)
            quarter_pi = BigReal(pi.lo, pi.hi, work + 2).round_to(work)
            rest = cls.atan_fraction(abs(num - den), num + den, work)
            return (quarter_pi + rest if num >= den else quarter_pi - rest).round_to(bits)
        # with den = odd 2^s, floor(a / den) = floor((a >> s) / odd) exactly, so
        # only the odd part of den is divided by: 5^N for den = 10^N, 1 for 2^b
        s = (den & -den).bit_length() - 1
        odd = den >> s
        mag = _floordiv((num << work) >> s, odd)
        num2, odd2 = num * num, odd * odd
        total = k = 0
        while mag > 2 * k + 1:
            term = mag // (2 * k + 1)
            total += -term if k & 1 else term
            mag = _floordiv((mag * num2) >> (2 * s), odd2)
            k += 1
        # arctan x >= 0 for x >= 0, so a lower endpoint below zero is clamped
        return cls(max(total - 3 * k - 3, 0), total + 3 * k + 3, work).round_to(bits)

    @classmethod
    def pi(cls, bits: int) -> "BigReal":
        """pi by the Chudnovsky series, summed by binary splitting, certified.

        pi = 426880 sqrt(10005) / S with S = sum_k t_k and
        t_k = (-1)^k (6k)! (13591409 + 545140134 k) / ((3k)! (k!)^3 640320^(3k)).
        Binary splitting gives the first n terms as the exact fraction T/Q.
        Tail bound: (6k)!/((3k)! (k!)^3) = C(6k, 3k) (3k)!/(k!)^3 <= 2^(6k) 3^(3k)
        = 1728^k, and 640320^3 / 1728 = 151931373056000 > 2^47, so
        |t_k| <= (13591409 + 545140134 k) 2^(-47 k).  Successive bounds shrink
        by more than a factor 2, so the omitted tail is below twice the bound
        at k = n; with n = ceil(work/47) + 2 terms that is far below one
        working ulp.  The tail enters T's units as E >= tail * Q.

        One long division gives the lower end lo = floor(L), with
        L = 426880 root q_lo / (t_hi 2^G), G = _GUARD_BITS and work = bits + G:
        root <= sqrt(10005) 2^work, q_lo <= Q / 2^s and t_hi >= (T + E) / 2^s for
        the shift s, so L <= pi 2^bits.  Counted bound on the upper end:
        root > 2^(work+6) is less than 1 low, q_lo is Q / 2^s or exceeds
        2^(work+G-1) and is less than 1 low, and t_hi > q_lo 2^23 is at most
        2E / 2^s + 1 high, so when G >= 7 each lies within 2^-(work+6)
        relative of its exact value.  Then
        pi 2^bits < L (1 + 2^-(work+4)) < L + 2^-(G+2), as L < 2^(bits+2), and
        pi 2^bits < lo + 1 + 2^-(G+2) <= lo + 2: the interval is [lo, lo + 2].
        """
        work = bits + _GUARD_BITS
        n = -(-work // 47) + 2
        _, q, t = _chudnovsky_pqt(0, n, need_p=False)
        tail = ((2 * (_CHUD_A + _CHUD_B * n) * q) >> (47 * n)) + 1
        # shortening q and t to about work + G bits keeps the long quotient short
        shift = max(q.bit_length() - work - _GUARD_BITS, 0)
        q_lo, t_hi = q >> shift, -(-(t + tail) >> shift)
        root = _isqrt(10005 << (2 * work))  # root <= sqrt(10005) 2^work < root + 1
        lo = _floordiv(426880 * root * q_lo, t_hi << _GUARD_BITS)
        return cls(lo, lo + 2, bits)

    def __repr__(self):
        return f"BigReal([{self.lo}, {self.hi}] / 2**{self.bits})"
