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
the floors of those two quotients, by two divisions with short quotients.
"""

from __future__ import annotations

import math

_GUARD_BITS = 48


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


# Chudnovsky series: A + B k in each term, and 640320^3 / 24 in each q_k.
_CHUD_A = 13591409
_CHUD_B = 545140134
_CHUD_C3_OVER_24 = 10939058860032000


def _chudnovsky_pqt(a: int, b: int) -> tuple[int, int, int]:
    """Binary splitting of the Chudnovsky terms a <= k < b.

    With f_k = (6k)! / ((3k)! (k!)^3 640320^(3k)) and f_(-1) = 1, the
    integers returned satisfy P/Q = f_(b-1) / f_(a-1) and
    T/Q = sum_k (-1)^k f_k (13591409 + 545140134 k) / f_(a-1).
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
    p2, q2, t2 = _chudnovsky_pqt(mid, b)
    return p1 * p2, q1 * q2, q2 * t1 + p1 * t2


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
        return BigReal(self.lo >> shift, _ceil_div(self.hi, 1 << shift), bits)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "BigReal") -> "BigReal":
        self._require_same_precision(other)
        return BigReal(self.lo + other.lo, self.hi + other.hi, self.bits)

    def __sub__(self, other: "BigReal") -> "BigReal":
        self._require_same_precision(other)
        return BigReal(self.lo - other.hi, self.hi - other.lo, self.bits)

    def scale_int(self, k: int) -> "BigReal":
        """Exact multiplication by an integer k >= 0."""
        return BigReal(self.lo * k, self.hi * k, self.bits)

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
        :meth:`divide`, from two short divisions instead of two b-bit quotients.

        The floor of :meth:`divide`'s lower end is floor(floor(lo 2^b / d)/2^b)
        = lo // d with d = other.hi.  With Q, R = divmod(hi, other.lo), its upper
        end is Q 2^b + ceil(R 2^b / other.lo), and the ceiling, below or at 2^b,
        carries into Q exactly when R 2^b > (2^b - 1) other.lo, that is when
        (other.lo - R) 2^b < other.lo.  With low and high those two floors, the
        result [low 2^b, (high + 1) 2^b - 1] contains :meth:`divide`'s
        interval.  Raises ZeroDivisionError when other.lo is 0.
        """
        self._require_same_precision(other)
        if other.lo <= 0:
            raise ZeroDivisionError("divisor interval reaches zero")
        bits = self.bits
        quotient, remainder = divmod(self.hi, other.lo)
        high = quotient + (((other.lo - remainder) << bits) < other.lo)
        return BigReal((self.lo // other.hi) << bits, ((high + 1) << bits) - 1, bits)

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
        mag = ((num << work) >> s) // odd
        num2, odd2 = num * num, odd * odd
        total = k = 0
        while mag > 2 * k + 1:
            term = mag // (2 * k + 1)
            total += -term if k & 1 else term
            mag = ((mag * num2) >> (2 * s)) // odd2
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
        _, q, t = _chudnovsky_pqt(0, n)
        tail = ((2 * (_CHUD_A + _CHUD_B * n) * q) >> (47 * n)) + 1
        # shortening q and t to about work + G bits keeps the long quotient short
        shift = max(q.bit_length() - work - _GUARD_BITS, 0)
        q_lo, t_hi = q >> shift, -(-(t + tail) >> shift)
        root = math.isqrt(10005 << (2 * work))  # root <= sqrt(10005) 2^work < root + 1
        lo = (426880 * root * q_lo) // (t_hi << _GUARD_BITS)
        return cls(lo, lo + 2, bits)

    def __repr__(self):
        return f"BigReal([{self.lo}, {self.hi}] / 2**{self.bits})"
