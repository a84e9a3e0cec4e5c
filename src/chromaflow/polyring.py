"""Exact univariate polynomials over the integers.

Coefficients are arbitrary-precision Python ints stored densely in
ascending order.  The representation is canonical: no trailing zeros,
and the zero polynomial is the empty tuple (its degree is None).

Multiplication has two paths that produce identical results: plain
schoolbook, and Kronecker substitution at t = 10^w, which packs each
operand into one exact Decimal so that libmpdec's number-theoretic
transform does the work in a single multiply.  The fast path only pays
off when both operands are long, so dispatch is on the smaller
operand's length.  The Kronecker path turns wide ints into digits
through Decimal and reads digits back in pieces short enough for any
sys.set_int_max_str_digits setting, so it works whatever that limit is.
One decoder turns the slots of a packed product into the decimal text
of each coefficient by string operations alone; the command line
prints that text, and the read-back converts it into ints.

A product of many factors first multiplies groups of short ones at one
point, t = 2^w: each factor of a group becomes one int, the ints
multiply in a balanced tree, and the group's coefficients are read
back from the bits of the one result.  The group products then pair
up on the two paths above.

Every slot width, at t = 10^w and at t = 2^w, comes from one bound:
every coefficient of a product, and its l1 norm, is at most the
product of the factors' l1 norms, so a width from the sum of their l1
bit lengths holds them.  A packed product carries that sum (bits) to
the next multiply, which sizes its slots from it without reading the
digits; for a packed top it bounds the output, n coefficients of under
2^bits each.  Adding a short polynomial to a packed top (_plus, the
wheels' +-(t - 2) term) keeps it packed: the sum's bound is one bit more
than the larger of the two, and the digits add at the width it gives.

Powers of a linear factor, (t - a)^k, come from their binomial row
(linear_power) in O(k) small-integer steps; the closed forms and the
tree and flow algorithms use it instead of repeated squaring, which
costs a full multiply per step.  IntPoly ** stays as the general ring
operation.  The same row less its constant term is the face factor
D_k = ((t - 1)^k - (-1)^k) / t (cycle_quotient) of the wheel and
tree products.

>>> T * T - T
IntPoly((0, -1, 1))
>>> chromatic_tree(3).evaluate(3)
12
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from heapq import heapify, heappop, heappush
from itertools import count, starmap
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InvalidSize, NonExactDivision

# Crossover against the decimal Kronecker path (CPython 3.11 on a 2-core
# Xeon VM, square operands): 32 to 40 coefficients of up to 64 bits, 40
# to 64 coefficients of 200 to 1000 bits.  Below it the packing
# overhead dominates.
FAST_MUL_CUTOFF = 48

# The most bits a group of factors of one product may take packed at
# t = 2^w (_groups, _at_two_power).  Time in products against the
# heap alone, parent and change alternating in one process (CPython
# 3.11, 2-core Xeon VM, the wheel-clique benchmark calls): at 2^13,
# 2^14 and 2^15 the 112-entry wheels took 34%, 45% and 61% less, and
# the 576-vertex clique 13% less, 13% less and 3% more.
_GROUP_BITS = 1 << 14

# Every Decimal operation runs in this context: exact for integers of
# any size, where the default context rounds to 28 digits.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
# The smallest limit sys.set_int_max_str_digits accepts is 640 digits,
# so int(str) and str(int) below that size work under any setting.
_SAFE_DIGITS = 640
_SAFE_BITS = 2000  # 2^2000 < 10^640
_NINES = str.maketrans("0123456789", "9876543210")
_NEXT = dict(zip("012345678", "123456789"))


class IntPoly:
    """Immutable integer polynomial; coeffs[i] is the coefficient of t^i."""

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IntPoly is immutable")

    # -- basics ------------------------------------------------------------

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = IntPoly((other,))
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # A constant, zero included, hashes like the int it equals.
        return hash(self.coeffs) if len(self.coeffs) > 1 else hash(sum(self.coeffs))

    def __repr__(self) -> str:
        return f"IntPoly({self.coeffs!r})"

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _coerce(value: IntPoly | int) -> IntPoly:
        if isinstance(value, IntPoly):
            return value
        if isinstance(value, int):
            return IntPoly((value,))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: IntPoly | int) -> IntPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: IntPoly | int) -> IntPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = list(self.coeffs)
        b = other.coeffs
        if len(out) < len(b):
            out.extend([0] * (len(b) - len(out)))
        for i, c in enumerate(b):
            out[i] -= c
        return IntPoly(out)

    def __rsub__(self, other: int) -> IntPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: IntPoly | int) -> IntPoly:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        if min(len(a), len(b)) < FAST_MUL_CUTOFF:
            return IntPoly(_mul_schoolbook(a, b))
        return IntPoly(_unpack(_merge(self, other)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> IntPoly:
        if n < 0:
            raise InvalidSize(f"negative exponent {n}")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def exact_div(self, divisor: IntPoly | int) -> IntPoly:
        """Quotient self / divisor; raises NonExactDivision on any remainder."""
        divisor = self._coerce(divisor)
        d = divisor.coeffs
        if not d:
            raise NonExactDivision("division by zero polynomial")
        if not self.coeffs:
            return ZERO
        if len(self.coeffs) < len(d):
            raise NonExactDivision("divisor degree exceeds dividend degree")
        num = self.coeffs
        # Divisors here are mostly t^a (t-1)^b; peel those factors in
        # linear passes (slice, then synthetic division at the root 1)
        # instead of quadratic long division.
        shift = 0
        while d[shift] == 0:
            shift += 1
        if shift:
            if any(num[:shift]):
                raise NonExactDivision(f"dividend is not divisible by t^{shift}")
            num = num[shift:]
            d = d[shift:]
        while len(d) > 1 and sum(d) == 0:
            d = _synth_div_at_one(d)
            num = _synth_div_at_one(num)
        if len(d) == 1:
            c = d[0]
            if c in (1, -1):
                return IntPoly(num) if c == 1 else IntPoly(tuple(-a for a in num))
            quot = []
            for a in num:
                q, r = divmod(a, c)
                if r:
                    raise NonExactDivision("coefficient not divisible by constant term")
                quot.append(q)
            return IntPoly(quot)
        rem = list(num)
        lead = d[-1]
        qlen = len(rem) - len(d) + 1
        quot = [0] * qlen
        for k in range(qlen - 1, -1, -1):
            c = rem[k + len(d) - 1]
            if c % lead:
                raise NonExactDivision(f"leading term not divisible at t^{k}")
            qc = c // lead
            quot[k] = qc
            if qc:
                for j, dc in enumerate(d):
                    rem[k + j] -= qc * dc
        if any(rem):
            raise NonExactDivision("nonzero remainder")
        return IntPoly(quot)

    def evaluate(self, x: int) -> int:
        """Horner evaluation at an integer point."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def _synth_div_at_one(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    # One pass of synthetic division by (t - 1); exact or it raises.
    d = len(coeffs) - 1
    if d < 1:
        raise NonExactDivision("constant is not divisible by t - 1")
    q = [0] * d
    q[d - 1] = coeffs[d]
    for i in range(d - 1, 0, -1):
        q[i - 1] = coeffs[i] + q[i]
    if coeffs[0] + q[0]:
        raise NonExactDivision("nonzero remainder at t = 1")
    return tuple(q)


def _mul_schoolbook(a: Sequence[int], b: Sequence[int]) -> list[int]:
    if len(a) > len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if not c:
            continue
        for j, d in enumerate(b):
            out[i + j] += c * d
    return out


def _l1_bits(cs: Sequence[int]) -> int:
    # A b with l1(p) = sum |c| < 2^b, and so every |c| < 2^b.
    return sum(map(abs, cs)).bit_length()


def _width(bits: int) -> int:
    # Slot width w for coefficients |c| < 2^bits: 10^w >= 2^(bits + 1),
    # so every coefficient is a balanced digit, |c| < 10^w / 2.
    return (bits + 1) * 30103 // 100000 + 1


class _Packed(NamedTuple):
    """A Kronecker product kept as text: the sign of sum(c_k 10^(w k)),
    k < n, and the digits of its absolute value zero-filled to n w, one
    w-digit slot per coefficient (read by _slots).  bits bounds the
    product's l1 norm, sum |c_k| < 2^bits, and w = _width(bits); so it
    also bounds the output, n coefficients of under 2^bits each."""

    negative: bool
    digits: str
    w: int
    n: int
    bits: int

    @staticmethod
    def of(value: Decimal, n: int, bits: int) -> _Packed:
        digits = str(value)
        w = _width(bits)
        return _Packed(digits[0] == "-", digits.lstrip("-").zfill(n * w), w, n, bits)

    def at_width(self, w: int) -> Decimal:
        """The same coefficients packed at a slot width w >= self.w."""
        digits = self.digits
        if w > self.w:
            # Padding c's slot to w digits keeps it 10^w + c (less the
            # borrow) when it has leading nines: c < 0 gains nines.
            nines, zeros = "9" * (w - self.w), "0" * (w - self.w)
            slots = [(nines if neg else zeros) + slot for slot, neg in _slots(digits, self.w)]
            slots.reverse()
            digits = "".join(slots)
        value = _EXACT.create_decimal(digits)
        return value.copy_negate() if self.negative else value


def _slots(digits: str, w: int) -> Iterator[tuple[str, bool]]:
    # The w-digit slots of a nonnegative packed value, least significant
    # first, each with whether its coefficient is negative.  With every
    # |c_k| < 10^w / 2, slot k plus the borrow from slot k - 1 is
    # c_k mod 10^w, so c_k < 0 exactly when that sum reaches 10^w / 2;
    # c_k then borrows from slot k + 1.
    half = "5".ljust(w, "0")
    below_half = "4".ljust(w, "9")
    borrow = False
    for end in range(len(digits), 0, -w):
        slot = digits[end - w : end]
        borrow = slot >= half or (borrow and slot == below_half)
        yield slot, borrow


def _decimals(p: _Packed) -> Iterator[str]:
    # str(c_k) for each coefficient, least significant first, by string
    # operations alone.  A slot of c >= 0 reads c less the borrow from
    # the slot below; a slot of c < 0 reads 10^w + c less that borrow,
    # so -c is its nines' complement plus one unless the borrow came
    # in.  An all-nines slot with a borrow in is c = 0, printed "0".
    plus, minus = ("-", "") if p.negative else ("", "-")
    borrow = False
    for slot, below_zero in _slots(p.digits, p.w):
        if below_zero:
            digits = slot.translate(_NINES).lstrip("0")
            sign = minus
            if not borrow:
                digits = _plus_one(digits)
        else:
            digits = slot.lstrip("0")
            sign = plus
            if borrow:
                digits = _plus_one(digits)
        borrow = below_zero
        yield sign + digits if digits else "0"


def _plus_one(digits: str) -> str:
    # The digits of int(digits or "0") + 1, for digits with no leading
    # zero.
    head = digits.rstrip("9")
    if not head:
        return "1" + "0" * len(digits)
    return head[:-1] + _NEXT[head[-1]] + "0" * (len(digits) - len(head))


def _unpack(p: _Packed) -> list[int]:
    powers: dict[int, int] = {}
    out = []
    for s in _decimals(p):
        if len(s) <= _SAFE_DIGITS:
            out.append(int(s))
        elif s[0] == "-":
            out.append(-_digits_to_int(s[1:], powers))
        else:
            out.append(_digits_to_int(s, powers))
    return out


def _pack(cs: Sequence[int], w: int) -> Decimal:
    # sum(c_i 10^(w i)) as an exact Decimal, built from one digit string.
    # With the top nonzero coefficient made positive, the sum is
    # nonnegative: a negative coefficient c fills its slot with
    # 10^w + c, the nines' complement of -1 - c, and borrows one from
    # the slot above.
    negate = next((c < 0 for c in reversed(cs) if c), False)
    slots = []
    borrow = 0
    for c in cs:
        if negate:
            c = -c
        if borrow:
            c -= 1
        if c >= 0:
            slots.append(_digits(c).zfill(w))
            borrow = 0
        else:
            slots.append(_digits(-1 - c).zfill(w).translate(_NINES))
            borrow = 1
    slots.reverse()
    packed = _EXACT.create_decimal("".join(slots))
    return packed.copy_negate() if negate else packed


def _digits(c: int) -> str:
    # str(c) without str(int) on wide values, which
    # sys.set_int_max_str_digits may forbid; Decimal(int) has no limit.
    return str(c) if c.bit_length() <= _SAFE_BITS else str(Decimal(c))


def _digits_to_int(s: str, powers: dict[int, int]) -> int:
    # int(s) in pieces of at most _SAFE_DIGITS digits, joined by
    # multiplying with cached powers of ten.
    n = len(s)
    if n <= _SAFE_DIGITS:
        return int(s)
    low = _SAFE_DIGITS
    while 2 * low < n:
        low *= 2
    scale = powers.get(low)
    if scale is None:
        scale = powers[low] = 10**low
    return _digits_to_int(s[:-low], powers) * scale + _digits_to_int(s[-low:], powers)


ZERO = IntPoly()
ONE = IntPoly((1,))
T = IntPoly((0, 1))


def balanced_product(factors: Iterable[IntPoly]) -> IntPoly:
    """Product of many polynomials.

    Groups of short factors are multiplied first, each evaluated at one
    point t = 2^w with one int per factor; the group products and the
    long factors then pair up, always combining the two smallest.  That
    keeps intermediate degrees balanced so the total multiplication
    work stays near the sum of output sizes rather than quadratic in
    it.  Products on the Kronecker path stay packed until the end, so
    each is widened as digits for the next multiply rather than read
    back into ints and packed again.
    """
    return _read(_product(factors))


def _product(factors: Iterable[IntPoly]) -> IntPoly | _Packed:
    # balanced_product before its read-back: a packed top stays packed,
    # so the CLI can print it from its digits.  Unless the product is
    # too small to gain, groups of short factors are multiplied at one
    # point first (_groups, _at_two_power); the group products then pair
    # up in the heap, smallest first.
    fs = sorted(factors, key=lambda f: len(f.coeffs))
    if len(fs) < 2:
        return fs[0] if fs else ONE
    if not fs[0].coeffs:
        return ZERO
    # Groups pay when multiplying by one factor at a time would take at
    # least 4 coefficient products per coefficient of the result; below
    # that, packing and reading the slots costs more than it saves.
    work, size = 0, 1
    for f in fs:
        work += len(f.coeffs) * size
        size += len(f.coeffs) - 1
    parts = starmap(_at_two_power, _groups(fs)) if work >= 4 * size else fs
    tie = count()
    heap: list[tuple[int, int, IntPoly | _Packed]] = [(len(p.coeffs), next(tie), p) for p in parts]
    heapify(heap)
    while len(heap) > 1:
        n, _, p = heappop(heap)
        m, _, q = heappop(heap)
        if isinstance(p, IntPoly) and isinstance(q, IntPoly) and min(n, m) < FAST_MUL_CUTOFF:
            r: IntPoly | _Packed = p * q
            size = len(r.coeffs)
        else:
            r = _merge(p, q)
            size = r.n
        heappush(heap, (size, next(tie), r))
    return heap[0][2]


def _groups(fs: list[IntPoly]) -> Iterator[tuple[list[IntPoly], int]]:
    # Runs of the nonzero factors fs, sorted by length, each closed
    # before its estimated packing, (degree + 1) x sum of
    # bit_length(l1(f)), would pass _GROUP_BITS; each with that sum.
    group: list[IntPoly] = []
    size, bits = 1, 0
    for f in fs:
        fbits = _l1_bits(f.coeffs)
        if group and (size + len(f.coeffs) - 1) * (bits + fbits) > _GROUP_BITS:
            yield group, bits
            group, size, bits = [], 1, 0
        group.append(f)
        size += len(f.coeffs) - 1
        bits += fbits
    yield group, bits


def _at_two_power(group: list[IntPoly], bits: int) -> IntPoly:
    # The product of nonzero factors by Kronecker substitution at
    # t = 2^w: each factor becomes one int, the ints multiply in a
    # balanced tree, and the slots of the product are read back once.
    # With bits the sum of bit_length(l1(f)), every coefficient has
    # |c| <= l1(product) <= prod l1(f) < 2^bits, and w = bits + 2, so
    # adding 2^(w - 1) to every slot makes each one a nonnegative w-bit
    # digit.  Below the group limit every int here is short, so shifts
    # pack and read it faster than int.to_bytes and int.from_bytes.  A
    # group of one is the factor itself.
    if len(group) == 1:
        return group[0]
    w = bits + 2
    ints = []
    for f in group:
        value = 0
        for c in reversed(f.coeffs):
            value = (value << w) + c
        ints.append(value)
    while len(ints) > 1:
        ints = [a * b for a, b in zip(ints[::2], ints[1::2])] + ints[len(ints) & ~1 :]
    n = sum(len(f.coeffs) for f in group) - len(group) + 1
    half, mask = 1 << (w - 1), (1 << w) - 1
    value = ints[0] + half * (((1 << (n * w)) - 1) // mask)
    return IntPoly([(value >> s & mask) - half for s in range(0, n * w, w)])


def _read(top: IntPoly | _Packed) -> IntPoly:
    return top if isinstance(top, IntPoly) else IntPoly(_unpack(top))


def _plus(top: IntPoly | _Packed, q: IntPoly) -> IntPoly | _Packed:
    # top + q for a q shorter than top; a packed top stays packed.
    # l1(top + q) <= l1(top) + l1(q) < 2^(max of their bounds + 1), so
    # one more bit bounds the sum, and the two add as digits at its width.
    if isinstance(top, IntPoly):
        return top + q
    bits = max(top.bits, _l1_bits(q.coeffs)) + 1
    w = _width(bits)
    return _Packed.of(_EXACT.add(top.at_width(w), _pack(q.coeffs, w)), top.n, bits)


def _merge(p: IntPoly | _Packed, q: IntPoly | _Packed) -> _Packed:
    # Kronecker substitution at t = 10^w: both operands become one signed
    # Decimal each, libmpdec multiplies them with its number-theoretic
    # transform, and the product stays packed.  A packed operand keeps
    # its slot width or is widened as digits, never read back into ints.
    # l1(pq) <= l1(p) l1(q) < 2^(pbits + qbits), so the product carries
    # that sum as its bound; the bound only grows, so a packed operand's
    # width is never above w.
    (n, pbits), (m, qbits) = (
        (x.n, x.bits) if isinstance(x, _Packed) else (len(x.coeffs), _l1_bits(x.coeffs)) for x in (p, q)
    )
    bits = pbits + qbits
    w = _width(bits)
    a, b = (x.at_width(w) if isinstance(x, _Packed) else _pack(x.coeffs, w) for x in (p, q))
    return _Packed.of(_EXACT.multiply(a, b), n + m - 1, bits)


def linear_power(a: int, k: int) -> IntPoly:
    """(t - a)^k from its binomial row, with no polynomial multiply.

    The coefficient of t^(k-j) is C(k, j) (-a)^j; each follows from the
    one before in a small-integer step, so the row costs O(k) steps.
    """
    if k < 0:
        raise InvalidSize(f"negative exponent {k}")
    row = [1]
    c = 1
    for j in range(k):
        c = c * (k - j) // (j + 1) * -a
        row.append(c)
    row.reverse()
    return IntPoly(row)


def cycle_quotient(k: int) -> IntPoly:
    """D_k = ((t - 1)^k - (-1)^k) / t = P(C_(k+1)) / (t (t - 1)).

    It is the binomial row of (t - 1)^k with its constant term dropped,
    so it needs no division.  D_0 = 0, D_1 = 1 and D_2 = t - 2.
    """
    return IntPoly(linear_power(1, k).coeffs[1:])


def _face_factors(runs: list[int]) -> list[IntPoly]:
    # D_(m+1) for each face of m + 2 sides: the m = 1 faces share one
    # (t - 2)^c row, and each longer m is built once.
    faces = {m: cycle_quotient(m + 1) for m in set(runs) if m > 1}
    return [linear_power(2, runs.count(1)), *(faces[m] for m in runs if m > 1)]


def chromatic_complete(n: int) -> IntPoly:
    """Chromatic polynomial of the complete graph: t(t-1)...(t-n+1)."""
    if n < 1:
        raise InvalidSize(f"complete graph needs n >= 1, got {n}")
    return balanced_product(IntPoly((-i, 1)) for i in range(n))


def chromatic_cycle(n: int) -> IntPoly:
    """Chromatic polynomial of the n-cycle: (t-1)^n + (-1)^n (t-1).

    n=1 is a loop (identically zero) and n=2 a parallel pair, so the
    formula is usable for every n >= 1.
    """
    if n < 1:
        raise InvalidSize(f"cycle needs n >= 1, got {n}")
    sign = 1 if n % 2 == 0 else -1
    return linear_power(1, n) + sign * IntPoly((-1, 1))


def chromatic_tree(n: int) -> IntPoly:
    """Chromatic polynomial of any tree on n vertices: t(t-1)^(n-1)."""
    if n < 1:
        raise InvalidSize(f"tree needs n >= 1, got {n}")
    return IntPoly((0, *linear_power(1, n - 1).coeffs))
