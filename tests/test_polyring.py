"""Exact integer polynomial arithmetic tests."""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from heapq import heapify, heappop, heappush
from itertools import count

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chromaflow.polyring as polyring
from chromaflow.errors import InvalidSize, NonExactDivision
from chromaflow.polyring import (
    _GROUP_BITS,
    FAST_MUL_CUTOFF,
    ONE,
    T,
    ZERO,
    IntPoly,
    _decimals,
    _l1_bits,
    _merge,
    _mul_schoolbook,
    _pack,
    _Packed,
    _plus,
    _product,
    _read,
    _unpack,
    _width,
    balanced_product,
    chromatic_complete,
    chromatic_cycle,
    chromatic_tree,
    cycle_quotient,
    linear_power,
)

coeff_lists = st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=30)
SETTINGS = settings(max_examples=200, deadline=None)

TM1 = IntPoly((-1, 1))

# Factors long enough for the Kronecker path: balanced_product keeps
# their products packed and widens them for the next merge.
_rng = random.Random(7)
LONG_FACTORS = [
    [_rng.randint(-(10**k), 10**k) for _ in range(48 + 7 * i)]
    for i, k in enumerate((1, 40, 3, 200, 2))
]

# Coefficients of more than 4300 digits, the default int/str digit limit.
WIDE = [3**9300 - 1, -(7**5300), 1, -(2**15000) - 5]


@contextmanager
def default_int_digit_limit():
    """Run under the interpreter's default int/str digit limit, if it has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_canonical_trailing_zeros_dropped():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly((0, 0)).coeffs == ()
    assert IntPoly(()).is_zero()
    assert IntPoly((0, 1)) == T


def test_degree_and_zero():
    assert ZERO.degree is None
    assert ONE.degree == 0
    assert T.degree == 1
    assert not ZERO
    assert T


def test_add_frozen():
    assert TM1 + ONE == T
    assert IntPoly((3, 5)) + 0 == IntPoly((3, 5))
    assert IntPoly((0, -1, 1)) + IntPoly((0, 1, -1)) == ZERO


def test_mul_frozen():
    assert TM1 * IntPoly((1, 1)) == IntPoly((-1, 0, 1))
    p = IntPoly((2, 0, 7))
    assert p * ONE == p
    assert TM1 * TM1 * TM1 == IntPoly((-1, 3, -3, 1))


def test_pow():
    assert TM1**0 == ONE
    assert TM1**3 == IntPoly((-1, 3, -3, 1))
    assert (T**5).coeffs == (0, 0, 0, 0, 0, 1)
    with pytest.raises(InvalidSize):
        T ** (-1)


@SETTINGS
@given(st.integers(-5, 5), st.integers(0, 300))
def test_linear_power_matches_pow(a, k):
    assert linear_power(a, k) == IntPoly((-a, 1)) ** k
    with pytest.raises(InvalidSize):
        linear_power(a, -1 - k)


def test_cycle_quotient_identities():
    assert cycle_quotient(0) == ZERO and cycle_quotient(1) == ONE
    for k in range(1, 301):
        d = cycle_quotient(k)
        assert T * d == linear_power(1, k) - (-1) ** k
        assert T * TM1 * d == chromatic_cycle(k + 1)


def test_exact_div_frozen():
    num = T * TM1 * TM1  # t(t-1)^2
    assert num.exact_div(T * TM1) == TM1
    assert num.exact_div(1) == num
    with pytest.raises(NonExactDivision):
        IntPoly((1, 0, 1)).exact_div(T)  # (t^2+1)/t leaves remainder 1
    with pytest.raises(NonExactDivision):
        T.exact_div(ZERO)
    assert ZERO.exact_div(T) == ZERO


def test_evaluate():
    p = chromatic_cycle(4)
    assert p.evaluate(2) == 2  # proper 2-colorings of a 4-cycle
    assert IntPoly((7, 1, 1)).evaluate(0) == 7
    assert chromatic_complete(3).evaluate(3) == 6


def test_chromatic_closed_forms():
    assert chromatic_complete(1) == T
    assert chromatic_complete(3) == IntPoly((0, 2, -3, 1))
    assert chromatic_complete(4) == IntPoly((0, -6, 11, -6, 1))
    assert chromatic_cycle(1) == ZERO
    assert chromatic_cycle(2) == IntPoly((0, -1, 1))
    assert chromatic_cycle(4) == IntPoly((0, -3, 6, -4, 1))
    assert chromatic_tree(1) == T
    assert chromatic_tree(2) == IntPoly((0, -1, 1))
    assert chromatic_tree(3) == IntPoly((0, 1, -2, 1))
    for fn in (chromatic_complete, chromatic_cycle, chromatic_tree):
        with pytest.raises(InvalidSize):
            fn(0)


@SETTINGS
@given(coeff_lists, coeff_lists)
@example(WIDE, WIDE[::-1])
def test_mul_commutes_and_matches_paths(a, b):
    p, q = IntPoly(a), IntPoly(b)
    assert p * q == q * p
    if p.coeffs and q.coeffs:
        with default_int_digit_limit():
            fast = _unpack(_merge(p, q))
        assert tuple(fast) == tuple(_mul_schoolbook(p.coeffs, q.coeffs))


@SETTINGS
@given(coeff_lists, coeff_lists, coeff_lists)
def test_mul_associative_distributive(a, b, c):
    p, q, r = IntPoly(a), IntPoly(b), IntPoly(c)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@SETTINGS
@given(coeff_lists, coeff_lists)
def test_exact_div_round_trip(a, b):
    p, q = IntPoly(a), IntPoly(b)
    if q.is_zero():
        return
    assert (p * q).exact_div(q) == p


@SETTINGS
@given(coeff_lists, st.integers(0, 4), st.integers(0, 4))
def test_exact_div_structured_divisors(a, j, k):
    # The sweep divides by t^j (t-1)^k; those take dedicated fast paths.
    q = IntPoly(a)
    d = T**j * TM1**k
    assert (q * d).exact_div(d) == q


def test_mul_paths_agree_at_degree_10k():
    rng = random.Random(99)
    a = [rng.randint(-50, 50) for _ in range(10_001)]
    b = [rng.randint(-50, 50) for _ in range(10_001)]
    assert _unpack(_merge(IntPoly(a), IntPoly(b))) == _mul_schoolbook(a, b)
    assert len(a) >= FAST_MUL_CUTOFF  # the dispatcher picks the fast path here
    prod = IntPoly(a) * IntPoly(b)
    assert prod.degree == 20_000


@SETTINGS
@given(st.lists(coeff_lists, max_size=6))
@example(LONG_FACTORS)
def test_balanced_product_matches_sequential(chunks):
    polys = [IntPoly(c) for c in chunks]
    seq = ONE
    for p in polys:
        seq = seq * p
    assert balanced_product(polys) == seq


def test_balanced_product_empty_is_one():
    assert balanced_product([]) == ONE


def _random_coeffs(rng: random.Random, length: int, bits: int, zeros: float) -> list[int]:
    cs = [0 if rng.random() < zeros else rng.randint(-(2**bits), 2**bits) for _ in range(length)]
    cs[-1] = cs[-1] or rng.choice((-1, 1)) * rng.randint(1, 2**bits)
    return cs


def test_decimals_match_ints():
    # The slot decoder prints what str() prints of the read-back ints
    # and of the schoolbook product: zeros after negative coefficients
    # (an all-nines slot with a borrow in), negative leading
    # coefficients, 1- to 200-bit coefficients and one-slot products.
    rng = random.Random(2026)
    seen = {"zero after negative": 0, "negative": 0, "one slot": 0}
    for i in range(3000):
        bits = rng.randint(1, 200)
        n, m = (1, 1) if i % 10 == 0 else (rng.randint(1, 40), rng.randint(1, 40))
        a = _random_coeffs(rng, n, bits, 0.3)
        b = _random_coeffs(rng, m, rng.randint(1, 200), 0.3)
        packed = _merge(IntPoly(a), IntPoly(b))
        decimals = list(_decimals(packed))
        assert decimals == [str(c) for c in _unpack(packed)]
        expect = _mul_schoolbook(a, b)
        assert decimals == [str(c) for c in expect]
        assert "-0" not in decimals
        # The packed value's own signs: all of them flipped when it is
        # negative.
        sign = -1 if packed.negative else 1
        seen["zero after negative"] += any(sign * x < 0 and y == 0 for x, y in zip(expect, expect[1:]))
        seen["negative"] += packed.negative
        seen["one slot"] += packed.n == 1
    assert min(seen.values()) >= 100, seen


def test_decimals_zero_slot_after_borrow():
    # (-5, 0, 15): slot 1 reads all nines with the borrow of slot 0.
    packed = _merge(IntPoly((5,)), IntPoly((-1, 0, 3)))
    w = packed.w
    assert packed.digits[w : 2 * w] == "9" * w
    assert list(_decimals(packed)) == ["-5", "0", "15"]
    negated = _merge(IntPoly((-5,)), IntPoly((-1, 0, 3)))
    assert negated.negative
    assert list(_decimals(negated)) == ["5", "0", "-15"]


@pytest.mark.parametrize("factors", [LONG_FACTORS, [[2, -1]] * 3, [[7]]])
def test_product_read_back_and_shift(factors):
    polys = [IntPoly(c) for c in factors]
    top = _product(polys)
    assert isinstance(top, _Packed) == (factors is LONG_FACTORS)
    assert _read(top) == balanced_product(polys)
    assert _read(_product([T, *polys])) == T * balanced_product(polys)


def _heap_product(factors):
    # _product as it was before short factors were grouped: the heap
    # alone, pair by pair, schoolbook below the cutoff and _merge above.
    tie = count()
    heap = [(len(p.coeffs), next(tie), p) for p in factors]
    if not heap:
        return ONE
    heapify(heap)
    while len(heap) > 1:
        n, _, p = heappop(heap)
        m, _, q = heappop(heap)
        if isinstance(p, IntPoly) and isinstance(q, IntPoly) and min(n, m) < FAST_MUL_CUTOFF:
            r = p * q
            size = len(r.coeffs)
        else:
            r = _merge(p, q)
            size = r.n
        heappush(heap, (size, next(tie), r))
    return heap[0][2]


def _check_product(polys):
    seq = [1]
    for p in polys:
        seq = _mul_schoolbook(seq, p.coeffs)
    expect = IntPoly(seq)
    assert _read(_product(polys)) == expect
    assert _read(_heap_product(polys)) == expect
    assert _read(_product([T, *polys])) == T * balanced_product(polys) == T * expect


def _one_sign_factor(seed: int, length: int, bits: int, negative: bool) -> IntPoly:
    # Coefficients of one sign, so that l1 of the product is the product
    # of the factors' l1 and the slot width bound is tight.
    rng = random.Random(seed)
    cs = [rng.randint(0, 2**bits) for _ in range(length)]
    cs[-1] = cs[-1] or 1
    return IntPoly([-c for c in cs] if negative else cs)


factor_specs = st.tuples(
    st.integers(0, 2**32), st.integers(1, 60), st.integers(0, 300), st.booleans()
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.one_of(
            factor_specs.map(lambda spec: _one_sign_factor(*spec)),
            st.sampled_from([ONE, -ONE, ZERO]),
        ),
        max_size=40,
    )
)
@example([])
@example([ZERO])
@example([_one_sign_factor(1, 60, 300, True)])
@example([-ONE, ONE, _one_sign_factor(2, 1, 300, False)])
def test_grouped_product_matches_heap_and_sequential(polys):
    _check_product(polys)
    top = _product(polys)
    if len(polys) == 1:
        assert top is polys[0]
    if ZERO in polys:
        assert top is ZERO


@pytest.mark.parametrize("over", [0, 1])
def test_group_closes_past_the_limit(monkeypatch, over):
    # Seven linear factors pack into (7 + 1) x sum of bit lengths bits:
    # exactly _GROUP_BITS makes one group, one bit more closes the group
    # before the last factor.
    total = _GROUP_BITS // 8 + over
    bits = [total // 7] * 6
    bits.append(total - sum(bits))
    polys = [IntPoly((2**b - 2, 1)) for b in bits]
    assert sum(sum(p.coeffs).bit_length() for p in polys) == total
    groups = []
    at_two_power = polyring._at_two_power

    def record(group, group_bits):
        groups.append(len(group))
        return at_two_power(group, group_bits)

    _check_product(polys)
    monkeypatch.setattr(polyring, "_at_two_power", record)
    _product(polys)
    assert groups == ([7] if over == 0 else [6, 1])


@pytest.mark.parametrize("k, negate", [(16, False), (64, True), (300, False)])
def test_merge_chain_at_the_edge_of_its_bound(k, negate):
    # Factors of one sign with l1 = 2^k - 1 and a dominant constant
    # term: after two levels of carried bounds the product's constant
    # term is within a factor 2 of 2^bits, so a slot one digit narrower,
    # or a bound a few bits short, cannot hold it.
    f = IntPoly((2**k - 48, *[1] * 47))
    p, q, r, s = -f if negate else f, f, f, f
    top = _merge(_merge(p, q), _merge(r, s))
    expect = _mul_schoolbook(_mul_schoolbook(p.coeffs, q.coeffs), _mul_schoolbook(f.coeffs, f.coeffs))
    assert 2 * abs(expect[0]) >= 1 << top.bits
    assert top.w == _width(top.bits)
    assert _unpack(top) == expect
    assert list(_decimals(top)) == [str(c) for c in expect]


def _check_plus(top, q):
    expect = IntPoly(_unpack(top)) + q
    total = _plus(top, q)
    assert isinstance(total, _Packed) and total.n == top.n
    assert total.bits == max(top.bits, _l1_bits(q.coeffs)) + 1 and total.w == _width(total.bits)
    assert list(_decimals(total)) == [str(c) for c in expect.coeffs]
    assert _unpack(total) == list(expect.coeffs)
    assert _plus(_read(top), q) == expect


def test_plus_keeps_a_packed_top_packed():
    # q flips the sign of slot 0 or 1, zeroes it, or is wider than the
    # top's bound; the borrows of the packed sum must come out right.
    rng = random.Random(28)
    seen = {"flipped": 0, "zeroed": 0, "wider": 0}
    for i in range(900):
        a = _random_coeffs(rng, rng.randint(2, 60), rng.randint(1, 120), 0.3)
        b = _random_coeffs(rng, rng.randint(2, 60), rng.randint(1, 120), 0.3)
        top = _merge(IntPoly(a), IntPoly(b))
        cs = _unpack(top)
        k = rng.randrange(2)
        q = [rng.randint(-3, 3), rng.randint(-3, 3)]
        kind = list(seen)[i % 3]
        if kind == "flipped" and cs[k]:
            q[k] = -2 * cs[k]
        elif kind == "zeroed" and cs[k]:
            q[k] = -cs[k]
        elif kind == "wider":
            q[k] = rng.choice((-1, 1)) * 2 ** (top.bits + rng.randint(0, 40))
        else:
            continue
        if not any(q):
            continue
        _check_plus(top, IntPoly(q))
        seen[kind] += 1
    assert min(seen.values()) >= 150, seen


@pytest.mark.parametrize("negate", [False, True])
def test_plus_widens_a_top_at_the_edge_of_its_width(negate):
    # A bound b with _width(b + 1) > _width(b): the constant terms of the
    # top and of q, each under 2^b, sum past half of 10^_width(b), so
    # only the sum's extra bit of bound gives it a wide enough slot.
    b = next(b for b in range(100, 200) if _width(b + 1) > _width(b))
    sign = -1 if negate else 1
    cs = [sign * (2**b - 2), *[0] * 50, 1]
    top = _Packed.of(_pack(cs, _width(b)), len(cs), b)
    q = IntPoly((sign * (2**b - 2), 1))
    assert _l1_bits(cs) == _l1_bits(q.coeffs) == b
    assert 2 * abs(cs[0] + q.coeffs[0]) >= 10 ** _width(b)
    _check_plus(top, q)


@SETTINGS
@given(coeff_lists, st.integers(-6, 6))
def test_evaluate_is_ring_hom(a, x):
    p = IntPoly(a)
    q = p * TM1 + ONE
    assert q.evaluate(x) == p.evaluate(x) * (x - 1) + 1


def test_int_coercion_and_hash():
    assert T * 2 == IntPoly((0, 2))
    assert 2 * T == IntPoly((0, 2))
    assert T - 1 == TM1
    assert 1 - T == IntPoly((1, -1))
    assert hash(IntPoly((0, 1))) == hash(T)
    assert IntPoly((5,)) == 5
    assert ZERO == 0
    # Constants, zero included, hash like the int they equal.
    for c in (5, -3, 0, 2**100):
        assert hash(IntPoly((c,))) == hash(c)
        assert {c: "x"}.get(IntPoly((c,))) == "x"
    assert {0: "zero"}[ZERO] == "zero"
    assert len({IntPoly((5,)), 5, ZERO, 0}) == 2


def test_non_int_operands_raise():
    for other in (2.5, "a"):
        with pytest.raises(TypeError):
            other - T
        with pytest.raises(TypeError):
            T - other


def test_immutability():
    with pytest.raises(AttributeError):
        T.coeffs = (1,)
