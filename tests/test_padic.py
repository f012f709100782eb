import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from iwahori.padic import (
    INF,
    DomainError,
    ScalarRing,
    UnitError,
    padic_exp,
    padic_log,
    vp_int,
)

Zp = ScalarRing(7, 1, 12)
E4 = ScalarRing(7, 4, 48)


def rational_series_mod(terms, p, k):
    """Oracle: evaluate a finite sum of Fractions modulo p**k by clearing
    the prime-to-p denominator exactly."""
    total = sum(terms, Fraction(0))
    den = total.denominator
    assert den % p != 0
    mod = p ** k
    return (total.numerator * pow(den, -1, mod)) % mod


def _vp_by_division(n, p):
    """Reference valuation: divide by p one step at a time."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_vp_int_table(p):
    rng = random.Random(p)
    cases = []
    # random ints from a few bits to thousands, with a random power of p on
    # top, and their negatives
    for bits in (8, 40, 63, 64, 65, 100, 1000, 3000):
        for _ in range(40):
            n = rng.getrandbits(bits) + 1
            n *= p ** rng.choice((0, 1, rng.randrange(40), rng.randrange(600)))
            cases += [n, -n]
    # exact powers p^(2^k), one on either side, and units times them
    for k in range(11):
        for e in (2 ** k - 1, 2 ** k, 2 ** k + 1):
            for unit in (1, -1, p - 1, p + 1, 2 * p ** 2 + 1):
                cases.append(unit * p ** e)
    for n in cases:
        assert vp_int(n, p) == _vp_by_division(n, p), (p, n)
    assert any(abs(n) < 1 << 64 for n in cases) and any(abs(n) >= 1 << 64 for n in cases)
    assert vp_int(0, p) is INF


def test_val_normalisation():
    assert Zp.from_int(7).val() == 1
    assert E4.uniformizer().val() == Fraction(1, 4)
    assert (E4.uniformizer() ** 4).val() == 1
    assert E4.uniformizer() ** 4 == E4.from_int(7)


def test_val_digit_inspection_oracle():
    # 7^2 + 7^3 has lowest nonzero digit at position 2.
    x = Zp.from_int(7 ** 2 + 7 ** 3)
    assert x.digits()[:4] == [0, 0, 1, 1]
    assert x.val() == 2


def test_val_markers():
    assert Zp.zero().val() is INF
    capped = Zp.from_int(7 ** 12)  # nonzero but beyond precision
    assert capped.val() is None
    assert capped.val_cap() == 12


def test_ring_ops_basics():
    x = Zp.from_int(1 + 7)
    assert x.inv() * x == Zp.one()
    with pytest.raises(UnitError):
        Zp.from_int(7).inv()
    with pytest.raises(UnitError):
        Zp.from_fraction(Fraction(1, 7))


def test_shift_division_accounting():
    x = Zp.from_int(49)
    y = x.shift(-2)
    assert y == Zp.from_int(1)
    assert y.prec == 10  # two digits spent
    with pytest.raises(Exception):
        Zp.from_int(3).shift(-1)


def test_extension_mul_matches_polynomial_reduction():
    # (1 + pi)*(2 + pi^3) in Z_7[pi]/(pi^4 - 7), computed by hand:
    # 2 + 2 pi^3 ... wait, expand: 2 + pi^3 + 2 pi + pi^4 = (2 + 7) + 2 pi + pi^3.
    a = E4.canonical((1, 1, 0, 0), 48)
    b = E4.canonical((2, 0, 0, 1), 48)
    expected = E4.canonical((9, 2, 0, 1), 48)
    assert a * b == expected


def test_exp_trivial_and_leading_term():
    assert padic_exp(Zp.zero()) == Zp.one()
    e = padic_exp(Zp.from_int(7))
    assert (e - Zp.one()).val() == 1


def test_exp_addition_series_oracle():
    # exp(7)*exp(7) = exp(14) at N=12, against the rational series oracle.
    e1 = padic_exp(Zp.from_int(7))
    e2 = padic_exp(Zp.from_int(14))
    assert e1 * e1 == e2
    n = 20
    oracle = rational_series_mod(
        [Fraction(14 ** k, math.factorial(k)) for k in range(n)], 7, 12)
    assert e2.co[0] == oracle


def test_log_linearity_series_oracle():
    u = Zp.from_int(8)
    assert padic_log(Zp.one()) == Zp.zero()
    assert padic_log(u * u) == 2 * padic_log(u)
    n = 20
    oracle = rational_series_mod(
        [Fraction((-1) ** (k - 1) * 7 ** k, k) for k in range(1, n)], 7, 12)
    assert padic_log(u).co[0] == oracle


def test_exp_log_round_trips():
    u = Zp.from_int(8)
    assert padic_exp(padic_log(u)) == u
    x = Zp.from_int(3 * 7)
    assert padic_log(padic_exp(x)) == x
    # same over the ramified extension, where val(pi^5) = 5/4 > 1/6
    y = E4.uniformizer() ** 5
    assert padic_log(padic_exp(y)) == y


def test_exp_domain_gate():
    with pytest.raises(DomainError):
        padic_exp(Zp.from_int(3))
    with pytest.raises(DomainError):
        padic_log(Zp.from_int(2))
    # val = 1/4 <= 1/6 is false: 1/4 > 1/6, so pi itself is fine for p=7
    padic_exp(E4.uniformizer())
    with pytest.raises(DomainError):
        padic_exp(ScalarRing(5, 4, 20).uniformizer())  # 1/4 <= 1/(5-1)


def test_digit_string_encoding():
    x = Zp.from_int(3 + 2 * 7 + 7 ** 3)
    assert x.digit_string() == "3 + 2*p + p^3 + O(p^12)"
    assert Zp.zero().digit_string() == "0"
    pi = E4.uniformizer()
    assert pi.digit_string().startswith("pi + ")


small_ints = st.integers(min_value=-7 ** 10, max_value=7 ** 10)


@settings(max_examples=150, deadline=None)
@given(small_ints, small_ints)
def test_val_ultrametric(a, b):
    x, y = Zp.from_int(a), Zp.from_int(b)
    vx, vy, vs = x.val(), y.val(), (x + y).val()
    vp = (x * y).val()
    if vx is not None and vy is not None and vx is not INF and vy is not INF:
        if vx + vy < 12:
            assert vp == vx + vy
        lo = min(vx, vy)
        if vs is not None:
            assert vs >= lo
        if vx != vy:
            assert vs == lo


@settings(max_examples=100, deadline=None)
@given(small_ints, small_ints, small_ints)
def test_ring_associativity(a, b, c):
    x, y, z = (Zp.from_int(t) for t in (a, b, c))
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=7 ** 6))
def test_exp_log_inverse_on_domain(k):
    x = Zp.from_int(7 * k)
    if x.val() is INF:
        return
    assert padic_log(padic_exp(x)) == x


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-7 ** 5, max_value=7 ** 5), st.integers(min_value=-7 ** 5, max_value=7 ** 5))
def test_exp_is_additive(a, b):
    x, y = Zp.from_int(7 * a), Zp.from_int(7 * b)
    assert padic_exp(x) * padic_exp(y) == padic_exp(x + y)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=7 ** 6), st.integers(min_value=0, max_value=7 ** 6),
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_extension_ultrametric(a, b, i, j):
    # valuation laws hold in the ramified extension as well
    x = E4.from_int(a) * E4.uniformizer() ** i
    y = E4.from_int(b) * E4.uniformizer() ** j
    vx, vy = x.val(), y.val()
    if vx in (None, INF) or vy in (None, INF):
        return
    if vx + vy < 12:
        assert (x * y).val() == vx + vy
    if vx != vy:
        assert (x + y).val() == min(vx, vy)
