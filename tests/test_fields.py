from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chaincomm.fields import (
    GF2,
    MAX_RATIONAL_DIGITS,
    PRIMALITY_BOUND,
    RATIONALS,
    PrimeField,
    Rationals,
    exceeds_digit_cap,
    is_prime,
    render,
)
from chaincomm.matrices import Matrix

Q = RATIONALS
F5 = PrimeField(5)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)
f5_elements = st.integers(min_value=0, max_value=4)


def test_prime_validation():
    for p in (2, 3, 5, 7, 97):
        assert PrimeField(p).modulus == p
    for bad in (0, 1, 4, 6, 9, -3):
        with pytest.raises(ValueError):
            PrimeField(bad)
    assert is_prime(2) and is_prime(13) and not is_prime(1) and not is_prime(15)


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_agrees_with_trial_division_below_1e5():
    assert all(is_prime(n) == trial_division_is_prime(n) for n in range(-3, 10**5))


def test_is_prime_rejects_strong_pseudoprimes_and_accepts_large_primes():
    # strong pseudoprimes to the bases 2..7 and 2..23 respectively
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    # strong pseudoprime to every base 2..37 (= 399165290221 * 798330580441), below the bound
    assert not is_prime(318665857834031151167461)
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) ** 2) and not is_prime(561)
    assert PrimeField(2**61 - 1).modulus == 2**61 - 1


def test_moduli_at_the_primality_bound_are_refused():
    with pytest.raises(ValueError):
        is_prime(PRIMALITY_BOUND)
    with pytest.raises(ValueError):
        PrimeField(PRIMALITY_BOUND)
    with pytest.raises(ValueError):
        PrimeField(True)


def test_normalization_is_canonical():
    assert Q.normalize(2) == Fraction(2)
    assert isinstance(Q.normalize(2), Fraction)
    assert F5.normalize(7) == 2
    assert F5.normalize(-1) == 4
    with pytest.raises(TypeError):
        Q.normalize(0.5)
    with pytest.raises(TypeError):
        F5.normalize(True)


@pytest.mark.parametrize("field", [Q, GF2, PrimeField(101)], ids=["Q", "F2", "F101"])
def test_bool_entries_are_refused_over_every_field(field):
    for flag in (True, False):
        with pytest.raises(TypeError):
            field.normalize(flag)
    with pytest.raises(TypeError):
        Matrix(field, 1, 2, [True, False])
    assert Matrix(field, 1, 2, [1, 0]).entries == (field.one, field.zero)


def test_field_equality():
    assert Rationals() == Rationals()
    assert PrimeField(3) == PrimeField(3)
    assert PrimeField(3) != PrimeField(5)
    assert Rationals() != PrimeField(2)


def test_inverses():
    assert Q.mul(Q.invert(Fraction(3, 2)), Fraction(3, 2)) == Q.one
    for a in range(1, 5):
        assert F5.mul(F5.invert(a), a) == F5.one
    with pytest.raises(ZeroDivisionError):
        F5.invert(0)
    with pytest.raises(ZeroDivisionError):
        Q.invert(Fraction(0))


def test_elements_enumeration():
    assert list(GF2.elements()) == [0, 1]
    assert list(F5.elements()) == [0, 1, 2, 3, 4]
    with pytest.raises(TypeError):
        list(Q.elements())


def test_alternating_sign_parity():
    assert Q.alternating_sign(-2) == Q.one
    assert Q.alternating_sign(-1) == Q.neg(Q.one)
    assert GF2.alternating_sign(3) == 1  # -1 == 1 in characteristic 2


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert Q.add(Q.add(a, b), c) == Q.add(a, Q.add(b, c))
    assert Q.mul(Q.mul(a, b), c) == Q.mul(a, Q.mul(b, c))
    assert Q.mul(a, Q.add(b, c)) == Q.add(Q.mul(a, b), Q.mul(a, c))
    assert Q.add(a, Q.neg(a)) == Q.zero
    if a != 0:
        assert Q.mul(a, Q.invert(a)) == Q.one


@given(f5_elements, f5_elements, f5_elements)
def test_prime_field_axioms(a, b, c):
    assert F5.add(F5.add(a, b), c) == F5.add(a, F5.add(b, c))
    assert F5.mul(F5.mul(a, b), c) == F5.mul(a, F5.mul(b, c))
    assert F5.mul(a, F5.add(b, c)) == F5.add(F5.mul(a, b), F5.mul(a, c))
    assert F5.add(a, F5.neg(a)) == F5.zero
    if a != 0:
        assert F5.mul(a, F5.invert(a)) == F5.one


def test_digit_cap_is_judged_without_printing():
    cap = 10**MAX_RATIONAL_DIGITS  # the least integer with one digit too many
    widest = 2 ** (cap.bit_length() - 1)  # as many bits as cap, but 4000 digits
    for fits in (Fraction(cap - 1), Fraction(-(cap - 1)), Fraction(1, cap - 1), Fraction(widest), 2**61 - 1):
        assert not exceeds_digit_cap(fits)
    for too_long in (Fraction(cap), Fraction(-cap), Fraction(1, cap), Fraction(cap + 1, 3)):
        assert exceeds_digit_cap(too_long)
    assert render(Fraction(-3, 2)) == "-3/2" and render(5) == "5"
    assert render(Fraction(-1, cap)) == f"<too long to print: 1-bit numerator, {cap.bit_length()}-bit denominator>"
