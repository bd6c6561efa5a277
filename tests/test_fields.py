import random
from fractions import Fraction

import pytest

from extremalcurves import QQ, PrimeField, field_of_characteristic


def test_scalar_arith_small_integers():
    gf = PrimeField(32003)
    assert gf.add(5, 7) == 12
    assert gf.sub(5, 7) == 32001
    assert gf.mul(5, 7) == 35


def test_scalar_arith_fractions():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.sub(Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 6)
    assert QQ.mul(Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 6)


def test_scalar_arith_modular_product_matches_bigint_oracle():
    gf = PrimeField(32003)
    expected = (16001 * 2) % 32003
    assert gf.mul(16001, 2) == expected
    rng = random.Random(11)
    for _ in range(100):
        a, b = rng.randrange(32003), rng.randrange(32003)
        assert gf.mul(a, b) == (a * b) % 32003


def test_scalar_inverse_examples():
    gf = PrimeField(32003)
    assert gf.inv(2) == 16002
    assert gf.mul(2, 16002) == 1
    assert gf.inv(1) == 1
    assert QQ.inv(Fraction(1)) == 1
    assert QQ.inv(Fraction(3, 4)) == Fraction(4, 3)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        PrimeField(7).inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_thousand_random_inverses():
    gf = PrimeField(32003)
    rng = random.Random(2024)
    for _ in range(1000):
        a = rng.randrange(1, 32003)
        assert gf.mul(a, gf.inv(a)) == 1


def test_field_axioms_randomized():
    rng = random.Random(7)
    gf = PrimeField(32003)
    for _ in range(200):
        a, b, c = (gf.random_element(rng) for _ in range(3))
        assert gf.add(gf.add(a, b), c) == gf.add(a, gf.add(b, c))
        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
        assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
    for _ in range(200):
        a, b, c = (QQ.random_element(rng) for _ in range(3))
        assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))


def test_rational_canonical_form():
    a = QQ.add(Fraction(2, 4), Fraction(1, 6))
    # 1/2 + 1/6 = 2/3 in lowest terms with positive denominator
    assert a.numerator == 2 and a.denominator == 3
    b = QQ.div(Fraction(1), Fraction(-2))
    assert b.denominator > 0 and b.numerator == -1


def test_modulus_must_be_prime():
    with pytest.raises(ValueError):
        PrimeField(32004)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_coerce_rejects_bad_denominator():
    gf = PrimeField(7)
    with pytest.raises(ZeroDivisionError):
        gf.coerce(Fraction(1, 7))


def test_field_context_identity():
    assert PrimeField(7) != PrimeField(32003)
    assert PrimeField(7) == PrimeField(7)
    assert QQ == field_of_characteristic(0)
    assert field_of_characteristic(32003) == PrimeField(32003)


def test_sign_split_symmetric_representative():
    gf = PrimeField(32003)
    assert gf.sign_split(32002) == (True, "1")
    assert gf.sign_split(5) == (False, "5")
