from fractions import Fraction

import pytest

from steenrod_kit.rings import F2, F3, F5, QQ, Ring, ZZ


def test_from_name():
    assert Ring.from_name("z") == ZZ
    assert Ring.from_name("q") == QQ
    assert Ring.from_name("f2") == F2
    assert Ring.from_name("F5") == F5
    with pytest.raises(ValueError):
        Ring.from_name("gf4")
    with pytest.raises(ValueError):
        Ring.from_name("f4")  # not prime


def test_integer_arithmetic():
    assert ZZ.add(2, 3) == 5
    assert ZZ.mul(-2, 3) == -6
    assert ZZ.neg(7) == -7
    assert ZZ.inv(-1) == -1
    with pytest.raises(ZeroDivisionError):
        ZZ.inv(2)
    with pytest.raises(ValueError):
        ZZ.coerce(Fraction(1, 2))


def test_prime_field_arithmetic():
    assert F3.coerce(-1) == 2
    assert F3.add(2, 2) == 1
    assert F3.inv(2) == 2
    assert F5.inv(3) == 2
    assert F2.is_zero(4)
    assert F3.coerce(Fraction(1, 2)) == 2  # 2⁻¹ = 2 mod 3


def test_rational_arithmetic():
    half = QQ.coerce(Fraction(1, 2))
    assert QQ.add(half, half) == 1
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.zero == 0
    # a whole rational is an int; only a division that leaves one makes a Fraction
    assert type(QQ.one) is int and type(QQ.coerce(Fraction(4, 2))) is int
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction and type(QQ.inv(-1)) is int


def test_predicates():
    assert not ZZ.is_field and QQ.is_field and F2.is_field
    assert ZZ.characteristic == 0 and QQ.characteristic == 0
    assert F5.characteristic == 5
