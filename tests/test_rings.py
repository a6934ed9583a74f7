import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from steenrod_kit import documents
from steenrod_kit.cli import EXIT_INPUT, EXIT_OK, main
from steenrod_kit.rings import F2, F3, F5, PRIME_BOUND, QQ, Ring, ZZ, _is_prime


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


CIRCLE = str(Path(documents.__file__).parent / "corpus" / "circle.json")


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_primality_agrees_with_trial_division_below_ten_thousand():
    assert [n for n in range(10**4) if _is_prime(n)] == [n for n in range(10**4) if _trial_division(n)]


def test_a_large_prime_characteristic_is_answered_at_once(capsys):
    assert main(["homology", "--input", CIRCLE, "--ring", "f1000000000000000003", "--json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["homology"]
    assert [r["group"] for r in rows] == ["F1000000000000000003^1"] * 2


@pytest.mark.parametrize("p", [561, 3215031751])  # Carmichael; strong pseudoprime to the bases 2, 3, 5 and 7
def test_a_pseudoprime_characteristic_is_refused(p, capsys):
    assert main(["homology", "--input", CIRCLE, "--ring", f"f{p}"]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: PrimeField characteristic must be prime, got {p}\n"


@pytest.mark.parametrize("p", [PRIME_BOUND, 2**89 - 1])  # the bound and a Mersenne prime above it
def test_a_characteristic_above_the_bound_is_an_input_error(p, capsys):
    assert main(["homology", "--input", CIRCLE, "--ring", f"f{p}"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"error: PrimeField characteristic must be below {PRIME_BOUND}, got {p}\n"
