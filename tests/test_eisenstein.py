import random
from fractions import Fraction

import pytest

from unitary_schemes.eisenstein import OMEGA, Eisenstein, render


def rnd(rng):
    return Eisenstein(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                      Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def test_omega_relations():
    assert OMEGA * OMEGA == Eisenstein(-1, -1)
    assert OMEGA * OMEGA.conj() == 1
    assert 1 + OMEGA + OMEGA.conj() == 0
    assert OMEGA**3 == 1
    assert OMEGA.conj() == Eisenstein(-1, -1)


def test_conjugation():
    rng = random.Random(3)
    assert OMEGA.conj() == OMEGA * OMEGA
    assert Eisenstein(Fraction(5, 7)).conj() == Eisenstein(Fraction(5, 7))
    for _ in range(100):
        x, y = rnd(rng), rnd(rng)
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()


def test_abs_square():
    assert (2 * OMEGA).abs_square() == 4
    assert (-4 * OMEGA.conj()).abs_square() == 16
    assert Eisenstein(0).abs_square() == 0
    rng = random.Random(5)
    for _ in range(100):
        x, y = rnd(rng), rnd(rng)
        assert (x * y).abs_square() == x.abs_square() * y.abs_square()
        assert x.abs_square() >= 0
        assert (x.abs_square() == 0) == (x == 0)


def test_field_axioms():
    rng = random.Random(9)
    for _ in range(100):
        x, y, z = rnd(rng), rnd(rng), rnd(rng)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        if y != 0:
            assert (x / y) * y == x
            assert y * (1 / y) == 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        OMEGA / Eisenstein(0)


def test_rational_coercion():
    assert Eisenstein(3) + 2 == 5
    assert 2 - Eisenstein(3) == -1
    assert Fraction(1, 2) * Eisenstein(2, 4) == Eisenstein(1, 2)
    assert Eisenstein(1, 2).is_rational() is False
    assert Eisenstein(7).as_rational() == 7
    with pytest.raises(ValueError):
        OMEGA.as_rational()


def test_powers():
    rng = random.Random(13)
    for _ in range(30):
        x = rnd(rng)
        assert x**0 == 1
        assert x**3 == x * x * x
        if x != 0:
            assert x**-2 == 1 / (x * x)


def test_render():
    assert render(OMEGA) == "0+1*w"
    assert render(Eisenstein(1)) == "1+0*w"
    assert render(Eisenstein(Fraction(-1, 2), Fraction(3, 4))) == "-1/2+3/4*w"
    assert render(Eisenstein(0, -4)) == "0-4*w"


def test_immutability_and_hash():
    x = Eisenstein(1, 2)
    with pytest.raises(AttributeError):
        x.a = 5
    assert hash(Eisenstein(1, 2)) == hash(Eisenstein(1, 2))
    assert len({Eisenstein(1, 2), Eisenstein(1, 2), OMEGA}) == 2


def test_rational_values_hash_like_the_rationals_they_equal():
    for value in (1, -4, 0, Fraction(5, 7), Fraction(-1, 2)):
        assert Eisenstein(value) == value
        assert hash(Eisenstein(value)) == hash(value)
        assert len({Eisenstein(value), value}) == 1
    assert {Eisenstein(2): "k"}[2] == "k"
    assert len({Eisenstein(1), 1, Fraction(1), Eisenstein(1, 0)}) == 1
