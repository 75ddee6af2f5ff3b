import random
from fractions import Fraction

import pytest

from unitary_schemes.eisenstein import Eisenstein, render

W = Eisenstein(0, 1)
WB = Eisenstein(-1, -1)  # w^2 = -1 - w, the conjugate of w
ONE = Eisenstein(1, 0)


def rnd(rng):
    return Eisenstein(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                      Fraction(rng.randint(-9, 9), rng.randint(1, 9)))


def test_omega_relations():
    assert W * W == WB
    assert W * WB == ONE
    assert W * W * W == ONE
    assert WB * WB == W


def test_field_axioms():
    """The axioms of Q(w) that the product alone states: associative,
    commutative, with the unit 1 and an inverse of every nonzero value,
    (a - b - b w) / (a^2 - a b + b^2) computed here."""
    rng = random.Random(9)
    for _ in range(100):
        x, y, z = rnd(rng), rnd(rng), rnd(rng)
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * ONE == x
        a, b = x
        norm = a * a - a * b + b * b
        if norm:
            assert x * Eisenstein((a - b) / norm, -b / norm) == ONE


def test_product_refuses_other_operands():
    with pytest.raises(TypeError):
        W * 2
    with pytest.raises(TypeError):
        Fraction(1, 2) * W
    with pytest.raises(TypeError):
        W + W


def test_render():
    assert render(W) == "0+1*w"
    assert render(Eisenstein(1, 0)) == "1+0*w"
    assert render(Eisenstein(Fraction(-1, 2), Fraction(3, 4))) == "-1/2+3/4*w"
    assert render(Eisenstein(0, -4)) == "0-4*w"
    assert render(Eisenstein(Fraction(6, 3), Fraction(-4, 8))) == "2-1/2*w"
    assert str(Eisenstein(Fraction(7, 18), Fraction(1, 6))) == "7/18+1/6*w"
    # integer pairs, as documents spell their entries
    assert render((-2**80, -2**70)) == f"-{2**80}-{2**70}*w"
    assert render((5, 0)) == "5+0*w"


def test_immutability_and_hash():
    x = Eisenstein(1, 2)
    with pytest.raises(AttributeError):
        x.a = 5
    assert hash(Eisenstein(1, 2)) == hash(Eisenstein(1, 2))
    assert len({Eisenstein(1, 2), Eisenstein(1, 2), W}) == 2


def test_equality_is_part_by_part():
    assert Eisenstein(Fraction(2, 4), 1) == Eisenstein(Fraction(1, 2), Fraction(1))
    assert Eisenstein(1, 2) != Eisenstein(2, 1)
    assert Eisenstein(1, 0) != 1
    assert Eisenstein(1, 2) != (1, 2)
    assert tuple(Eisenstein(1, 2)) == (1, 2)
