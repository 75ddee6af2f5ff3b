"""Exact arithmetic in Q(w), w a primitive third root of unity (w^2+w+1 = 0).

Values are a + b*w with exact rational a, b.  Complex conjugation sends w to
w^2 = -1-w, and the squared modulus a^2 - a*b + b^2 is a rational that
vanishes only at zero, so equalities are exact, never to a tolerance.

This is the value type of ``CharTable.entry`` and of ``idempotents``; the
character-table identities themselves run on Z[w] integer arrays.
"""

from __future__ import annotations

from fractions import Fraction

_Rat = (int, Fraction)


class Eisenstein:
    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, *_):
        raise AttributeError("Eisenstein values are immutable")

    def __repr__(self):
        return f"Eisenstein({self.a}, {self.b})"

    def __str__(self):
        return render(self)

    def __eq__(self, other):
        if isinstance(other, _Rat):
            other = Eisenstein(other)
        if not isinstance(other, Eisenstein):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):  # a rational value hashes as the rational it equals
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __add__(self, other):
        if isinstance(other, _Rat):
            other = Eisenstein(other)
        if not isinstance(other, Eisenstein):
            return NotImplemented
        return Eisenstein(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return Eisenstein(-self.a, -self.b)

    def __sub__(self, other):
        if isinstance(other, _Rat):
            other = Eisenstein(other)
        if not isinstance(other, Eisenstein):
            return NotImplemented
        return Eisenstein(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _Rat):
            return Eisenstein(self.a * other, self.b * other)
        if not isinstance(other, Eisenstein):
            return NotImplemented
        # (a + b w)(c + d w) with w^2 = -1 - w
        a, b, c, d = self.a, self.b, other.a, other.b
        return Eisenstein(a * c - b * d, a * d + b * c - b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _Rat):
            other = Eisenstein(other)
        if not isinstance(other, Eisenstein):
            return NotImplemented
        n = other.abs_square()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(w)")
        num = self * other.conj()
        return Eisenstein(num.a / n, num.b / n)

    def __rtruediv__(self, other):
        return Eisenstein(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return Eisenstein(1) / self ** (-e)
        result = Eisenstein(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conj(self) -> "Eisenstein":
        return Eisenstein(self.a - self.b, -self.b)

    def abs_square(self) -> Fraction:
        return self.a * self.a - self.a * self.b + self.b * self.b

    def is_rational(self) -> bool:
        return self.b == 0

    def as_rational(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is not rational")
        return self.a


OMEGA = Eisenstein(0, 1)


def _rat_str(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def render(x: Eisenstein) -> str:
    """Canonical text form "a+b*w" with exact rational components."""
    sep, b = ("-", -x.b) if x.b < 0 else ("+", x.b)
    return f"{_rat_str(x.a)}{sep}{_rat_str(b)}*w"
