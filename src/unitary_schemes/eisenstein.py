"""The value type of ``idempotents`` and the text of Q(w), w a primitive
third root of unity (w^2 + w + 1 = 0).

Every other Q(w) value of the package is an integer pair (A, B) of A + B w
in Z[w], or an array of them (``chartable``).  An ``Eisenstein`` value is
the immutable pair (a, b) of exact rationals of a + b w, equal to another
exactly when both parts are; its one operation is the product in Q(w).
"""

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True, slots=True)
class Eisenstein:
    a: Fraction
    b: Fraction

    def __iter__(self):
        return iter((self.a, self.b))

    def __mul__(self, other):
        if not isinstance(other, Eisenstein):
            return NotImplemented
        # (a + b w)(c + d w) with w^2 = -1 - w
        a, b, c, d = self.a, self.b, other.a, other.b
        return Eisenstein(a * c - b * d, a * d + b * c - b * d)

    __rmul__ = __mul__

    def __str__(self):
        return render(self)


def render(x) -> str:
    """The text "a+b*w" or "a-b*w" of a value or an integer pair (a, b), a
    part that is not an integer written n/d in lowest terms."""
    a, b = x
    return f"{a}{'-' if b < 0 else '+'}{abs(b)}*w"
