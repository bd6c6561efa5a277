"""Exact coefficient arithmetic over prime fields and the rationals.

A field object carries the context; elements are plain Python values
(int residues in [0, p) for PrimeField, fractions.Fraction for
RationalField).  Keeping elements unboxed keeps the Groebner kernel fast:
it may add and multiply elements with plain + - * and bring the result
back with `reduce` once, instead of calling a field method per operation.
Values from different contexts must never be mixed; the polynomial and
ideal layers raise ContextMismatchError when contexts disagree.
"""

from fractions import Fraction

DEFAULT_MODULUS = 32003


class ContextMismatchError(ValueError):
    """Raised when values from different field or ring contexts are combined."""


def _is_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin, valid far beyond word-sized moduli
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Arithmetic modulo a prime p; elements are int residues in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p=DEFAULT_MODULUS):
        if not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    @property
    def characteristic(self):
        return self.p

    zero = 0
    one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def reduce(self, a):
        """Canonical residue of an unreduced int, as built by lazy sums of
        products in the Groebner kernel."""
        return a % self.p

    def inv(self, a):
        """Inverse by extended Euclid."""
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        lo, hi = a, self.p
        lm, hm = 1, 0
        while lo > 1:
            q = hi // lo
            lm, hm = hm - lm * q, lm
            lo, hi = hi - lo * q, lo
        return lm % self.p

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a == 0

    def coerce(self, x):
        """Map an int or Fraction into the field."""
        if isinstance(x, bool):
            raise TypeError("bool is not a field element")
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(
                    f"denominator of {x} vanishes modulo {self.p}")
            return self.div(x.numerator % self.p, x.denominator % self.p)
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    def sign_split(self, a):
        """(is_negative, magnitude string) using the symmetric representative."""
        a %= self.p
        if a > self.p - a:
            return True, str(self.p - a)
        return False, str(a)

    def random_element(self, rng):
        return rng.randrange(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class RationalField:
    """The field of rationals; elements are fractions.Fraction values.

    Fraction keeps every value in lowest terms with positive denominator,
    so canonical form is automatic.
    """

    __slots__ = ()

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def reduce(self, a):
        """Fractions are always in lowest terms: the identity."""
        return a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero field element")
        return a / b

    def is_zero(self, a):
        return a == 0

    def coerce(self, x):
        if isinstance(x, bool):
            raise TypeError("bool is not a field element")
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into QQ")

    def sign_split(self, a):
        if a < 0:
            return True, str(-a)
        return False, str(a)

    def random_element(self, rng):
        # small integers keep coefficient growth tame in exact runs
        return Fraction(rng.randint(-9, 9))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


def field_of_characteristic(c):
    """Field for a CLI-style characteristic argument: 0 gives QQ, p gives GF(p)."""
    return QQ if c == 0 else PrimeField(c)

