"""Multivariate polynomials with exact coefficients and canonical term order.

A PolyRing fixes the field, the number of active variables (out of the
five fixed slots x y z w t) and a monomial order.  Polynomials store their
terms as a tuple sorted strictly descending in that order, with no zero
coefficients; that canonical form makes equality a tuple comparison and
lets reduced Groebner bases be compared term by term.

`Polynomial.from_dict` is the one place that brings coefficients back to
canonical form: it applies `field.reduce` to each value and drops those
that vanish.  Arithmetic that ends in it (sums, products, linear
substitution, the parser) therefore adds and multiplies coefficients with
plain + and *, with no field-method call per term; linear substitution
also reduces each monomial's image once, as it builds it.

BinaryForm holds a homogeneous form in two variables (z, w by default),
the currency of the monoid-surface constructions.
"""

import re
from functools import lru_cache

from .fields import ContextMismatchError
from .orders import (CAPACITY, EXP_LIMIT, MAX_ARITY, SLOT_BITS, VAR_NAMES,
                     ZERO_EXP, GrevlexOrder, exp_from_var,
                     exp_mul, exp_supported_within, exponent_limit_error,
                     pack_exponent, term_key, unpack_exponent)
from . import linalg


class ParseError(ValueError):
    """Raised for malformed polynomial or ideal-file text."""


class PolyRing:
    """Polynomial ring context: field, active arity, monomial order."""

    __slots__ = ("field", "arity", "order")

    def __init__(self, field, arity, order=None):
        if not 1 <= arity <= MAX_ARITY:
            raise ValueError(f"arity {arity} out of range")
        if order is None:
            order = GrevlexOrder(arity)
        if order.arity != arity:
            raise ContextMismatchError("order arity differs from ring arity")
        self.field = field
        self.arity = arity
        self.order = order

    def var_names(self):
        return VAR_NAMES[:self.arity]

    def zero(self):
        return Polynomial(self, ())

    def one(self):
        return Polynomial(self, ((ZERO_EXP, self.field.one),))

    def gen(self, index):
        if not 0 <= index < self.arity:
            raise ValueError(f"generator index {index} out of range")
        return Polynomial(self, ((exp_from_var(index), self.field.one),))

    def gens(self):
        return tuple(self.gen(i) for i in range(self.arity))

    def monomial(self, exponent, coeff=None):
        exponent = tuple(exponent)
        if len(exponent) != CAPACITY:
            raise ValueError("exponent has wrong capacity")
        if any(v < 0 for v in exponent):
            raise ValueError("negative exponent")
        if not exp_supported_within(exponent, self.arity):
            raise ContextMismatchError("exponent outside ring arity")
        c = self.field.one if coeff is None else self.field.coerce(coeff)
        if self.field.is_zero(c):
            return self.zero()
        return Polynomial(self, ((exponent, c),))

    def with_order(self, order):
        if order == self.order:
            return self
        return PolyRing(self.field, self.arity, order)

    def extended(self, arity):
        """Same field with more active slots, default grevlex order."""
        if arity < self.arity:
            raise ValueError("extension cannot shrink the ring")
        return PolyRing(self.field, arity)

    def __eq__(self, other):
        return (isinstance(other, PolyRing) and other.field == self.field
                and other.arity == self.arity and other.order == self.order)

    def __hash__(self):
        return hash((self.field, self.arity, self.order))

    def __repr__(self):
        names = ",".join(self.var_names())
        return f"PolyRing({self.field!r}[{names}], {self.order!r})"


def _check_same_ring(a, b):
    if a.ring != b.ring:
        raise ContextMismatchError(
            f"operands live in different rings: {a.ring!r} vs {b.ring!r}")


class Polynomial:
    """Immutable polynomial; terms sorted strictly descending in the ring order."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    @classmethod
    def from_dict(cls, ring, coeffs):
        """Polynomial from an exponent -> coefficient dict whose values may
        be unreduced sums and products of field elements.

        Terms are sorted by `orders.term_key`, an int key unless some
        slot passes EXP_LIMIT.
        """
        items = [(e, c) for e, c in zip(coeffs, map(ring.field.reduce,
                                                    coeffs.values())) if c]
        items.sort(key=term_key(ring.order, coeffs), reverse=True)
        return cls(ring, tuple(items))

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def lead_exponent(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][0]

    @property
    def lead_coefficient(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0][1]

    @property
    def degree(self):
        """Total degree in the standard grading."""
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(sum(e) for e, _ in self.terms)

    @property
    def is_homogeneous(self):
        if not self.terms:
            return True
        degs = {sum(e) for e, _ in self.terms}
        return len(degs) == 1

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __neg__(self):
        neg = self.ring.field.neg
        return Polynomial(self.ring, tuple((e, neg(c)) for e, c in self.terms))

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        _check_same_ring(self, other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return Polynomial.from_dict(self.ring, acc)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.__add__(-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        _check_same_ring(self, other)
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = exp_mul(e1, e2)
                acc[e] = acc.get(e, 0) + c1 * c2
        return Polynomial.from_dict(self.ring, acc)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, n):
        """n-th power: a single term's exponent scaled by n, any other
        polynomial by square-and-multiply."""
        if n < 0:
            raise ValueError("negative power")
        if len(self.terms) == 1:
            (e, c), = self.terms
            return Polynomial(self.ring, ((tuple(n * k for k in e),
                                           self.ring.field.reduce(c ** n)),))
        out, base = self.ring.one(), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def scale(self, value):
        field = self.ring.field
        c = field.coerce(value)
        if field.is_zero(c):
            return self.ring.zero()
        return Polynomial(self.ring,
                          tuple((e, field.mul(c, v)) for e, v in self.terms))

    def monic(self):
        if not self.terms:
            return self
        lc = self.terms[0][1]
        if lc == self.ring.field.one:
            return self
        return self.scale(self.ring.field.inv(lc))

    def in_ring(self, ring):
        """Reinterpret in a compatible ring (same field, enough arity)."""
        if ring == self.ring:
            return self
        if ring.field != self.ring.field:
            raise ContextMismatchError("cannot move between different fields")
        for e, _ in self.terms:
            if not exp_supported_within(e, ring.arity):
                raise ContextMismatchError(
                    "polynomial uses variables outside the target ring")
        return Polynomial.from_dict(ring, dict(self.terms))

    def substitute_linear(self, matrix):
        """Replace each variable by its row image under an invertible matrix.

        The matrix is arity x arity over the coefficient field; entry
        (i, j) is the coefficient of variable j in the image of variable i.
        Within one call the image of each monomial is expanded once: it is
        the image of the monomial with one less power of its first
        variable, times that variable's row.  Images are dicts keyed by
        packed exponents (`orders.pack_exponent`), so a monomial product
        is one int addition, and each image's coefficients are reduced
        once.  Each term's image, scaled by its coefficient, is summed
        unreduced into one dict that is sorted once, at the end.  No slot
        of an image exceeds its monomial's total degree, so a term of total
        degree past EXP_LIMIT raises ValueError before any expansion.
        """
        ring = self.ring
        n = ring.arity
        field = ring.field
        rows = [[field.coerce(matrix[i][j]) for j in range(n)] for i in range(n)]
        linalg.mat_inverse(field, rows)  # raises ValueError when singular
        top = max((sum(e) for e, _ in self.terms), default=0)
        if top > EXP_LIMIT:
            raise exponent_limit_error(top)
        reduce = field.reduce
        row_images = [{1 << (SLOT_BITS * j): c for j, c in enumerate(row) if c}
                      for row in rows]
        images = {0: {0: field.one}}
        acc = {}
        for e, c in self.terms:
            key = m = pack_exponent(e)
            chain = []
            while m not in images:      # peel the first variable
                i = ((m & -m).bit_length() - 1) // SLOT_BITS
                chain.append((m, i))
                m -= 1 << (SLOT_BITS * i)
            for m, i in reversed(chain):
                prev = images[m - (1 << (SLOT_BITS * i))]
                out = {}
                for q, r in row_images[i].items():
                    for p, v in prev.items():
                        k = p + q
                        out[k] = out.get(k, 0) + v * r
                images[m] = {p: v for p, v in zip(out, map(reduce, out.values()))
                             if v}
            for p, v in images[key].items():
                acc[p] = acc.get(p, 0) + c * v
        return Polynomial.from_dict(
            ring, {unpack_exponent(p): v for p, v in acc.items()})

    def __str__(self):
        return _terms_to_string(self.ring.field, self.terms)

    def __repr__(self):
        return f"<{self}>"


# ---------------------------------------------------------------------------
# text grammar: integer or a/b coefficients, variables x y z w t,
# optional '*', '^' powers, e.g.  x*w^3 - y^3*z + 2*z^4
#
# Text in the printed form, the one `Polynomial.__str__` writes, is read
# with one match a term (`_read_printed`): terms joined by " + " or " - ",
# the first perhaps led by '-'; a term is a bare c or a/b, or an optional
# c* or a/b* and then the ring's letters in slot order, each at most
# once, each with an optional ^k, joined by '*' (or by nothing, which the
# general grammar reads the same way).  Such text is text of the general
# grammar too, with the same meaning, so that reader only saves time.
# Any other text, and a fraction whose denominator vanishes, goes to the
# general reader, `_read_general`, which names the error if there is one.
#
# _TERM matches one whole signed term of the general grammar: an optional
# sign, then factors joined by whitespace or '*', each a number with an
# optional /denominator or a letter with an optional ^power; whitespace
# may separate any two tokens.  _FACTORS.findall splits the term into
# (number, denominator, letter, power) tuples.  Where a match stops
# short, the error is named from the token it stopped at.
# ---------------------------------------------------------------------------

_FACTOR = r"(?:\d+(?:\s*/\s*\d+)?|[A-Za-z](?:\s*\^\s*\d+)?)"
_TERM = re.compile(rf"\s*([+-]?)\s*({_FACTOR}(?:\s*\*?\s*{_FACTOR})*)\s*")
_FACTORS = re.compile(r"(\d+)(?:\s*/\s*(\d+))?|([A-Za-z])(?:\s*\^\s*(\d+))?")
_TOKEN = re.compile(r"\s*(\d+|\S)?")
# a printed letter's power from its group: None when the letter is
# absent, "" when it is bare, "^k" for k; int() reads one outside the table
_POWERS = {None: 0, "": 1, **{f"^{k}": k for k in range(256)}}


@lru_cache(maxsize=None)
def _printed_term(arity):
    """(regex, its power groups, zero padding) of one printed-form term,
    with the separator before it, in a ring of the given arity.

    The groups are the text's leading '-', the sign of a " + " or " - "
    separator, the numerator, the denominator, then one power a letter.
    A term starts with a digit or a letter, and a '*' is taken only with
    the letter after it, so no term starts or ends with '*'; a '*' left
    out between two factors means the same in the general grammar."""
    letters = "".join(VAR_NAMES[:arity])
    powers = "".join(rf"(?:\*?{v}(\^[0-9]+|))?" for v in letters)
    regex = re.compile(rf"(?:^(-?)| ([+-]) )(?=[0-9{letters}])"
                       rf"(?:([0-9]+)(?:/([0-9]+))?)?{powers}")
    return regex, tuple(range(5, 5 + arity)), ZERO_EXP[arity:]


def _read_printed(ring, text):
    """Exponent -> unreduced coefficient sums of text in the printed form,
    or None for any other text."""
    term, slots, pad = _printed_term(ring.arity)
    field = ring.field
    one = field.one
    power = _POWERS.__getitem__
    total = {}
    pos, end = 0, len(text)
    while True:
        m = term.match(text, pos)
        if m is None:
            return None
        lead, sign, num, den = m.group(1, 2, 3, 4)
        if num is None:
            coeff = one
        elif den is None:
            coeff = one * int(num)
        else:
            try:
                coeff = field.div(field.coerce(int(num)),
                                  field.coerce(int(den)))
            except ZeroDivisionError:
                return None
        powers = m.group(*slots)
        try:
            exp = tuple(map(power, powers)) + pad
        except KeyError:
            exp = tuple(0 if p is None else int(p[1:]) if p else 1
                        for p in powers) + pad
        total[exp] = total.get(exp, 0) + (-coeff if (lead or sign) == "-"
                                          else coeff)
        pos = m.end()
        if pos == end:
            return total


def _missing_term(text, pos):
    """ParseError for text in which no term starts at pos."""
    m = _TOKEN.match(text, pos)
    if m.group(1) in ("+", "-"):
        m = _TOKEN.match(text, m.end())
    tok = m.group(1)
    if tok is None:
        if not text.strip():
            return ParseError("empty polynomial")
        return ParseError("unexpected end of polynomial")
    if tok.isalpha():
        return ParseError(f"unknown variable {tok!r}")
    return ParseError(f"unexpected token {tok!r}")


def _after_term(text, pos, last):
    """ParseError for the token at pos, which ends a term without being a
    sign; `last` is the term's final (number, denominator, letter, power)."""
    tok = text[pos]
    if tok == "*":
        nxt = _TOKEN.match(text, pos + 1).group(1)
        if nxt is not None and nxt.isalpha():
            return ParseError(f"unknown variable {nxt!r}")
        return ParseError("dangling '*'")
    if tok == "/" and last[0] and not last[1]:
        return ParseError("malformed fraction coefficient")
    if tok == "^" and last[2] and not last[3]:
        return ParseError("malformed exponent")
    if tok.isalpha():
        return ParseError(f"unknown variable {tok!r}")
    return ParseError(f"expected '+' or '-', found {tok!r}")


def parse_polynomial(ring, text):
    """Parse the polynomial grammar into a canonical Polynomial."""
    total = _read_printed(ring, text)
    if total is None:
        total = _read_general(ring, text)
    return Polynomial.from_dict(ring, total)


def _read_general(ring, text):
    """Exponent -> unreduced coefficient sums of text in the general
    grammar; ParseError names the first token that does not fit."""
    field = ring.field
    names = {name: i for i, name in enumerate(ring.var_names())}
    total = {}
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        if m is None:
            raise _missing_term(text, pos)
        sign, body = m.groups()
        exp = [0] * CAPACITY
        coeff = field.one
        factors = _FACTORS.findall(body)
        for num, den, var, power in factors:
            if var:
                slot = names.get(var)
                if slot is None:
                    raise ParseError(f"unknown variable {var!r}")
                exp[slot] += int(power) if power else 1
            elif den:
                if int(den) == 0:
                    raise ParseError("malformed fraction coefficient")
                coeff = coeff * field.div(field.coerce(int(num)),
                                          field.coerce(int(den)))
            else:
                coeff = coeff * int(num)
        exp = tuple(exp)
        total[exp] = total.get(exp, 0) + (-coeff if sign == "-" else coeff)
        pos = m.end()
        if pos == len(text):
            break
        if text[pos] not in "+-":
            raise _after_term(text, pos, factors[-1])
    return total


def _monomial_string(e):
    parts = []
    for i in range(MAX_ARITY):
        if e[i] == 1:
            parts.append(VAR_NAMES[i])
        elif e[i] > 1:
            parts.append(f"{VAR_NAMES[i]}^{e[i]}")
    return "*".join(parts)


def _terms_to_string(field, terms):
    """Text of (exponent, nonzero coefficient) terms in the order given."""
    if not terms:
        return "0"
    pieces = []
    for idx, (e, c) in enumerate(terms):
        neg, mag = field.sign_split(c)
        mono = _monomial_string(e)
        if not mono:
            body = mag
        elif mag == "1":
            body = mono
        else:
            body = f"{mag}*{mono}"
        if idx == 0:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# binary forms
# ---------------------------------------------------------------------------

class BinaryForm:
    """Homogeneous form of fixed degree in two variables (z, w by default).

    Coefficients c_0..c_m encode sum(c_i * z^(m-i) * w^i); the all-zero
    vector is the zero form of that formal degree.
    """

    __slots__ = ("field", "degree", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = tuple(field.coerce(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a binary form needs at least one coefficient")
        self.field = field
        self.degree = len(coeffs) - 1
        self.coeffs = coeffs

    @classmethod
    def monomial(cls, field, degree, w_power, coeff=1):
        if degree < 0:
            raise ValueError(f"form degree {degree} is negative")
        if not 0 <= w_power <= degree:
            raise ValueError(f"w power {w_power} lies outside [0, {degree}]")
        coeffs = [field.zero] * (degree + 1)
        coeffs[w_power] = field.coerce(coeff)
        return cls(field, coeffs)

    @classmethod
    def random(cls, field, degree, rng):
        """Random nonzero form of the given degree."""
        while True:
            coeffs = [field.random_element(rng) for _ in range(degree + 1)]
            form = cls(field, coeffs)
            if not form.is_zero:
                return form

    @property
    def is_zero(self):
        return all(self.field.is_zero(c) for c in self.coeffs)

    def to_polynomial(self, ring):
        """The form as a polynomial in the ring's z and w."""
        m = self.degree
        acc = {(0, 0, m - i, i) + ZERO_EXP[4:]: c
               for i, c in enumerate(self.coeffs)}
        return Polynomial.from_dict(ring, acc)

    def evaluate(self, z_value, w_value):
        field = self.field
        z0, w0 = field.coerce(z_value), field.coerce(w_value)
        acc = field.zero
        m = self.degree
        for i, c in enumerate(self.coeffs):
            term = c
            for _ in range(m - i):
                term = field.mul(term, z0)
            for _ in range(i):
                term = field.mul(term, w0)
            acc = field.add(acc, term)
        return acc

    def dehomogenized(self):
        """Coefficients of f(z) = F(z, 1), ascending in z, trimmed."""
        m = self.degree
        out = [self.coeffs[m - k] for k in range(m + 1)]
        while out and self.field.is_zero(out[-1]):
            out.pop()
        return out

    def __eq__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return (self.field == other.field and self.degree == other.degree
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.degree, self.coeffs))

    def __str__(self):
        # z^(m-i)*w^i descends in grevlex as i ascends, so the terms are
        # already in the order `to_polynomial` would sort them into
        m = self.degree
        return _terms_to_string(self.field, [
            ((0, 0, m - i, i) + ZERO_EXP[4:], c)
            for i, c in enumerate(self.coeffs) if c])

    def __repr__(self):
        return f"BinaryForm({self})"


def _univariate_gcd(field, a, b):
    """Euclid on ascending coefficient lists; returns a trimmed list.

    Reduction is lazy: each step of a mod b reduces only a's lead, the
    coefficient it divides by b's, and updates the others with plain -
    and *; the remainder is reduced once, when the roles swap."""
    reduce = field.reduce

    def trimmed(v):
        v = [reduce(c) for c in v]
        while v and not v[-1]:
            v.pop()
        return v

    a, b = trimmed(a), trimmed(b)
    while b:
        inv_lead = field.inv(b[-1])
        tail = b[:-1]
        while len(a) > len(tail):
            factor = reduce(a.pop() * inv_lead)
            if factor:
                for i, c in enumerate(tail, len(a) - len(tail)):
                    a[i] -= factor * c
        a, b = b, trimmed(a)
    return a


def binary_forms_coprime(f, g, *more):
    """True when two or more nonzero binary forms share no projective zero.

    Checks the gcd of the dehomogenizations and the common root at the
    point where the second variable vanishes; for two forms this is
    equivalent to a nonzero Sylvester resultant.
    """
    forms = (f, g) + more
    if not all(isinstance(h, BinaryForm) for h in forms):
        raise TypeError("binary forms expected")
    field = f.field
    if any(h.field != field for h in forms):
        raise ContextMismatchError("forms live over different fields")
    if any(h.is_zero for h in forms):
        raise ValueError("coprimality is undefined for the zero form")
    dehomogenized = [h.dehomogenized() for h in forms]
    # all divisible by the second variable: common zero at (1, 0)
    if all(len(dh) <= h.degree for dh, h in zip(dehomogenized, forms)):
        return False
    gcd = dehomogenized[0]
    for dh in dehomogenized[1:]:
        gcd = _univariate_gcd(field, gcd, dh)
    return len(gcd) <= 1
