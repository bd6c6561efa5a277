"""Hilbert series and Hilbert polynomials of homogeneous ideals.

The series numerator is computed combinatorially from the grevlex
leading-term monomial ideal by recursive pivot splitting; the Hilbert
polynomial, projective dimension, and (for curves) degree and arithmetic
genus are read off the reduced series.  A monomial ideal that grows one
generator at a time keeps its numerator by N(J + (m)) = N(J) -
t^deg(m) N(J : m) (`_numerator_plus`), and `_hilbert_function` reads the
Hilbert function in one degree off a numerator.  `_minimalize` tests
divisibility on packed exponents, one guarded subtraction a pair
(`orders.GUARD`).

With reduced numerator Q(t) = sum_i q_i t^i and dimension D, the Hilbert
polynomial is HP(n) = sum_i q_i binomial(n - i + D, D).  Each
D! binomial(n + s, D) = (n + s)(n + s - 1)...(n + s - D + 1) is an
integer polynomial in n (`_falling_in_n`, cached), so HP is summed in
integers and divided by D! once.

An IdealBasis keeps its HilbertData once known, and `hilbert` is its one
reader: it stores what it reads off the first cached basis, in whatever
order, or off the grevlex basis when nothing is cached.  The maps that
keep the Hilbert function (`initial_ideal`, `transform_ideal`) hand it
on to their results.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .orders import GUARD, GrevlexOrder, pack_exponent


def _minimalize(exps):
    """The minimal exponents among `exps`, by ascending degree, ties in
    the order given: a proper divisor has lower degree, so it is kept
    before any multiple of it is met."""
    out, packed = [], []
    for m in sorted(exps, key=sum):
        p = pack_exponent(m)
        guarded = p | GUARD
        if all((guarded - g) & GUARD != GUARD for g in packed):
            out.append(m)
            packed.append(p)
    return out


def _poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _one_minus_power(d):
    out = [0] * (d + 1)
    out[0] = 1
    out[d] -= 1
    return out


def _poly_add_int(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)]


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _support_size(m):
    return sum(1 for v in m if v)


def _series_numerator(gens):
    """Numerator N(t) with HS_{R/I}(t) = N(t)/(1-t)^arity for monomial gens."""
    gens = _minimalize(gens)
    if not gens:
        return [1]
    if any(sum(m) == 0 for m in gens):
        return [0]
    mixed = [m for m in gens if _support_size(m) > 1]
    if len(mixed) <= 1:
        pure = [m for m in gens if _support_size(m) == 1]
        num = [1]
        for p in pure:
            num = _poly_mul_int(num, _one_minus_power(sum(p)))
        if mixed:
            m = mixed[0]
            quot = [1]
            for p in pure:
                slot = next(i for i, v in enumerate(p) if v)
                # minimality forces m[slot] < p[slot]
                quot = _poly_mul_int(quot, _one_minus_power(p[slot] - m[slot]))
            shifted = [0] * sum(m) + quot
            num = _poly_add_int(num, [-c for c in shifted])
        return _trim(num)
    counts = {}
    for m in mixed:
        for i, v in enumerate(m):
            if v:
                counts[i] = counts.get(i, 0) + 1
    pivot = max(counts, key=lambda i: counts[i])
    left = [m for m in gens if m[pivot] == 0]
    pivot_exp = tuple(1 if i == pivot else 0 for i in range(len(gens[0])))
    left.append(pivot_exp)
    right = [tuple(v - 1 if i == pivot and v else v for i, v in enumerate(m))
             for m in gens]
    n_left = _series_numerator(left)
    n_right = _series_numerator(right)
    return _trim(_poly_add_int(n_left, [0] + n_right))


def _numerator_plus(numerator, gens, m):
    """N(J + (m)) from N(J) for the monomial ideal J generated by `gens`:
    N(J) - t^deg(m) N(J : m), where J : m is generated by the lcm(g, m)/m."""
    colon = _series_numerator(
        [tuple(a - b if a > b else 0 for a, b in zip(g, m)) for g in gens])
    return _trim(_poly_add_int(
        numerator, [0] * sum(m) + [-c for c in colon]))


def _hilbert_function(numerator, arity, n):
    """Coefficient of t^n in N(t)/(1-t)^arity: dim_k (R/I)_n when N is the
    series numerator of R/I."""
    if n < 0:
        return 0
    return sum(numerator[i] * comb(n - i + arity - 1, arity - 1)
               for i in range(min(len(numerator), n + 1)))


def _divide_one_minus_t(coeffs):
    """Exact division by (1 - t); requires the coefficients to sum to zero."""
    if sum(coeffs) != 0:
        raise ValueError("series numerator is not divisible by (1 - t)")
    out = []
    acc = 0
    for c in coeffs[:-1]:
        acc += c
        out.append(acc)
    return out


@dataclass(frozen=True)
class HilbertData:
    """Reduced Hilbert series data of a homogeneous quotient R/I."""

    arity: int
    numerator: tuple          # N(t) coefficients, ascending powers of t
    dimension: int            # projective dimension of V(I); -1 when empty
    hp_coefficients: tuple    # Hilbert polynomial coefficients in n, ascending
    degree: object = None     # int for dimension >= 0
    genus: object = None      # int for dimension == 1

    def hilbert_function(self, n):
        """dim_k (R/I)_n, exact in every degree n."""
        return _hilbert_function(self.numerator, self.arity, n)


@lru_cache(maxsize=None)
def _falling_in_n(shift, k):
    """Coefficients, ascending in n, of k! binomial(n + shift, k), the
    falling product (n + shift)(n + shift - 1)...(n + shift - k + 1)."""
    out = (1,)
    for r in range(k):
        c = shift - r       # multiply by n + c
        out = tuple(a * c + b for a, b in zip(out + (0,), (0,) + out))
    return out


def _hilbert_polynomial(reduced, dimension):
    """Coefficients, ascending in n, of sum_i q_i binomial(n - i + D, D)
    for the reduced numerator q and dimension D >= 0."""
    total = [0] * (dimension + 1)
    for i, q in enumerate(reduced):
        if q:
            for k, c in enumerate(_falling_in_n(dimension - i, dimension)):
                total[k] += q * c
    fact = factorial(dimension)
    return tuple(Fraction(c, fact) for c in total)


def hilbert(ideal_basis):
    """HilbertData of a homogeneous ideal, kept on the IdealBasis once
    known.  It is read off the first cached basis, in whatever order (the
    leads of any order give it, `_hilbert_data`); only when nothing is
    cached is the reduced grevlex basis computed for it."""
    if not ideal_basis.homogeneous:
        raise ValueError("Hilbert data requires a homogeneous ideal")
    if ideal_basis._hilbert is None:
        arity = ideal_basis.ring.arity
        gb = next(iter(ideal_basis._gb_cache.values()), None)
        if gb is None:
            gb = ideal_basis.groebner(GrevlexOrder(arity))
        ideal_basis._hilbert = _hilbert_data(arity, gb.lead_exponents())
    return ideal_basis._hilbert


def _hilbert_data(arity, leads):
    """HilbertData of R/I from the leads of a Groebner basis of I in any
    order: the monomials outside in(I) are a basis of R/I (Macaulay)."""
    numerator = _series_numerator(leads)
    reduced = list(numerator)
    removed = 0
    while reduced and sum(reduced) == 0:
        reduced = _divide_one_minus_t(reduced)
        removed += 1
    if not reduced:
        # unit ideal: the quotient vanishes
        return HilbertData(arity, tuple(numerator), -1, ())
    depth = arity - removed
    dimension = depth - 1
    if depth == 0:
        # Artinian quotient: projectively empty, zero Hilbert polynomial
        return HilbertData(arity, tuple(numerator), -1, ())
    hp = _hilbert_polynomial(reduced, dimension)
    # HP(n) = sum_i q_i binom(n - i + dim, dim): its top coefficient is
    # Q(1) / dim!, and for dim = 1 its constant term is sum_i (1 - i) q_i
    genus = None
    if dimension == 1:
        genus = 1 - sum((1 - i) * q for i, q in enumerate(reduced))
    return HilbertData(arity, tuple(numerator), dimension, hp,
                       sum(reduced), genus)

