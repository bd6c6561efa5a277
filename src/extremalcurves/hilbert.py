"""Hilbert series and Hilbert polynomials of homogeneous ideals.

The series numerator is computed combinatorially from the grevlex
leading-term monomial ideal by recursive pivot splitting; the Hilbert
polynomial, projective dimension, and (for curves) degree and arithmetic
genus are read off the reduced series.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .orders import GrevlexOrder, exp_degree


def _minimalize(exps):
    out = []
    for m in sorted(exps, key=exp_degree):
        if all(any(g[i] > m[i] for i in range(len(m))) for g in out):
            out.append(m)
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
    if any(exp_degree(m) == 0 for m in gens):
        return [0]
    mixed = [m for m in gens if _support_size(m) > 1]
    if len(mixed) <= 1:
        pure = [m for m in gens if _support_size(m) == 1]
        num = [1]
        for p in pure:
            num = _poly_mul_int(num, _one_minus_power(exp_degree(p)))
        if mixed:
            m = mixed[0]
            quot = [1]
            for p in pure:
                slot = next(i for i, v in enumerate(p) if v)
                # minimality forces m[slot] < p[slot]
                quot = _poly_mul_int(quot, _one_minus_power(p[slot] - m[slot]))
            shifted = [0] * exp_degree(m) + quot
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
        if n < 0:
            return 0
        a = self.arity
        return sum(self.numerator[i] * comb(n - i + a - 1, a - 1)
                   for i in range(min(len(self.numerator), n + 1)))

    def hp_value(self, n):
        value = sum(c * Fraction(n) ** k
                    for k, c in enumerate(self.hp_coefficients))
        if value.denominator != 1:
            raise AssertionError("Hilbert polynomial value is not integral")
        return int(value)


def _binomial_in_n(shift, k):
    """Coefficients of binomial(n + shift, k) as a polynomial in n."""
    num = [Fraction(1)]
    for r in range(k):
        # multiply by (n + shift - r)
        term = [Fraction(shift - r), Fraction(1)]
        out = [Fraction(0)] * (len(num) + 1)
        for i, c in enumerate(num):
            out[i] += c * term[0]
            out[i + 1] += c * term[1]
        num = out
    fact = 1
    for r in range(1, k + 1):
        fact *= r
    return [c / fact for c in num]


def hilbert(ideal_basis):
    """HilbertData of a homogeneous ideal."""
    if not ideal_basis.homogeneous:
        raise ValueError("Hilbert data requires a homogeneous ideal")
    arity = ideal_basis.ring.arity
    gb = ideal_basis.groebner(GrevlexOrder(arity))
    numerator = _series_numerator(gb.lead_exponents())
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
    hp = [Fraction(0)] * depth
    for i, q in enumerate(reduced):
        if q:
            part = _binomial_in_n(depth - 1 - i, depth - 1)
            for k, c in enumerate(part):
                hp[k] += q * c
    degree = genus = None
    if dimension >= 0:
        lead = hp[dimension]
        fact = 1
        for r in range(1, dimension + 1):
            fact *= r
        deg_frac = lead * fact
        if deg_frac.denominator != 1 or deg_frac <= 0:
            raise AssertionError("degree extraction failed")
        degree = int(deg_frac)
    if dimension == 1:
        const = hp[0]
        if const.denominator != 1:
            raise AssertionError("genus extraction failed")
        genus = 1 - int(const)
    return HilbertData(arity, tuple(numerator), dimension, tuple(hp),
                       degree, genus)

