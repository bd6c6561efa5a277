import random
from math import factorial

from hypothesis import given, settings, strategies as st

from extremalcurves import PrimeField, curve_ring, hilbert, ideal
from extremalcurves.groebner import GrevlexOrder, IdealBasis
from extremalcurves.hilbert import (_hilbert_function, _numerator_plus,
                                    _series_numerator, _trim)
from extremalcurves.orders import CAPACITY

import oracles
from test_groebner import (extremal_40_ideal, random_homogeneous_ideal,
                           twisted_cubic_ideal)


def _counted_dims(basis, upto):
    """Standard-monomial enumeration oracle, degree by degree."""
    lead = basis.groebner(GrevlexOrder(basis.ring.arity)).lead_exponents()
    return [oracles.standard_monomial_count(lead, basis.ring.arity, n)
            for n in range(upto + 1)]


def test_twisted_cubic_polynomial(ring):
    basis = twisted_cubic_ideal(ring)
    hd = hilbert(basis)
    assert hd.dimension == 1
    assert (hd.degree, hd.genus) == (3, 0)
    counted = _counted_dims(basis, 6)
    # fit the line through the tail and compare with direct counts
    for n, value in enumerate(counted):
        assert hd.hilbert_function(n) == value
        if n >= 1:
            assert value == 3 * n + 1


def test_plane_has_dimension_two(ring):
    hd = hilbert(ideal(ring.gen(0)))
    assert hd.dimension == 2
    assert hd.degree == 1
    for n in range(6):
        assert hd.hp_value(n) == (n + 2) * (n + 1) // 2
        assert hd.hilbert_function(n) == (n + 2) * (n + 1) // 2


def test_extremal_40_polynomial(ring):
    basis = extremal_40_ideal(ring)
    hd = hilbert(basis)
    assert (hd.dimension, hd.degree, hd.genus) == (1, 4, 0)
    for n, value in enumerate(_counted_dims(basis, 8)):
        assert hd.hilbert_function(n) == value
        if n >= 3:
            assert value == 4 * n + 1


def test_unit_ideal_zero_polynomial(ring):
    hd = hilbert(ideal(ring.one()))
    assert hd.dimension == -1
    assert hd.hp_coefficients == ()


def test_zero_dimensional_length(ring):
    x, y, w = ring.gen(0), ring.gen(1), ring.gen(3)
    hd = hilbert(ideal(x, y, w ** 3))
    assert hd.dimension == 0
    assert hd.degree == 3


def test_zero_ideal_full_polynomial_ring(ring):
    basis = IdealBasis(ring, ())
    hd = hilbert(basis)
    assert hd.dimension == 3
    for n in range(5):
        assert hd.hilbert_function(n) == len(oracles.monomials(4, n))


def test_numerator_expansion_matches_enumeration(ring):
    rng = random.Random(71)
    for _ in range(8):
        basis = random_homogeneous_ideal(ring, rng)
        hd = hilbert(basis)
        upto = len(hd.numerator) + 1
        counted = _counted_dims(basis, upto)
        for n in range(upto + 1):
            assert hd.hilbert_function(n) == counted[n]


def test_degree_positive_for_curves(ring):
    rng = random.Random(73)
    seen_curve = False
    for _ in range(10):
        basis = random_homogeneous_ideal(ring, rng)
        hd = hilbert(basis)
        if hd.dimension == 1:
            seen_curve = True
            assert hd.degree >= 1
    assert seen_curve


# monomials of x, y, z, w with exponents up to 3, the constant among them
_MONOMIALS = st.tuples(*[st.integers(0, 3)] * 4).map(
    lambda e: e + (0,) * (CAPACITY - 4))


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(_MONOMIALS, min_size=1, max_size=9))
def test_numerator_grows_one_monomial_at_a_time(sequence):
    numerator, gens = [1], []
    for m in sequence:
        numerator = _numerator_plus(numerator, gens, m)
        gens.append(m)
        assert numerator == _trim(list(_series_numerator(gens)))
        for n in range(9):
            assert _hilbert_function(numerator, 4, n) == (
                oracles.standard_monomial_count(gens, 4, n))


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(_MONOMIALS, min_size=2, max_size=8))
def test_degree_and_genus_are_read_off_the_polynomial(gens):
    ring = curve_ring(PrimeField())
    hd = hilbert(ideal(*(ring.monomial(m) for m in gens)))
    if hd.dimension < 0:
        assert hd.hp_coefficients == ()
        return
    assert hd.degree == hd.hp_coefficients[hd.dimension] * factorial(
        hd.dimension)
    if hd.dimension == 1:
        assert hd.genus == 1 - hd.hp_coefficients[0]
    else:
        assert hd.genus is None
