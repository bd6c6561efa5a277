import random
import sys
from math import factorial

from hypothesis import given, settings, strategies as st

import pytest

from extremalcurves import (PolyRing, PrimeField, curve_ring, fixture,
                            hilbert, ideal, initial_ideal)
from extremalcurves.curves import CoordinateChange, transform_ideal
from extremalcurves.groebner import GrevlexOrder, IdealBasis
from extremalcurves.hilbert import (_divide_one_minus_t, _hilbert_data,
                                    _hilbert_function, _hilbert_polynomial,
                                    _minimalize, _numerator_plus,
                                    _series_numerator, _trim)
from extremalcurves.orders import CAPACITY

import oracles
from test_groebner import (DIVISION_FIELDS, FIELD_IDS, extremal_40_ideal,
                           random_homogeneous_ideal, twisted_cubic_ideal)


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
        value = sum(c * n ** k for k, c in enumerate(hd.hp_coefficients))
        assert value == (n + 2) * (n + 1) // 2
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


# monomial ideals in the first `arity` slots, t (the fifth) included
@st.composite
def _monomial_ideals(draw):
    arity = draw(st.integers(1, CAPACITY))
    slot = st.integers(0, 4)
    exps = draw(st.lists(st.tuples(*[slot] * arity), min_size=0,
                         max_size=10))
    return arity, [e + (0,) * (CAPACITY - arity) for e in exps]


@settings(max_examples=150, deadline=None, database=None)
@given(_monomial_ideals())
def test_minimalize_matches_the_slotwise_reference(case):
    _, exps = case
    assert _minimalize(exps) == oracles.minimalize(exps)


@settings(max_examples=150, deadline=None, database=None)
@given(_monomial_ideals())
def test_hilbert_polynomial_matches_the_fraction_reference(case):
    arity, exps = case
    reduced = list(_series_numerator(exps))
    depth = arity
    while reduced and sum(reduced) == 0:
        reduced = _divide_one_minus_t(reduced)
        depth -= 1
    if not reduced or depth == 0:
        return
    expected = oracles.hilbert_polynomial(reduced, depth - 1)
    assert _hilbert_polynomial(reduced, depth - 1) == expected
    ring = PolyRing(PrimeField(), arity)
    hd = hilbert(IdealBasis(ring, [ring.monomial(e) for e in exps]))
    assert (hd.dimension, hd.hp_coefficients) == (depth - 1, expected)


def _carry_cases(field):
    """Curves, moved and not, and seeded random homogeneous ideals, each
    with the degree d of its (d, 2, 1, 1) weight."""
    ring = curve_ring(field)
    rng = random.Random(f"{field}:carry")
    cases = [(twisted_cubic_ideal(ring), 3), (extremal_40_ideal(ring), 4)]
    for name in ("rational-quartic", "quintic-g2"):
        curve = fixture(name, field)
        cases.append((curve.ideal, curve.degree))
    cases += [(random_homogeneous_ideal(ring, rng, count=3),
               rng.randint(3, 9)) for _ in range(3)]
    return cases


def _recomputed(basis):
    """HilbertData from the reduced grevlex basis of the same generators,
    with nothing known about them."""
    return hilbert(IdealBasis(basis.ring, basis.generators))


@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=FIELD_IDS)
def test_initial_ideal_carries_the_inputs_hilbert_data(field):
    for basis, d in _carry_cases(field):
        hd = hilbert(basis)
        for weights in ((1, 0, 0, 0), (d, 2, 1, 1)):
            limit = initial_ideal(basis, weights)
            assert limit._hilbert is hd
            assert _hilbert_data(4, limit.groebner().lead_exponents()) == hd
            assert _recomputed(limit) == hd


@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=FIELD_IDS)
def test_transform_ideal_carries_the_inputs_hilbert_data(field):
    for case, (basis, _) in enumerate(_carry_cases(field)):
        hd = hilbert(basis)
        rng = random.Random(f"{field}:{case}:move")
        for _ in range(2):
            moved = transform_ideal(basis, CoordinateChange.random(field, rng))
            assert moved._hilbert is hd
            # the moved basis is found Hilbert-driven towards hd
            assert _hilbert_data(4, moved.groebner().lead_exponents()) == hd
            assert _recomputed(moved) == hd


def test_nothing_known_is_carried_as_nothing(ring):
    basis = twisted_cubic_ideal(ring)
    assert initial_ideal(basis, (3, 2, 1, 1))._hilbert is None
    assert transform_ideal(basis, CoordinateChange.random(
        ring.field, random.Random(5)))._hilbert is None


def test_hilbert_data_is_computed_once(ring, monkeypatch):
    module = sys.modules["extremalcurves.hilbert"]
    calls = []
    real = module._hilbert_data

    def counted(arity, leads):
        calls.append(leads)
        return real(arity, leads)

    monkeypatch.setattr(module, "_hilbert_data", counted)
    basis = twisted_cubic_ideal(ring)
    assert hilbert(basis) is hilbert(basis)
    assert len(calls) == 1
