import random

import pytest
from hypothesis import given, settings, strategies as st

from extremalcurves import (QQ, BinaryForm, ContextMismatchError,
                            CurveIdeal, Invariants, PolyRing, PrimeField,
                            binary_forms_coprime, complete_intersection,
                            condition_star_probe, curve_ring, divide_exact,
                            eliminate, extremal_curve, fixture, hilbert,
                            ideal, ideal_equal, ideal_intersect,
                            ideal_quotient, ideal_quotient_poly,
                            initial_ideal, is_groebner,
                            random_coordinate_change, saturate_irrelevant,
                            saturate_variable)
from extremalcurves import groebner
from extremalcurves.groebner import GroebnerBasis, IdealBasis
from extremalcurves.orders import (CAPACITY, BlockEliminationOrder,
                                   GrevlexOrder, WeightRefinedOrder)
from extremalcurves.poly import Polynomial

import oracles
from test_poly import random_poly


def twisted_cubic_ideal(ring):
    x, y, z, w = ring.gens()
    return ideal(x * z - y * y, x * w - y * z, y * w - z * z)


def extremal_40_ideal(ring):
    x, y, z, w = ring.gens()
    return ideal(x * x, x * y, y ** 4, x * w ** 3 - y ** 3 * z)


# the fields the division kernel and the saturation routes are checked in
DIVISION_FIELDS = [PrimeField(32003), PrimeField(7), QQ]
FIELD_IDS = ["gf", "gf7", "qq"]


def random_homogeneous_ideal(ring, rng, count=2, max_degree=3, min_degree=1):
    gens = []
    while len(gens) < count:
        f = random_poly(ring, rng, rng.randint(min_degree, max_degree),
                        terms=3)
        if not f.is_zero:
            gens.append(f)
    return IdealBasis(ring, gens)


# ---------------------------------------------------------------- normal form

def test_normal_form_membership_examples(ring):
    x, y, z, w = ring.gens()
    assert ideal(x).groebner().normal_form(x * x).is_zero
    assert ideal(x, y).groebner().normal_form(z ** 5) == z ** 5
    cubic = twisted_cubic_ideal(ring).groebner()
    assert cubic.normal_form(x * w - y * z).is_zero


def test_normal_form_difference_in_ideal(ring):
    rng = random.Random(3)
    basis = twisted_cubic_ideal(ring)
    f = random_poly(ring, rng, 3, terms=5)
    r = basis.groebner().normal_form(f)
    assert basis.contains(f - r)


# ----------------------------------------------------------------- buchberger

def test_buchberger_grows_leading_ideal():
    ring = PolyRing(PrimeField(), 3)
    x, y, z = ring.gens()
    basis = IdealBasis(ring, [x * x - y, x ** 3 - z]).groebner(ring.order)
    assert is_groebner(basis)
    input_leads = {(x * x - y).lead_exponent, (x ** 3 - z).lead_exponent}
    out_leads = set(basis.lead_exponents())
    assert not out_leads <= input_leads


def test_monomial_ideal_is_its_own_basis(ring):
    x, y = ring.gen(0), ring.gen(1)
    basis = IdealBasis(ring, [x * x, x * y]).groebner(ring.order)
    assert [str(g) for g in basis.elements] == ["x*y", "x^2"]


def test_principal_ideal_basis_is_monic_generator(ring):
    x, y, z, w = ring.gens()
    f = 7 * (x * w) - 14 * (y * z)
    basis = IdealBasis(ring, [f]).groebner(ring.order)
    assert len(basis) == 1
    assert basis.elements[0] == f.monic()


def test_buchberger_ideal_equality_with_input(ring):
    rng = random.Random(97)
    for _ in range(5):
        basis_in = random_homogeneous_ideal(ring, rng)
        gb = basis_in.groebner()
        # input generators reduce to zero against the output
        for g in basis_in.generators:
            assert gb.contains(g)
        # output elements lie in the input ideal, by degreewise linear algebra
        for e in gb.elements:
            assert oracles.in_ideal_degreewise(
                e.in_ring(ring), list(basis_in.generators))


def test_membership_examples(ring):
    x, y, z, w = ring.gens()
    e = extremal_40_ideal(ring)
    assert e.contains(x * x)
    assert not ideal(x, y).contains(z)
    assert not e.contains(y ** 3 * z)


# -------------------------------------------------------------- initial ideal

def test_initial_ideal_fixed_point_of_weight_homogeneous(ring):
    e = extremal_40_ideal(ring)
    assert ideal_equal(initial_ideal(e, (4, 2, 1, 1)), e)


def test_initial_ideal_two_term_selection(ring):
    x, z = ring.gen(0), ring.gen(2)
    init = initial_ideal(ideal(x + z), (1, 0, 0, 0))
    assert ideal_equal(init, ideal(x))


def test_initial_ideal_twisted_cubic_projection(ring):
    x, y, z, w = ring.gens()
    tc = twisted_cubic_ideal(ring)
    init = initial_ideal(tc, (1, 0, 0, 0))
    assert init.contains(x * z)
    assert init.contains(x * w)
    assert not init.contains(x)
    hd_tc, hd_init = hilbert(tc), hilbert(init)
    for n in range(9):
        assert hd_tc.hilbert_function(n) == hd_init.hilbert_function(n)


def test_weight_vector_of_wrong_length_is_a_context_mismatch(ring):
    x, y, z, w = ring.gens()
    f = x * w - y * z
    for weights in ((4, 2, 1), (4, 2, 1, 1, 1)):
        with pytest.raises(ContextMismatchError):
            initial_ideal(ideal(f), weights)
        with pytest.raises(ContextMismatchError):
            WeightRefinedOrder(weights, f.ring.arity)
        with pytest.raises(ContextMismatchError):
            oracles.initial_form(f, weights)


def test_initial_ideal_requires_homogeneous(ring):
    x, z = ring.gen(0), ring.gen(2)
    with pytest.raises(ValueError):
        initial_ideal(ideal(x * x + z), (1, 0, 0, 0))


def test_hilbert_function_preserved_random(ring):
    rng = random.Random(31)
    for _ in range(8):
        basis = random_homogeneous_ideal(ring, rng)
        max_deg = max(g.degree for g in basis.generators)
        for w in ((4, 2, 1, 1), (1, 0, 0, 0)):
            init = initial_ideal(basis, w)
            hd, hd_init = hilbert(basis), hilbert(init)
            for n in range(2 * max_deg + 1):
                assert hd.hilbert_function(n) == hd_init.hilbert_function(n)


# ----------------------------------------------------------------- eliminate

def test_eliminate_inverse_trick():
    ring = PolyRing(PrimeField(), 5)
    x, y, t = ring.gen(0), ring.gen(1), ring.gen(4)
    basis = IdealBasis(ring, [t * x - ring.one(), t * y])
    out = eliminate(basis, front=(4,))
    assert [str(g) for g in out.generators] == ["y"]


def test_eliminate_without_front_occurrence(ring):
    basis = twisted_cubic_ideal(ring)
    ext = ring.extended(5)
    lifted = IdealBasis(ext, [g.in_ring(ext) for g in basis.generators])
    out = IdealBasis(ring, eliminate(lifted, front=(4,)).generators)
    assert ideal_equal(out, basis)


# ------------------------------------------------------------------ quotient

def test_quotient_monomial_example(ring):
    x, y = ring.gen(0), ring.gen(1)
    q = ideal_quotient_poly(ideal(x * x, x * y), x)
    assert ideal_equal(q, ideal(x, y))


def test_quotient_extremal_by_x_matches_bruteforce(ring):
    x, y, z, w = ring.gens()
    e = extremal_40_ideal(ring)
    q = ideal_quotient(e, ideal(x))
    # brute-force oracle: dimensions of {f : f*x in E} degree by degree
    for n in range(1, 5):
        assert oracles.colon_graded_dim(list(e.generators), [x], n) == \
            oracles.ideal_graded_dim(list(q.generators), n)
    # membership candidates up to degree 3: exactly the span of x and y
    assert q.contains(x) and q.contains(y)
    assert not q.contains(w ** 3)
    assert ideal_equal(q, ideal(x, y))


def test_quotient_by_unit_is_identity(ring):
    basis = twisted_cubic_ideal(ring)
    assert ideal_equal(ideal_quotient(basis, ideal(ring.one())), basis)


def test_quotient_skips_a_generator_the_colon_satisfies(ring, eliminations):
    x, y, z = ring.gen(0), ring.gen(1), ring.gen(2)
    a, b = ideal(x * z, y * z), ideal(x, y)
    # the first colon gives (z), and z times the other generator lies in a
    q = ideal_quotient(a, b)
    assert len(eliminations) == 1
    assert q.generators == (z,) == q.groebner().elements
    assert oracles.ideal_quotient_by_intersections(a, b).generators == (z,)
    assert len(eliminations) == 1 + 3


def test_quotient_intersects_a_generator_the_colon_misses(ring, eliminations):
    x, y = ring.gen(0), ring.gen(1)
    a, b = ideal(x * y), ideal(x, y)
    # b's generators ascend, y first: a : y = (x), and x * x is not in a,
    # so the colon by x runs and is intersected in
    q = ideal_quotient(a, b)
    assert len(eliminations) == 3
    assert q.generators == (x * y,) == q.groebner().elements
    assert oracles.ideal_quotient_by_intersections(a, b).generators == \
        (x * y,)


@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=FIELD_IDS)
def test_quotient_matches_the_intersection_reference(field, eliminations):
    ring = curve_ring(field)
    rng = random.Random(61)
    counts = []
    for _ in range(10):
        a = random_homogeneous_ideal(ring, rng, count=rng.randint(1, 3),
                                     max_degree=3, min_degree=2)
        b = random_homogeneous_ideal(ring, rng, count=rng.randint(2, 3),
                                     max_degree=2)
        del eliminations[:]
        quot = ideal_quotient(a, b)
        fast = len(eliminations)
        expected = oracles.ideal_quotient_by_intersections(a, b)
        assert quot.generators == expected.generators
        counts.append((fast, len(eliminations) - fast))
    # both routes are drawn: a skipped generator and a colon that ran
    assert any(fast < slow for fast, slow in counts)
    assert any(fast > 1 for fast, slow in counts)
    assert all(fast <= slow for fast, slow in counts)


def test_quotient_zero_divisor_rejected(ring):
    basis = twisted_cubic_ideal(ring)
    with pytest.raises(ValueError):
        ideal_quotient(basis, IdealBasis(ring, ()))


# ----------------------------------------------------------------- intersect

def test_intersect_principal(ring):
    x, y = ring.gen(0), ring.gen(1)
    assert ideal_equal(ideal_intersect(ideal(x), ideal(y)), ideal(x * y))


def test_intersect_two_lines(ring):
    x, y, z, w = ring.gens()
    meet = ideal_intersect(ideal(x, y), ideal(z, w))
    expected = ideal(x * z, x * w, y * z, y * w)
    assert ideal_equal(meet, expected)
    for n in range(2, 5):
        assert oracles.intersection_graded_dim([x, y], [z, w], n) == \
            oracles.ideal_graded_dim(list(meet.generators), n)


def test_intersect_self(ring):
    basis = twisted_cubic_ideal(ring)
    assert ideal_equal(ideal_intersect(basis, basis), basis)


# ---------------------------------------------------------------- saturation

def test_saturate_poly_examples(ring):
    x, y, z, w = ring.gens()
    assert ideal_equal(oracles.saturate_poly(ideal(x * x * z), z),
                       ideal(x * x))
    # x^2 lies in the ideal, so saturating by x reaches the unit ideal;
    # the iterated-quotient oracle agrees: I : x = (x, y), (x, y) : x = (1)
    sat = oracles.saturate_poly(ideal(x * x, x * y), x)
    assert ideal_equal(sat, ideal(ring.one()))
    step1 = ideal_quotient_poly(ideal(x * x, x * y), x)
    step2 = ideal_quotient_poly(step1, x)
    assert ideal_equal(step2, sat)
    basis = twisted_cubic_ideal(ring)
    assert ideal_equal(oracles.saturate_poly(basis, ring.one()), basis)


def test_saturate_irrelevant_examples(ring):
    x, y, z, w = ring.gens()
    basis = ideal(x * x * z, x * x * w, x ** 3, x * x * y)
    assert ideal_equal(saturate_irrelevant(basis), ideal(x * x))
    # idempotence
    sat = saturate_irrelevant(basis)
    assert ideal_equal(saturate_irrelevant(sat), sat)


def test_saturate_irrelevant_preserves_hilbert_polynomial(ring):
    x, y, z, w = ring.gens()
    basis = ideal(x * x * z, x * x * w, x ** 3, x * x * y)
    before, after = hilbert(basis), hilbert(saturate_irrelevant(basis))
    assert before.hp_coefficients == after.hp_coefficients
    assert before.dimension == after.dimension


@pytest.mark.parametrize("slot", [-1, 4])
def test_saturate_variable_rejects_a_slot_outside_the_ring(ring, slot):
    with pytest.raises(ValueError, match="outside the ring"):
        saturate_variable(twisted_cubic_ideal(ring), slot)


def test_union_with_a_line_in_w_saturates_by_a_weight_order(ring):
    # no component of C, in general coordinates, lies in z = 0 or w = 0,
    # and the line L = (z, w) lies in both, so I : w^infinity and
    # I : z^infinity are C alone and lack the Hilbert polynomial of C u L;
    # y, not last, is the first variable whose saturation has it, through
    # the weight-order route
    moved, _ = random_coordinate_change(fixture("extremal:6:3", ring.field), 0)
    x, y, z, w = ring.gens()
    union = ideal_intersect(moved.ideal, ideal(z, w))
    basis = _times_irrelevant(union)
    target = hilbert(basis).hp_coefficients
    for slot in (3, 2):
        assert hilbert(saturate_variable(basis, slot)).hp_coefficients != target
    sat = saturate_irrelevant(basis)
    assert sat.generators == union.groebner().elements
    assert hilbert(sat).hp_coefficients == target


def test_saturated_ideal_is_fixed(ring):
    basis = twisted_cubic_ideal(ring)
    assert saturate_irrelevant(basis) is basis


def _times_irrelevant(basis):
    return IdealBasis(basis.ring, [g * v for g in basis.generators
                                   for v in basis.ring.gens()])


def _two_skew_lines(ring):
    x, y, z, w = ring.gens()
    return ideal_intersect(ideal(x, y), ideal(z, w))


def _plane_conic(ring):
    x, y, z, w = ring.gens()
    return ideal(y, x * x + z * z + w * w)


# (input, intersections the fallback makes): every variable is a zero
# divisor modulo the two skew lines, so no single saturation has their
# Hilbert polynomial and all four are intersected
SATURATION_CASES = {
    "two-lines": (_two_skew_lines, 3),
    "two-lines-times-m": (lambda r: _times_irrelevant(_two_skew_lines(r)), 3),
    "twisted-cubic-times-m": (
        lambda r: _times_irrelevant(twisted_cubic_ideal(r)), 0),
    "conic-times-m": (lambda r: _times_irrelevant(_plane_conic(r)), 0),
}


@pytest.mark.parametrize("case", SATURATION_CASES)
def test_saturate_irrelevant_matches_variable_saturations(ring, case,
                                                          monkeypatch):
    make, fallback_calls = SATURATION_CASES[case]
    basis = make(ring)
    expected = saturate_variable(basis, 0)
    for slot in range(1, 4):
        expected = ideal_intersect(expected,
                                   saturate_variable(basis, slot))
    calls = []

    def counted_intersect(a, b):
        calls.append(1)
        return ideal_intersect(a, b)

    def no_ideal_equal(a, b):
        raise AssertionError("saturation compared ideals")

    monkeypatch.setattr(groebner, "ideal_intersect", counted_intersect)
    monkeypatch.setattr(groebner, "ideal_equal", no_ideal_equal)
    sat = saturate_irrelevant(basis)
    monkeypatch.undo()
    assert len(calls) == fallback_calls
    assert ideal_equal(sat, expected)
    if not fallback_calls:
        # a single saturation is returned as its reduced grevlex basis
        assert sat.generators == expected.groebner().elements


# ---------------------------------------------------------------- properties

def test_buchberger_criterion_on_random_ideals(ring):
    rng = random.Random(41)
    for _ in range(10):
        basis = random_homogeneous_ideal(ring, rng)
        assert is_groebner(basis.groebner())


def test_quotient_intersect_bruteforce_agreement(ring):
    rng = random.Random(53)
    for _ in range(20):
        a = random_homogeneous_ideal(ring, rng, count=2, max_degree=3)
        b = random_homogeneous_ideal(ring, rng, count=2, max_degree=2)
        meet = ideal_intersect(a, b)
        quot = ideal_quotient(a, b)
        # containments
        for g in meet.generators:
            assert a.contains(g) and b.contains(g)
        for g in a.generators:
            assert quot.contains(g)
        # graded dimensions against rank-based oracles
        ga, gb = list(a.generators), list(b.generators)
        for n in range(1, 5):
            assert oracles.intersection_graded_dim(ga, gb, n) == \
                oracles.ideal_graded_dim(list(meet.generators), n)
            assert oracles.colon_graded_dim(ga, gb, n) == \
                len(oracles.monomials(4, n)) - \
                oracles.quotient_graded_dim(list(quot.generators), n)


@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=FIELD_IDS)
def test_saturation_routes_agree(field):
    # the divide-out route and the auxiliary-variable route are
    # independent algorithms; they must produce the same saturation.  Each
    # random ideal I also enters as I * m^2, which no variable leaves
    # saturated, so every slot takes the divide branch there: slot 3 under
    # grevlex, the others under their weight orders
    ring = curve_ring(field)
    rng = random.Random(67)
    m_squared = [ring.monomial(e) for e in oracles.monomials(4, 2)]
    for _ in range(8):
        basis = random_homogeneous_ideal(ring, rng)
        times_m2 = IdealBasis(ring, [g * m for g in basis.generators
                                     for m in m_squared])
        for slot in range(4):
            v = ring.gen(slot)
            for ideal_basis in (basis, times_m2):
                assert ideal_equal(saturate_variable(ideal_basis, slot),
                                   oracles.saturate_poly(ideal_basis, v))
            assert saturate_variable(times_m2, slot) is not times_m2


def test_saturate_poly_matches_iterated_quotient(ring):
    rng = random.Random(79)
    for _ in range(8):
        basis = random_homogeneous_ideal(ring, rng)
        f = random_poly(ring, rng, 1, terms=2)
        if f.is_zero:
            continue
        sat = oracles.saturate_poly(basis, f)
        cur = basis
        for _ in range(40):
            nxt = ideal_quotient_poly(cur, f)
            if ideal_equal(nxt, cur):
                break
            cur = nxt
        else:
            raise AssertionError("quotient iteration failed to stabilize")
        assert ideal_equal(sat, cur)


def test_normal_form_is_reducer_order_independent(ring):
    rng = random.Random(83)
    basis = twisted_cubic_ideal(ring).groebner()
    shuffled = list(basis.elements)
    rng.shuffle(shuffled)
    permuted = GroebnerBasis(basis.ring, tuple(shuffled))
    for _ in range(20):
        f = random_poly(ring, rng, rng.randint(1, 4), terms=5,
                        homogeneous=False)
        assert basis.normal_form(f) == permuted.normal_form(f)


def test_divide_exact_roundtrip(ring):
    rng = random.Random(61)
    for _ in range(10):
        f = random_poly(ring, rng, 2, terms=3)
        g = random_poly(ring, rng, 2, terms=3)
        if f.is_zero or g.is_zero:
            continue
        assert divide_exact(f * g, g) == f
    x = ring.gen(0)
    with pytest.raises(ValueError):
        divide_exact(x + ring.one(), x)


# the division kernel against the merge-based reference reducer, in both
# fields and in each kind of order the pipeline uses; d is the degree in
# the (d, 2, 1, 1) weight vector.  GF(7) makes cancellation to zero common,
# which the kernel only detects when it reduces a coefficient.  The id
# "block7" names the block order with the non-contiguous front (y, w); it
# kept its name when the engine went from seven slots to five.
DIVISION_ORDERS = [lambda d: GrevlexOrder(4),
                   lambda d: WeightRefinedOrder((d, 2, 1, 1)),
                   lambda d: BlockEliminationOrder((1, 3), 5)]


def _coeffs(field):
    if field == QQ:
        return st.fractions(-5, 5, max_denominator=4).filter(bool)
    return st.integers(1, field.characteristic - 1)


def _polys(ring, max_terms, max_exponent=2):
    coeffs = _coeffs(ring.field)
    exps = st.tuples(*[st.integers(0, max_exponent)] * ring.arity).map(
        lambda e: e + (0,) * (CAPACITY - ring.arity))
    return st.dictionaries(exps, coeffs, min_size=1, max_size=max_terms).map(
        lambda acc: Polynomial.from_dict(ring, acc))


def _division_ring(field, make_order, data):
    order = make_order(data.draw(st.integers(3, 12)))
    return PolyRing(field, order.arity, order)


@pytest.mark.parametrize("make_order", DIVISION_ORDERS,
                         ids=["grevlex", "weight", "block7"])
@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=FIELD_IDS)
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_normal_form_matches_merge_reference(field, make_order, data):
    ring = _division_ring(field, make_order, data)
    # any monic divisor list defines a division; it need not be a basis
    divisors = [g.monic() for g in
                data.draw(st.lists(_polys(ring, 4), min_size=1, max_size=4))]
    f = data.draw(_polys(ring, 10))
    expected = oracles.merge_normal_form(
        f.terms, [g.terms for g in divisors], ring.order.key, field)
    remainder = GroebnerBasis(ring, tuple(divisors)).normal_form(f)
    assert remainder.terms == tuple(expected)


@pytest.mark.parametrize("make_order", DIVISION_ORDERS,
                         ids=["grevlex", "weight", "block7"])
@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=FIELD_IDS)
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_divide_exact_matches_merge_reference(field, make_order, data):
    ring = _division_ring(field, make_order, data)
    if data.draw(st.booleans()):
        # u^k - (-c*v)^k over u + c*v: every step but the last puts into
        # the remainder a term that is not yet there
        u, v = data.draw(st.permutations(ring.gens()))[:2]
        cv = v.scale(data.draw(_coeffs(field)))
        k = data.draw(st.integers(2, 6))
        g, f = u + cv, u ** k - (-cv) ** k
    else:
        g = data.draw(_polys(ring, 4))
        f = data.draw(_polys(ring, 4)) * g
        if data.draw(st.booleans()):
            f = f + data.draw(_polys(ring, 2))
    expected = oracles.merge_divide_exact(f.terms, g.terms, ring.order.key,
                                          field)
    if expected is None:
        with pytest.raises(ValueError):
            divide_exact(f, g)
    else:
        assert divide_exact(f, g).terms == tuple(expected)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _assert_reduced(basis):
    """Monic leads, none dividing another, and no term divisible by one."""
    leads = basis.lead_exponents()
    for i, g in enumerate(basis):
        assert g.lead_coefficient == basis.ring.field.one
        assert not any(_divides(lead, leads[i])
                       for j, lead in enumerate(leads) if j != i)
        assert not any(_divides(lead, e)
                       for e, _ in g.terms[1:] for lead in leads)


@pytest.mark.parametrize("make_order", DIVISION_ORDERS,
                         ids=["grevlex", "weight", "block7"])
@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=FIELD_IDS)
@settings(max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_buchberger_returns_reduced_bases(field, make_order, data):
    ring = _division_ring(field, make_order, data)
    # squarefree inputs: with exponents up to 2, a few random ideals under
    # a block order took many seconds
    gens = data.draw(st.lists(_polys(ring, 3, max_exponent=1),
                              min_size=2, max_size=3))
    _assert_reduced(IdealBasis(ring, gens).groebner(ring.order))


# the orders that are not degree-compatible, with the kind of input the
# pipeline gives each: weight orders on homogeneous ideals, block orders
# (elimination) on inhomogeneous ones; d is drawn for (d, 2, 1, 1)
PAIR_ORDER_CASES = {
    "weight": (lambda d: WeightRefinedOrder((d, 2, 1, 1)), True),
    "projection": (lambda d: WeightRefinedOrder((1, 0, 0, 0)), True),
    "block5": (lambda d: BlockEliminationOrder((4,), 5), False),
    "block7": (lambda d: BlockEliminationOrder((1, 3), 5), False),
}


@pytest.mark.parametrize("case", PAIR_ORDER_CASES)
@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=FIELD_IDS)
def test_degree_then_key_pairs_give_the_reduced_basis(field, case):
    make_order, homogeneous = PAIR_ORDER_CASES[case]
    rng = random.Random(f"{field}:{case}")
    for _ in range(10):
        order = make_order(rng.randint(3, 12))
        ring = PolyRing(field, order.arity, order)
        gens = [random_poly(ring, rng, rng.randint(1, 3), terms=4,
                            homogeneous=homogeneous)
                for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if not g.is_zero]
        basis = groebner.buchberger(IdealBasis(ring, gens), order)
        assert is_groebner(basis)
        _assert_reduced(basis)
        # the input lies in the ideal of the basis ...
        elements = [g.terms for g in basis]
        for g in gens:
            assert not oracles.merge_normal_form(g.terms, elements,
                                                 order.key, field)
        # ... and the basis in the ideal of the input, by the input's
        # grevlex basis, whose pairs the degree-first choice leaves as
        # they were
        grevlex = GrevlexOrder(ring.arity)
        reference = groebner.buchberger(IdealBasis(ring, gens), grevlex)
        divisors = [h.terms for h in reference]
        for g in basis:
            assert not oracles.merge_normal_form(
                g.in_ring(reference.ring).terms, divisors, grevlex.key,
                field)
        # the same reduced basis from the inputs in any order
        keyed = [groebner._keyed(g, order) for g in gens]
        rng.shuffle(keyed)
        raw = groebner._buchberger_core(keyed, order, field)
        reduced, _ = groebner._reduce_basis(*raw, field, len(keyed))
        assert [groebner._from_keyed(basis.ring, g)
                for g in reduced] == list(basis)


def _criterion_variants(basis):
    """A basis, then the sets made from it by dropping one element, then
    those made by adding one to the first tail coefficient of one
    element; the last two are bases or not."""
    ring, field = basis.ring, basis.ring.field
    elements = tuple(basis.elements)
    yield basis
    for i in range(len(elements)):
        yield GroebnerBasis(ring, elements[:i] + elements[i + 1:])
    for i, g in enumerate(elements):
        if len(g.terms) > 1:
            coeffs = dict(g.terms)
            e = g.terms[1][0]
            coeffs[e] = field.add(coeffs[e], field.one)
            yield GroebnerBasis(ring, elements[:i] + (
                Polynomial.from_dict(ring, coeffs),) + elements[i + 1:])


# the criterion with its skipped pairs, against every pair reduced
IS_GROEBNER_ORDERS = {
    "grevlex": (lambda d: GrevlexOrder(4), True),
    "weight": PAIR_ORDER_CASES["weight"],
    "block7": PAIR_ORDER_CASES["block7"],
}


@pytest.mark.parametrize("case", IS_GROEBNER_ORDERS)
@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=FIELD_IDS)
def test_is_groebner_matches_the_exhaustive_check(field, case):
    make_order, homogeneous = IS_GROEBNER_ORDERS[case]
    rng = random.Random(f"is_groebner:{field}:{case}")
    verdicts = []
    for _ in range(8):
        order = make_order(rng.randint(3, 12))
        ring = PolyRing(field, order.arity, order)
        gens = [random_poly(ring, rng, rng.randint(1, 3), terms=4,
                            homogeneous=homogeneous)
                for _ in range(rng.randint(2, 4))]
        gens = [g for g in gens if not g.is_zero]
        for variant in _criterion_variants(
                IdealBasis(ring, gens).groebner(order)):
            verdict = is_groebner(variant)
            assert verdict == oracles.exhaustive_is_groebner(variant)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=FIELD_IDS)
def test_is_groebner_skips_pairs_on_a_curve_basis(field, monkeypatch):
    # the (6, 2, 1, 1) basis of a moved extremal sextic and the sets made
    # from it; the chain criterion leaves fewer pairs to reduce than
    # there are pairs
    moved, _ = random_coordinate_change(fixture("extremal:6:3", field), 5)
    basis = moved.ideal.groebner(WeightRefinedOrder((6, 2, 1, 1)))
    spolys = []
    spoly = groebner._spoly

    def counting(*args):
        spolys.append(args)
        return spoly(*args)

    monkeypatch.setattr(groebner, "_spoly", counting)
    n = len(basis)
    assert is_groebner(basis)
    assert 0 < len(spolys) < n * (n - 1) // 2
    verdicts = [is_groebner(variant) for variant in
                _criterion_variants(basis)]
    assert verdicts == [oracles.exhaustive_is_groebner(variant)
                        for variant in _criterion_variants(basis)]
    assert False in verdicts


# ------------------------------------------------------------ interreduction

def _interreduced(ring, keyed, monkeypatch=None):
    """`_reduce_basis` of the raw core output of keyed inputs, checked term
    for term against the merge reference, with its reducers; returns the
    core's basis and the leads of the elements it took a normal form of."""
    order, field = ring.order, ring.field
    G, reducers = groebner._buchberger_core(keyed, order, field)
    normalized = []
    if monkeypatch is not None:
        reduce = groebner._normal_form_keyed

        def counted(rem, divisors):
            out = reduce(rem, divisors)
            normalized.append(out[0][0])
            return out

        monkeypatch.setattr(groebner, "_normal_form_keyed", counted)
    basis, out = groebner._reduce_basis(G, reducers, field, len(keyed))
    if monkeypatch is not None:
        monkeypatch.undo()
    expected = oracles.merge_interreduce(
        [groebner._from_keyed(ring, g).terms for g in G], order.key, field)
    assert [list(groebner._from_keyed(ring, b).terms)
            for b in basis] == expected
    assert out == [groebner._as_reducer(b) for b in basis]
    return G, normalized


@pytest.mark.parametrize("make_order", DIVISION_ORDERS,
                         ids=["grevlex", "weight", "block7"])
@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=FIELD_IDS)
@settings(max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_reduce_basis_matches_merge_reference(field, make_order, data):
    ring = _division_ring(field, make_order, data)
    # squarefree inputs, as in test_buchberger_returns_reduced_bases; the
    # drawn order of the inputs moves the boundary between the inputs and
    # the elements the core finds
    gens = data.draw(st.lists(_polys(ring, 3, max_exponent=1),
                              min_size=2, max_size=4))
    gens = data.draw(st.permutations(gens))
    _interreduced(ring, [groebner._keyed(g, ring.order) for g in gens])


@pytest.mark.parametrize("make_order", DIVISION_ORDERS,
                         ids=["grevlex", "weight", "block7"])
@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=FIELD_IDS)
def test_reduce_basis_of_shuffled_curves(field, make_order):
    # moved curves, their generators in drawn orders: larger bases, whose
    # inputs and found elements both need reducing
    order = make_order(5)
    ring = PolyRing(field, order.arity, order)
    rng = random.Random(f"{field}:{order}:interreduce")
    for name in ("twisted-cubic", "rational-quartic", "extremal:5:1"):
        moved = random_coordinate_change(fixture(name, field),
                                         rng.randint(0, 9))[0]
        gens = [g.in_ring(ring) for g in moved.ideal.generators]
        for _ in range(3):
            rng.shuffle(gens)
            _interreduced(ring, [groebner._keyed(g, order) for g in gens])


@pytest.mark.parametrize("make_order", DIVISION_ORDERS,
                         ids=["grevlex", "weight", "block7"])
@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=FIELD_IDS)
def test_reduce_basis_reaches_both_kinds_of_tail(field, make_order,
                                                 monkeypatch):
    order = make_order(5)
    ring = PolyRing(field, order.arity, order)
    x, y, z, w = ring.gens()[:4]
    # the core finds z - w from the first pair and w from the second (w - z
    # and z under the block order, which puts w first), so a lead found
    # later reduces the tail of an element found earlier
    gens = [y + w, y + z, y]
    G, normalized = _interreduced(
        ring, [groebner._keyed(g, order) for g in gens], monkeypatch)
    found = [g[0][0] for g in G[len(gens):]]
    assert any(lead in found for lead in normalized)
    # no pair of x*z and x^2 + x*z leaves a remainder, so the input x^2 +
    # x*z is reduced by the input before it and by nothing found
    gens = [x * z, x * x + x * z]
    G, normalized = _interreduced(
        ring, [groebner._keyed(g, order) for g in gens], monkeypatch)
    assert len(G) == len(gens) and normalized == [G[1][0][0]]
    # `buchberger` passes its inputs, which IdealBasis sorts so, as inputs
    assert groebner.buchberger(IdealBasis(ring, gens), order).elements == (
        x * z, x * x)


def _keyed_reducers(gb):
    return [groebner._as_reducer(groebner._keyed(g, gb.order))
            for g in gb.elements]


@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=FIELD_IDS)
def test_produced_bases_hold_their_reducers(field, monkeypatch):
    # `buchberger` hands over the reducers its interreduction built; a
    # basis taken from one in hand builds its own on first use
    monkeypatch.setattr(groebner, "VERIFY_PRODUCED_BASES", False)
    ring = curve_ring(field)
    rng = random.Random(f"{field}:reducers")
    ideals = [twisted_cubic_ideal(ring)]
    ideals += [random_homogeneous_ideal(ring, rng, count=3)
               for _ in range(3)]
    for basis in ideals:
        for order in (GrevlexOrder(4),
                      WeightRefinedOrder((rng.randint(3, 9), 2, 1, 1)),
                      BlockEliminationOrder((0, 1), 4)):
            gb = groebner.buchberger(basis, order)
            assert gb._reducers is not None
            assert gb.reducers() == _keyed_reducers(gb)
    for case in ("twisted-cubic-times-m", "conic-times-m"):
        # the divided basis keeps the reducers its interreduction built
        gb = saturate_variable(SATURATION_CASES[case][0](ring), 3).groebner()
        assert gb._reducers is not None
        assert gb.reducers() == _keyed_reducers(gb)
    curves = _fixed_points(field)
    _refuse_buchberger(monkeypatch)
    for curve in curves:
        basis = IdealBasis(curve.ideal.ring, curve.ideal.generators)
        basis._gb_cache[GrevlexOrder(4)] = curve.ideal.groebner()
        order = WeightRefinedOrder((curve.degree, 2, 1, 1))
        for gb in (basis.groebner(order),
                   initial_ideal(basis, order.weights).groebner()):
            assert gb._reducers is None
            assert gb.reducers() == _keyed_reducers(gb)


# ----------------------------------------------------- bases already in hand

def _fresh(ideal_basis, order):
    """The reduced basis computed from the generators alone."""
    return groebner.buchberger(
        IdealBasis(ideal_basis.ring, ideal_basis.generators), order)


def _refuse_buchberger(monkeypatch):
    def refuse(ideal_basis, order, *seeds):
        raise AssertionError("a basis in hand was computed again")

    monkeypatch.setattr(groebner, "buchberger", refuse)


def _cached_lead_moves(ideal_basis, order):
    """Whether an element of the first cached basis has another lead under
    `order`, so that a request for `order` runs Buchberger, seeded by that
    basis."""
    cached = next(iter(ideal_basis._gb_cache.values()))
    return any(max((e for e, _ in g.terms), key=order.key) != g.lead_exponent
               for g in cached.elements)


def _fixed_points(field):
    """Extremal curves in their own coordinates: monomial and seeded
    random coprime forms."""
    curves = [fixture(f"extremal:{d}:{g}", field)
              for d, g in ((4, 0), (6, 3), (8, 5))]
    rng = random.Random(11)
    for d, g in ((5, 1), (7, 5)):
        inv = Invariants(d, g)
        while True:
            f_form = BinaryForm.random(field, inv.a, rng)
            g_form = BinaryForm.random(field, inv.nu, rng)
            if binary_forms_coprime(f_form, g_form):
                break
        curves.append(extremal_curve(field, d, g, f_form, g_form))
    return curves


@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=FIELD_IDS)
def test_fixed_points_reuse_their_grevlex_basis(field, monkeypatch):
    for curve in _fixed_points(field):
        basis = curve.ideal
        basis.groebner()
        order = WeightRefinedOrder((curve.degree, 2, 1, 1))
        expected = _fresh(basis, order)
        _refuse_buchberger(monkeypatch)
        assert basis.groebner(order).elements == expected.elements
        limit = initial_ideal(basis, order.weights)
        assert limit.groebner().elements == basis.groebner().elements
        monkeypatch.undo()


@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=FIELD_IDS)
def test_initial_ideals_come_with_their_grevlex_basis(field, monkeypatch):
    ring = curve_ring(field)
    rng = random.Random(23)
    ideals = [twisted_cubic_ideal(ring)]
    ideals += [random_homogeneous_ideal(ring, rng, count=3)
               for _ in range(4)]
    for basis in ideals:
        for weights in ((rng.randint(3, 9), 2, 1, 1), (1, 0, 0, 0),
                        (3, 1, 2, 0)):
            limit = initial_ideal(basis, weights)
            refined = WeightRefinedOrder(weights)
            expected = [_fresh(limit, order)
                        for order in (GrevlexOrder(4), refined)]
            _refuse_buchberger(monkeypatch)
            # the weight order keeps the leads of w-homogeneous forms
            assert [limit.groebner(order).elements
                    for order in (GrevlexOrder(4), refined)] == [
                        b.elements for b in expected]
            monkeypatch.undo()


def random_weight_bases(field, label, count=6):
    """Seeded (ideal, weights) pairs: moved curves and random homogeneous
    ideals, under (d, 2, 1, 1), (1, 0, 0, 0) and a random weight."""
    ring = curve_ring(field)
    rng = random.Random(f"{field}:{label}")
    ideals = [random_coordinate_change(fixture(name, field), 0)[0].ideal
              for name in ("rational-quartic", "quintic-g2")]
    ideals += [random_homogeneous_ideal(ring, rng, count=rng.randint(2, 4))
               for _ in range(count)]
    cases = []
    for basis in ideals:
        for weights in ((rng.randint(3, 9), 2, 1, 1), (1, 0, 0, 0),
                        tuple(rng.randint(0, 4) for _ in range(3)) + (1,)):
            cases.append((basis, weights))
    return cases


@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=FIELD_IDS)
def test_initial_forms_match_the_graded_reference(field):
    grevlex = GrevlexOrder(4)
    for basis, weights in random_weight_bases(field, "initial-forms"):
        limit = initial_ideal(basis, weights)
        assert [groebner._keyed(g, grevlex)
                for g in limit.groebner().elements] == (
                    oracles.initial_forms(basis, weights))


@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=FIELD_IDS)
def test_saturation_by_lead_powers_matches_the_min_reference(field):
    divided = 0
    for basis, weights in random_weight_bases(field, "saturation"):
        limit = initial_ideal(basis, weights)
        sat = saturate_variable(limit, 3)
        divided += sat is not limit
        assert [list(g.terms) for g in sat.groebner().elements] == (
            oracles.min_power_saturation(limit))
    assert divided


@pytest.mark.parametrize("case", ["twisted-cubic-times-m", "conic-times-m"])
def test_saturation_comes_with_its_grevlex_basis(ring, case, monkeypatch):
    sat = saturate_irrelevant(SATURATION_CASES[case][0](ring))
    expected = _fresh(sat, GrevlexOrder(4))
    _refuse_buchberger(monkeypatch)
    assert sat.groebner().elements == expected.elements


def test_reuse_only_where_the_leads_stay(ring, monkeypatch):
    rng = random.Random(29)
    calls = []

    def counted(ideal_basis, order, *seeds):
        calls.append(order)
        return buchberger(ideal_basis, order, *seeds)

    buchberger = groebner.buchberger
    orders = [WeightRefinedOrder((5, 2, 1, 1)),
              WeightRefinedOrder((1, 0, 0, 0)),
              BlockEliminationOrder((0,), 4), BlockEliminationOrder((0, 1), 4)]
    requests = 0
    ideals = [twisted_cubic_ideal(ring), extremal_40_ideal(ring)]
    ideals += [random_homogeneous_ideal(ring, rng, count=3)
               for _ in range(6)]
    # the standard monomials of any ideal form a basis of the quotient,
    # so homogeneity is not needed
    ideals += [IdealBasis(ring, [random_poly(ring, rng, rng.randint(1, 3),
                                             terms=3, homogeneous=False)
                                 for _ in range(3)])
               for _ in range(6)]
    for basis in ideals:
        basis.groebner()
        expected = [_fresh(basis, order) for order in orders]
        monkeypatch.setattr(groebner, "buchberger", counted)
        for order, want in zip(orders, expected):
            assert basis.groebner(order).elements == want.elements
            requests += 1
        monkeypatch.undo()
    # the twisted cubic's lead y^2 becomes x*z under (1, 0, 0, 0)
    assert WeightRefinedOrder((1, 0, 0, 0)) in calls
    assert 0 < len(calls) < requests


# a homogeneous ideal's basis in one order, and the order it is cached in
# before another's is asked for: grevlex for the others, and a weight
# order for grevlex itself; d is drawn for (d, 2, 1, 1)
HILBERT_DRIVEN_ORDERS = {
    "weight": (lambda d: WeightRefinedOrder((d, 2, 1, 1)), GrevlexOrder(4)),
    "projection": (lambda d: WeightRefinedOrder((1, 0, 0, 0)),
                   GrevlexOrder(4)),
    "grevlex": (lambda d: GrevlexOrder(4), WeightRefinedOrder((3, 2, 1, 1))),
    "block": (lambda d: BlockEliminationOrder((0, 1), 4), GrevlexOrder(4)),
}


@pytest.mark.parametrize("case", HILBERT_DRIVEN_ORDERS)
@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=FIELD_IDS)
def test_hilbert_driven_bases_match_fresh_ones(field, case):
    make_order, cached = HILBERT_DRIVEN_ORDERS[case]
    ring = curve_ring(field)
    rng = random.Random(f"{field}:{case}:hilbert")
    ran = 0     # draws whose cached basis cannot be reused
    while ran < 6:
        basis = random_homogeneous_ideal(ring, rng, count=rng.randint(2, 4))
        order = make_order(rng.randint(3, 12))
        basis.groebner(cached)
        expected = _fresh(basis, order)
        ran += _cached_lead_moves(basis, order)
        assert basis.groebner(order).elements == expected.elements


def _zero_remainders(monkeypatch):
    """Collect the remainders of `_normal_form_keyed` that are zero, with
    the re-check of produced bases, whose pairs all reduce to zero, off."""
    monkeypatch.setattr(groebner, "VERIFY_PRODUCED_BASES", False)
    zeros = []
    reduce = groebner._normal_form_keyed

    def counted(rem, reducers):
        out = reduce(rem, reducers)
        if not out:
            zeros.append(rem)
        return out

    monkeypatch.setattr(groebner, "_normal_form_keyed", counted)
    return zeros


def _moved_ci33(ring):
    x, y, z, w = ring.gens()
    ci = complete_intersection(
        x ** 3 + y ** 3 + z ** 3 + w ** 3 + x * y * z,
        x * x * w + y * y * z + z ** 3 + w ** 3 - x * y * w)
    return random_coordinate_change(ci, 0)[0].ideal


def test_hilbert_driven_runs_reduce_no_pair_to_zero(ring, monkeypatch):
    # with its grevlex basis in hand, the (9, 2, 1, 1) basis of a moved
    # complete intersection of two cubics drops every pair that reduces to
    # zero; from its generators alone, some reduce to zero
    basis = _moved_ci33(ring)
    basis.groebner()
    order = WeightRefinedOrder((9, 2, 1, 1))
    assert _cached_lead_moves(basis, order)
    expected = _fresh(basis, order)
    zeros = _zero_remainders(monkeypatch)
    _fresh(basis, order)
    assert zeros
    zeros.clear()
    assert basis.groebner(order).elements == expected.elements
    assert not zeros


# the HilbertData of one ideal planted on another, whose cache is empty: the
# (1, 0, 0, 0) run starts from the generators and runs towards the wrong
# Hilbert function.  Each ideal is built afresh from its generators, so that
# nothing else is known about it: a moved curve carries its true HilbertData.
# A planted cached basis would seed the run with the other ideal's elements,
# and the run would end at that ideal's basis, true to the planted target
WRONG_TARGETS = {
    "quartic-under-cubic": (extremal_40_ideal, twisted_cubic_ideal),
    "cubic-under-quartic": (twisted_cubic_ideal, extremal_40_ideal),
    "ci33-under-cubic": (_moved_ci33, twisted_cubic_ideal),
}


@pytest.mark.parametrize("case", WRONG_TARGETS)
def test_hilbert_driven_run_refuses_a_wrong_target(ring, case):
    make_basis, make_other = WRONG_TARGETS[case]
    basis = IdealBasis(ring, make_basis(ring).generators)
    basis._hilbert = hilbert(make_other(ring))
    assert not basis._gb_cache
    with pytest.raises(AssertionError, match="Hilbert-driven"):
        basis.groebner(WeightRefinedOrder((1, 0, 0, 0)))


def _recorded_core(monkeypatch):
    """Record the keyed inputs and the order of every `_buchberger_core`
    run."""
    runs = []
    core = groebner._buchberger_core

    def recording(keyed_inputs, order, *rest):
        runs.append((order, keyed_inputs))
        return core(keyed_inputs, order, *rest)

    monkeypatch.setattr(groebner, "_buchberger_core", recording)
    return runs


@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=FIELD_IDS)
def test_a_moved_lead_seeds_buchberger_with_the_cached_basis(field,
                                                             monkeypatch):
    # a moved complete intersection of two cubics: two dense generators,
    # whose grevlex basis has more elements and other leads
    ring = curve_ring(field)
    basis = _moved_ci33(ring)
    cached = basis.groebner()
    order = WeightRefinedOrder((1, 0, 0, 0))
    assert _cached_lead_moves(basis, order)
    expected = _fresh(basis, order)
    runs = _recorded_core(monkeypatch)
    assert basis.groebner(order).elements == expected.elements
    assert runs == [(order, [groebner._keyed(g, order)
                             for g in cached.elements])]


def test_probe_of_a_loaded_curve_starts_from_its_grevlex_basis(ring,
                                                               monkeypatch):
    # loaded as `extremalcurves probe` loads a file: the generators alone,
    # nothing cached and no Hilbert data; the dense moved generators have
    # far more terms than the reduced grevlex basis
    moved, _ = random_coordinate_change(fixture("extremal:8:5", ring.field), 0)
    curve = CurveIdeal.from_ideal(IdealBasis(ring, moved.ideal.generators))
    grevlex = curve.ideal.groebner()
    runs = _recorded_core(monkeypatch)
    assert condition_star_probe(curve).ok
    seeds = [keyed for order, keyed in runs
             if order == WeightRefinedOrder((1, 0, 0, 0))]
    assert len(seeds) == 1
    assert sum(map(len, seeds[0])) <= sum(len(g.terms) for g in grevlex)


@pytest.mark.parametrize("p", [32003, 7])
def test_lazy_sums_reduce_to_residues(p):
    # each degree-10 monomial in x, y, z is the lead of its own divisor
    # m - (p-1)*w^10, so every reduction step adds (p-1)^2 to the one
    # unreduced coefficient of w^10: 66 times, far past p^2
    field = PrimeField(p)
    ring = curve_ring(field)
    w10 = ring.gen(3) ** 10
    tops = [ring.monomial(e) for e in oracles.monomials(3, 10)]
    divisors = [m - w10.scale(p - 1) for m in tops]
    f = sum(tops[1:], tops[0]).scale(p - 1)
    remainder = GroebnerBasis(ring, tuple(divisors)).normal_form(f)
    assert remainder.terms == tuple(oracles.merge_normal_form(
        f.terms, [g.terms for g in divisors], ring.order.key, field))
    assert remainder == w10.scale(len(tops) * (p - 1) ** 2)
    g = ring.gen(0) - ring.gen(3).scale(p - 1)
    quotient = divide_exact(g ** 40, g)
    assert quotient == g ** 39
    for poly in (remainder, quotient):
        assert all(0 <= c < p for _, c in poly.terms)


def _forms(ring, max_terms):
    """Homogeneous polynomials of degree 1 to 3."""
    coeffs = _coeffs(ring.field)
    return st.integers(1, 3).flatmap(lambda degree: st.dictionaries(
        st.sampled_from(oracles.monomials(ring.arity, degree)), coeffs,
        min_size=1, max_size=max_terms)).map(
            lambda acc: Polynomial.from_dict(ring, acc))


def _merge_monomial_form(basis, e):
    """Reference normal form of the monomial x^e under a basis."""
    field = basis.ring.field
    return tuple(oracles.merge_normal_form(
        [(e, field.one)], [g.terms for g in basis], basis.ring.order.key,
        field))


# normal forms of monomials, the way the monoid-surface kernel divides its
# non-standard template columns, against the merge reference.  The
# generators are homogeneous: Buchberger on random inhomogeneous draws
# under the block order ran for many minutes
@pytest.mark.parametrize("make_order", DIVISION_ORDERS,
                         ids=["grevlex", "weight", "block7"])
@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=FIELD_IDS)
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_monomial_normal_forms_match_normal_form(field, make_order, data):
    ring = _division_ring(field, make_order, data)
    gens = data.draw(st.lists(_forms(ring, 3), min_size=1, max_size=3))
    if data.draw(st.booleans()):
        # a lead divisible by the last variable
        gens[0] = gens[0] * ring.gen(ring.arity - 1)
    if data.draw(st.booleans()):
        # a monomial generator sends all its multiples to zero
        gens.insert(0, ring.monomial(data.draw(
            st.sampled_from(gens[0].terms))[0]))
    basis = IdealBasis(ring, gens).groebner(ring.order)
    exps = st.tuples(*[st.integers(0, 3)] * ring.arity).map(
        lambda e: e + (0,) * (CAPACITY - ring.arity))
    monomials = data.draw(st.lists(exps, min_size=1, max_size=12))
    # leads and tail monomials of the basis are inputs too
    monomials += [e for g in basis for e, _ in g.terms[:2]]
    for e in monomials:
        assert (basis.normal_form(ring.monomial(e)).terms
                == _merge_monomial_form(basis, e))


@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=FIELD_IDS)
def test_monomial_normal_forms_past_leads_with_the_last_variable(field):
    ring = curve_ring(field)
    x, y, z, w = ring.gens()
    for gens in ((w * (x - y + z), y * y - x * z), (w * w - x, y * w - z)):
        basis = ideal(*gens).groebner()
        # w divides a lead, so some multiples of w are not standard
        assert any(g.lead_exponent[3] for g in basis)
        for e in (e for n in range(5) for e in oracles.monomials(4, n)):
            assert (basis.normal_form(ring.monomial(e)).terms
                    == _merge_monomial_form(basis, e))


def test_monomial_normal_forms_walk_without_recursion(ring):
    x, w = ring.gen(0), ring.gen(3)
    basis = ideal(x - w).groebner()
    # 1500 division steps, past the interpreter's recursion limit
    assert basis.normal_form(x ** 1500) == w ** 1500
    # x^20000*w^20000 reduces to w^40000, past the packed budget
    with pytest.raises(ValueError, match="exceeds 32767"):
        basis.normal_form(ring.monomial((20000, 0, 0, 20000, 0)))


@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=FIELD_IDS)
def test_monomial_normal_forms_on_a_reduced_basis(field):
    ring = PolyRing(field, 4, WeightRefinedOrder((4, 2, 1, 1)))
    x, y, z, w = ring.gens()
    basis = ideal(x * z - y * y, x * w - y * z, y * w - z * z).groebner(
        ring.order)
    monomials = list(oracles.monomials(4, 5))
    forms = [basis.normal_form(ring.monomial(e)) for e in monomials]
    assert [f.terms for f in forms] == [_merge_monomial_form(basis, e)
                                        for e in monomials]
    # every standard monomial of degree 5 is an input and its own form:
    # as many as the Hilbert function 3n + 1 of the twisted cubic at 5
    assert len({e for f in forms for e, _ in f.terms}) == 3 * 5 + 1


@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=FIELD_IDS)
def test_monomial_normal_forms_of_unit_and_zero_ideals(field):
    ring = curve_ring(field)
    monomials = [ring.monomial(e) for e in oracles.monomials(4, 3)]
    monomials.append(ring.one())
    unit = ideal(ring.gen(0) + ring.one(), ring.gen(0)).groebner()
    assert [str(g) for g in unit] == ["1"]
    assert all(unit.normal_form(m).is_zero for m in monomials)
    zero = IdealBasis(ring, ()).groebner()
    assert [zero.normal_form(m) for m in monomials] == monomials


def test_monomial_normal_forms_reject_foreign_exponents(ring):
    basis = ideal(ring.gen(0)).groebner()
    # a slot past the basis's arity has key weight 0: t and 1 would share
    # a key
    ext = ring.extended(ring.arity + 1)
    t = ext.gen(ring.arity)
    for f in (t + ext.one(), ext.gen(1) * t):
        with pytest.raises(ContextMismatchError):
            basis.normal_form(f)
    # a polynomial of the wider ring in the basis's slots is divided
    assert basis.normal_form(ext.gen(0) * ext.gen(1) + ext.gen(2)) == (
        ext.gen(2))
    with pytest.raises(ValueError, match="exceeds 32767"):
        basis.normal_form(ring.monomial((0, 40000, 0, 0, 0)))


def test_a_basis_built_by_hand_keeps_the_exponent_budget(ring):
    x, y, z, w = ring.gens()
    # x^65536 would carry into y's slot, so the lead would read as y^2
    # and y^2*w would reduce to z*w
    basis = GroebnerBasis(ring, ((y * x ** 65536 - z).monic(),))
    with pytest.raises(ValueError, match="exceeds 32767"):
        basis.normal_form(y ** 2 * w)


def test_ideal_equality_is_presentation_independent(ring):
    x, y, z, w = ring.gens()
    a = ideal(x * z - y * y, x * w - y * z, y * w - z * z)
    combo = (x * z - y * y) + (x * w - y * z)
    b = ideal(y * w - z * z, combo, x * w - y * z, x * z - y * y)
    assert ideal_equal(a, b)
    assert not ideal_equal(a, ideal(x, y))
