"""Packed exponents and int order keys against the tuple definitions.

The Groebner kernel packs each exponent into one int, encodes each order
key as one int, and carries a term as one int K holding both; these
properties check that the packed forms agree with the tuples of
`orders.py` over the whole exponent budget, and that an exponent past
the budget is refused instead of wrapping.
"""

from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from extremalcurves import PrimeField, curve_ring
from extremalcurves.groebner import IdealBasis, _divides, eliminate
from extremalcurves.orders import (CAPACITY, EXP_LIMIT, GUARD, KEY_SHIFT,
                                   MASK, BlockEliminationOrder,
                                   GrevlexOrder, WeightRefinedOrder,
                                   exp_from_var, exp_mul, int_key_weights,
                                   pack_exponent, packed_key_weights,
                                   packed_lcm, unpack_exponent)

ORDERS = [GrevlexOrder(4),
          WeightRefinedOrder((3, 2, 1, 1)),
          WeightRefinedOrder((8, 2, 1, 1)),
          WeightRefinedOrder((20, 2, 1, 1)),
          WeightRefinedOrder((1, 0, 0, 0)),
          BlockEliminationOrder((4,), 5),
          BlockEliminationOrder((1, 3), 5)]
# "block7" is the non-contiguous front (y, w) of five slots; the id kept
# its name when the engine went from seven slots to five
ORDER_IDS = ["grevlex4", "weight3", "weight8", "weight20", "weight-probe",
             "block5", "block7"]

# small values make ties and divisibility common; the full range reaches
# the budget's edge, where a too-narrow key radix would show
_SLOT = st.one_of(st.integers(0, 3), st.integers(0, EXP_LIMIT),
                  st.sampled_from((EXP_LIMIT - 1, EXP_LIMIT)))


def exponents(arity=CAPACITY, slot=_SLOT):
    return st.tuples(*[slot] * arity).map(
        lambda e: e + (0,) * (CAPACITY - arity))


def _int_key(order, e):
    return sum(map(mul, int_key_weights(order), e))


def _packed_key(order, e):
    return sum(map(mul, packed_key_weights(order), e))


def _sign(a, b):
    return (a > b) - (a < b)


@settings(max_examples=200, deadline=None, database=None)
@given(e=exponents())
def test_pack_round_trip(e):
    p = pack_exponent(e)
    assert unpack_exponent(p) == e
    assert p >= 0 and p & GUARD == 0


@settings(max_examples=200, deadline=None, database=None)
@given(a=exponents(), b=exponents())
def test_packed_product_is_addition(a, b):
    ab = exp_mul(a, b)
    if max(ab) <= EXP_LIMIT:
        assert pack_exponent(a) + pack_exponent(b) == pack_exponent(ab)
    # a slot past the budget shows its true value when read back
    assert unpack_exponent(pack_exponent(a) + pack_exponent(b)) == ab


@settings(max_examples=200, deadline=None, database=None)
@given(a=exponents(), b=exponents(), c=exponents(slot=st.integers(0, 2)))
def test_packed_divides_matches_componentwise(a, b, c):
    # b * c is divisible by b whenever it stays within the budget
    bc = exp_mul(b, c)
    cases = [(a, b), (b, a), (a, a)]
    if max(bc) <= EXP_LIMIT:
        cases.append((b, bc))
    for u, v in cases:
        expected = all(ui <= vi for ui, vi in zip(u, v))
        assert _divides(pack_exponent(u), pack_exponent(v)) == expected


@settings(max_examples=200, deadline=None, database=None)
@given(a=exponents(), b=exponents())
def test_packed_lcm_matches_componentwise(a, b):
    expected = tuple(map(max, a, b))
    assert unpack_exponent(packed_lcm(pack_exponent(a),
                                      pack_exponent(b))) == expected


def _moved(e, i, j, amount):
    e = list(e)
    e[i] -= amount
    e[j] += amount
    return tuple(e)


@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_int_key_orders_as_tuple_key(order, data):
    u = data.draw(exponents(order.arity))
    slots = range(order.arity)
    # moving exponent from one slot to another keeps the total degree, so
    # the leading key components tie and the later ones decide: every
    # one-unit move, then a random sequence of moves and a replaced slot
    others = [_moved(u, i, j, 1) for i in slots for j in slots
              if i != j and u[i] > 0 and u[j] < EXP_LIMIT]
    v = u
    slot = st.integers(0, order.arity - 1)
    for i, j in data.draw(st.lists(st.tuples(slot, slot), max_size=3)):
        v = _moved(v, i, j, data.draw(st.integers(
            0, min(v[i], EXP_LIMIT - v[j]))))
    if data.draw(st.booleans()):
        k = data.draw(slot)
        v = v[:k] + (data.draw(_SLOT),) + v[k + 1:]
    others.append(v)
    # w's leading component is within one of u's while its other slots
    # roam the whole budget: the later components then differ by up to
    # their full range, which only a wide enough radix absorbs
    lead = [order.key(exp_from_var(i))[0] for i in slots]
    w = list(data.draw(exponents(order.arity)))
    k = data.draw(st.sampled_from([i for i in slots if lead[i]]))
    target = order.key(u)[0] + data.draw(st.integers(-1, 1))
    q, r = divmod(target - sum(lead[i] * w[i] for i in slots if i != k),
                  lead[k])
    if r == 0 and 0 <= q <= EXP_LIMIT:
        w[k] = q
        others.append(tuple(w))
    for v in others:
        expected = _sign(order.key(u), order.key(v))
        assert _sign(_int_key(order, u), _int_key(order, v)) == expected
        # K sorts as the key does, and its low bits are the exponent
        assert _sign(_packed_key(order, u), _packed_key(order, v)) == expected
        assert _packed_key(order, v) & MASK == pack_exponent(v)


@pytest.mark.parametrize("d", [8, 20])
def test_int_key_radix_absorbs_the_degree_range(d):
    # u outweighs v by one in the (d, 2, 1, 1) weight, while v's total
    # degree exceeds u's by more than EXP_LIMIT: the radix under the weight
    # component must cover the degree component's whole range
    order = WeightRefinedOrder((d, 2, 1, 1))
    k = -(-(3 * EXP_LIMIT + 1) // d)
    u = (k, 0, 0, 0, 0)
    v = (0, EXP_LIMIT, EXP_LIMIT, d * k - 3 * EXP_LIMIT - 1, 0)
    assert sum(v) - sum(u) > EXP_LIMIT
    assert order.key(u) > order.key(v)
    assert _int_key(order, u) > _int_key(order, v)


@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_int_key_is_linear(order, data):
    a = data.draw(exponents(order.arity))
    b = data.draw(exponents(order.arity))
    assert _int_key(order, exp_mul(a, b)) == (_int_key(order, a)
                                             + _int_key(order, b))
    assert _int_key(order, (0,) * CAPACITY) == 0
    # K too: a monomial shift is one int add
    assert _packed_key(order, exp_mul(a, b)) == (_packed_key(order, a)
                                                + _packed_key(order, b))
    assert _packed_key(order, (0,) * CAPACITY) == 0
    for e in (a, b, exp_mul(a, b)):
        if max(e) <= EXP_LIMIT:
            assert _packed_key(order, e) & MASK == pack_exponent(e)
            assert _packed_key(order, e) >> KEY_SHIFT == _int_key(order, e)


def test_exponent_past_budget_is_refused():
    with pytest.raises(ValueError, match=str(EXP_LIMIT)):
        pack_exponent((EXP_LIMIT + 1,) + (0,) * (CAPACITY - 1))
    ring = curve_ring(PrimeField())
    x, y, z, w = ring.gens()
    with pytest.raises(ValueError, match=str(EXP_LIMIT)):
        IdealBasis(ring, [x ** (EXP_LIMIT + 1) * y
                          - y ** (EXP_LIMIT + 2)]).groebner(ring.order)


def test_exponent_produced_past_budget_is_refused():
    # every input exponent fits, but in the block order (x) > (y, z, w)
    # reducing x*y^5000 by x - y^30000 produces y^35000
    ring = curve_ring(PrimeField())
    x, y, z, w = ring.gens()
    gens = [x - y ** 30000, x * y ** 5000]
    with pytest.raises(ValueError, match="exponent 35000 exceeds 32767"):
        eliminate(IdealBasis(ring, gens), (0,))
    # in grevlex the same ideal stays within the budget
    assert len(IdealBasis(ring, gens).groebner(ring.order)) == 3
