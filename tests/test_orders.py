import itertools

import pytest

from extremalcurves import (BlockEliminationOrder, GrevlexOrder, PolyRing,
                            PrimeField, WeightRefinedOrder, ideal_intersect)
from extremalcurves.groebner import IdealBasis
from extremalcurves.orders import (CAPACITY, MAX_ARITY, VAR_NAMES, exp_from_var,
                                   exp_mul, monomial_exponents)

GREVLEX4 = GrevlexOrder(4)
REFINED = WeightRefinedOrder((4, 2, 1, 1))


def _exp(x=0, y=0, z=0, w=0):
    return (x, y, z, w, 0)


def test_weight_tie_grevlex_break():
    u = _exp(x=1, w=3)  # x*w^3
    v = _exp(y=3, z=1)  # y^3*z
    assert REFINED.weight_degree(u) == REFINED.weight_degree(v) == 7
    # grevlex puts the w-heavy monomial lower, so the tie breaks to v
    assert REFINED.key(u) < REFINED.key(v)
    assert GREVLEX4.key(u) < GREVLEX4.key(v)


def test_weight_dominates():
    u = _exp(z=4)       # weight 4
    v = _exp(x=1, w=3)  # weight 7
    assert REFINED.key(u) < REFINED.key(v)


def test_reflexive_equal():
    u = _exp(x=2, w=1)
    assert REFINED.key(u) == REFINED.key(_exp(x=2, w=1))
    assert GREVLEX4.key(u) == GREVLEX4.key(_exp(x=2, w=1))


def test_five_slots_one_auxiliary():
    # x, y, z, w and the one auxiliary t of the constructions
    assert (CAPACITY, MAX_ARITY) == (5, 5)
    assert VAR_NAMES == ("x", "y", "z", "w", "t")
    with pytest.raises(ValueError):
        exp_from_var(5)
    with pytest.raises(ValueError):
        PolyRing(PrimeField(), 6)
    # a five-variable ring has no slot left for another auxiliary
    ring = PolyRing(PrimeField(), 5)
    a = IdealBasis(ring, [ring.gen(4)])
    with pytest.raises(ValueError, match="no auxiliary variable slot"):
        ideal_intersect(a, a)


@pytest.mark.parametrize("order", [GREVLEX4, REFINED,
                                   WeightRefinedOrder((1, 0, 0, 0))])
def test_order_axioms_exhaustive_to_degree_five(order):
    monos = [m for d in range(6) for m in monomial_exponents(4, d)]
    keys = {m: order.key(m) for m in monos}
    # totality with antisymmetry: the key map is injective
    assert len(set(keys.values())) == len(monos)
    # 1 is minimal among the enumerated monomials
    one = (0,) * 5
    assert all(keys[m] > keys[one] for m in monos if m != one)
    # multiplicativity on a sample of products that stay enumerable
    small = [m for d in range(3) for m in monomial_exponents(4, d)]
    for u, v in itertools.combinations(small, 2):
        less = keys[u] < keys[v]
        for w in small:
            uw, vw = exp_mul(u, w), exp_mul(v, w)
            assert (order.key(uw) < order.key(vw)) == less


def test_grevlex_known_ladder():
    # x^2 > x*y > y^2 > x*z > y*z > z^2 > x*w > y*w > z*w > w^2
    ladder = [_exp(x=2), _exp(x=1, y=1), _exp(y=2), _exp(x=1, z=1),
              _exp(y=1, z=1), _exp(z=2), _exp(x=1, w=1), _exp(y=1, w=1),
              _exp(z=1, w=1), _exp(w=2)]
    for a, b in zip(ladder, ladder[1:]):
        assert GREVLEX4.key(a) > GREVLEX4.key(b)


def test_block_elimination_front_dominates():
    order = BlockEliminationOrder(front=(4,), arity=5)
    t = exp_from_var(4)
    big_back = _exp(x=5)
    assert order.key(t) > order.key(big_back)
    # within equal front degree the back block decides by grevlex
    tx = exp_mul(t, _exp(x=1))
    ty = exp_mul(t, _exp(y=1))
    assert order.key(tx) > order.key(ty)


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightRefinedOrder((0, 0, 0, 0))
    with pytest.raises(ValueError):
        WeightRefinedOrder((-1, 2, 1, 1))
    # zero entries are legal as long as one weight is positive
    WeightRefinedOrder((1, 0, 0, 0))
