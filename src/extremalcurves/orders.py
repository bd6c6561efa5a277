"""Monomial exponents and monomial orders.

An exponent is a tuple of CAPACITY small non-negative integers; slots
beyond a ring's active arity stay zero.  The five fixed variable slots
are x y z w t: x..w form the curve ring, and t is the one auxiliary
variable of the intersection, saturation and family constructions.

Every order here exposes a `key` that is linear in the exponent, so the
key of a product is the componentwise sum of keys.  The Groebner kernel
relies on that to shift sorted term lists without re-sorting.

The kernel packs an exponent into one int, SLOT_BITS bits per slot with
the top bit of each slot a guard that is clear in a valid exponent, so
no slot may exceed EXP_LIMIT.  It encodes a key tuple as one int too:
`int_key_weights(order)` gives per-slot integers whose dot product with
the exponent is a mixed-radix reading of the key tuple, each radix one
more than the width of the range its component spans over exponents
within EXP_LIMIT, so the int is linear in the exponent and compares
exactly as the tuple does.  The kernel carries each term as one int K,
that int key times 2^KEY_SHIFT plus the packed exponent:
`packed_key_weights(order)` gives its per-slot integers.  K sorts as the
key does, K & MASK is the packed exponent, and K is linear too.
"""

from functools import lru_cache
from operator import mul
from struct import Struct

from .fields import ContextMismatchError

CAPACITY = 5
VAR_NAMES = ("x", "y", "z", "w", "t")
MAX_ARITY = len(VAR_NAMES)

ZERO_EXP = (0,) * CAPACITY

def exp_from_var(index, power=1):
    if not 0 <= index < MAX_ARITY:
        raise ValueError(f"variable slot {index} out of range")
    e = [0] * CAPACITY
    e[index] = power
    return tuple(e)


def exp_mul(a, b):
    return tuple(a[i] + b[i] for i in range(CAPACITY))


def exp_supported_within(e, arity):
    """True when the exponent uses only the first `arity` slots."""
    return all(e[i] == 0 for i in range(arity, CAPACITY))


SLOT_BITS = 16
EXP_LIMIT = (1 << (SLOT_BITS - 1)) - 1
GUARD = sum(1 << (SLOT_BITS * i + SLOT_BITS - 1) for i in range(CAPACITY))
KEY_SHIFT = SLOT_BITS * CAPACITY
MASK = (1 << KEY_SHIFT) - 1             # the packed exponent's bits
_SLOTS = Struct(f"<{CAPACITY}H")        # one unsigned 16-bit field a slot


def exponent_limit_error(value):
    return ValueError(f"exponent {value} exceeds {EXP_LIMIT}, the largest "
                      "a packed monomial slot holds")


def pack_exponent(e):
    """One int holding exponent e; ValueError past EXP_LIMIT."""
    top = max(e)
    if top > EXP_LIMIT:
        raise exponent_limit_error(top)
    return int.from_bytes(_SLOTS.pack(*e), "little")


def unpack_exponent(p):
    """Exponent tuple of a packed int.  Slots are read whole, guard bit
    included, so a sum that overflowed a slot shows its true value."""
    return _SLOTS.unpack(p.to_bytes(_SLOTS.size, "little"))


def packed_lcm(a, b):
    """Packed least common multiple: the larger value in each slot."""
    ge = ((a | GUARD) - b) & GUARD          # guard set where a >= b
    mask = ge - (ge >> (SLOT_BITS - 1))     # value bits of those slots
    return (a & mask) | (b & ~mask)


@lru_cache(maxsize=None)
def int_key_weights(order):
    """Per-slot integers c with sum(c[i] * e[i]) ordered exactly as
    order.key(e), for exponents whose slots stay within EXP_LIMIT."""
    units = [order.key(exp_from_var(i)) for i in range(order.arity)]
    weights = [0] * CAPACITY
    radix = 1
    for j in reversed(range(len(units[0]))):
        for i, unit in enumerate(units):
            weights[i] += unit[j] * radix
        radix *= EXP_LIMIT * sum(abs(unit[j]) for unit in units) + 1
    return tuple(weights)


@lru_cache(maxsize=None)
def packed_key_weights(order):
    """Integers c, one per slot of the order's arity, with sum(c[i] * e[i])
    equal to the int key of e times 2^KEY_SHIFT plus `pack_exponent(e)`,
    for exponents within the arity whose slots stay within EXP_LIMIT."""
    return tuple((k << KEY_SHIFT) + (1 << SLOT_BITS * i)
                 for i, k in enumerate(int_key_weights(order)[:order.arity]))


def term_key(order, exponents):
    """Sort key under `order` of (exponent, coeff) terms with exponents in
    `exponents`: the int key, or `order.key` if a slot passes EXP_LIMIT."""
    if max(map(max, exponents), default=0) > EXP_LIMIT:
        key = order.key
        return lambda term: key(term[0])
    weights = int_key_weights(order)
    return lambda term: sum(map(mul, weights, term[0]))


def monomial_exponents(arity, degree):
    """All exponents of the given total degree in the first `arity` slots."""
    if arity <= 0:
        if degree == 0:
            yield ZERO_EXP
        return

    def rec(slot, remaining, prefix):
        if slot == arity - 1:
            yield tuple(prefix + [remaining] + [0] * (CAPACITY - arity))
            return
        for v in range(remaining, -1, -1):
            yield from rec(slot + 1, remaining - v, prefix + [v])

    yield from rec(0, degree, [])


def _grevlex_key(e, arity):
    total = 0
    for i in range(arity):
        total += e[i]
    return (total,) + tuple(-e[i] for i in range(arity - 1, -1, -1))


class GrevlexOrder:
    """Graded reverse lexicographic order on the first `arity` slots."""

    __slots__ = ("arity",)

    def __init__(self, arity):
        if not 1 <= arity <= MAX_ARITY:
            raise ValueError(f"arity {arity} out of range")
        self.arity = arity

    def key(self, e):
        return _grevlex_key(e, self.arity)

    def __eq__(self, other):
        return isinstance(other, GrevlexOrder) and other.arity == self.arity

    def __hash__(self):
        return hash(("grevlex", self.arity))

    def __repr__(self):
        return f"GrevlexOrder({self.arity})"


class WeightRefinedOrder:
    """Weight-degree comparison first, grevlex on ties.

    Zero weights are allowed (the projection probe uses (1,0,0,0)); the
    grevlex tie-break keeps this a genuine term order.
    """

    __slots__ = ("arity", "weights")

    def __init__(self, weights, arity=None):
        weights = tuple(int(w) for w in weights)
        if arity is None:
            arity = len(weights)
        if len(weights) != arity:
            raise ContextMismatchError(
                "one weight per active variable required")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        if not any(weights):
            raise ValueError("weight vector must not be zero")
        if not 1 <= arity <= MAX_ARITY:
            raise ValueError(f"arity {arity} out of range")
        self.arity = arity
        self.weights = weights

    def weight_degree(self, e):
        return sum(map(mul, self.weights, e))

    def key(self, e):
        return (self.weight_degree(e),) + _grevlex_key(e, self.arity)

    def __eq__(self, other):
        return (isinstance(other, WeightRefinedOrder)
                and other.arity == self.arity
                and other.weights == self.weights)

    def __hash__(self):
        return hash(("weight", self.arity, self.weights))

    def __repr__(self):
        return f"WeightRefinedOrder({self.weights})"


class BlockEliminationOrder:
    """Front block compared first (grevlex), remaining variables break ties.

    A Groebner basis in this order intersects the ideal with the subring
    that omits the front variables.
    """

    __slots__ = ("arity", "front", "back")

    def __init__(self, front, arity):
        front = tuple(sorted(set(int(i) for i in front)))
        if not 1 <= arity <= MAX_ARITY:
            raise ValueError(f"arity {arity} out of range")
        if not front:
            raise ValueError("front block must be nonempty")
        if any(not 0 <= i < arity for i in front):
            raise ValueError("front block outside active variables")
        if len(front) >= arity:
            raise ValueError("front block must be a proper subset")
        self.arity = arity
        self.front = front
        self.back = tuple(i for i in range(arity) if i not in front)

    def key(self, e):
        f, b = self.front, self.back
        fdeg = sum(e[i] for i in f)
        bdeg = sum(e[i] for i in b)
        return ((fdeg,) + tuple(-e[i] for i in reversed(f))
                + (bdeg,) + tuple(-e[i] for i in reversed(b)))

    def __eq__(self, other):
        return (isinstance(other, BlockEliminationOrder)
                and other.arity == self.arity and other.front == self.front)

    def __hash__(self):
        return hash(("block", self.arity, self.front))

    def __repr__(self):
        return f"BlockEliminationOrder(front={self.front}, arity={self.arity})"
