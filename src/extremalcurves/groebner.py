"""Buchberger-based ideal arithmetic.

Normal forms, reduced Groebner bases (with Gebauer-Moeller pair pruning
and degree-then-key pair selection), elimination, quotient, intersection,
saturation and weight-vector initial ideals.

Pairs are taken by the total degree of their lcm first and by the order's
key second, the degree-by-degree selection of "One sugar cube, please"
(Giovini, Mora, Niesi, Robbiano & Traverso 1991).  The weight orders of
the degeneration and the block orders of elimination are not
degree-compatible: taking the smallest lcm in the order alone reduces a
low-weight pair of high degree first, and its remainders are large.
Under grevlex the key puts the degree first already, so nothing changes
there.  The inhomogeneous block-order inputs use the lcm's degree too.

The kernel works on "keyed" term lists: (K, coeff) pairs sorted
descending.  K is one int: the order's key tuple encoded as an int that
is linear in the exponent (`orders.int_key_weights`), times
2^KEY_SHIFT, plus the exponent packed into one int
(`orders.pack_exponent`, SLOT_BITS bits per slot with a guard bit on
top).  So K sorts as the key does, K & MASK gives back the packed
exponent, and K is one dot product with `orders.packed_key_weights`.
Multiplying by a monomial therefore adds one int to every K and never
re-sorts (`_offsets`); a divides b exactly when
((b | GUARD) - a) & GUARD == GUARD, since each slot's guard bit survives
the subtraction only if that slot does not borrow, and no slot borrows
into the key above it, so b may be a whole K.  Tuples appear only at the
edges: `_keyed` keys a Polynomial from outside, `_rekeyed` one the engine
produced, and `_from_keyed` and `divide_exact` unpack.  `initial_ideal`
and `_saturate_last_variable` key the terms of a basis the engine
produced with the same dot product, in the order they come: those terms
are sorted already and are the basis's own terms, or divisors of them.

No slot may exceed EXP_LIMIT.  `_keyed` rejects larger input exponents
(the generators, `normal_form`'s argument, `divide_exact`'s operands
and the elements of a GroebnerBasis, which may be built by hand), and
`_offsets` checks the slotwise maximum of a reducer's tail against each
shift, because under the block orders of `eliminate` a tail term can
exceed its lead in some variable.  Either way a ValueError names the
limit; nothing wraps into the next slot.  So every exponent of a basis
the engine cached is within the limit already, and `_rekeyed`, which
keys one again in a new order (`IdealBasis._computed`), scans for none.

Division reduces the remainder in place, as in heap division (Monagan &
Pearce 2009) and geobuckets (Yan 1998).  A `_Remainder` keeps the terms
still to be handled in a K -> coefficient dict, and a heap of negated Ks
yields the largest of them.  Each step pops the leading term, skips it
if it has cancelled, and subtracts the scaled reducer tail in the dict,
so a step costs the size of that tail rather than of the whole
remainder.  Normal forms (`GroebnerBasis.normal_form`, which the
monoid-surface kernel calls on each template monomial that a lead
divides), exact quotients and S-polynomials all use it.

Two things keep that step cheap.  The shift is fused into the
subtraction: `_Remainder.subtract` takes the reducer with the K its lead
must reach, adds the one offset to each tail term as it goes, and so
never builds a shifted copy of the tail.  And reduction is lazy: a
remainder coefficient is kept as the plain sum old - scale * c (an
unreduced int over GF(p), a Fraction over QQ) with no field-method call,
and `pop` brings each coefficient back with `field.reduce` once, when
its term reaches the top, and skips it there if it has cancelled.  Only
fully reduced coefficients leave the kernel.

Interreduction reduces only the tails that can change.  `_reduce_basis`
keeps the elements whose leads no other lead divides; reducing one of
them never changes its lead, so it stays monic, the others' leads stay
the leads of the ideal, and the element of the reduced basis with a given
lead is unique: any monic element of I with that lead and a standard
tail.  Two facts bound the reducers a tail needs, and neither drops one
that could act:
- A tail term lies below its element's lead, and a lead that divides a
  term is at most that term.  So only the kept leads below an element's
  lead can divide its tail, and it is reduced by those elements alone.
- `_buchberger_core` reduces each element it finds fully by every element
  before it, so no lead found before it divides a term of its tail.  So
  only a kept lead below it and found after it can act, and its normal
  form is taken only when one of those divides a tail term; most tails
  are standard already.
Inputs, and the divided basis of `_saturate_last_variable`, were reduced
by nothing, so every kept lead below theirs is tested.  The reducers
built on the way are handed to the GroebnerBasis, so a basis from
`buchberger` is not keyed again when it divides.

A basis already in hand is not computed again.  Three facts about reduced
bases of an ideal I let one serve where Buchberger would run:
- For the weight vector w refined by grevlex, the w-initial forms of the
  reduced basis of I are the reduced grevlex basis of in_w(I) (Sturmfels,
  Groebner Bases and Convex Polytopes, Prop. 1.8), so `initial_ideal`
  returns its ideal with that basis cached.
- `_saturate_last_variable` divides a Groebner basis of I : v^infinity
  out of I's (below) and interreduces it, so it caches the reduced basis.
- When every element of a cached reduced basis keeps its lead under
  another order, it is that order's reduced basis too.  Its leads
  generate a monomial ideal L inside in(I), so the monomials outside
  in(I) are among those outside L; both sets are bases of R/I (Macaulay),
  and a basis inside another is the same, so L = in(I).  Its terms are
  still standard, so it is reduced.
A basis reached so passes the same VERIFY_PRODUCED_BASES check as one
computed (`_produced`).

A basis in hand also seeds a new one.  `IdealBasis._computed` keys the
first cached reduced basis once in the new order.  When no lead moves,
that is the answer, by the third fact.  When some lead moves, the same
keyed lists are Buchberger's inputs in place of the generators: they
generate I, Buchberger works from any generating set (Traverso's, below,
too), and the reduced basis it ends with is unique, so the answer does
not change.  The seeds are most often far smaller than the generators:
a dense generator of a curve read in general coordinates reduces to a
few terms.  The cache is trusted here, as the third fact trusts it: a
basis planted from another ideal would seed a run towards that ideal's
basis, and the Hilbert target below, read off the same basis, would
agree with it.

A basis in hand bounds the work of a new one.  Every monomial order gives
a homogeneous ideal I the same Hilbert function, since the monomials
outside in(I) of each degree are a basis of R/I in that degree (Macaulay),
so a cached basis's leads give HF_{R/I} in every degree.  When Buchberger
must run for another order, it runs Hilbert-driven (Traverso, Hilbert
functions and the Buchberger algorithm, J. Symbolic Comput. 22, 1996).
The leads L found so far keep their series numerator by
N(L + (m)) = N(L) - t^deg(m) N(L : m).  At the first pair of degree k,
delta = HF_{R/L}(k) - HF_{R/I}(k) counts the degree-k monomials of in(I)
still missing from L.  Each nonzero remainder of a degree-k pair adds
one, its lead, so it lowers delta by exactly 1.  Once delta is 0, every
remaining degree-k pair would reduce to zero, and they are dropped.  A
delta below 0, or a final numerator other than the known one, means the
known Hilbert function is not this ideal's, and an AssertionError says
so.
Inhomogeneous input, or input with no basis in hand, runs pair for pair.

The Hilbert function is known once per ideal.  An IdealBasis keeps its
HilbertData (`hilbert.hilbert` stores it; `_known_hilbert` reads it off
the first cached basis when nothing is kept, and never runs Buchberger
for it), and Buchberger's target and `saturate_irrelevant`'s both read
that one value.  Two maps hand it on to their results, since both keep
the Hilbert function: `initial_ideal`, a Groebner degeneration whose
limit has the leads of the weight-order basis, and
`curves.transform_ideal`, an invertible linear change of coordinates,
which maps each graded piece of R/I isomorphically.  So a retried
attempt of `specialize` finds its first basis Hilbert-driven, and the
unsaturated limit's series is never computed.

Saturation by the irrelevant ideal m uses the single-variable
saturations I : v^infinity.  For homogeneous I under grevlex with v
last, v divides a homogeneous polynomial exactly when it divides the
lead term, so dividing each element of the reduced basis by its largest
power of v gives a Groebner basis of I : v^infinity (Bayer & Stillman
1987).  One pass suffices: those quotients are a Groebner basis whose
leads v does not divide, so no element of the reduced basis of
I : v^infinity is divisible by v and a second pass would divide
nothing.  Each I : v^infinity is saturated and contains I^sat, and two
saturated ideals, one inside the other, are equal exactly when their
Hilbert polynomials agree; I^sat has the Hilbert polynomial of I.  So
`saturate_irrelevant` returns the first I : v^infinity with I's Hilbert
polynomial, and only when none has it intersects all of them.
"""

from heapq import heapify, heappop, heappush
from itertools import chain
from operator import itemgetter, mul

from .fields import ContextMismatchError
from .orders import (EXP_LIMIT, GUARD, MASK, MAX_ARITY, BlockEliminationOrder,
                     GrevlexOrder, WeightRefinedOrder, exp_supported_within,
                     exponent_limit_error, packed_key_weights, packed_lcm,
                     term_key, unpack_exponent)
from .hilbert import (_hilbert_data, _hilbert_function, _numerator_plus,
                      _trim, hilbert)
from .poly import Polynomial

def _keyed(poly, order):
    """(K, coeff) terms of a Polynomial from outside the engine, sorted
    descending; ValueError, naming the largest slot of the first term past
    EXP_LIMIT, if any."""
    terms = poly.terms
    if max(chain.from_iterable(map(itemgetter(0), terms)),
           default=0) > EXP_LIMIT:
        raise exponent_limit_error(next(
            top for top in (max(e) for e, _ in terms) if top > EXP_LIMIT))
    return _rekeyed(poly, order)


def _rekeyed(poly, order):
    """(K, coeff) terms, sorted descending, of a Polynomial the engine
    produced, with no budget check: its exponents passed EXP_LIMIT on the
    way in (`_keyed`) or in `_offsets`."""
    weights = packed_key_weights(order)
    lst = [(sum(map(mul, weights, e)), c) for (e, c) in poly.terms]
    lst.sort(reverse=True)      # Ks are distinct, so only they compare
    return lst


def _from_keyed(ring, keyed):
    return Polynomial(ring, tuple((unpack_exponent(k & MASK), c)
                                  for (k, c) in keyed))


def _divides(a, b):
    return ((b | GUARD) - a) & GUARD == GUARD


def _offsets(reducer, k):
    """K offset of the monomial taking a reducer's lead to K k; ValueError
    if a shifted tail slot would pass EXP_LIMIT."""
    lead_exp, lead_k, _, tail_lcm = reducer
    top = tail_lcm + (k & MASK) - lead_exp
    if top & GUARD:
        raise exponent_limit_error(max(unpack_exponent(top)))
    return k - lead_k


class _Remainder:
    """Polynomial under division: K -> coefficient and a heap of negated
    Ks.

    The heap holds each dict key once, so pops come in descending order.
    Coefficients are stored unreduced; `pop` reduces each one once, and
    a term that has cancelled is skipped there.
    """

    __slots__ = ("reduce", "coeffs", "heap")

    def __init__(self, field, keyed=()):
        self.reduce = field.reduce
        self.coeffs = dict(keyed)
        self.heap = [-k for (k, _) in keyed]
        heapify(self.heap)

    def pop(self):
        """Largest nonzero (K, coeff) term, or None."""
        heap, coeffs = self.heap, self.coeffs
        reduce = self.reduce
        while heap:
            k = -heappop(heap)
            c = reduce(coeffs.pop(k))
            if c:
                return k, c
        return None

    def subtract(self, scale, reducer, k):
        """Subtract scale times the reducer's tail, shifted so that its lead
        lands on K k, in place."""
        shift = _offsets(reducer, k)
        coeffs, heap = self.coeffs, self.heap
        neg = -scale
        for (t, c) in reducer[2]:
            t += shift
            old = coeffs.get(t)
            if old is None:
                coeffs[t] = neg * c
                heappush(heap, -t)
            else:
                coeffs[t] = old + neg * c


def _normal_form_keyed(rem, reducers):
    """Keyed remainder of `rem` under division by monic reducers."""
    out = []
    while (top := rem.pop()) is not None:
        guarded = top[0] | GUARD    # `_divides`, with b | GUARD hoisted
        for red in reducers:
            if (guarded - red[0]) & GUARD == GUARD:
                rem.subtract(top[1], red, top[0])
                break
        else:
            out.append(top)
    return out


def _monicize(terms, field):
    c = terms[0][1]
    if c == field.one:
        return terms
    inv = field.inv(c)
    f_mul = field.mul
    return [(k, f_mul(inv, v)) for (k, v) in terms]


def _as_reducer(terms):
    """(lead_exp, lead K, tail, tail_lcm) of a keyed list; tail_lcm is the
    slotwise maximum of the tail's exponents, for `_offsets`."""
    tail = terms[1:]
    tail_lcm = 0
    for (k, _) in tail:
        tail_lcm = packed_lcm(tail_lcm, k & MASK)
    lead = terms[0][0]
    return (lead & MASK, lead, tail, tail_lcm)


def _spoly(a, b, lcm_k, field):
    """S-polynomial of two monic reducers whose leads have the lcm with K
    lcm_k, as a _Remainder."""
    spoly = _Remainder(field)
    spoly.subtract(-field.one, a, lcm_k)
    spoly.subtract(field.one, b, lcm_k)
    return spoly


def _buchberger_core(keyed_inputs, order, field, target=None):
    """Groebner basis of nonzero keyed inputs, which `update` makes monic,
    with its parallel reducers: the inputs first, then each element in the
    order found.  Gebauer-Moeller pair updates.

    A pair is (total degree of the lcm, K of the lcm, i, j, lcm), so the
    smallest tuple is the pair of lowest degree, the order's smallest lcm
    among those, with a deterministic index tie-break.  Under grevlex the
    key already puts the degree first and nothing changes; the weight and
    block orders are not degree-compatible, and taking their pairs by key
    alone would reduce a low-weight pair of high degree first.

    `target` is the Hilbert series numerator of R/I, trailing zeros
    trimmed, for homogeneous inputs generating I, read off a basis in
    hand; or None.  With it the run is Hilbert-driven: `update` keeps the
    numerator of the lead ideal L, and the pairs of a degree k are dropped
    once L has as many degree-k monomials as in(I) (the module
    docstring).  An AssertionError names a target that does not fit.
    """
    G = []          # monic keyed term lists
    reducers = []   # parallel reducers
    leads = []      # packed lead exponents
    pairs = set()
    weights = packed_key_weights(order)
    lead_exps = []  # unpacked leads, for the numerator of L
    numerator = [1]

    def update(new_terms):
        # Gebauer-Moeller: prune old pairs, build minimal new ones
        nonlocal pairs, numerator
        new_terms = _monicize(new_terms, field)
        lm_new = new_terms[0][0] & MASK
        if target is not None:
            lead = unpack_exponent(lm_new)
            numerator = _numerator_plus(numerator, lead_exps, lead)
            lead_exps.append(lead)
        m = len(G)
        kept = set()
        for pair in pairs:
            _, _, i, j, lij = pair
            if (not _divides(lm_new, lij)
                    or packed_lcm(leads[i], lm_new) == lij
                    or packed_lcm(leads[j], lm_new) == lij):
                kept.add(pair)
        groups = {}
        for i in range(m):
            groups.setdefault(packed_lcm(leads[i], lm_new), []).append(i)
        candidates = []
        for lcm_exp in groups:
            e = unpack_exponent(lcm_exp)
            candidates.append((sum(e), sum(map(mul, weights, e)), lcm_exp))
        minimal = []
        # a proper divisor of an lcm has lower degree, so it comes first
        for cand in sorted(candidates):
            if all(not _divides(prev[2], cand[2]) for prev in minimal):
                minimal.append(cand)
        for deg, lcm_k, lcm_exp in minimal:
            members = groups[lcm_exp]
            if any(lcm_exp == leads[i] + lm_new for i in members):
                continue  # coprime leads: S-polynomial reduces to zero
            kept.add((deg, lcm_k, min(members), m, lcm_exp))
        pairs = kept
        G.append(new_terms)
        reducers.append(_as_reducer(new_terms))
        leads.append(lm_new)

    for terms in keyed_inputs:
        update(terms)

    degree = deficit = None
    while pairs:
        pair = min(pairs)
        if target is not None:
            if pair[0] != degree:
                # dim in(I)_k - dim L_k: the degree-k leads still missing
                degree = pair[0]
                deficit = (_hilbert_function(numerator, order.arity, degree)
                           - _hilbert_function(target, order.arity, degree))
                if deficit < 0:
                    raise AssertionError(
                        f"Hilbert-driven Buchberger: the lead ideal outgrows "
                        f"the known Hilbert function in degree {degree}")
            if not deficit:
                pairs = {p for p in pairs if p[0] != degree}
                continue
        pairs.discard(pair)
        _, lcm_k, i, j, _ = pair
        remainder = _normal_form_keyed(
            _spoly(reducers[i], reducers[j], lcm_k, field), reducers)
        if remainder:
            update(remainder)
            if target is not None:
                deficit -= 1    # L gains one degree-k monomial, the lead

    if target is not None and numerator != target:
        raise AssertionError(
            "Hilbert-driven Buchberger: the lead ideal's Hilbert series "
            "differs from the known one")
    return G, reducers


def _reduce_basis(G, reducers, field, start):
    """Reduced basis of a monic Groebner basis G, as its elements and their
    reducers sorted by ascending lead.

    `reducers` are G's, and G[start:] are the elements `_buchberger_core`
    found, in the order found.  A kept element is reduced by the kept
    elements of smaller lead; one found by the core only when a kept lead
    below it and found after it divides a tail term, and one of G[:start]
    when any kept lead below it does (the module docstring).  An element
    left as it is keeps its reducer.
    """
    kept, leads = [], []    # indices into G, (K, exponent) of their leads
    for i in sorted(range(len(G)), key=lambda i: G[i][0][0]):
        k = G[i][0][0]
        if all(not _divides(lead, k) for (_, lead) in leads):
            kept.append(i)
            leads.append((k, k & MASK))
    basis = [G[i] for i in kept]
    out = [reducers[i] for i in kept]
    for idx, i in enumerate(kept):
        found = i if i >= start else -1
        below = [lead for j, lead in zip(kept[:idx], leads) if j > found]
        if _tail_reducible(out[idx][2], below):
            basis[idx] = _normal_form_keyed(_Remainder(field, basis[idx]),
                                            out[:idx])
            out[idx] = _as_reducer(basis[idx])
    return basis, out


def _tail_reducible(tail, leads):
    """Whether a lead divides a term of a keyed tail; `leads` are (K,
    exponent) pairs by ascending K, and a lead above a term cannot divide
    it."""
    for (k, _) in tail:
        guarded = k | GUARD
        for (key, lead) in leads:
            if key > k:
                break
            if (guarded - lead) & GUARD == GUARD:
                return True
    return False


class GroebnerBasis:
    """Reduced Groebner basis; elements monic, sorted by ascending lead."""

    __slots__ = ("ring", "elements", "_reducers")

    def __init__(self, ring, elements, reducers=None):
        self.ring = ring
        self.elements = elements
        self._reducers = reducers

    @property
    def order(self):
        return self.ring.order

    def reducers(self):
        if self._reducers is None:
            order = self.ring.order
            self._reducers = [_as_reducer(_keyed(g, order))
                              for g in self.elements]
        return self._reducers

    def lead_exponents(self):
        return [g.lead_exponent for g in self.elements]

    def normal_form(self, f):
        if f.ring.field != self.ring.field:
            raise ContextMismatchError("polynomial and basis fields differ")
        arity = self.ring.arity
        # a slot past the basis's arity has key weight 0, so its terms
        # would collide with others
        if f.ring.arity > arity and not all(
                exp_supported_within(e, arity) for e, _ in f.terms):
            raise ContextMismatchError("exponent outside ring arity")
        rem = _Remainder(self.ring.field, _keyed(f, self.ring.order))
        r = _normal_form_keyed(rem, self.reducers())
        return _from_keyed(self.ring, r).in_ring(f.ring)

    def contains(self, f):
        return self.normal_form(f).is_zero

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"GroebnerBasis({[str(g) for g in self.elements]})"


# when set, every basis the engine produces is re-checked against the
# Buchberger criterion before being returned (used by the test suite)
VERIFY_PRODUCED_BASES = False


def _produced(work_ring, keyed, reducers=None):
    """GroebnerBasis of the keyed elements of a reduced basis, sorted by
    ascending lead; re-checked when VERIFY_PRODUCED_BASES is set.  With
    their reducers given, the elements come sorted and the basis keeps
    them; else it builds them on first use."""
    if reducers is None:
        keyed = sorted(keyed, key=lambda terms: terms[0][0])
    basis = GroebnerBasis(work_ring,
                          tuple(_from_keyed(work_ring, g) for g in keyed),
                          reducers)
    if VERIFY_PRODUCED_BASES and not is_groebner(basis):
        raise AssertionError("produced basis fails the Buchberger criterion")
    return basis


def _known_hilbert(ideal_basis):
    """HilbertData of a homogeneous ideal when it is kept on the IdealBasis
    or a cached basis gives it, which is then kept; else None.  Never
    starts a Buchberger run."""
    if not ideal_basis.homogeneous:
        return None
    if ideal_basis._hilbert is None:
        for cached in ideal_basis._gb_cache.values():
            ideal_basis._hilbert = _hilbert_data(ideal_basis.ring.arity,
                                                 cached.lead_exponents())
            break
    return ideal_basis._hilbert


def buchberger(ideal_basis, order, keyed=None):
    """Reduced Groebner basis of an IdealBasis in the given order;
    Hilbert-driven when the ideal is homogeneous and its Hilbert function
    is known (`_known_hilbert`).  The run starts from `keyed`, the elements
    of the first cached basis keyed in `order` (`IdealBasis._computed`),
    or from the generators when it is None."""
    ring = ideal_basis.ring
    field = ring.field
    if keyed is None:
        keyed = [_keyed(g, order) for g in ideal_basis.generators]
    data = _known_hilbert(ideal_basis)
    target = None if data is None else _trim(list(data.numerator))
    G, reducers = _buchberger_core(keyed, order, field, target)
    return _produced(ring.with_order(order),
                     *_reduce_basis(G, reducers, field, len(keyed)))


def is_groebner(gb):
    """Buchberger criterion: every S-polynomial reduces to zero.

    Two kinds of pair are skipped.  One whose leads are coprime reduces to
    zero (Buchberger's first criterion).  And (i, j) is skipped by the
    chain criterion in its strict form, when a third lead k divides
    lcm(i, j) and lcm(i, k) != lcm(i, j) != lcm(j, k): S(i, j) is then a
    combination of S(i, k) and S(j, k), shifted up to lcm(i, j), and
    their lcms properly divide lcm(i, j).  By induction on the lcm, every
    S-polynomial has a representation below its lcm once the pairs left
    reduce to zero, so the verdict is exact (Cox, Little & O'Shea, Ideals,
    Varieties, and Algorithms, section 2.10, Theorem 3 and Proposition 4).
    """
    field = gb.ring.field
    reducers = gb.reducers()
    weights = packed_key_weights(gb.ring.order)
    leads = [red[0] for red in reducers]
    lcms = [[packed_lcm(a, b) for b in leads] for a in leads]
    n = len(leads)
    for i in range(n):
        for j in range(i + 1, n):
            lcm_exp = lcms[i][j]
            if lcm_exp == leads[i] + leads[j]:
                continue
            guarded = lcm_exp | GUARD   # `_divides`, with b | GUARD hoisted
            # k = i or j never qualifies: lcm(j, i) = lcm(i, j)
            if any((guarded - leads[k]) & GUARD == GUARD
                   and lcms[i][k] != lcm_exp and lcms[j][k] != lcm_exp
                   for k in range(n)):
                continue
            lcm_k = sum(map(mul, weights, unpack_exponent(lcm_exp)))
            spair = _spoly(reducers[i], reducers[j], lcm_k, field)
            if _normal_form_keyed(spair, reducers):
                return False
    return True


class IdealBasis:
    """Generator list with its ring context and a homogeneity flag.

    Generators are normalized monic, deduplicated and sorted; an empty
    list denotes the zero ideal.  Reduced Groebner bases are cached per
    monomial order; a new order's basis starts from the first cached one
    (`_computed`): that basis itself when every lead stays, else its
    elements seed Buchberger.  `_hilbert` keeps the HilbertData once known
    (`hilbert.hilbert`).
    """

    __slots__ = ("ring", "generators", "homogeneous", "_gb_cache",
                 "_hilbert")

    def __init__(self, ring, generators):
        gens = []
        seen = set()
        for g in generators:
            if not isinstance(g, Polynomial):
                raise TypeError("IdealBasis expects Polynomial generators")
            g = g.in_ring(ring)
            if g.is_zero:
                continue
            g = g.monic()
            if g.terms in seen:
                continue
            seen.add(g.terms)
            gens.append(g)
        key = term_key(ring.order, [g.lead_exponent for g in gens])
        gens.sort(key=lambda g: key(g.terms[0]))
        self.ring = ring
        self.generators = tuple(gens)
        self.homogeneous = all(g.is_homogeneous for g in gens)
        self._gb_cache = {}
        self._hilbert = None

    def groebner(self, order=None):
        if order is None:
            order = GrevlexOrder(self.ring.arity)
        gb = self._gb_cache.get(order)
        if gb is None:
            gb = self._gb_cache[order] = self._computed(order)
        return gb

    def _computed(self, order):
        """Reduced basis in an order not cached, from one pass over the
        first cached reduced basis, keyed in `order`: that basis re-sorted
        when every element keeps its lead, else Buchberger seeded with its
        keyed elements (the reuse facts in the module docstring); from the
        generators when nothing is cached."""
        cached = next(iter(self._gb_cache.values()), None)
        if cached is None:
            return buchberger(self, order)
        keyed = [_rekeyed(g, order) for g in cached.elements]
        if all(unpack_exponent(terms[0][0] & MASK) == g.lead_exponent
               for terms, g in zip(keyed, cached.elements)):
            return _produced(self.ring.with_order(order), keyed)
        return buchberger(self, order, keyed)

    def contains(self, f):
        return self.groebner().contains(f)

    @property
    def is_zero(self):
        return not self.generators

    def __repr__(self):
        return f"IdealBasis({[str(g) for g in self.generators]})"


def _with_basis(ring, basis):
    """IdealBasis generated by a reduced Groebner basis, with that basis in
    its cache."""
    result = IdealBasis(ring, basis.elements)
    result._gb_cache[basis.order] = basis
    return result


def ideal(*gens):
    """IdealBasis from polynomials sharing a ring."""
    if not gens:
        raise ValueError("ideal() needs at least one generator")
    return IdealBasis(gens[0].ring, gens)


def _check_rings(a, b):
    if a.ring != b.ring:
        raise ContextMismatchError("ideals live in different rings")


def ideal_equal(a, b):
    """Canonical comparison via reduced grevlex bases."""
    _check_rings(a, b)
    ga = a.groebner(GrevlexOrder(a.ring.arity))
    gb = b.groebner(GrevlexOrder(b.ring.arity))
    return ga.elements == gb.elements


def initial_ideal(ideal_basis, weights):
    """Ideal of initial forms with respect to a weight vector.

    Generated by the initial forms of a reduced Groebner basis in the
    weight-refined order, whose leads have the top weight of their
    elements.  Those forms are the reduced grevlex basis of the initial
    ideal (Sturmfels, Groebner Bases and Convex Polytopes, Prop. 1.8):
    each keeps its element's lead, since its terms tie in weight and
    grevlex breaks the tie, and its other terms are standard.  The result
    comes with that basis cached.

    An element's terms come sorted by weight first, so its initial form
    is the prefix of terms of its lead's weight, already in grevlex order;
    only that prefix is walked and keyed.  The initial ideal is a Groebner
    degeneration of the input, so it shares the input's Hilbert function,
    and the input's HilbertData, when known, is handed on.
    """
    ring = ideal_basis.ring
    if not ideal_basis.homogeneous:
        raise ValueError("initial ideals require a homogeneous input ideal")
    refined = WeightRefinedOrder(weights, ring.arity)
    grevlex = GrevlexOrder(ring.arity)
    weights, key = refined.weights, packed_key_weights(grevlex)
    forms = []
    for g in ideal_basis.groebner(refined).elements:
        top = sum(map(mul, weights, g.lead_exponent))
        form = []
        for e, c in g.terms:
            if sum(map(mul, weights, e)) != top:
                break
            form.append((sum(map(mul, key, e)), c))
        forms.append(form)
    result = _with_basis(ring, _produced(ring.with_order(grevlex), forms))
    result._hilbert = ideal_basis._hilbert
    return result


def eliminate(ideal_basis, front):
    """Generators of the intersection with the subring avoiding `front` slots."""
    ring = ideal_basis.ring
    front = tuple(sorted(set(front)))
    if not front:
        return ideal_basis
    if any(not 0 <= i < ring.arity for i in front):
        raise ValueError("front variables outside the ring")
    order = BlockEliminationOrder(front, ring.arity)
    gb = ideal_basis.groebner(order)
    kept = []
    for g in gb.elements:
        if any(g.lead_exponent[i] for i in front):
            continue
        if any(e[i] for e, _ in g.terms for i in front):
            raise AssertionError("elimination order misbehaved")
        kept.append(g.in_ring(ring))
    return IdealBasis(ring, kept)


def _extension(ring):
    if ring.arity >= MAX_ARITY:
        raise ValueError("no auxiliary variable slot left for this construction")
    return ring.extended(ring.arity + 1)


def ideal_intersect(a, b):
    """Intersection via the auxiliary-variable construction t*a + (1-t)*b."""
    _check_rings(a, b)
    ring = a.ring
    if a.is_zero or b.is_zero:
        return IdealBasis(ring, ())
    ext = _extension(ring)
    t = ext.gen(ring.arity)
    one = ext.one()
    gens = [t * f.in_ring(ext) for f in a.generators]
    gens += [(one - t) * g.in_ring(ext) for g in b.generators]
    elim = eliminate(IdealBasis(ext, gens), front=(ring.arity,))
    return IdealBasis(ring, elim.generators)


def divide_exact(f, g):
    """Quotient f / g when g divides f exactly; ValueError otherwise."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    ring = f.ring
    if g.ring != ring:
        raise ContextMismatchError("operands live in different rings")
    field = ring.field
    divisor = _as_reducer(_keyed(g, ring.order))
    lead_exp, lead_coeff = divisor[0], g.lead_coefficient
    rem = _Remainder(field, _keyed(f, ring.order))
    quotient = {}
    while (top := rem.pop()) is not None:
        k0, c0 = top
        if not _divides(lead_exp, k0):
            raise ValueError("polynomial is not divisible")
        q = field.div(c0, lead_coeff)
        quotient[unpack_exponent((k0 & MASK) - lead_exp)] = q
        rem.subtract(q, divisor, k0)
    return Polynomial.from_dict(ring, quotient)


def ideal_quotient_poly(ideal_basis, h):
    """Colon ideal I : (h) for a single nonzero polynomial."""
    if h.is_zero:
        raise ValueError("colon by the zero polynomial")
    ring = ideal_basis.ring
    h = h.in_ring(ring)
    if not h.degree:
        return ideal_basis
    meet = ideal_intersect(ideal_basis, IdealBasis(ring, (h,)))
    return IdealBasis(ring, [divide_exact(g, h) for g in meet.generators])


def ideal_quotient(a, b):
    """Colon ideal a : b, intersected over the generators of b."""
    _check_rings(a, b)
    if b.is_zero:
        raise ValueError("colon by the zero ideal is undefined")
    result = None
    for h in b.generators:
        q = ideal_quotient_poly(a, h)
        result = q if result is None else ideal_intersect(result, q)
        if result.is_zero:
            break
    return result


def _saturate_last_variable(ideal_basis):
    """I : v^infinity for the last grevlex variable of a homogeneous ideal,
    in one pass: I's reduced grevlex basis divided by powers of v and
    interreduced, cached; the input itself when nothing divides.

    The power of v that divides an element is the one in its lead (the
    module docstring).  Each element's terms are already sorted in
    grevlex, so they are keyed in place, with the shift folded in."""
    ring = ideal_basis.ring
    grevlex = GrevlexOrder(ring.arity)
    last = ring.arity - 1
    gb = ideal_basis.groebner(grevlex).elements
    powers = [g.lead_exponent[last] for g in gb]
    if not any(powers):
        return ideal_basis
    # dividing by v^k shifts every K by k units
    key = packed_key_weights(grevlex)
    unit = key[last]
    divided = [[(sum(map(mul, key, e)) - k * unit, c) for e, c in g.terms]
               for g, k in zip(gb, powers)]
    reduced, _ = _reduce_basis(divided, [_as_reducer(g) for g in divided],
                               ring.field, len(divided))
    return _with_basis(ring, _produced(ring.with_order(grevlex), reduced))


def saturate_variable(ideal_basis, slot):
    """I : v^infinity for one variable of a homogeneous ideal; a result
    other than the input comes generated by its cached reduced basis."""
    if not ideal_basis.homogeneous:
        raise ValueError("variable saturation requires a homogeneous ideal")
    ring = ideal_basis.ring
    last = ring.arity - 1
    if slot == last:
        return _saturate_last_variable(ideal_basis)
    swapped = IdealBasis(ring, [g.swap_variables(slot, last)
                                for g in ideal_basis.generators])
    sat = _saturate_last_variable(swapped)
    if sat is swapped:
        return ideal_basis
    back = [g.swap_variables(slot, last) for g in sat.generators]
    return _with_basis(ring, IdealBasis(ring, back).groebner())


def saturate_irrelevant(ideal_basis):
    """Saturation with respect to the irrelevant maximal ideal.

    The variables are tried from the last.  An input that one of them
    leaves unchanged is returned as it is; the first I : v^infinity with
    the Hilbert polynomial of I is returned as `saturate_variable` gives
    it, generated by its reduced grevlex basis with that basis cached;
    when there is none, the intersection of all of them.
    """
    if not ideal_basis.homogeneous:
        raise ValueError("saturation requires a homogeneous ideal")
    ring = ideal_basis.ring
    sats = []
    target = None
    for slot in range(ring.arity - 1, -1, -1):
        s = saturate_variable(ideal_basis, slot)
        if s is ideal_basis:
            return ideal_basis
        if target is None:
            target = hilbert(ideal_basis).hp_coefficients
        if hilbert(s).hp_coefficients == target:
            return s
        sats.append(s)
    result = sats[0]
    for s in sats[1:]:
        result = ideal_intersect(result, s)
    return result
