"""Independent brute-force oracles.

Everything here but `saturate_poly` and `weight_basis_extremal_check`
avoids the package's Groebner engine on purpose: graded dimensions come
from rank computations on raw generator multiples, resultants from a
Sylvester determinant, root searches from exhaustive enumeration,
polynomial text from a token-at-a-time recursive-descent parser, linear
substitutions from products of powers of the variables' images.  The
tests compare engine output against these.  `saturate_poly` is the
textbook saturation by elimination; it shares the engine's Buchberger but
not its divide-out route to I : v^infinity, which is held to it.
`weight_basis_extremal_check` reads the extremal shape off the (d, 2, 1, 1)
basis and compares a rebuilt ideal with the input, where the certificate
reads the grevlex basis alone.  `dense_monoid_surface` builds the monoid
surface from the dense kernel over the whole template, where the search
reads only the kernel's nonzero entries.

Five references keep earlier forms of rewritten helpers: `minimalize`
tests divisibility slot by slot on exponent tuples; `hilbert_polynomial`
sums Fraction binomials; `initial_forms` grades every term with
`initial_form` and keys the result; `min_power_saturation`
reads each power of v as a minimum over all terms and interreduces by
the merge reference; `sorted_family` builds each family element as a
dict and sorts it with `Polynomial.from_dict`.
"""

import re
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import mul

from extremalcurves import linalg
from extremalcurves.curves import Invariants, _extremal_generators
from extremalcurves.degeneration import (_monoid_forms, _rao_dims,
                                         monoid_template)
from extremalcurves.groebner import (IdealBasis, _extension, _keyed,
                                     _normal_form_keyed, _spoly, eliminate)
from extremalcurves.orders import (ZERO_EXP, GrevlexOrder, WeightRefinedOrder,
                                   exp_from_var, exp_mul, packed_key_weights,
                                   packed_lcm, unpack_exponent)
from extremalcurves.poly import ParseError, Polynomial, binary_forms_coprime

CAP = 5


def monomials(arity, degree):
    """All degree-`degree` exponent tuples in the first `arity` slots."""
    out = []
    for combo in combinations_with_replacement(range(arity), degree):
        e = [0] * CAP
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def _rref(field, rows, ncols):
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if not field.is_zero(rows[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not field.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [field.sub(rows[i][j], field.mul(f, rows[r][j]))
                           for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(field, rows, ncols):
    return len(_rref(field, rows, ncols)[1])


def _ideal_rows(gens, arity, n):
    """Row vectors spanning the degree-n piece of the ideal of `gens`."""
    mono_index = {m: i for i, m in enumerate(monomials(arity, n))}
    field = gens[0].ring.field
    rows = []
    for g in gens:
        if g.is_zero:
            continue
        shift = n - g.degree
        if shift < 0:
            continue
        for m in monomials(arity, shift):
            row = [field.zero] * len(mono_index)
            for e, c in g.terms:
                prod = tuple(e[i] + m[i] for i in range(CAP))
                row[mono_index[prod]] = c
            rows.append(row)
    return rows, mono_index


def ideal_graded_dim(gens, n, arity=4):
    """dim_k I_n computed by rank, with no Groebner bases involved."""
    rows, mono_index = _ideal_rows(gens, arity, n)
    if not rows:
        return 0
    return rank(gens[0].ring.field, rows, len(mono_index))


def quotient_graded_dim(gens, n, arity=4):
    """dim_k (R/I)_n by monomial count minus ideal rank."""
    return len(monomials(arity, n)) - ideal_graded_dim(gens, n, arity)


def poly_vector(f, mono_index):
    field = f.ring.field
    row = [field.zero] * len(mono_index)
    for e, c in f.terms:
        row[mono_index[e]] = c
    return row


def in_ideal_degreewise(f, gens, arity=4):
    """Membership of a homogeneous f in the span of generator multiples."""
    n = f.degree
    field = f.ring.field
    rows, mono_index = _ideal_rows(gens, arity, n)
    base = rank(field, rows, len(mono_index)) if rows else 0
    rows.append(poly_vector(f, mono_index))
    return rank(field, rows, len(mono_index)) == base


def intersection_graded_dim(gens_a, gens_b, n, arity=4):
    """dim (A_n intersect B_n) = dim A_n + dim B_n - dim(A_n + B_n)."""
    field = gens_a[0].ring.field
    rows_a, mono_index = _ideal_rows(gens_a, arity, n)
    rows_b, _ = _ideal_rows(gens_b, arity, n)
    ncols = len(mono_index)
    dim_a = rank(field, rows_a, ncols) if rows_a else 0
    dim_b = rank(field, rows_b, ncols) if rows_b else 0
    dim_sum = rank(field, rows_a + rows_b, ncols) if rows_a or rows_b else 0
    return dim_a + dim_b - dim_sum


def colon_graded_dim(gens_i, gens_j, n, arity=4):
    """dim {f in R_n : f * J subset I}, by stacking residual constraints."""
    field = gens_i[0].ring.field
    source = monomials(arity, n)
    constraints = []
    for h in gens_j:
        if h.is_zero:
            continue
        target_deg = n + h.degree
        target = {m: i for i, m in enumerate(monomials(arity, target_deg))}
        i_rows, _ = _ideal_rows(gens_i, arity, target_deg)
        reduced, pivots = _rref(field, i_rows, len(target))

        def residual(vec):
            vec = list(vec)
            for r, pc in enumerate(pivots):
                c = vec[pc]
                if not field.is_zero(c):
                    for j in range(len(vec)):
                        vec[j] = field.sub(vec[j],
                                           field.mul(c, reduced[r][j]))
            return vec

        cols = []
        for m in source:
            prod_vec = [field.zero] * len(target)
            for e, c in h.terms:
                prod = tuple(e[i] + m[i] for i in range(CAP))
                prod_vec[target[prod]] = c
            cols.append(residual(prod_vec))
        # transpose: one constraint row per target coordinate
        for k in range(len(target)):
            row = [cols[s][k] for s in range(len(source))]
            if any(not field.is_zero(v) for v in row):
                constraints.append(row)
    if not constraints:
        return len(source)
    return len(source) - rank(field, constraints, len(source))


def standard_monomial_count(lead_exps, arity, n):
    """Monomials of degree n divisible by no leading exponent."""
    count = 0
    for m in monomials(arity, n):
        if all(any(le[i] > m[i] for i in range(CAP)) for le in lead_exps):
            count += 1
    return count


def sylvester_resultant(f_form, g_form):
    """Resultant of two binary forms via the Sylvester determinant."""
    field = f_form.field
    m, n = f_form.degree, g_form.degree
    size = m + n
    rows = []
    a = list(f_form.coeffs)   # a_i z^(m-i) w^i
    b = list(g_form.coeffs)
    for shift in range(n):
        row = [field.zero] * size
        for i, c in enumerate(a):
            row[shift + i] = c
        rows.append(row)
    for shift in range(m):
        row = [field.zero] * size
        for i, c in enumerate(b):
            row[shift + i] = c
        rows.append(row)
    # Gaussian determinant with partial pivoting by nonzero pivot
    det = field.one
    for c in range(size):
        pivot = None
        for r in range(c, size):
            if not field.is_zero(rows[r][c]):
                pivot = r
                break
        if pivot is None:
            return field.zero
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = field.neg(det)
        det = field.mul(det, rows[c][c])
        inv = field.inv(rows[c][c])
        for r in range(c + 1, size):
            if not field.is_zero(rows[r][c]):
                factor = field.mul(rows[r][c], inv)
                rows[r] = [field.sub(rows[r][j],
                                     field.mul(factor, rows[c][j]))
                           for j in range(size)]
    return det


def euclid_gcd(field, a, b):
    """Euclid on ascending coefficient lists with one field-method call
    per operation; returns a trimmed list."""
    a, b = list(a), list(b)

    def trim(v):
        while v and field.is_zero(v[-1]):
            v.pop()
        return v

    a, b = trim(a), trim(b)
    while b:
        # a mod b
        inv_lead = field.inv(b[-1])
        while len(a) >= len(b) and a:
            shift = len(a) - len(b)
            factor = field.mul(a[-1], inv_lead)
            for i in range(len(b)):
                a[shift + i] = field.sub(a[shift + i], field.mul(factor, b[i]))
            a = trim(a)
        a, b = b, a
    return a


def common_projective_root(f_form, g_form, p):
    """Exhaustive common-root search over the projective line of GF(p)."""
    points = [(1, t) for t in range(p)] + [(0, 1)]
    for z0, w0 in points:
        if (f_form.field.is_zero(f_form.evaluate(z0, w0))
                and g_form.field.is_zero(g_form.evaluate(z0, w0))):
            return True
    return False


def _merge_sub(a, b, key, field):
    """a - b for (exponent, coeff) lists sorted descending under `key`."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        ka, kb = key(a[i][0]), key(b[j][0])
        if ka > kb:
            out.append(a[i])
            i += 1
        elif ka < kb:
            out.append((b[j][0], field.neg(b[j][1])))
            j += 1
        else:
            c = field.sub(a[i][1], b[j][1])
            if not field.is_zero(c):
                out.append((a[i][0], c))
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend((e, field.neg(c)) for e, c in b[j:])
    return out


def _divides(a, b):
    return all(a[i] <= b[i] for i in range(CAP))


def _times(terms, mono, scale, field):
    return [(tuple(e[i] + mono[i] for i in range(CAP)), field.mul(scale, c))
            for e, c in terms]


def merge_normal_form(f_terms, divisors, key, field):
    """Reference remainder of f under division by monic term lists.

    Every list is (exponent, coeff) pairs sorted descending under `key`.
    The leading term goes to the remainder, or is cancelled by the first
    divisor whose lead divides it; the rest of f is then rebuilt by one
    sorted merge.  Returns the remainder's terms in descending order.
    """
    out = []
    cur = list(f_terms)
    while cur:
        e0, c0 = cur[0]
        for g in divisors:
            lead = g[0][0]
            if _divides(lead, e0):
                mono = tuple(e0[i] - lead[i] for i in range(CAP))
                cur = _merge_sub(cur[1:], _times(g[1:], mono, c0, field),
                                 key, field)
                break
        else:
            out.append(cur.pop(0))
    return out


def merge_interreduce(basis, key, field):
    """Reference reduced basis of a monic Groebner basis given as term
    lists sorted descending under `key`: the elements whose leads no kept
    lead divides, by ascending lead, each reduced by all the other kept
    elements as they were.  Returns the term lists by ascending lead."""
    kept = []
    for g in sorted(basis, key=lambda g: key(g[0][0])):
        if not any(_divides(h[0][0], g[0][0]) for h in kept):
            kept.append(g)
    return [merge_normal_form(g, [h for h in kept if h is not g], key, field)
            for g in kept]


def merge_divide_exact(f_terms, g_terms, key, field):
    """Reference quotient terms of f / g, or None when g does not divide f."""
    lead, lead_coeff = g_terms[0]
    quotient = []
    cur = list(f_terms)
    while cur:
        e0, c0 = cur[0]
        if not _divides(lead, e0):
            return None
        mono = tuple(e0[i] - lead[i] for i in range(CAP))
        q = field.div(c0, lead_coeff)
        quotient.append((mono, q))
        cur = _merge_sub(cur, _times(g_terms, mono, q, field), key, field)
    return quotient


def monoid_rows(basis_terms, exponents, key, field):
    """Reference rows of the monoid-surface system: each template monomial
    reduced on its own by `merge_normal_form`, one sparse row
    {column: coeff} per remainder monomial in order of first appearance."""
    rows = []
    row_index = {}
    for col, e in enumerate(exponents):
        for m, c in merge_normal_form([(e, field.one)], basis_terms, key,
                                      field):
            r = row_index.get(m)
            if r is None:
                r = row_index[m] = len(rows)
                rows.append({})
            rows[r][col] = c
    return rows


def monoid_kernel(gb, columns):
    """`linalg.nullspace` of the whole monoid-surface system, as dense
    vectors over the columns: every template monomial reduced on its own
    by `merge_normal_form`, one row per standard monomial."""
    field = gb.ring.field
    rows = monoid_rows([g.terms for g in gb.elements], columns,
                       gb.ring.order.key, field)
    return linalg.nullspace(field, rows, len(columns))


def dense_monoid_surface(ideal_basis, order, d, nu):
    """(equation, G, F_(d-1)) of the monoid surface through an ideal,
    read from the dense kernel over the whole template under the ideal's
    basis in the given order, or None when every kernel vector has
    G = 0: the first vector with G != 0 is scaled so that G's coefficient
    of lowest w-power is one, its equation built column by column and all
    d forms F_j read back from it."""
    ring = ideal_basis.ring
    field = ring.field
    columns = monoid_template(d, nu)
    for vec in monoid_kernel(ideal_basis.groebner(order), columns):
        g_part = [c for c in reversed(vec[:nu + 1]) if not field.is_zero(c)]
        if not g_part:
            continue
        unit = field.inv(g_part[0])
        equation = Polynomial.from_dict(ring, {
            e: field.mul(unit, c) for e, c in zip(columns, vec)
            if not field.is_zero(c)})
        g_form, f_forms = _monoid_forms(equation, nu, range(d))
        return equation, g_form, f_forms[-1]
    return None


_GRAMMAR_TOKEN = re.compile(r"\s*(\d+|[A-Za-z]|\^|\*|\+|-|/|\S)")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _GRAMMAR_TOKEN.match(text, pos)
        if m is None:
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def token_parse_polynomial(ring, text):
    """Reference parser: the polynomial grammar read one token at a time
    by recursive descent, raising the ParseError of the first token that
    does not fit."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial")
    field = ring.field
    names = {name: i for i, name in enumerate(ring.var_names())}
    pos = 0
    total = {}

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_number():
        value = int(take())
        if peek() == "/":
            take()
            den = take() if pos < len(tokens) else None
            if den is None or not den.isdigit() or int(den) == 0:
                raise ParseError("malformed fraction coefficient")
            return field.div(field.coerce(value), field.coerce(int(den)))
        return field.coerce(value)

    def parse_factor():
        tok = peek()
        if tok is None:
            raise ParseError("unexpected end of polynomial")
        if tok.isdigit():
            return ZERO_EXP, parse_number()
        if tok.isalpha():
            take()
            if tok not in names:
                raise ParseError(f"unknown variable {tok!r}")
            power = 1
            if peek() == "^":
                take()
                ptok = take() if pos < len(tokens) else None
                if ptok is None or not ptok.isdigit():
                    raise ParseError("malformed exponent")
                power = int(ptok)
            return exp_from_var(names[tok], power), field.one
        raise ParseError(f"unexpected token {tok!r}")

    def parse_term():
        exp, coeff = parse_factor()
        while True:
            tok = peek()
            if tok == "*":
                take()
                tok = peek()
                if tok is None or not (tok.isdigit() or tok.isalpha()):
                    raise ParseError("dangling '*'")
            elif tok is None or not (tok.isdigit() or tok.isalpha()):
                break
            e2, c2 = parse_factor()
            exp = exp_mul(exp, e2)
            coeff = field.mul(coeff, c2)
        return exp, coeff

    sign = 1
    tok = peek()
    if tok in ("+", "-"):
        take()
        sign = -1 if tok == "-" else 1
    while True:
        exp, coeff = parse_term()
        if sign < 0:
            coeff = field.neg(coeff)
        if exp in total:
            total[exp] = field.add(total[exp], coeff)
        else:
            total[exp] = coeff
        tok = peek()
        if tok is None:
            break
        if tok not in ("+", "-"):
            raise ParseError(f"expected '+' or '-', found {tok!r}")
        take()
        sign = -1 if tok == "-" else 1
    return Polynomial.from_dict(ring, total)


def saturate_poly(ideal_basis, f):
    """I : f^infinity as (I + (1 - t*f)) intersected with the ring of I,
    for a new variable t."""
    ring = ideal_basis.ring
    if not f.degree:
        return ideal_basis
    ext = _extension(ring)
    t = ext.gen(ring.arity)
    gens = [g.in_ring(ext) for g in ideal_basis.generators]
    gens.append(ext.one() - t * f.in_ring(ext))
    elim = eliminate(IdealBasis(ext, gens), front=(ring.arity,))
    return IdealBasis(ring, elim.generators)


def product_substitute_linear(poly, matrix):
    """Reference for `Polynomial.substitute_linear`: each term expanded
    as a product of cached powers of the variables' images, built with
    the ring's `*`, and the expansions summed into one coefficient dict."""
    ring = poly.ring
    n = ring.arity
    field = ring.field
    rows = [[field.coerce(matrix[i][j]) for j in range(n)] for i in range(n)]
    linalg.mat_inverse(field, rows)  # raises ValueError when singular
    images = [Polynomial.from_dict(ring, {exp_from_var(j): rows[i][j]
                                          for j in range(n)})
              for i in range(n)]
    # cache powers of each image to keep repeated exponents cheap
    powers = [{0: ring.one()} for _ in range(n)]

    def image_power(i, k):
        cached = powers[i]
        if k not in cached:
            cached[k] = image_power(i, k - 1) * images[i]
        return cached[k]

    acc = {}
    for e, c in poly.terms:
        term = ring.monomial(ZERO_EXP, c)
        for i in range(n):
            if e[i]:
                term = term * image_power(i, e[i])
        for te, tc in term.terms:
            acc[te] = acc.get(te, 0) + tc
    return Polynomial.from_dict(ring, acc)


def exhaustive_is_groebner(gb):
    """Reference Buchberger criterion: every one of the n(n-1)/2
    S-polynomials of the basis, none skipped, reduces to zero."""
    field = gb.ring.field
    reducers = gb.reducers()
    weights = packed_key_weights(gb.ring.order)
    n = len(reducers)
    for i in range(n):
        for j in range(i + 1, n):
            lcm_exp = packed_lcm(reducers[i][0], reducers[j][0])
            lcm_k = sum(map(mul, weights, unpack_exponent(lcm_exp)))
            spair = _spoly(reducers[i], reducers[j], lcm_k, field)
            if _normal_form_keyed(spair, reducers):
                return False
    return True


def weight_basis_extremal_check(ideal_basis, d, g):
    """(extremal, failure, F, G) of the extremal-shape certificate with its
    clauses read off the (d, 2, 1, 1) weight-order basis and the ideal
    compared with one rebuilt from F and G through their grevlex bases."""
    ring = ideal_basis.ring
    inv = Invariants(d, g)
    if d < 2 or inv.a <= 0:
        return False, "invariants", None, None
    x, y = ring.gen(0), ring.gen(1)
    monomial_gens = (x * x, x * y, y ** d)
    gb = ideal_basis.groebner(WeightRefinedOrder((d, 2, 1, 1), 4))
    if not all(gb.contains(m) for m in monomial_gens):
        return False, "membership", None, None
    others = [e for e in gb.elements
              if e.terms not in {m.terms for m in monomial_gens}]
    forms = None
    if len(gb.elements) == 4 and len(others) == 1:
        forms = _monoid_forms(others[0], inv.nu, (d - 1,))
    if forms is None or forms[0].is_zero or forms[1][0].is_zero:
        return False, "shape", None, None
    g_form, (f_form,) = forms
    if not binary_forms_coprime(f_form, g_form):
        return False, "coprimality", None, None
    grevlex = ideal_basis.groebner()
    rebuilt = IdealBasis(ring, _extremal_generators(ring, d, f_form, g_form))
    if grevlex.elements != rebuilt.groebner().elements:
        return False, "ideal-equality", None, None
    if _rao_dims(inv.a, inv.l) != inv.rho_table():
        return False, "rao-table", None, None
    return True, None, f_form, g_form


def minimalize(exps):
    """Reference minimal generators of a monomial ideal: by ascending
    degree, an exponent is kept when no kept one is at most it in every
    slot."""
    out = []
    for m in sorted(exps, key=sum):
        if all(any(g[i] > m[i] for i in range(len(m))) for g in out):
            out.append(m)
    return out


def _binomial_in_n(shift, k):
    """Coefficients of binomial(n + shift, k) as a polynomial in n."""
    num = [Fraction(1)]
    for r in range(k):
        # multiply by (n + shift - r)
        out = [Fraction(0)] * (len(num) + 1)
        for i, c in enumerate(num):
            out[i] += c * (shift - r)
            out[i + 1] += c
        num = out
    fact = 1
    for r in range(1, k + 1):
        fact *= r
    return [c / fact for c in num]


def hilbert_polynomial(reduced, dimension):
    """Reference coefficients, ascending in n, of
    sum_i q_i binomial(n - i + D, D), each binomial in Fractions."""
    hp = [Fraction(0)] * (dimension + 1)
    for i, q in enumerate(reduced):
        if q:
            for k, c in enumerate(_binomial_in_n(dimension - i, dimension)):
                hp[k] += q * c
    return tuple(hp)


def initial_form(f, weights):
    """Reference initial form of a nonzero polynomial: the sum of its terms
    of maximal weight degree, every term graded."""
    if not f.terms:
        raise ValueError("initial form of the zero polynomial is undefined")
    grade = WeightRefinedOrder(weights, f.ring.arity).weight_degree
    wdegs = [grade(e) for e, _ in f.terms]
    top = max(wdegs)
    return Polynomial(f.ring, tuple(t for t, d in zip(f.terms, wdegs)
                                    if d == top))


def initial_forms(ideal_basis, weights):
    """Reference keyed grevlex forms of the initial ideal's basis, by
    ascending lead: the initial form of each weight-order basis element
    by `initial_form`, keyed by `_keyed`."""
    arity = ideal_basis.ring.arity
    gb = ideal_basis.groebner(WeightRefinedOrder(weights, arity))
    forms = [_keyed(initial_form(g, weights), GrevlexOrder(arity))
             for g in gb.elements]
    return sorted(forms, key=lambda terms: terms[0][0])


def min_power_saturation(ideal_basis):
    """Reference term lists, by ascending lead, of the reduced grevlex
    basis of I : v^infinity for the last variable v: each element of I's
    reduced grevlex basis divided by the least power of v among its terms,
    then interreduced by `merge_interreduce`."""
    ring = ideal_basis.ring
    last = ring.arity - 1
    gb = ideal_basis.groebner(GrevlexOrder(ring.arity))
    divided = []
    for g in gb.elements:
        k = min(e[last] for e, _ in g.terms)
        divided.append([(e[:last] + (e[last] - k,) + e[last + 1:], c)
                        for e, c in g.terms])
    return merge_interreduce(divided, gb.order.key, ring.field)


def sorted_family(ideal_basis, weights):
    """Reference text of the flat family: each weight-order basis element
    with t^(m - weight) on every term, gathered in a dict and sorted in
    the grevlex order of x, y, z, w, t by `Polynomial.from_dict`."""
    ring = ideal_basis.ring
    refined = WeightRefinedOrder(weights, ring.arity)
    grade = refined.weight_degree
    ext = ring.extended(ring.arity + 1)
    t_slot = ring.arity
    out = []
    for g in ideal_basis.groebner(refined).elements:
        m = grade(g.lead_exponent)
        terms = {}
        for e, c in g.terms:
            le = list(e)
            le[t_slot] = m - grade(e)
            terms[tuple(le)] = c
        out.append(str(Polynomial.from_dict(ext, terms)))
    return out
