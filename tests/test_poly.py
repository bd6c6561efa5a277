import math
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from extremalcurves import (QQ, BinaryForm, ContextMismatchError, ParseError,
                            PolyRing, PrimeField, binary_forms_coprime,
                            curve_ring, ideal, linalg, parse_polynomial)
from extremalcurves.orders import (CAPACITY, EXP_LIMIT, ZERO_EXP,
                                   BlockEliminationOrder, GrevlexOrder,
                                   WeightRefinedOrder, int_key_weights,
                                   monomial_exponents)
from extremalcurves.poly import Polynomial, _read_printed, _univariate_gcd

import oracles


def _random_nonzero(field, rng):
    # small integers over QQ keep coefficient growth tame
    if field == QQ:
        n = rng.randint(1, 9)
        return Fraction(-n if rng.randint(0, 1) else n)
    return rng.randrange(1, field.p)


def random_poly(ring, rng, degree, terms=4, homogeneous=True):
    field = ring.field
    acc = ring.zero()
    for _ in range(terms):
        d = degree if homogeneous else rng.randint(0, degree)
        exps = list(monomial_exponents(ring.arity, d))
        e = exps[rng.randrange(len(exps))]
        acc = acc + ring.monomial(e, _random_nonzero(field, rng))
    return acc


# the id "block7" kept its name when the engine went from seven slots to five
@pytest.mark.parametrize("order", [GrevlexOrder(4),
                                   WeightRefinedOrder((7, 2, 1, 1)),
                                   BlockEliminationOrder((1, 3), 5)],
                         ids=["grevlex", "weight", "block7"])
def test_from_dict_sorts_terms_by_the_order_key(order):
    ring = PolyRing(PrimeField(), order.arity, order)
    rng = random.Random(17)
    pad = (0,) * (CAPACITY - order.arity)
    for top in (2, EXP_LIMIT, 2 * EXP_LIMIT):
        acc = {tuple(rng.randint(0, top) for _ in range(order.arity)) + pad:
               rng.randint(1, 100) for _ in range(30)}
        poly = Polynomial.from_dict(ring, acc)
        assert [e for e, _ in poly.terms] == sorted(acc, key=order.key,
                                                    reverse=True)


def test_from_dict_orders_exponents_past_the_int_key_range(ring):
    # grevlex puts b first (a has z), but past EXP_LIMIT the int key's
    # y component outweighs its z component and would put a first
    a = (40001, 0, 1, 0) + (0,) * (CAPACITY - 4)
    b = (0, 40002, 0, 0) + (0,) * (CAPACITY - 4)
    weights = int_key_weights(ring.order)
    assert (sum(map(operator.mul, weights, a))
            > sum(map(operator.mul, weights, b)))
    poly = Polynomial.from_dict(ring, {a: 1, b: 2})
    assert [e for e, _ in poly.terms] == [b, a]


def test_product_difference_of_squares(ring):
    x, y, z, w = ring.gens()
    assert (x + y) * (x - y) == x * x - y * y


def test_additive_identity(ring):
    x, y, z, w = ring.gens()
    f = x * w - y * z
    assert f + ring.zero() == f


def test_square_of_linear_form_multinomial(ring):
    x, y, z, w = ring.gens()
    f = (x + y + z + w) ** 2
    assert len(f.terms) == 10
    for e, c in f.terms:
        # multinomial oracle: 2!/(prod e_i!) for each exponent pattern
        expected = math.factorial(2)
        for v in e:
            expected //= math.factorial(v)
        assert c == ring.field.coerce(expected)


@pytest.mark.parametrize("field", [PrimeField(), PrimeField(7), QQ],
                         ids=["gf32003", "gf7", "qq"])
def test_power_matches_repeated_products(field):
    ring = curve_ring(field)
    rng = random.Random(5)
    for _ in range(40):
        f = random_poly(ring, rng, rng.randint(0, 2), terms=rng.randint(0, 3),
                        homogeneous=False)
        n = rng.randint(0, 9)
        expected = ring.one()
        for _ in range(n):
            expected = expected * f
        assert f ** n == expected
    with pytest.raises(ValueError, match="negative power"):
        ring.gen(0) ** -1


def test_power_of_a_monomial_past_the_packed_budget(ring):
    x, y = ring.gen(0), ring.gen(1)
    term = 3 * x * y
    n = EXP_LIMIT + 1
    expected = ring.one()
    for _ in range(n):
        expected = expected * term
    power = term ** n
    assert power == expected
    assert power.terms == (((n, n) + (0,) * (CAPACITY - 2),
                            pow(3, n, ring.field.p)),)
    # the polynomial layer holds it; the engine refuses to pack it
    with pytest.raises(ValueError, match="exponent 32768 exceeds 32767"):
        ideal(power).groebner()


def _field_elements(field, nonzero=False):
    if field == QQ:
        element = st.fractions(-9, 9, max_denominator=9)
    else:
        element = st.integers(0, field.characteristic - 1)
    return element.filter(bool) if nonzero else element


def _coefficient_lists(field, max_size=5):
    return st.lists(_field_elements(field), max_size=max_size)


def _convolve(field, a, b):
    """Product of two coefficient lists."""
    out = [field.zero] * max(len(a) + len(b) - 1, 0)
    for i, c in enumerate(a):
        for j, e in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(c, e))
    return out


@pytest.mark.parametrize("field", [PrimeField(), PrimeField(7), QQ],
                         ids=["gf32003", "gf7", "qq"])
@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_univariate_gcd_matches_field_method_euclid(field, data):
    # a common factor times two cofactors, so that most gcds are not 1;
    # a list may end in zeros, which both trim.  Over a prime field the
    # degrees reach about 120, so the remainder sequences are long; over
    # QQ the coefficients of the remainders grow with the degree, which is
    # kept below 20
    size = 10 if field == QQ else 60
    common, a, b = (data.draw(_coefficient_lists(field, size))
                    for _ in range(3))
    if data.draw(st.booleans()):
        a, b = _convolve(field, common, a), _convolve(field, common, b)
    assert _univariate_gcd(field, a, b) == oracles.euclid_gcd(field, a, b)


def test_initial_form_examples(ring):
    x, y, z, w = ring.gens()
    f = x * w ** 3 - y ** 3 * z + z ** 4
    assert oracles.initial_form(f, (4, 2, 1, 1)) == x * w ** 3 - y ** 3 * z
    g = x * w ** 3 - y ** 3 * z
    assert oracles.initial_form(g, (4, 2, 1, 1)) == g
    h = x * x + x * z + z * z
    assert oracles.initial_form(h, (1, 0, 0, 0)) == x * x


def test_initial_form_multiplicative_and_idempotent(ring):
    rng = random.Random(11)
    w = (4, 2, 1, 1)
    for _ in range(200):
        f = random_poly(ring, rng, rng.randint(1, 3), homogeneous=False)
        g = random_poly(ring, rng, rng.randint(1, 3), homogeneous=False)
        if f.is_zero or g.is_zero:
            continue
        top = oracles.initial_form
        assert top(f * g, w) == top(f, w) * top(g, w)
        assert top(top(f, w), w) == top(f, w)


def test_substitute_identity_and_swap(ring):
    x, y, z, w = ring.gens()
    one, zero = ring.field.one, ring.field.zero
    ident = [[one if i == j else zero for j in range(4)] for i in range(4)]
    assert x.substitute_linear(ident) == x
    swap = [[zero] * 4 for _ in range(4)]
    swap[0][1] = swap[1][0] = swap[2][2] = swap[3][3] = one
    assert x.substitute_linear(swap) == y


def test_substitute_roundtrip_random_matrix(ring):
    from extremalcurves import linalg
    rng = random.Random(5)
    field = ring.field
    x, y, z, w = ring.gens()
    f = x * w - y * z
    for _ in range(5):
        while True:
            m = [[field.random_element(rng) for _ in range(4)]
                 for _ in range(4)]
            try:
                m_inv = linalg.mat_inverse(field, m)
                break
            except ValueError:
                pass
        g = f.substitute_linear(m)
        assert g.degree == 2
        assert g.substitute_linear(m_inv) == f


def _evaluate(f, point):
    field = f.ring.field
    total = field.zero
    for e, c in f.terms:
        for v, k in zip(point, e):
            for _ in range(k):
                c = field.mul(c, v)
        total = field.add(total, c)
    return total


@pytest.mark.parametrize("field", [PrimeField(), QQ], ids=["gf", "qq"])
def test_substitute_linear_matches_evaluation(field):
    from extremalcurves import linalg
    ring = curve_ring(field)
    rng = random.Random(17)
    for _ in range(4):
        while True:
            m = [[field.coerce(rng.randint(-9, 9)) for _ in range(4)]
                 for _ in range(4)]
            try:
                linalg.mat_inverse(field, m)
                break
            except ValueError:
                pass
        f = random_poly(ring, rng, rng.randint(1, 5), terms=12,
                        homogeneous=False)
        g = f.substitute_linear(m)
        for _ in range(3):
            p = [field.coerce(rng.randint(-20, 20)) for _ in range(4)]
            mp = [sum((field.mul(m[i][j], p[j]) for j in range(4)),
                      field.zero) for i in range(4)]
            assert _evaluate(g, p) == _evaluate(f, mp)


def test_substitute_singular_matrix_rejected(ring):
    x = ring.gen(0)
    zero = ring.field.zero
    singular = [[zero] * 4 for _ in range(4)]
    with pytest.raises(ValueError):
        x.substitute_linear(singular)


def test_substitute_linear_of_a_high_power(ring):
    # x^2000 is past the recursion limit of a walk that recurses per power
    x, y = ring.gen(0), ring.gen(1)
    one, zero = ring.field.one, ring.field.zero
    swap = [[zero] * 4 for _ in range(4)]
    swap[0][1] = swap[1][0] = swap[2][2] = swap[3][3] = one
    assert (x ** 2000).substitute_linear(swap) == y ** 2000
    # no slot passes EXP_LIMIT, but the image holds y^32768
    with pytest.raises(ValueError, match="exponent 32768 exceeds 32767"):
        ((x * y) ** 16384).substitute_linear(swap)


@st.composite
def _substitution_polys(draw, ring):
    """The zero polynomial, a constant, or a sum of a few terms of one or
    of several degrees."""
    kind = draw(st.sampled_from(["zero", "constant", "homogeneous",
                                 "inhomogeneous"]))
    if kind == "zero":
        return ring.zero()
    if kind == "constant":
        return ring.monomial(ZERO_EXP,
                             draw(_field_elements(ring.field, nonzero=True)))
    top = draw(st.integers(1, 5))
    acc = {}
    for _ in range(draw(st.integers(1, 6))):
        d = top if kind == "homogeneous" else draw(st.integers(0, top))
        e = draw(st.sampled_from(list(monomial_exponents(ring.arity, d))))
        acc[e] = draw(_field_elements(ring.field))
    return Polynomial.from_dict(ring, acc)


@st.composite
def _invertible_matrices(draw, field, n):
    """A dense invertible matrix, or a sparse one: a permutation, a
    diagonal, or a triangular matrix whose off-diagonal entries are often
    zero."""
    kind = draw(st.sampled_from(["dense", "permutation", "diagonal",
                                 "triangular"]))
    if kind == "dense":
        m = [[draw(_field_elements(field)) for _ in range(n)]
             for _ in range(n)]
        try:
            linalg.mat_inverse(field, [[field.coerce(v) for v in row]
                                       for row in m])
        except ValueError:
            reject()
        return m
    if kind == "permutation":
        perm = draw(st.permutations(range(n)))
        return [[1 if j == perm[i] else 0 for j in range(n)]
                for i in range(n)]
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = draw(_field_elements(field, nonzero=True))
    if kind == "triangular":
        upper = draw(st.booleans())
        for i in range(n):
            for j in range(n):
                if (j > i) if upper else (j < i):
                    m[i][j] = draw(st.just(0) | _field_elements(field))
    return m


@pytest.mark.parametrize("field", [PrimeField(32003), PrimeField(7), QQ],
                         ids=["gf32003", "gf7", "qq"])
@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_substitute_linear_matches_product_reference(field, data):
    arity = data.draw(st.integers(2, 5), label="arity")
    ring = PolyRing(field, arity)
    f = data.draw(_substitution_polys(ring), label="f")
    m = data.draw(_invertible_matrices(field, arity), label="matrix")
    assert (f.substitute_linear(m).terms
            == oracles.product_substitute_linear(f, m).terms)


def test_parse_standard_grammar(ring):
    f = parse_polynomial(ring, "x*w^3 - y^3*z + 2*z^4")
    x, y, z, w = ring.gens()
    assert f == x * w ** 3 - y ** 3 * z + 2 * z ** 4
    # '*' is optional and coefficients may be fractions
    g = parse_polynomial(ring, "3x y - 1/2 w^2")
    assert g == 3 * (x * y) - w * w * ring.field.inv(2)


def test_parse_fraction_over_rationals(qring):
    f = parse_polynomial(qring, "1/2*x + 2/3*y")
    assert dict(f.terms) == {(1, 0, 0, 0, 0): Fraction(1, 2),
                             (0, 1, 0, 0, 0): Fraction(2, 3)}


PARSE_ERRORS = [
    ("", "empty polynomial"),
    ("   ", "empty polynomial"),
    ("x +", "unexpected end of polynomial"),
    ("q", "unknown variable 'q'"),
    ("x^", "malformed exponent"),
    ("x^y", "malformed exponent"),
    ("2*", "dangling '*'"),
    ("x * + y", "dangling '*'"),
    ("1/0", "malformed fraction coefficient"),
    ("1/", "malformed fraction coefficient"),
    ("1/x", "malformed fraction coefficient"),
    ("x + *", "unexpected token '*'"),
    ("x - - y", "unexpected token '-'"),
    ("x/y", "expected '+' or '-', found '/'"),
    ("x + \u00e9", "unknown variable '\u00e9'"),
    ("x * \u00e9", "unknown variable '\u00e9'"),
    # a superscript digit is a digit to str.isdigit but not to int()
    ("\u00b2", "unexpected token '\u00b2'"),
    ("x\u00b2", "expected '+' or '-', found '\u00b2'"),
]


@pytest.mark.parametrize("text, message", PARSE_ERRORS,
                         ids=[text for text, _ in PARSE_ERRORS])
def test_parse_errors(ring, text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_polynomial(ring, text)


# ------------------------------------------- parser against the token reference

_SPACE = st.sampled_from(["", "", " ", "  ", "\t", "\n"])
# mostly small numbers; one in six is 7, a multiple of 32003 or 10^20
_NUMBER = st.integers(0, 119).map(
    lambda n: str(n if n < 100 else (7, 32003, 64006, 10 ** 20)[n % 4]))


def _joined(*parts):
    return st.tuples(*parts).map("".join)


def _grammar_text(names):
    """Well-formed text: factors in any slot joined by whitespace or '*',
    signed terms, free whitespace between tokens."""
    fraction = _joined(_NUMBER, _SPACE, st.just("/"), _SPACE, _NUMBER)
    power = _joined(_SPACE, st.just("^"), _SPACE,
                    st.integers(0, 12).map(str))
    variable = _joined(st.sampled_from(names), st.just("") | power)
    factor = st.one_of(_NUMBER, fraction, variable)
    joint = _joined(_SPACE, st.sampled_from(["", "*"]), _SPACE)
    term = _joined(factor, st.lists(_joined(joint, factor), max_size=4).map(
        "".join))
    sign = _joined(_SPACE, st.sampled_from("+-"), _SPACE)
    lead = st.just("") | sign
    return _joined(lead, term, st.lists(_joined(sign, term), max_size=4).map(
        "".join), _SPACE)


_NOISE = st.sampled_from(list("+-*/^ xyzwq0129") + ["\u00e9", "\t"])


@st.composite
def _edited(draw, texts):
    """Text drawn from `texts` with one to three characters inserted,
    replaced or deleted, or its end cut off inside a term."""
    chars = list(draw(texts))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(chars)))
        edit = draw(st.sampled_from(["insert", "replace", "delete", "cut"]))
        if edit == "insert" or at == len(chars):
            chars.insert(at, draw(_NOISE))
        elif edit == "replace":
            chars[at] = draw(_NOISE)
        elif edit == "delete":
            del chars[at]
        else:
            del chars[at + 1:]
    return "".join(chars)


def _monomial_text(names, e):
    return "*".join(v if k == 1 else f"{v}^{k}" for v, k in zip(names, e)
                    if k)


def _printed_text(ring):
    """Text in the printed form: `str()` of a drawn polynomial, with a
    leading '-' and QQ fractions; or the c*mono form of the bench's ideal
    files, terms in any order, 1* kept, constants bare, joined by " + "."""
    names = ring.var_names()
    exponent = st.tuples(*[st.integers(0, 3)] * ring.arity).map(
        lambda e: e + ZERO_EXP[ring.arity:])
    if ring.field == QQ:
        coeff = st.fractions(-20, 20, max_denominator=12)
        magnitude = st.fractions(0, 20, max_denominator=12).map(str)
    else:
        coeff = st.integers(-2 * ring.field.p, 2 * ring.field.p)
        magnitude = st.integers(0, ring.field.p - 1).map(str)
    printed = st.dictionaries(exponent, coeff, max_size=6).map(
        lambda terms: str(Polynomial.from_dict(ring, terms)))
    term = st.tuples(magnitude, exponent).map(
        lambda t: f"{t[0]}*{_monomial_text(names, t[1])}"
        if any(t[1]) else t[0])
    bench = st.lists(term, min_size=1, max_size=6).map(" + ".join)
    return printed | bench


def _outcome(parse, ring, text):
    try:
        return parse(ring, text)
    except (ParseError, ZeroDivisionError) as err:
        return type(err), str(err)


@pytest.mark.parametrize("field", [PrimeField(32003), PrimeField(7), QQ],
                         ids=["gf", "gf7", "qq"])
@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_parser_matches_token_reference(field, data):
    # general text, the printed form, and either with a few characters
    # edited: a printed-form reader that took "x^2*" as x^2 fails here
    ring = curve_ring(field)
    names = "".join(ring.var_names())
    printed = _printed_text(ring)
    text = data.draw(_grammar_text(names) | _edited(_grammar_text(names))
                     | printed | _edited(printed))
    assert _outcome(parse_polynomial, ring, text) == \
        _outcome(oracles.token_parse_polynomial, ring, text)


@pytest.mark.parametrize("field", [PrimeField(32003), PrimeField(7), QQ],
                         ids=["gf", "gf7", "qq"])
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_printed_form_is_read_one_match_a_term(field, data):
    # the printed form never reaches the general reader; whitespace
    # joints, letters out of slot order or repeated, and other separators
    # than " + " and " - " do
    ring = curve_ring(field)
    assert _read_printed(ring, data.draw(_printed_text(ring))) \
        is not None
    for text in ("3x y - 1/2 w^2", "y*x", "x^2 *y", "x*x", "- x", "x +y",
                 "x^2*", "x + t"):
        assert _read_printed(ring, text) is None


def test_str_parse_roundtrip_random(ring):
    rng = random.Random(23)
    for _ in range(50):
        f = random_poly(ring, rng, rng.randint(1, 4), terms=6,
                        homogeneous=False)
        assert parse_polynomial(ring, str(f)) == f


def test_roundtrip_rational_coefficients(qring):
    f = parse_polynomial(qring, "1/2*x*y - 7/3*z^2 + w^2")
    assert parse_polynomial(qring, str(f)) == f


def test_context_mismatch_between_fields():
    r1 = curve_ring(PrimeField(7))
    r2 = curve_ring(PrimeField(32003))
    with pytest.raises(ContextMismatchError):
        r1.gen(0) + r2.gen(0)


def test_in_ring_keeps_or_resorts_terms(ring):
    x, y, z, w = ring.gens()
    f = x * z - y ** 2 + w
    assert [e for e, _ in f.terms] == [(y ** 2).lead_exponent,
                                       (x * z).lead_exponent, w.lead_exponent]
    assert f.in_ring(curve_ring(ring.field)) is f     # an equal ring
    # a wider ring, whose grevlex order agrees on these terms
    ext = ring.extended(5)
    lifted = f.in_ring(ext)
    assert lifted.ring == ext and lifted.terms == f.terms
    with pytest.raises(ContextMismatchError):
        (lifted * ext.gen(4)).in_ring(ring)
    # another order sorts the terms again: x*z outweighs y^2 under (4,2,1,1)
    weighted = PolyRing(ring.field, 4, WeightRefinedOrder((4, 2, 1, 1)))
    moved = f.in_ring(weighted)
    assert moved.terms == (f.terms[1], f.terms[0], f.terms[2])
    assert moved.in_ring(ring) == f


# coefficients that every field in the tests coerces: ints, rich in 0, 1
# and -1, and fractions whose denominators are prime to 7 and to 32003
_FORM_COEFFICIENTS = st.lists(
    st.one_of(st.sampled_from([0, 1, -1]), st.integers(-40000, 40000),
              st.fractions(-9, 9, max_denominator=6)),
    min_size=1, max_size=9)


@pytest.mark.parametrize("field", [PrimeField(), PrimeField(7), QQ],
                         ids=["gf32003", "gf7", "qq"])
@settings(max_examples=200, deadline=None, database=None)
@given(coeffs=_FORM_COEFFICIENTS)
@example(coeffs=[0, 0, 0, 0])           # the zero form
@example(coeffs=[-1])                   # degree 0
@example(coeffs=[0, 0, 1, -1, 0])       # zeros at both ends
@example(coeffs=[1, -1, 1, -1])
def test_binary_form_text_matches_its_polynomial(field, coeffs):
    # the form's text is written from its coefficients; it is the text of
    # the polynomial in z and w, "0" for the zero form
    form = BinaryForm(field, coeffs)
    assert str(form) == str(form.to_polynomial(PolyRing(field, 4)))


def test_binary_coprime_trivial_cases(gf):
    z_form = BinaryForm.monomial(gf, 1, 0)          # z
    w_cubed = BinaryForm.monomial(gf, 3, 3)         # w^3
    assert binary_forms_coprime(z_form, w_cubed)
    zw = BinaryForm(gf, (0, 1, 0))                  # z*w
    w_sq = BinaryForm.monomial(gf, 2, 2)            # w^2
    assert not binary_forms_coprime(zw, w_sq)


def test_binary_coprime_resultant_oracle_over_q():
    f = BinaryForm(QQ, (1, 0, 1))   # z^2 + w^2
    g = BinaryForm(QQ, (0, 1, 0))   # z*w
    assert binary_forms_coprime(f, g)
    assert oracles.sylvester_resultant(f, g) != 0


def _form_product(f, g):
    """Product of two binary forms: the convolution of their coefficients."""
    return BinaryForm(f.field, _convolve(f.field, f.coeffs, g.coeffs))


def test_binary_coprime_matches_bruteforce_over_small_field():
    p = 101
    gf = PrimeField(p)
    rng = random.Random(17)
    for trial in range(60):
        da, db = rng.randint(1, 4), rng.randint(1, 4)
        f = BinaryForm.random(gf, da, rng)
        g = BinaryForm.random(gf, db, rng)
        if trial % 3 == 0:
            # engineer a common zero by multiplying in a shared linear factor
            t = rng.randrange(p)
            lin = BinaryForm(gf, (1, t))
            f, g = _form_product(f, lin), _form_product(g, lin)
        has_root = oracles.common_projective_root(f, g, p)
        assert binary_forms_coprime(f, g) == (not has_root)
        res = oracles.sylvester_resultant(f, g)
        assert gf.is_zero(res) == has_root


def test_binary_coprime_agrees_with_resultant_random(gf):
    rng = random.Random(99)
    for _ in range(40):
        f = BinaryForm.random(gf, rng.randint(1, 3), rng)
        g = BinaryForm.random(gf, rng.randint(1, 3), rng)
        assert binary_forms_coprime(f, g) == (
            not gf.is_zero(oracles.sylvester_resultant(f, g)))


def test_binary_zero_form_rejected(gf):
    z_form = BinaryForm.monomial(gf, 1, 0)
    with pytest.raises(ValueError):
        binary_forms_coprime(z_form, BinaryForm(gf, [gf.zero] * 3))


def test_binary_coprime_several_forms(gf):
    zw, z2, w2 = (BinaryForm(gf, c) for c in ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    z_zw, w_zw = BinaryForm(gf, (1, 1, 0)), BinaryForm(gf, (0, 1, 1))
    # pairwise common zeros, but none shared by all three
    assert not binary_forms_coprime(zw, z_zw)
    assert binary_forms_coprime(zw, z_zw, w_zw)
    assert not binary_forms_coprime(zw, z2, z_zw)   # all vanish at (0 : 1)
    assert not binary_forms_coprime(zw, w2, w_zw)   # all vanish at (1 : 0)


def test_binary_monomial_range_checked(gf):
    assert BinaryForm.monomial(gf, 3, 3).coeffs == (0, 0, 0, 1)
    with pytest.raises(ValueError):
        BinaryForm.monomial(gf, 3, -1)
    with pytest.raises(ValueError):
        BinaryForm.monomial(gf, 3, 4)
    with pytest.raises(ValueError):
        BinaryForm.monomial(gf, -1, 0)


def test_binary_form_polynomial_roundtrip(ring):
    gf = ring.field
    form = BinaryForm(gf, (3, 0, 1, 5))
    poly = form.to_polynomial(ring)
    z, w = ring.gen(2), ring.gen(3)
    assert poly == 3 * z ** 3 + z * w ** 2 + 5 * w ** 3
