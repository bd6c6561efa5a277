import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from extremalcurves import (QQ, BinaryForm, CurveIdeal, Invariants,
                            PolyRing, PrimeField, SpecializationError,
                            check_disjoint_line,
                            complete_intersection, condition_star_probe,
                            curve_ring, emit_family, extremal_curve,
                            find_monoid_surface, fixture,
                            from_parametrization, hilbert, ideal,
                            ideal_equal, ideal_intersect, initial_ideal,
                            monoid_template, parse_polynomial,
                            random_coordinate_change, rao_dims_extremal,
                            saturate_irrelevant, specialize,
                            verify_extremal_shape)
from extremalcurves import groebner as groebner_module
from extremalcurves import degeneration as degeneration_module
from extremalcurves.cli import load_ideal_file, report_to_dict
from extremalcurves.curves import (CoordinateChange, _extremal_generators,
                                   line_xy, transform_ideal)
from extremalcurves.degeneration import (MonoidSurfaceError, _attempt_rng,
                                         _column_order, _divided_columns,
                                         _find_monoid_surface, _in_template,
                                         _monoid_forms, _monoid_kernel,
                                         pipeline_weights)
from extremalcurves.groebner import (GrevlexOrder, GroebnerBasis, IdealBasis,
                                     buchberger)
from extremalcurves.orders import ZERO_EXP, WeightRefinedOrder

import oracles
from test_cli import DATA
from test_groebner import DIVISION_FIELDS, FIELD_IDS, random_weight_bases
from test_poly import random_poly


def random_coprime_pair(gf, a, l, rng):
    while True:
        f = BinaryForm.random(gf, a, rng)
        g = BinaryForm.random(gf, a + l, rng)
        from extremalcurves import binary_forms_coprime
        if binary_forms_coprime(f, g):
            return f, g


def genus_grid():
    for d in range(3, 7):
        for g in range(-3, (d - 2) * (d - 3) // 2):
            yield d, g


# ----------------------------------------------------------------- rho bound

def test_rho_tables_from_piecewise_definition():
    rho_40, rho_51 = Invariants(4, 0).rho, Invariants(5, 1).rho
    assert [rho_40(n) for n in range(-1, 4)] == [0, 1, 1, 1, 0]
    assert [rho_51(n) for n in range(-1, 6)] == [1, 2, 2, 2, 2, 1, 0]
    # a = 0 collapses the whole profile
    assert all(Invariants(5, 3).rho(n) == 0 for n in range(-4, 8))


def test_rho_branch_consistency():
    for d, g in genus_grid():
        a = (d - 2) * (d - 3) // 2 - g
        l = d - 2
        inv = Invariants(d, g)
        assert (inv.a, inv.l) == (a, l)
        assert inv.rho(-a) == 0 and inv.rho(-a) == -a + a
        assert inv.rho(0) == a
        assert inv.rho(l) == a
        assert inv.rho(a + l) == 0
        values = inv.rho_table(-a - 2, a + l + 2)
        assert all(v >= 0 for v in values)
        assert max(values) == a
        assert inv.rho_table() == values[3:-2]
        assert inv.rho_table()[0] == inv.rho(1 - a)


def test_rho_rejects_out_of_range():
    with pytest.raises(ValueError, match="degree at least 2"):
        Invariants(1, 0).rho(0)
    with pytest.raises(ValueError, match="exceeds the non-planar maximum 1"):
        Invariants(4, 2).rho(0)  # above the non-planar maximum
    with pytest.raises(ValueError, match="exceeds the non-planar maximum 1"):
        Invariants(4, 2).rho_table()


def test_rho_table_rejects_reversed_range():
    inv = Invariants(5, 1)
    with pytest.raises(ValueError, match="range 5..1 is reversed"):
        inv.rho_table(5, 1)
    assert inv.rho_table(1, 1) == (inv.rho(1),)
    assert Invariants(2, 0).rho_table() == ()   # default [1-a, nu] = [1, 0]


def _boundary_genera():
    for d in range(2, 8):
        yield d, (d - 1) * (d - 2) // 2     # plane
        if d >= 3:
            yield d, (d - 2) * (d - 3) // 2  # ACM boundary


@pytest.mark.parametrize("d, g", list(genus_grid()) + list(_boundary_genera()))
def test_invariants_against_formulas(d, g):
    inv = Invariants(d, g)
    assert inv.nu == inv.a + inv.l
    # reference dispatch, written out from the two genus bounds
    if g == (d - 1) * (d - 2) // 2:
        branch = "plane"
    elif g == (d - 2) * (d - 3) // 2:
        branch = "ACM-boundary"
    else:
        branch = "general"
    assert inv.branch == branch
    if branch == "plane":
        return      # plane genera lie above the non-planar maximum
    a, l = inv.a, inv.l
    assert inv.rho_table() == tuple(max(0, min(a, n + a, a + l - n))
                                    for n in range(1 - a, a + l + 1))


# ------------------------------------------------------------- rao dimensions

def _brute_quotient_dims(gf, f_form, g_form, upto):
    """Quotient dimensions of k[z,w]/(F,G) by rank, degree by degree."""
    ring = curve_ring(gf)
    fp, gp = f_form.to_polynomial(ring), g_form.to_polynomial(ring)
    dims = []
    for n in range(upto + 1):
        monos = [m for m in oracles.monomials(4, n)
                 if m[0] == 0 and m[1] == 0]
        rows = []
        index = {m: i for i, m in enumerate(monos)}
        for h in (fp, gp):
            shift = n - h.degree
            if shift < 0:
                continue
            for m in oracles.monomials(4, shift):
                if m[0] or m[1]:
                    continue
                row = [gf.zero] * len(monos)
                for e, c in h.terms:
                    prod = tuple(e[i] + m[i] for i in range(5))
                    row[index[prod]] = c
                rows.append(row)
        r = oracles.rank(gf, rows, len(monos)) if rows else 0
        dims.append(len(monos) - r)
    return dims


def test_rao_dims_examples(gf):
    f1 = BinaryForm.monomial(gf, 1, 0)       # z
    g3 = BinaryForm.monomial(gf, 3, 3)       # w^3
    assert rao_dims_extremal(f1, g3, 1, 2, 0, 3) == (1, 1, 1, 0)
    dims = _brute_quotient_dims(gf, f1, g3, 3)
    assert dims == [1, 1, 1, 0]
    f2 = BinaryForm.monomial(gf, 2, 0)       # z^2
    g5 = BinaryForm.monomial(gf, 5, 5)       # w^5
    assert rao_dims_extremal(f2, g5, 2, 3, -1, 5) == (1, 2, 2, 2, 2, 1, 0)
    assert _brute_quotient_dims(gf, f2, g5, 6) == [1, 2, 2, 2, 2, 1, 0]


def test_rao_dims_socle_vanishing(gf):
    rng = random.Random(15)
    for _ in range(10):
        a, l = rng.randint(1, 3), rng.randint(0, 3)
        f, g = random_coprime_pair(gf, a, l, rng)
        table = rao_dims_extremal(f, g, a, l, a + l, a + l + 3)
        assert all(v == 0 for v in table)


def test_rao_dims_match_bruteforce_random(gf):
    rng = random.Random(29)
    for _ in range(6):
        a, l = rng.randint(1, 3), rng.randint(0, 2)
        f, g = random_coprime_pair(gf, a, l, rng)
        table = rao_dims_extremal(f, g, a, l, 1 - a, a + l)
        brute = _brute_quotient_dims(gf, f, g, 2 * a + l - 1)
        expected = tuple(brute[n + a - 1] if 0 <= n + a - 1 < len(brute) else 0
                         for n in range(1 - a, a + l + 1))
        assert table == expected


def test_rao_dims_rejects_non_coprime(gf):
    f = BinaryForm.monomial(gf, 1, 1)   # w
    g = BinaryForm.monomial(gf, 3, 3)   # w^3
    with pytest.raises(ValueError):
        rao_dims_extremal(f, g, 1, 2)


def test_rao_rho_identity_on_grid(gf):
    rng = random.Random(37)
    for d, g in genus_grid():
        a = (d - 2) * (d - 3) // 2 - g
        l = d - 2
        f, gg = random_coprime_pair(gf, a, l, rng)
        assert rao_dims_extremal(f, gg, a, l, -a - 1, a + l + 1) == \
            Invariants(d, g).rho_table(-a - 1, a + l + 1)


# --------------------------------------------------------------- disjointness

def test_disjointness_examples(gf, ring):
    x, y, z, w = ring.gens()
    assert check_disjoint_line(fixture("extremal:4:0", gf).ideal)
    assert check_disjoint_line(line_xy(gf).ideal)
    # (y, z) defines a line through (1,0,0,0) on z = w = 0
    assert not check_disjoint_line(IdealBasis(ring, (y, z)))


def _misses_line_reference(basis):
    """The definition the lead test replaced: I + (z, w) has an empty
    zero set exactly when its Hilbert series has dimension -1."""
    ring = basis.ring
    zw = (ring.gen(2), ring.gen(3))
    return hilbert(IdealBasis(ring, basis.generators + zw)).dimension == -1


def test_disjointness_matches_hilbert_reference():
    field = PrimeField(7)
    ring = curve_ring(field)
    x, y, z, w = ring.gens()
    cases = [IdealBasis(ring, (ring.one(),)), IdealBasis(ring, ()),
             IdealBasis(ring, (y, z)),
             fixture("rational-quartic", field).ideal]   # through (1:0:0:0)
    rng = random.Random(2024)
    for _ in range(300):
        gens = [random_poly(ring, rng, rng.randint(1, 3),
                            terms=rng.randint(1, 4))
                for _ in range(rng.randint(1, 4))]
        cases.append(IdealBasis(ring, gens))
    verdicts = [_misses_line_reference(basis) for basis in cases]
    assert [check_disjoint_line(basis) for basis in cases] == verdicts
    assert verdicts[:4] == [True, False, False, False]
    # both answers are common among the random draws
    assert 50 <= sum(verdicts) <= len(cases) - 50


def test_disjointness_refuses_other_inputs(ring):
    x, z = ring.gen(0), ring.gen(2)
    with pytest.raises(ValueError, match="homogeneous"):
        check_disjoint_line(ideal(x * x + z))
    five = PolyRing(PrimeField(), 5)
    with pytest.raises(ValueError, match="x, y, z, w"):
        check_disjoint_line(IdealBasis(five, five.gens()[:2]))


# -------------------------------------------------------------- monoid search

def test_monoid_template_dimension_count():
    for d, g in genus_grid():
        nu = (d - 1) * (d - 2) // 2 - g
        cols = monoid_template(d, nu)
        total = (nu + 1) + sum(nu + 2 - j for j in range(d))
        assert len(cols) == total
        assert total == (nu + 1) * (d + 1) + 1 - (d - 1) * (d - 2) // 2


def test_monoid_surface_on_extremal_curve(gf, ring):
    curve = fixture("extremal:4:0", gf)
    surface = find_monoid_surface(curve)
    x, y, z, w = ring.gens()
    assert surface.equation == x * w ** 3 - y ** 3 * z
    assert surface.g_form == BinaryForm.monomial(gf, 3, 3)
    assert surface.f_form == BinaryForm.monomial(gf, 1, 0)
    # the initial form of the equation is the extremal mixed generator
    assert oracles.initial_form(surface.equation,
                                (4, 2, 1, 1)) == surface.equation


def test_monoid_surface_on_moved_quartic(gf):
    from extremalcurves import random_coordinate_change
    curve = fixture("rational-quartic", gf)
    moved, _ = random_coordinate_change(curve, seed=12)
    assert check_disjoint_line(moved.ideal)
    surface = find_monoid_surface(moved)
    assert surface.equation.degree == curve.invariants.nu + 1
    assert moved.ideal.contains(surface.equation)
    assert not surface.g_form.is_zero
    w_vec = (4, 2, 1, 1)
    init = oracles.initial_form(surface.equation, w_vec)
    x, y = moved.ring.gen(0), moved.ring.gen(1)
    expected = (x * surface.g_form.to_polynomial(moved.ring)
                - y ** 3 * surface.f_form.to_polynomial(moved.ring))
    assert init == expected


# every fixture in its own coordinates (seed None) and some moved ones
MONOID_CASES = [(name, PrimeField(), None) for name in (
    "twisted-cubic", "rational-quartic", "elliptic-quartic", "quintic-g2",
    "extremal:4:0", "extremal:6:3")]
MONOID_CASES += [("rational-quartic", PrimeField(), 12),
                 ("quintic-g2", PrimeField(), 3),
                 ("extremal:6:3", PrimeField(), 5),
                 ("rational-quartic", QQ, 4)]


MONOID_IDS = [f"{name}-{'qq' if field == QQ else 'gf'}-"
              + ("fixed" if seed is None else f"moved{seed}")
              for name, field, seed in MONOID_CASES]


def _reference_kernel(gb, columns):
    """The whole system's kernel (`oracles.monoid_kernel`), each vector
    as its nonzero (exponent, coefficient) entries."""
    return [[(e, c) for e, c in zip(columns, vec) if c]
            for vec in oracles.monoid_kernel(gb, columns)]


def _non_standard(leads, columns):
    """The template columns that one of the leads divides."""
    return [e for e in columns
            if any(all(map(int.__le__, lead, e)) for lead in leads)]


def _check_monoid_kernel(name, field, seed, weighted):
    """The kernel from `_monoid_kernel`, against the whole system's, in the
    grevlex or the pipeline's weight basis."""
    curve = fixture(name, field)
    if seed is not None:
        curve, _ = random_coordinate_change(curve, seed=seed)
    inv = curve.invariants
    gb = curve.ideal.groebner(
        WeightRefinedOrder(pipeline_weights(inv.d), 4) if weighted else None)
    columns = monoid_template(inv.d, inv.nu)
    assert (_monoid_kernel(gb, inv.d, inv.nu)
            == _reference_kernel(gb, columns))


@pytest.mark.parametrize("name, field, seed", MONOID_CASES, ids=MONOID_IDS)
def test_monoid_rows_match_per_monomial_reference(name, field, seed):
    _check_monoid_kernel(name, field, seed, weighted=False)


@pytest.mark.parametrize("name, field, seed", MONOID_CASES, ids=MONOID_IDS)
def test_weight_order_monoid_rows_match_per_monomial_reference(name, field,
                                                               seed):
    _check_monoid_kernel(name, field, seed, weighted=True)


@pytest.mark.parametrize("field", [PrimeField(), PrimeField(7), QQ],
                         ids=["gf32003", "gf7", "qq"])
@pytest.mark.parametrize("weighted", [False, True], ids=["grevlex", "weight"])
def test_monoid_kernel_frees_a_column_inside_the_ideal(field, weighted):
    # with the template column x*z*w^(nu-1) added to the ideal its form is
    # 0: no row holds the column, so its unit vector is a kernel vector
    curve = fixture("quintic-g2", field)
    inv = curve.invariants
    x, z, w = curve.ring.gen(0), curve.ring.gen(2), curve.ring.gen(3)
    inside = x * z * w ** (inv.nu - 1)
    basis = IdealBasis(curve.ring, curve.ideal.generators + (inside,))
    gb = basis.groebner(
        WeightRefinedOrder(pipeline_weights(inv.d), 4) if weighted else None)
    columns = monoid_template(inv.d, inv.nu)
    assert gb.normal_form(inside).is_zero
    kernel = _monoid_kernel(gb, inv.d, inv.nu)
    assert kernel == _reference_kernel(gb, columns)
    assert [(inside.lead_exponent, field.one)] in kernel


def test_monoid_kernel_is_empty_when_no_column_is_divided(gf, ring):
    # leads of degree nu + 2 divide no template column: every column is
    # alone in its row, and the empty kernel is not retried
    d, nu = 4, 3
    z, w = ring.gen(2), ring.gen(3)
    basis = ideal(z ** (nu + 2) - w ** (nu + 2))
    weight = WeightRefinedOrder(pipeline_weights(d), 4)
    columns = monoid_template(d, nu)
    gb = basis.groebner(weight)
    assert _non_standard(gb.lead_exponents(), columns) == []
    assert _monoid_kernel(gb, d, nu) == [] == _reference_kernel(gb, columns)
    with pytest.raises(MonoidSurfaceError) as err:
        _find_monoid_surface(basis, d, nu)
    assert err.value.retryable is False


@pytest.mark.parametrize("d", range(2, 7))
def test_template_layout_in_closed_form(d):
    # `_column_order` and `_in_template` against the template as built:
    # the key sorts the columns into template order, and membership is
    # tested on every exponent of its degree and on a few others
    pad = ZERO_EXP[4:]
    for nu in range(d - 2, d + 3):
        columns = monoid_template(d, nu)
        assert sorted(columns, key=_column_order) == columns
        for e in oracles.monomials(4, nu + 1):
            assert _in_template(e, d, nu) == (e in columns)
        t_slot = (0, 0, 0, nu + 1) + (1,) + pad[1:]    # w^(nu+1)*t
        wrong_degree = (1, 0, 0, nu + 1) + pad     # x*w^(nu+1)
        for e in ((2, 0, 0, 0) + pad, (1, 1, 0, 0) + pad,
                  (0, d, 0, 0) + pad, t_slot, wrong_degree):
            assert e not in columns
            assert not _in_template(e, d, nu)


_LEAD = st.tuples(st.integers(0, 3), st.integers(0, 7), st.integers(0, 8),
                  st.integers(0, 8))


@settings(max_examples=150, deadline=None, database=None)
@given(d=st.integers(2, 6), a=st.integers(0, 4),
       leads=st.lists(_LEAD, max_size=5))
@example(d=4, a=1, leads=[(0, 0, 1, 2)])      # divides x-columns too
@example(d=3, a=0, leads=[(0, 0, 0, 0)])      # the unit lead
@example(d=5, a=2, leads=[(2, 0, 0, 1), (1, 1, 1, 0), (1, 0, 2, 0)])
def test_divided_columns_match_the_scan(d, a, leads):
    # the divided columns read off the layout are those that the scan of
    # every column finds, in the same order; leads with lx = ly = 0 divide
    # x-columns as well as y-columns, and lx >= 2 or lx, ly > 0 divide none
    # or only x-columns
    nu = a + d - 2
    columns = monoid_template(d, nu)
    padded = [lead + ZERO_EXP[4:] for lead in leads]
    assert _divided_columns(padded, d, nu) == _non_standard(padded, columns)


def _form_product(a, b):
    field = a.field
    coeffs = [field.zero] * (a.degree + b.degree + 1)
    for i, u in enumerate(a.coeffs):
        for j, v in enumerate(b.coeffs):
            coeffs[i + j] = field.add(coeffs[i + j], field.mul(u, v))
    return BinaryForm(field, coeffs)


def _secant_rational(field, d, k, seed):
    """A rational curve of degree d whose y and z forms share a factor of
    degree k: the factor's zeros, k with multiplicity, map onto the line
    y = z = 0, a k-secant line through (1:0:0:0)."""
    rng = random.Random(seed)
    common = BinaryForm.random(field, k, rng)
    x, w = (BinaryForm.random(field, d, rng) for _ in range(2))
    y, z = (_form_product(common, BinaryForm.random(field, d - k, rng))
            for _ in range(2))
    return from_parametrization(field, [x, y, z, w])


@pytest.mark.parametrize("d, k, divided", [(5, 3, 2), (5, 4, 4), (6, 4, 4)])
def test_monoid_kernel_on_a_shape_failure(gf, d, k, divided):
    # a k-secant line through (1:0:0:0) makes the first attempt's limit
    # fail the shape check, and its template has several non-standard
    # columns under the weight basis
    curve = _secant_rational(gf, d, k, 0)
    report = specialize(curve, seed=0)
    assert report.diagnostics[0][:2] == (0, "shape")
    inv = curve.invariants
    gb = curve.ideal.groebner(WeightRefinedOrder(pipeline_weights(d), 4))
    columns = monoid_template(inv.d, inv.nu)
    assert len(_non_standard(gb.lead_exponents(), columns)) == divided
    assert (_monoid_kernel(gb, inv.d, inv.nu)
            == _reference_kernel(gb, columns))


@pytest.mark.parametrize("name, seed", [("rational-quartic", 12),
                                        ("quintic-g2", 3), ("extremal:6:3", 5)])
def test_surface_equation_is_built_from_its_forms(gf, name, seed):
    moved, _ = random_coordinate_change(fixture(name, gf), seed=seed)
    inv = moved.invariants
    surface = _find_monoid_surface(moved.ideal, inv.d, inv.nu)
    ring = moved.ring
    x, y = ring.gen(0), ring.gen(1)
    # G and F_(d-1) are the equation's x- and y^(d-1)-parts, and what is
    # left holds the powers y^j with j < d-1 alone
    g_form, f_forms = _monoid_forms(surface.equation, inv.nu, range(inv.d))
    assert (g_form, f_forms[-1]) == (surface.g_form, surface.f_form)
    rest = (surface.equation - x * surface.g_form.to_polynomial(ring)
            + y ** (inv.d - 1) * surface.f_form.to_polynomial(ring))
    assert all(e[0] == 0 and e[1] < inv.d - 1 for e, _ in rest.terms)
    # scaled so that G's coefficient of lowest w-power is one
    assert next(c for c in surface.g_form.coeffs if c) == gf.one


def _surface_forms(ideal_basis, d, nu):
    """(equation, G, F_(d-1)) of `_find_monoid_surface`, or None when it
    finds no surface."""
    try:
        surface = _find_monoid_surface(ideal_basis, d, nu)
    except MonoidSurfaceError:
        return None
    return surface.equation, surface.g_form, surface.f_form


def _check_dense_surface(curve, weighted, monkeypatch):
    """The surface built from the kernel's entries, against the one built
    from the dense kernel over the whole template, in the grevlex or the
    pipeline's weight basis."""
    inv = curve.invariants
    order = (WeightRefinedOrder(pipeline_weights(inv.d), 4) if weighted
             else None)
    expected = oracles.dense_monoid_surface(curve.ideal, order, inv.d,
                                            inv.nu)
    if not weighted:
        # the search with every basis request answered in grevlex
        groebner = IdealBasis.groebner
        monkeypatch.setattr(IdealBasis, "groebner",
                            lambda self, order=None: groebner(self))
    assert _surface_forms(curve.ideal, inv.d, inv.nu) == expected


@pytest.mark.parametrize("weighted", [False, True], ids=["grevlex", "weight"])
@pytest.mark.parametrize("name, field, seed", MONOID_CASES, ids=MONOID_IDS)
def test_surface_matches_the_dense_construction(name, field, seed, weighted,
                                               monkeypatch):
    curve = fixture(name, field)
    if seed is not None:
        curve, _ = random_coordinate_change(curve, seed=seed)
    _check_dense_surface(curve, weighted, monkeypatch)


@pytest.mark.parametrize("weighted", [False, True], ids=["grevlex", "weight"])
@pytest.mark.parametrize("d, k", [(5, 3), (5, 4), (6, 4)])
def test_shape_failure_surface_matches_the_dense_construction(gf, d, k,
                                                              weighted,
                                                              monkeypatch):
    _check_dense_surface(_secant_rational(gf, d, k, 0), weighted,
                         monkeypatch)


@pytest.mark.parametrize("field", [PrimeField(), PrimeField(7), QQ],
                         ids=["gf32003", "gf7", "qq"])
@pytest.mark.parametrize("d", range(2, 7))
def test_monoid_forms_read_back_what_they_build(field, d):
    rng = random.Random(d)
    ring = curve_ring(field)
    x, y = ring.gen(0), ring.gen(1)
    for nu in range(d - 1, d + 2):
        for _ in range(4):
            g_form = BinaryForm(field, [field.random_element(rng)
                                        for _ in range(nu + 1)])
            f_forms = tuple(BinaryForm(field, [field.random_element(rng)
                                               for _ in range(nu + 2 - j)])
                            for j in range(d))
            poly = x * g_form.to_polynomial(ring)
            for j, f in enumerate(f_forms):
                poly = poly - y ** j * f.to_polynomial(ring)
            assert _monoid_forms(poly, nu, range(d)) == (g_form, f_forms)
            # the mixed generator alone, as the certificate reads it
            mixed = (x * g_form.to_polynomial(ring)
                     - y ** (d - 1) * f_forms[-1].to_polynomial(ring))
            assert _monoid_forms(mixed, nu, (d - 1,)) == (g_form,
                                                          f_forms[-1:])


def test_monoid_forms_refuse_terms_outside_the_shape(gf, ring):
    x, y, z, w = ring.gens()
    d, nu = 4, 3
    surface = x * w ** 3 - y ** 3 * z
    assert _monoid_forms(surface, nu, range(d)) is not None
    for stray in (x * x * z * w,           # x^2
                  x * y * z * w,           # an x*y term
                  x * w ** 2,              # total degree nu, not nu + 1
                  y ** 4):                 # y^d, outside range(d)
        assert _monoid_forms(surface + stray, nu, range(d)) is None
    # y^j for j outside `powers`
    assert _monoid_forms(surface, nu, (0, 1, 2)) is None
    assert _monoid_forms(surface + y ** 2 * z * w, nu, (3,)) is None
    # a term in a slot past w
    ext = ring.extended(ring.arity + 1)
    x, w, t = ext.gen(0), ext.gen(3), ext.gen(ring.arity)
    assert _monoid_forms(surface.in_ring(ext) + x * w ** 2 * t,
                         nu, range(d)) is None


def test_verify_extremal_reads_the_mixed_generator(gf, ring):
    # four-element weight-order bases whose mixed generator is not
    # x*G - y^3*F with nonzero forms: a term of the wrong degree, F = 0
    # and G = 0
    x, y, z, w = ring.gens()
    for mixed in (x * w ** 3 - y ** 3 * z + x * z * w,
                  x * w ** 3,
                  y ** 3 * z):
        basis = ideal(x * x, x * y, y ** 4, mixed)
        assert len(basis.groebner(
            WeightRefinedOrder(pipeline_weights(4), 4)).elements) == 4
        cert = verify_extremal_shape(basis, 4, 0)
        assert (cert.extremal, cert.failure) == (False, "shape")


def test_monoid_search_divides_only_the_non_standard_columns(gf,
                                                            monkeypatch):
    moved, _ = random_coordinate_change(fixture("quintic-g2", gf), seed=3)
    inv = moved.invariants
    calls = []
    normal_form = GroebnerBasis.normal_form

    def counting(self, f):
        calls.append(f)
        return normal_form(self, f)

    monkeypatch.setattr(GroebnerBasis, "normal_form", counting)
    surface = _find_monoid_surface(moved.ideal, inv.d, inv.nu)
    # one division per non-standard column, then the membership re-check
    gb = moved.ideal.groebner(WeightRefinedOrder(pipeline_weights(inv.d), 4))
    divided = _non_standard(gb.lead_exponents(),
                            monoid_template(inv.d, inv.nu))
    assert len(divided) == 1
    assert calls == [gb.ring.monomial(e) for e in divided] + [
        surface.equation]


def test_monoid_search_on_a_larger_kernel(gf):
    # one degree above nu the rational quartic's kernel has dimension 11
    # and holds vectors with G = 0, which are skipped; the search takes
    # the first vector with G != 0
    curve = fixture("rational-quartic", gf)
    d, nu = curve.invariants.d, curve.invariants.nu + 1
    kernel = _monoid_kernel(curve.ideal.groebner(), d, nu)
    assert len(kernel) == 11
    # a vector with G = 0 has no entry in the x-columns, which come first
    assert any(not entries[0][0][0] for entries in kernel)
    surface = _find_monoid_surface(curve.ideal, d, nu)
    assert curve.ideal.contains(surface.equation)
    assert not surface.g_form.is_zero
    first = next(entries for entries in kernel if entries[0][0][0])
    assert ({e for e, _ in first}
            == {e for e, _ in surface.equation.terms})
    assert _find_monoid_surface(curve.ideal, d, nu) == surface


def _dense_ci24(field, seed):
    """CI(2, 4) of a quadric and a quartic with every coefficient drawn
    from random.Random(seed)."""
    rng = random.Random(seed)
    ring = curve_ring(field)
    forms = [sum((ring.monomial(e, field.random_element(rng))
                  for e in oracles.monomials(4, degree)), ring.zero())
             for degree in (2, 4)]
    return complete_intersection(*forms)


# moved curves and the dimension of their monoid kernel; over GF(7) the
# dense CI(2, 4) moved by seed 0 has a kernel of dimension 12, so the
# search walks several kernel vectors
SURFACE_BASIS_CASES = [
    (lambda: fixture("quintic-g2", PrimeField()), 3, 1),
    (lambda: fixture("extremal:6:3", PrimeField()), 5, 1),
    (lambda: fixture("rational-quartic", PrimeField(7)), 2, 1),
    (lambda: _dense_ci24(PrimeField(7), 4), 0, 12),
    (lambda: fixture("rational-quartic", QQ), 4, 1),
]


@pytest.mark.parametrize("build, seed, dim", SURFACE_BASIS_CASES, ids=[
    "quintic-g2-gf32003", "extremal63-gf32003", "rational-quartic-gf7",
    "ci24-gf7", "rational-quartic-qq"])
def test_monoid_surface_is_the_same_from_either_basis(build, seed, dim,
                                                      monkeypatch):
    moved, _ = random_coordinate_change(build(), seed=seed)
    assert check_disjoint_line(moved.ideal)
    field, inv = moved.field, moved.invariants
    weight = WeightRefinedOrder(pipeline_weights(inv.d), 4)
    kernels = [_monoid_kernel(gb, inv.d, inv.nu)
               for gb in (moved.ideal.groebner(),
                          moved.ideal.groebner(weight))]
    assert len(kernels[0]) == dim
    assert kernels[0] == kernels[1]
    surface = _find_monoid_surface(moved.ideal, inv.d, inv.nu)
    # the same search with every basis request answered in grevlex
    groebner = IdealBasis.groebner
    monkeypatch.setattr(IdealBasis, "groebner",
                        lambda self, order=None: groebner(self))
    assert _find_monoid_surface(moved.ideal, inv.d, inv.nu) == surface


def _seeded_rational(d):
    """The rational curve of degree d from four forms drawn from
    random.Random(d) over GF(32003)."""
    field = PrimeField()
    rng = random.Random(d)
    return from_parametrization(field, [BinaryForm.random(field, d, rng)
                                        for _ in range(4)])


# moved curves that `specialize` certifies, with their seeds
ONE_COLUMN_CASES = {
    "quintic-g2": (lambda: fixture("quintic-g2", PrimeField()), 3),
    "extremal63": (lambda: fixture("extremal:6:3", PrimeField()), 5),
    "extremal85": (lambda: fixture("extremal:8:5", PrimeField()), 1),
    "extremal96": (lambda: fixture("extremal:9:6", PrimeField()), 1),
    "rational-quartic": (lambda: fixture("rational-quartic", PrimeField()),
                         12),
    "rational8": (lambda: _seeded_rational(8), 0),
    "rational10": (lambda: _seeded_rational(10), 0),
}


@pytest.mark.parametrize("case", ONE_COLUMN_CASES)
def test_one_template_column_is_not_standard(case):
    # the (d, 2, 1, 1) basis's leads lie in the initial ideal of the
    # limit (x^2, x*y, y^d, x*G - y^(d-1)*F), and of the template only
    # the lead of x*G - y^(d-1)*F is in there; so `_monoid_kernel`
    # divides one column and the kernel is the reported surface alone
    build, seed = ONE_COLUMN_CASES[case]
    moved, _ = random_coordinate_change(build(), seed=seed)
    report = specialize(moved, seed=0)
    assert report.extremal
    inv = report.invariants
    weight = WeightRefinedOrder(pipeline_weights(inv.d), 4)
    gb = report.transformed.groebner(weight)
    columns = monoid_template(inv.d, inv.nu)
    mixed = [g.lead_exponent for g in report.limit.groebner(weight)
             if g.lead_exponent in columns]
    assert _non_standard(gb.lead_exponents(), columns) == mixed
    assert len(mixed) == 1
    kernel = _monoid_kernel(gb, inv.d, inv.nu)
    assert len(kernel) == 1
    assert ({e for e, _ in kernel[0]}
            == {e for e, _ in report.surface.equation.terms})


def test_initial_ideal_finds_the_monoid_stage_basis(gf, monkeypatch):
    moved, _ = random_coordinate_change(fixture("quintic-g2", gf), seed=3)
    inv = moved.invariants
    omega = pipeline_weights(inv.d)
    orders = []
    buchberger = groebner_module.buchberger

    def recording(ideal_basis, order, *seeds):
        orders.append(order)
        return buchberger(ideal_basis, order, *seeds)

    monkeypatch.setattr(groebner_module, "buchberger", recording)
    assert check_disjoint_line(moved.ideal)
    _find_monoid_surface(moved.ideal, inv.d, inv.nu)
    assert orders == [GrevlexOrder(4), WeightRefinedOrder(omega, 4)]
    initial_ideal(moved.ideal, omega)
    assert len(orders) == 2


def test_monoid_surface_requires_disjointness(gf):
    curve = fixture("rational-quartic", gf)  # meets z = w = 0 at (1:0:0:0)
    with pytest.raises(ValueError):
        find_monoid_surface(curve)


# ---------------------------------------------------------------- verification

def test_verify_extremal_true_case(gf, ring):
    curve = fixture("extremal:4:0", gf)
    cert = verify_extremal_shape(curve.ideal, 4, 0)
    assert cert.extremal and cert.failure is None
    assert cert.f_form.degree == 1 and cert.g_form.degree == 3
    assert cert.rao == cert.rho == (1, 1, 1, 0)
    assert cert.n_start == 0


def test_verify_extremal_tests_coprimality_once(gf, monkeypatch):
    from extremalcurves import degeneration
    calls = []
    coprime = degeneration.binary_forms_coprime

    def counting(*forms):
        calls.append(forms)
        return coprime(*forms)

    monkeypatch.setattr(degeneration, "binary_forms_coprime", counting)
    curve = fixture("extremal:5:1", gf)
    cert = verify_extremal_shape(curve.ideal, 5, 1)
    assert cert.extremal
    assert calls == [(cert.f_form, cert.g_form)]
    # the public table still refuses forms with a common zero
    z = BinaryForm.monomial(gf, 1, 0)
    with pytest.raises(ValueError, match="no common zero"):
        degeneration.rao_dims_extremal(z, BinaryForm.monomial(gf, 3, 0),
                                       1, 2)


@pytest.mark.parametrize("build, seed", [
    (lambda gf: extremal_curve(gf, 8, 5, *random_coprime_pair(
        gf, 10, 6, random.Random(8))), None),
    (lambda gf: fixture("extremal:6:3", gf), None),
    (lambda gf: fixture("extremal:6:3", gf), 5)],
    ids=["random-8-5-fixed", "extremal63-fixed", "extremal63-moved5"])
def test_a_certified_attempt_tests_coprimality_once(gf, build, seed,
                                                    monkeypatch):
    # the one kernel vector is the surface without a test; the
    # certificate's coprimality clause is the one call
    from extremalcurves import degeneration
    curve = build(gf)
    if seed is not None:
        curve, _ = random_coordinate_change(curve, seed=seed)
    calls = []
    coprime = degeneration.binary_forms_coprime

    def counting(*forms):
        calls.append(forms)
        return coprime(*forms)

    monkeypatch.setattr(degeneration, "binary_forms_coprime", counting)
    report = specialize(curve, seed=0)
    assert report.extremal and report.retries == 0
    cert = report.certificate
    assert calls == [(cert.f_form, cert.g_form)]


def test_verify_extremal_non_coprime_clause(gf, ring):
    x, y, z, w = ring.gens()
    bad = ideal(x * x, x * y, y ** 4, x * w ** 3 - y ** 3 * w)
    cert = verify_extremal_shape(bad, 4, 0)
    assert not cert.extremal
    assert cert.failure == "coprimality"


def test_verify_extremal_boundary_rejected(gf, ring):
    x, y = ring.gen(0), ring.gen(1)
    acm = ideal(x * x, x * y, y ** 3)
    cert = verify_extremal_shape(acm, 3, 0)
    assert not cert.extremal
    assert cert.failure == "invariants"


def test_verify_extremal_wrong_ideal_clause(gf, ring):
    x, y, z, w = ring.gens()
    for extra in (z ** 4, z ** 5):
        # the grevlex basis has six elements, not four
        not_extremal = ideal(x * x, x * y, y ** 4, x * w ** 3 - y ** 3 * z,
                             extra)
        cert = verify_extremal_shape(not_extremal, 4, 0)
        assert not cert.extremal
        assert cert.failure == "shape"
    # x^2 does not lie in the rational quartic's ideal
    quartic = fixture("rational-quartic", gf).ideal
    assert verify_extremal_shape(quartic, 4, 0).failure == "membership"


def _sparse_form(field, degree, rng):
    """A nonzero binary form with about a third of its coefficients set."""
    while True:
        form = BinaryForm(field, [field.random_element(rng)
                                  if rng.random() < 0.35 else field.zero
                                  for _ in range(degree + 1)])
        if not form.is_zero:
            return form


@pytest.mark.parametrize("field", [PrimeField(), PrimeField(7), QQ],
                         ids=["gf32003", "gf7", "qq"])
@pytest.mark.parametrize("d", range(2, 6))
def test_rebuilt_generators_are_their_own_reduced_basis(field, d):
    # the lemma behind the certificate's reading of the grevlex basis:
    # x^2, x*y, y^d and x*G - y^(d-1)*F, made monic, are a reduced basis
    # in every term order, for dense, sparse and non-coprime forms
    rng = random.Random(d)
    ring = curve_ring(field)
    x, y = ring.gen(0), ring.gen(1)
    orders = [GrevlexOrder(4), WeightRefinedOrder(pipeline_weights(d), 4)]
    while len(orders) < 4:
        weights = [rng.choice((0, 0, 1, 2, 5)) for _ in range(4)]
        if any(weights):
            orders.append(WeightRefinedOrder(weights, 4))
    for a in (1, 2, 3):
        nu = a + d - 2
        common = BinaryForm.random(field, 1, rng)
        pairs = [
            (BinaryForm.random(field, a, rng),
             BinaryForm.random(field, nu, rng)),
            (_sparse_form(field, a, rng), _sparse_form(field, nu, rng)),
            (_form_product(common, BinaryForm.random(field, a - 1, rng)),
             _form_product(common, BinaryForm.random(field, nu - 1, rng)))]
        for f_form, g_form in pairs:
            gens = _extremal_generators(ring, d, f_form, g_form)
            assert gens == (x * x, x * y, y ** d,
                            x * g_form.to_polynomial(ring)
                            - y ** (d - 1) * f_form.to_polynomial(ring))
            for order in orders:
                basis = buchberger(IdealBasis(ring, gens), order)
                assert (basis.elements
                        == IdealBasis(ring.with_order(order), gens).generators)


def _near_extremal_ideals(field, d, rng):
    """(ideal, g) for x^2, x*y, y^d, h = x*G - y^(d-1)*F with coprime,
    sparse and non-coprime pairs, a = 1..3, each also with G or F zero, a
    stray term on h, an extra generator z^k or y^d dropped."""
    ring = curve_ring(field)
    x, y, z, w = ring.gens()
    for a in (1, 2, 3):
        nu = a + d - 2
        g = (d - 2) * (d - 3) // 2 - a
        common = BinaryForm.random(field, 1, rng)
        pairs = [
            (BinaryForm.random(field, a, rng),
             BinaryForm.random(field, nu, rng)),
            (_sparse_form(field, a, rng), _sparse_form(field, nu, rng)),
            (_form_product(common, BinaryForm.random(field, a - 1, rng)),
             _form_product(common, BinaryForm.random(field, nu - 1, rng)))]
        zero_f = BinaryForm(field, [field.zero] * (a + 1))
        zero_g = BinaryForm(field, [field.zero] * (nu + 1))
        for f_form, g_form in pairs:
            sq, xy, yd, h = _extremal_generators(ring, d, f_form, g_form)
            variants = [
                (sq, xy, yd, h),
                _extremal_generators(ring, d, f_form, zero_g),
                _extremal_generators(ring, d, zero_f, g_form),
                (sq, xy, yd, h + z ** (nu + 1)),
                (sq, xy, yd, h + y * w ** nu),
                (sq, xy, yd, h + x * x * w ** (nu - 1)),   # reduces away
                (sq, xy, yd, h, z ** (nu + 1)),
                (sq, xy, yd, h, z ** (nu + 2)),
                (sq, xy, h)]
            for gens in variants:
                yield IdealBasis(ring, gens), g


def _certificate_summary(ideal_basis, d, g):
    cert = verify_extremal_shape(ideal_basis, d, g)
    return cert.extremal, cert.failure, cert.f_form, cert.g_form


@pytest.mark.parametrize("field", [PrimeField(), PrimeField(7), QQ],
                         ids=["gf32003", "gf7", "qq"])
@pytest.mark.parametrize("d", range(2, 7))
def test_certificate_matches_the_weight_basis_reference(field, d):
    # every clause read off the grevlex basis gives the verdict, failing
    # clause and forms of the weight-basis certificate with its rebuild
    rng = random.Random(100 + d)
    failures = set()
    for basis, g in _near_extremal_ideals(field, d, rng):
        expected = oracles.weight_basis_extremal_check(basis, d, g)
        assert _certificate_summary(basis, d, g) == expected
        failures.add(expected[1])
    assert failures == {None, "membership", "shape", "coprimality"}


def test_certificate_matches_the_reference_on_data_and_limits(gf):
    # the loader refuses the inhomogeneous and malformed files
    cases = []
    for path in sorted(DATA.glob("*.ideal")):
        try:
            cases.append(load_ideal_file(path))
        except ValueError:
            continue
    assert len(cases) == 6
    for name, seed in (("rational-quartic", 1), ("extremal:6:3", 2),
                       ("quintic-g2", 3)):
        moved, _ = random_coordinate_change(fixture(name, gf), seed)
        cases.append(saturate_irrelevant(initial_ideal(
            moved.ideal, pipeline_weights(moved.degree))))
    verdicts = set()
    for basis in cases:
        for d in range(2, 7):
            for a in range(4):
                g = (d - 2) * (d - 3) // 2 - a
                expected = oracles.weight_basis_extremal_check(basis, d, g)
                assert _certificate_summary(basis, d, g) == expected
                verdicts.add(expected[1])
    assert {None, "invariants", "coprimality"} <= verdicts


def test_certificate_asks_only_for_the_grevlex_basis(gf, monkeypatch):
    from extremalcurves import degeneration
    requested, runs, certified = [], [], []
    groebner = IdealBasis.groebner
    buchberger_run = groebner_module.buchberger
    certify = degeneration.verify_extremal_shape

    def recording_groebner(self, order=None):
        requested.append((id(self), order or GrevlexOrder(self.ring.arity)))
        return groebner(self, order)

    def counting_buchberger(*args):
        runs.append(args)
        return buchberger_run(*args)

    def recording_certify(limit, d, g):
        requested.clear()
        runs.clear()
        cert = certify(limit, d, g)
        assert set(requested) == {(id(limit), GrevlexOrder(4))}
        assert runs == []
        certified.append(cert)
        return cert

    monkeypatch.setattr(IdealBasis, "groebner", recording_groebner)
    monkeypatch.setattr(groebner_module, "buchberger", counting_buchberger)
    monkeypatch.setattr(degeneration, "verify_extremal_shape",
                        recording_certify)
    moved, _ = random_coordinate_change(fixture("extremal:6:3", gf), 1)
    assert specialize(moved).extremal
    curve = fixture("extremal:6:3", gf)
    assert recording_certify(curve.ideal, 6, 3).extremal
    assert [cert.extremal for cert in certified] == [True, True]


# ------------------------------------------------------------------- families

def test_family_constant_for_weight_homogeneous(gf):
    curve = fixture("extremal:4:0", gf)
    lines = emit_family(curve.ideal, (4, 2, 1, 1))
    assert all("t" not in line for line in lines)


def test_family_reparametrization_puts_initial_form_at_zero(gf, ring):
    x, y, z, w = ring.gens()
    g = x * w ** 3 - y ** 3 * z + z ** 4
    lines = emit_family(ideal(g), (4, 2, 1, 1))
    ext = ring.extended(5)
    family = parse_polynomial(ext, lines[0])
    t = ext.gen(4)
    expected = (x * w ** 3 - y ** 3 * z).in_ring(ext) + t ** 3 * (z ** 4).in_ring(ext)
    # the family comes from the monic reduced-basis element, so compare
    # up to the canonical rescaling
    assert family.monic() == expected.monic()


@pytest.mark.parametrize("field", DIVISION_FIELDS, ids=FIELD_IDS)
def test_family_blocks_match_the_sorted_reference(field):
    # the text is written from the weight blocks in reverse, with no sort
    for basis, weights in random_weight_bases(field, "family"):
        assert emit_family(basis, weights) == oracles.sorted_family(
            basis, weights)


def test_family_needs_a_homogeneous_ideal(ring):
    x, z = ring.gen(0), ring.gen(2)
    with pytest.raises(ValueError, match="homogeneous"):
        emit_family(ideal(x + z * z), (1, 0, 0, 0))


def test_family_single_weight(gf, ring):
    x, z = ring.gen(0), ring.gen(2)
    lines = emit_family(ideal(x + z), (1, 0, 0, 0))
    ext = ring.extended(5)
    family = parse_polynomial(ext, lines[0])
    t = ext.gen(4)
    assert family == x.in_ring(ext) + t * z.in_ring(ext)


def test_family_endpoints_on_pipeline_run(gf):
    curve = fixture("rational-quartic", gf)
    report = specialize(curve, seed=42)
    ring = curve.ring
    ext = ring.extended(5)
    t = ext.gen(4)
    fibre1 = []
    fibre0 = []
    for line in report.family:
        f = parse_polynomial(ext, line)
        # t = 1: substitute by swapping t for 1 via evaluation
        sub1 = {}
        sub0 = {}
        for e, c in f.terms:
            base = e[:4] + (0,)
            sub1[base] = gf.add(sub1.get(base, gf.zero), c)
            if e[4] == 0:
                sub0[base] = c
        from extremalcurves import Polynomial
        fibre1.append(Polynomial.from_dict(ring, sub1))
        fibre0.append(Polynomial.from_dict(ring, sub0))
    assert ideal_equal(IdealBasis(ring, fibre1), report.transformed)
    init = initial_ideal(report.transformed, (4, 2, 1, 1))
    assert ideal_equal(IdealBasis(ring, fibre0), init)


# ----------------------------------------------------------------- specialize

def test_specialize_extremal_is_fixed_point(gf):
    rng = random.Random(43)
    for d, g in [(4, 0), (5, 1), (6, 2)]:
        a = (d - 2) * (d - 3) // 2 - g
        f, gg = random_coprime_pair(gf, a, d - 2, rng)
        curve = extremal_curve(gf, d, g, f, gg)
        report = specialize(curve, seed=7)
        assert report.retries == 0
        assert ideal_equal(report.limit, curve.ideal)
        assert report.invariants.branch == "general"


def test_first_attempt_runs_on_the_input(gf, monkeypatch):
    # attempt 0 works on the input ideal itself, with its cached grevlex
    # basis; a retry works on the image under its seeded change
    curve = fixture("extremal:6:3", gf)
    cached = curve.ideal.groebner()
    calls = []
    buchberger = groebner_module.buchberger

    def recording(ideal_basis, order, *seeds):
        calls.append((ideal_basis, order))
        return buchberger(ideal_basis, order, *seeds)

    def no_move(*args):
        raise AssertionError("attempt 0 moved the input")

    monkeypatch.setattr(degeneration_module, "transform_ideal", no_move)
    monkeypatch.setattr(groebner_module, "buchberger", recording)
    report = specialize(curve, seed=0)
    assert report.retries == 0
    assert report.transformed is curve.ideal
    assert report.transformed.groebner() is cached
    assert all(not (basis is curve.ideal and order == GrevlexOrder(4))
               for basis, order in calls)
    monkeypatch.undo()

    curve = fixture("rational-quartic", gf)
    report = specialize(curve, seed=0)
    assert report.retries == 1
    change = CoordinateChange.random(gf, _attempt_rng(0, 1))
    assert (report.transformed.generators
            == transform_ideal(curve.ideal, change).generators)


@pytest.mark.parametrize("name", ["rational-quartic", "quintic-g2"])
def test_certified_attempt_zero_takes_two_hilbert_series(name, monkeypatch):
    # the input's series, kept on it for its weight-order basis and handed
    # to the limit, and the saturation's; never the unsaturated limit's
    moved, _ = random_coordinate_change(fixture(name, PrimeField()), 0)
    basis = IdealBasis(moved.ring, moved.ideal.generators)
    curve = CurveIdeal(basis, moved.degree, moved.genus)
    module = sys.modules["extremalcurves.hilbert"]
    real = module._hilbert_data
    series = []

    def recorded(arity, leads):
        series.append(sorted(leads))
        return real(arity, leads)

    monkeypatch.setattr(module, "_hilbert_data", recorded)
    report = specialize(curve, seed=0, max_retries=0)
    monkeypatch.undo()
    unsaturated = initial_ideal(basis, report.omega)
    assert report.retries == 0
    assert unsaturated.groebner().elements != (
        report.limit.groebner().elements)
    assert series == [sorted(basis.groebner().lead_exponents()),
                      sorted(report.limit.groebner().lead_exponents())]


def test_specialize_rational_quartic(gf):
    curve = fixture("rational-quartic", gf)
    report = specialize(curve, seed=42)
    assert report.extremal
    assert report.retries <= 5
    cert = report.certificate
    assert cert.f_form.degree == 1 and cert.g_form.degree == 3
    assert report.certificate.rao == (1, 1, 1, 0)
    assert report.certificate.n_start == 0


def test_specialize_plane_curve_branch(gf, ring):
    x, y, z, w = ring.gens()
    cubic = complete_intersection(x, y ** 3 + z ** 3 + w ** 3)
    report = specialize(cubic, seed=0)
    assert report.invariants.branch == "plane"
    assert report.extremal
    assert tuple(str(g) for g in cubic.ideal.generators) == report.family


def test_specialize_acm_boundary_branch(gf):
    report = specialize(fixture("twisted-cubic", gf), seed=0)
    assert report.invariants.branch == "ACM-boundary"
    assert report.retries == 0
    assert report.certificate is None
    # the a = 0 table comes from the invariants: zero on [1, l]
    table = report_to_dict(report)
    assert table["n_start"] == 1 and table["rao"] == table["rho"] == [0]


def test_specialize_exhausts_retries_when_forced(gf):
    curve = fixture("rational-quartic", gf)
    # identity coordinates meet z = w = 0, so zero retries must fail
    with pytest.raises(SpecializationError) as err:
        specialize(curve, seed=42, max_retries=0)
    assert any(stage == "disjointness" for _, stage, _ in err.value.diagnostics)


def test_specialize_names_each_failed_stage(gf, ring):
    x, y, z, w = ring.gens()
    bad = CurveIdeal.from_ideal(ideal(x * x, x * y, y ** 4,
                                      x * w ** 3 - y ** 3 * w))
    with pytest.raises(SpecializationError) as err:
        specialize(bad)
    assert err.value.diagnostics == tuple(
        (a, "shape", "limit failed the coprimality check") for a in range(6))
    # the twisted cubic with an embedded point at (0:0:0:1), taken as a
    # degree-3 genus -2 curve: in each attempt that passes the line test,
    # one of x^2, x*y, y^3 is missing from the limit
    cubic = fixture("twisted-cubic", gf).ideal
    square = ideal(x * x, x * y, x * z, y * y, y * z, z * z)
    with pytest.raises(SpecializationError) as err:
        specialize(CurveIdeal(ideal_intersect(cubic, square), 3, -2))
    assert err.value.diagnostics == (
        (0, "disjointness", "the curve meets the line z = w = 0"),) + tuple(
        (a, "shape", "limit failed the membership check") for a in range(1, 6))
    assert "attempt 0: disjointness" in str(err.value)
    assert "attempt 5: shape (limit failed the membership check)" in str(
        err.value)


def _failing_surface_search(monkeypatch, retryable):
    """Make the first monoid-surface search fail, retryable or not; later
    searches run as usual.  Returns the message of the failure."""
    message = "no monoid surface in these coordinates"
    real = degeneration_module._find_monoid_surface
    calls = []

    def failing(moved, d, nu):
        calls.append(moved)
        if len(calls) == 1:
            raise MonoidSurfaceError(message, retryable)
        return real(moved, d, nu)

    monkeypatch.setattr(degeneration_module, "_find_monoid_surface", failing)
    return message


def test_a_retryable_surface_failure_moves_to_the_next_attempt(gf,
                                                               monkeypatch):
    # a moved curve passes the line test at attempt 0, so the surface
    # search is its first failure; attempt 1 draws new coordinates
    moved, _ = random_coordinate_change(fixture("rational-quartic", gf), 0)
    message = _failing_surface_search(monkeypatch, retryable=True)
    report = specialize(moved, seed=0)
    assert report.extremal and report.retries == 1
    assert report.diagnostics == ((0, "surface", message),)


def test_a_final_surface_failure_stops_with_the_diagnostics_so_far(
        gf, monkeypatch):
    # the quartic in its own coordinates meets z = w = 0 at attempt 0, and
    # the search at attempt 1 fails for good: no attempt 2 is made
    message = _failing_surface_search(monkeypatch, retryable=False)
    with pytest.raises(SpecializationError, match=message) as err:
        specialize(fixture("rational-quartic", gf), seed=42)
    assert err.value.diagnostics == (
        (0, "disjointness", "the curve meets the line z = w = 0"),)
    assert isinstance(err.value.__cause__, MonoidSurfaceError)


@pytest.mark.parametrize("name", ["rational-quartic", "twisted-cubic"])
def test_specialize_rejects_negative_retries(gf, name):
    # refused before the branch dispatch, so the ACM boundary branch of the
    # twisted cubic refuses too
    with pytest.raises(ValueError,
                       match="the number of retries must be >= 0, got -1"):
        specialize(fixture(name, gf), seed=42, max_retries=-1)


def test_specialize_rejects_impossible_genus(gf):
    quartic = fixture("rational-quartic", gf)
    fake = CurveIdeal(quartic.ideal, 4, 2)
    with pytest.raises(ValueError,
                       match="no non-planar curve has degree 4 and genus 2"):
        specialize(fake, seed=0)


def test_specialize_flatness_witness(gf):
    curve = fixture("rational-quartic", gf)
    report = specialize(curve, seed=42)
    moved = report.transformed
    init = initial_ideal(moved, report.omega)
    lead_moved = moved.groebner(GrevlexOrder(4)).lead_exponents()
    lead_init = init.groebner(GrevlexOrder(4)).lead_exponents()
    for n in range(2 * (curve.invariants.nu + 1) + 1):
        assert oracles.standard_monomial_count(lead_moved, 4, n) == \
            oracles.standard_monomial_count(lead_init, 4, n)


def test_specialize_limit_shape_stable_across_seeds(gf):
    curve = fixture("rational-quartic", gf)
    for seed in (1, 2, 3):
        report = specialize(curve, seed=seed)
        assert report.extremal
        assert report.certificate.rao == (1, 1, 1, 0)


def test_specialize_degree_six_complete_intersection(gf, ring):
    x, y, z, w = ring.gens()
    ci = complete_intersection(x * w - y * z,
                               x ** 3 + y ** 3 + z ** 3 + w ** 3)
    assert (ci.degree, ci.genus) == (6, 4)
    report = specialize(ci, seed=11)
    assert report.extremal
    cert = report.certificate
    assert cert.rao == cert.rho == (1, 2, 2, 2, 2, 2, 1, 0)
    assert cert.n_start == -1


def test_specialize_degree_eight_complete_intersection(gf, ring):
    x, y, z, w = ring.gens()
    ci = complete_intersection(
        x * w - y * z, x ** 4 + y ** 4 + z ** 4 + w ** 4 + x * y * z * w)
    assert (ci.degree, ci.genus) == (8, 9)
    report = specialize(ci, seed=1)
    assert report.extremal and report.certificate.rao == report.certificate.rho
    assert max(report.certificate.rao) == ci.invariants.a == 6


def test_specialize_disconnected_reduced_curve(gf, ring):
    # twisted cubic plus a disjoint line: degree 4, genus -1
    x, y, z, w = ring.gens()
    cubic = fixture("twisted-cubic", gf)
    line = IdealBasis(ring, (x - 2 * z, y - 3 * w))
    union = CurveIdeal.from_ideal(ideal_intersect(cubic.ideal, line))
    assert (union.degree, union.genus) == (4, -1)
    report = specialize(union, seed=3)
    assert report.extremal
    cert = report.certificate
    assert cert.rao == cert.rho == (1, 2, 2, 2, 1, 0)


def test_specialize_degree_two_double_line(gf):
    f_form = BinaryForm(gf, (1, 0, 1))   # z^2 + w^2
    g_form = BinaryForm(gf, (0, 1, 0))   # z*w
    curve = extremal_curve(gf, 2, -2, f_form, g_form)
    report = specialize(curve, seed=0)
    assert report.retries == 0
    assert ideal_equal(report.limit, curve.ideal)
    assert report.certificate.rao == (1, 2, 1, 0)


def test_specialize_plane_conic_dispatch(gf, ring):
    x, y, z, w = ring.gens()
    # at degree 2 both boundary genera coincide; the plane branch wins
    conic = complete_intersection(x, y * w - z * z)
    report = specialize(conic, seed=0)
    assert report.invariants.branch == "plane"


def test_specialize_seed_sweep(gf):
    quartic = fixture("rational-quartic", gf)
    for seed in range(8):
        report = specialize(quartic, seed=seed)
        assert report.extremal and report.retries <= 5


def test_specialize_over_small_prime_field():
    from extremalcurves import PrimeField
    gf101 = PrimeField(101)
    report = specialize(fixture("rational-quartic", gf101), seed=5)
    assert report.extremal and report.certificate.rao == (1, 1, 1, 0)


def test_specialize_recovers_from_bad_projection_point(gf, ring):
    # the cubic-plus-line union passes through (1,0,0,0), so the identity
    # attempt fails, but a coordinate change must succeed
    x, y, z, w = ring.gens()
    union = ideal_intersect(IdealBasis(ring, (x, y ** 3 + z ** 3 + w ** 3)),
                            IdealBasis(ring, (y, z)))
    curve = CurveIdeal.from_ideal(union)
    report = specialize(curve, seed=2)
    assert report.extremal and report.retries >= 1
    assert report.certificate.rao == (1, 1, 1, 0)
    moved = CurveIdeal(report.transformed, curve.degree, curve.genus)
    probe = condition_star_probe(moved)
    assert probe.double_plane and probe.z_degree == 3


def test_specialize_along_a_liaison_chain(gf, ring, eliminations):
    # twisted cubic -> (6,3) via CI(3,3) -> (6,3) via CI(3,4) -> (3,0);
    # the intermediate curves run the full pipeline, the last hop lands
    # back on the boundary branch; each hop runs one elimination, since
    # the colon by the curve's first generator satisfies the others
    from extremalcurves import link as link_once
    from extremalcurves.orders import monomial_exponents
    rng = random.Random(12345)

    def link(f, g, curve):
        before = len(eliminations)
        residual = link_once(f, g, curve)
        assert len(eliminations) == before + 1
        return residual

    def random_element(ideal_basis, degree):
        acc = ring.zero()
        for g in ideal_basis.generators:
            shift = degree - g.degree
            if shift < 0:
                continue
            for e in monomial_exponents(4, shift):
                c = gf.random_element(rng)
                if c:
                    acc = acc + ring.monomial(e, c) * g
        return acc

    cubic = fixture("twisted-cubic", gf)
    hop1 = link(random_element(cubic.ideal, 3), random_element(cubic.ideal, 3),
                cubic)
    assert (hop1.degree, hop1.genus) == (6, 3)
    report1 = specialize(hop1, seed=9)
    assert report1.extremal
    cert = report1.certificate
    assert cert.rao == cert.rho == (1, 2, 3, 3, 3, 3, 3, 2, 1, 0)

    hop2 = link(random_element(hop1.ideal, 3), random_element(hop1.ideal, 4),
                hop1)
    assert (hop2.degree, hop2.genus) == (6, 3)
    assert specialize(hop2, seed=14).extremal

    hop3 = link(random_element(hop2.ideal, 3), random_element(hop2.ideal, 3),
                hop2)
    assert (hop3.degree, hop3.genus) == (3, 0)
    assert specialize(hop3, seed=0).invariants.branch == "ACM-boundary"


def test_specialize_fixed_points_over_rationals():
    from extremalcurves import QQ
    rng = random.Random(88)
    for d, g in ((4, 0), (5, 1)):
        a = (d - 2) * (d - 3) // 2 - g
        f_form, g_form = random_coprime_pair(QQ, a, d - 2, rng)
        curve = extremal_curve(QQ, d, g, f_form, g_form)
        report = specialize(curve, seed=0)
        assert report.retries == 0
        assert ideal_equal(report.limit, curve.ideal)


# ---------------------------------------------------------------------- probe

def test_probe_extremal_curve(gf, ring):
    x, y, w = ring.gen(0), ring.gen(1), ring.gen(3)
    curve = fixture("extremal:4:0", gf)
    probe = condition_star_probe(curve)
    assert probe.double_plane
    assert probe.z_degree == 3 == probe.expected
    assert probe.ok
    assert ideal_equal(probe.z_ideal, ideal(x, y, w ** 3))


def test_probe_twisted_cubic_general_coordinates(gf):
    from extremalcurves import random_coordinate_change
    curve = fixture("twisted-cubic", gf)
    moved, _ = random_coordinate_change(curve, seed=5)
    probe = condition_star_probe(moved)
    assert probe.double_plane
    assert probe.z_degree == 1 == moved.invariants.nu
    assert probe.ok


def test_probe_detects_multisecant_through_projection_point(gf, ring):
    x, y, z, w = ring.gens()
    # plane cubic in x = 0 union the line y = z = 0 through (1,0,0,0)
    plane_cubic = IdealBasis(ring, (x, y ** 3 + z ** 3 + w ** 3))
    through_p = IdealBasis(ring, (y, z))
    union = ideal_intersect(plane_cubic, through_p)
    curve = CurveIdeal.from_ideal(union)
    assert (curve.degree, curve.genus) == (4, 0)
    probe = condition_star_probe(curve)
    assert not probe.double_plane
    assert not probe.ok
    assert "line through (1,0,0,0)" in probe.note or "degree" in probe.note


def test_probe_consistent_with_successful_run(gf):
    curve = fixture("quintic-g2", gf)
    report = specialize(curve, seed=42)
    moved = CurveIdeal(report.transformed, curve.degree, curve.genus)
    probe = condition_star_probe(moved)
    assert probe.double_plane and probe.ok
    assert probe.z_degree == curve.invariants.nu == 4


def _conic_off_the_point(field):
    ring = curve_ring(field)
    x, y, z, w = ring.gens()
    return CurveIdeal.from_ideal(
        IdealBasis(ring, (x - z, y * y + z * z + w * w)))


@pytest.mark.parametrize("build", [line_xy, _conic_off_the_point],
                         ids=["line-xy", "conic"])
def test_probe_plane_curve_off_the_point(gf, build):
    # nu = 0, and the residual scheme is empty: its length 0 is expected
    curve = build(gf)
    assert curve.invariants.nu == 0
    probe = condition_star_probe(curve)
    assert probe.double_plane and probe.ok
    assert probe.z_degree == 0 == probe.expected
    assert probe.note == ""


def test_probe_rejects_residual_curve(gf, ring):
    # a conic off (1,0,0,0) in the plane y = 0, which holds that point,
    # projects 2:1 onto a line, which the residual scheme then contains
    x, y, z, w = ring.gens()
    curve = CurveIdeal.from_ideal(
        IdealBasis(ring, (y, x * x + z * z + w * w)))
    probe = condition_star_probe(curve)
    assert probe.double_plane and not probe.ok
    assert probe.z_degree is None
    assert probe.note == "residual scheme has dimension 1, expected 0"
