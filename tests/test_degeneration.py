import random

import pytest

from extremalcurves import (BinaryForm, CurveIdeal, Invariants,
                            SpecializationError, check_disjoint_line,
                            complete_intersection, condition_star_probe,
                            curve_ring, emit_family, extremal_curve,
                            find_monoid_surface, fixture, ideal,
                            ideal_equal, ideal_intersect, initial_ideal,
                            monoid_template, parse_polynomial,
                            rao_dims_extremal, specialize,
                            verify_extremal_shape)
from extremalcurves.curves import line_xy
from extremalcurves.groebner import GrevlexOrder, IdealBasis

import oracles


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
                    prod = tuple(e[i] + m[i] for i in range(8))
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
    assert check_disjoint_line(fixture("extremal:4:0", gf))
    assert check_disjoint_line(line_xy(gf))
    # (y, z) defines a line through (1,0,0,0) on z = w = 0
    assert not check_disjoint_line(IdealBasis(ring, (y, z)))


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
    assert surface.f_forms[-1] == BinaryForm.monomial(gf, 1, 0)
    assert all(f.is_zero for f in surface.f_forms[:-1])
    # the initial form of the equation is the extremal mixed generator
    assert surface.equation.initial_form((4, 2, 1, 1)) == surface.equation


def test_monoid_surface_on_moved_quartic(gf):
    from extremalcurves import random_coordinate_change
    curve = fixture("rational-quartic", gf)
    moved, _ = random_coordinate_change(curve, seed=12)
    assert check_disjoint_line(moved)
    surface = find_monoid_surface(moved, rng=random.Random(0))
    assert surface.equation.degree == curve.invariants.nu + 1
    assert moved.ideal.contains(surface.equation)
    assert not surface.g_form.is_zero
    w_vec = (4, 2, 1, 1)
    init = surface.equation.initial_form(w_vec)
    x, y = moved.ring.gen(0), moved.ring.gen(1)
    expected = (x * surface.g_form.to_polynomial(moved.ring)
                - y ** 3 * surface.f_forms[-1].to_polynomial(moved.ring))
    assert init == expected


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
    not_extremal = ideal(x * x, x * y, y ** 4, x * w ** 3 - y ** 3 * z, z ** 4)
    cert = verify_extremal_shape(not_extremal, 4, 0)
    assert not cert.extremal


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
            base = e[:4] + (0, 0, 0, 0)
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
        assert report.branch == "general"


def test_specialize_rational_quartic(gf):
    curve = fixture("rational-quartic", gf)
    report = specialize(curve, seed=42)
    assert report.extremal
    assert report.retries <= 5
    cert = report.certificate
    assert cert.f_form.degree == 1 and cert.g_form.degree == 3
    assert report.rao == (1, 1, 1, 0) and report.n_start == 0


def test_specialize_plane_curve_branch(gf, ring):
    x, y, z, w = ring.gens()
    cubic = complete_intersection(x, y ** 3 + z ** 3 + w ** 3)
    report = specialize(cubic, seed=0)
    assert report.branch == "plane"
    assert report.extremal
    assert tuple(str(g) for g in cubic.ideal.generators) == report.family


def test_specialize_acm_boundary_branch(gf):
    report = specialize(fixture("twisted-cubic", gf), seed=0)
    assert report.branch == "ACM-boundary"
    assert report.retries == 0
    assert report.rao == report.rho == (0,)


def test_specialize_exhausts_retries_when_forced(gf):
    curve = fixture("rational-quartic", gf)
    # identity coordinates meet z = w = 0, so zero retries must fail
    with pytest.raises(SpecializationError) as err:
        specialize(curve, seed=42, max_retries=0)
    assert any(stage == "disjointness" for _, stage, _ in err.value.diagnostics)


def test_specialize_rejects_impossible_genus(gf):
    quartic = fixture("rational-quartic", gf)
    fake = CurveIdeal.trusted(quartic.ideal, 4, 2)
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
        assert report.rao == (1, 1, 1, 0)


def test_specialize_degree_six_complete_intersection(gf, ring):
    x, y, z, w = ring.gens()
    ci = complete_intersection(x * w - y * z,
                               x ** 3 + y ** 3 + z ** 3 + w ** 3)
    assert (ci.degree, ci.genus) == (6, 4)
    report = specialize(ci, seed=11)
    assert report.extremal
    assert report.rao == report.rho == (1, 2, 2, 2, 2, 2, 1, 0)
    assert report.n_start == -1


def test_specialize_degree_eight_complete_intersection(gf, ring):
    x, y, z, w = ring.gens()
    ci = complete_intersection(
        x * w - y * z, x ** 4 + y ** 4 + z ** 4 + w ** 4 + x * y * z * w)
    assert (ci.degree, ci.genus) == (8, 9)
    report = specialize(ci, seed=1)
    assert report.extremal and report.rao == report.rho
    assert max(report.rao) == ci.invariants.a == 6


def test_specialize_disconnected_reduced_curve(gf, ring):
    # twisted cubic plus a disjoint line: degree 4, genus -1
    x, y, z, w = ring.gens()
    cubic = fixture("twisted-cubic", gf)
    line = IdealBasis(ring, (x - 2 * z, y - 3 * w))
    union = CurveIdeal.from_ideal(ideal_intersect(cubic.ideal, line),
                                  saturate=True)
    assert (union.degree, union.genus) == (4, -1)
    report = specialize(union, seed=3)
    assert report.extremal
    assert report.rao == report.rho == (1, 2, 2, 2, 1, 0)


def test_specialize_degree_two_double_line(gf):
    f_form = BinaryForm(gf, (1, 0, 1))   # z^2 + w^2
    g_form = BinaryForm(gf, (0, 1, 0))   # z*w
    curve = extremal_curve(gf, 2, -2, f_form, g_form)
    report = specialize(curve, seed=0)
    assert report.retries == 0
    assert ideal_equal(report.limit, curve.ideal)
    assert report.rao == (1, 2, 1, 0)


def test_specialize_plane_conic_dispatch(gf, ring):
    x, y, z, w = ring.gens()
    # at degree 2 both boundary genera coincide; the plane branch wins
    conic = complete_intersection(x, y * w - z * z)
    report = specialize(conic, seed=0)
    assert report.branch == "plane"


def test_specialize_seed_sweep(gf):
    quartic = fixture("rational-quartic", gf)
    for seed in range(8):
        report = specialize(quartic, seed=seed)
        assert report.extremal and report.retries <= 5


def test_specialize_over_small_prime_field():
    from extremalcurves import PrimeField
    gf101 = PrimeField(101)
    report = specialize(fixture("rational-quartic", gf101), seed=5)
    assert report.extremal and report.rao == (1, 1, 1, 0)


def test_specialize_recovers_from_bad_projection_point(gf, ring):
    # the cubic-plus-line union passes through (1,0,0,0), so the identity
    # attempt fails, but a coordinate change must succeed
    x, y, z, w = ring.gens()
    union = ideal_intersect(IdealBasis(ring, (x, y ** 3 + z ** 3 + w ** 3)),
                            IdealBasis(ring, (y, z)))
    curve = CurveIdeal.from_ideal(union, saturate=True)
    report = specialize(curve, seed=2)
    assert report.extremal and report.retries >= 1
    assert report.rao == (1, 1, 1, 0)
    moved = CurveIdeal.trusted(report.transformed, curve.degree, curve.genus)
    probe = condition_star_probe(moved)
    assert probe.double_plane and probe.z_degree == 3


def test_specialize_along_a_liaison_chain(gf, ring):
    # twisted cubic -> (6,3) via CI(3,3) -> (6,3) via CI(3,4) -> (3,0);
    # the intermediate curves run the full pipeline, the last hop lands
    # back on the boundary branch
    from extremalcurves import link
    from extremalcurves.orders import monomial_exponents
    rng = random.Random(12345)

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
    assert report1.rao == report1.rho == (1, 2, 3, 3, 3, 3, 3, 2, 1, 0)

    hop2 = link(random_element(hop1.ideal, 3), random_element(hop1.ideal, 4),
                hop1)
    assert (hop2.degree, hop2.genus) == (6, 3)
    assert specialize(hop2, seed=14).extremal

    hop3 = link(random_element(hop2.ideal, 3), random_element(hop2.ideal, 3),
                hop2)
    assert (hop3.degree, hop3.genus) == (3, 0)
    assert specialize(hop3, seed=0).branch == "ACM-boundary"


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
    curve = CurveIdeal.from_ideal(union, saturate=True)
    assert (curve.degree, curve.genus) == (4, 0)
    probe = condition_star_probe(curve)
    assert not probe.double_plane
    assert not probe.ok
    assert "line through (1,0,0,0)" in probe.note or "degree" in probe.note


def test_probe_consistent_with_successful_run(gf):
    curve = fixture("quintic-g2", gf)
    report = specialize(curve, seed=42)
    moved = CurveIdeal.trusted(report.transformed, curve.degree, curve.genus)
    probe = condition_star_probe(moved)
    assert probe.double_plane and probe.ok
    assert probe.z_degree == curve.invariants.nu == 4
