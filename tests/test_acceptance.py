"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything here is exact arithmetic; the only tolerances are the
wall-clock budgets stated inline.
"""

import itertools
import random
import time

from extremalcurves import (QQ, BinaryForm, GrevlexOrder, Invariants,
                            PrimeField, WeightRefinedOrder,
                            binary_forms_coprime, curve_ring, extremal_curve,
                            fixture, ideal_equal, ideal_intersect,
                            ideal_quotient, initial_ideal, is_groebner,
                            monoid_template, rao_dims_extremal,
                            saturate_irrelevant, specialize,
                            condition_star_probe, find_monoid_surface)
from extremalcurves.curves import CurveIdeal
from extremalcurves.degeneration import _find_monoid_surface
from extremalcurves.groebner import IdealBasis
from extremalcurves.orders import exp_mul, monomial_exponents

import oracles
from test_poly import random_poly

GF = PrimeField(32003)


def _report(name, ok):
    print(f"\n[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def _coprime_pair(field, a, l, rng):
    while True:
        f = BinaryForm.random(field, a, rng)
        g = BinaryForm.random(field, a + l, rng)
        if binary_forms_coprime(f, g):
            return f, g


def _genus_grid():
    for d in range(3, 7):
        for g in range(-3, (d - 2) * (d - 3) // 2):
            yield d, g


def _flatness_holds(report):
    moved = report.transformed
    init = initial_ideal(moved, report.omega)
    lead_moved = moved.groebner(GrevlexOrder(4)).lead_exponents()
    lead_init = init.groebner(GrevlexOrder(4)).lead_exponents()
    top = 2 * (report.invariants.nu + 1)
    return all(
        oracles.standard_monomial_count(lead_moved, 4, n)
        == oracles.standard_monomial_count(lead_init, 4, n)
        for n in range(top + 1))


def test_criterion_rational_quartic_run():
    started = time.time()
    curve = fixture("rational-quartic", GF)
    report = specialize(curve, seed=42, max_retries=5)
    elapsed = time.time() - started
    cert = report.certificate
    ok = (report.extremal
          and report.retries <= 5
          and cert.f_form.degree == 1
          and cert.g_form.degree == 3
          and binary_forms_coprime(cert.f_form, cert.g_form)
          and report.certificate.n_start == 0
          and report.certificate.rao == (1, 1, 1, 0)
          and report.certificate.rao == report.certificate.rho
          and elapsed < 10.0)
    _report(f"rational quartic run ({elapsed:.2f}s)", ok)


def test_criterion_quintic_genus_two_run():
    started = time.time()
    curve = fixture("quintic-g2", GF)
    report = specialize(curve, seed=42, max_retries=5)
    elapsed = time.time() - started
    cert = report.certificate
    ring = curve.ring
    x, y = ring.gen(0), ring.gen(1)
    expected_shape = IdealBasis(ring, (
        x * x, x * y, y ** 5,
        x * cert.g_form.to_polynomial(ring)
        - y ** 4 * cert.f_form.to_polynomial(ring)))
    ok = (report.extremal
          and cert.f_form.degree == 1
          and cert.g_form.degree == 4
          and ideal_equal(report.limit, expected_shape)
          and report.certificate.n_start == 0
          and report.certificate.rao == (1, 1, 1, 1, 0)
          and report.certificate.rao == report.certificate.rho
          and elapsed < 60.0)
    _report(f"quintic genus-2 run ({elapsed:.2f}s)", ok)


def test_criterion_extremal_fixed_point_suite():
    from extremalcurves import hilbert as hilbert_data
    rng = random.Random(2026)
    ok = True
    runs = 0
    for d, g in _genus_grid():
        a = (d - 2) * (d - 3) // 2 - g
        l = d - 2
        for _ in range(3):
            f_form, g_form = _coprime_pair(GF, a, l, rng)
            curve = extremal_curve(GF, d, g, f_form, g_form)
            report = specialize(curve, seed=runs)
            runs += 1
            if report.retries != 0 or not ideal_equal(report.limit,
                                                      curve.ideal):
                ok = False
            # flatness witness on every run (series route; the enumeration
            # route is exercised by the dedicated flatness criterion)
            hd_in = hilbert_data(report.transformed)
            hd_out = hilbert_data(initial_ideal(report.transformed,
                                                report.omega))
            if any(hd_in.hilbert_function(n) != hd_out.hilbert_function(n)
                   for n in range(2 * (report.invariants.nu + 1) + 1)):
                ok = False
    _report(f"extremal fixed-point suite ({runs} runs)", ok)


def test_criterion_rho_rao_identity():
    rng = random.Random(515)
    ok = True
    for d, g in _genus_grid():
        a = (d - 2) * (d - 3) // 2 - g
        l = d - 2
        for _ in range(3):
            f_form, g_form = _coprime_pair(GF, a, l, rng)
            rao = rao_dims_extremal(f_form, g_form, a, l, -a - 2, a + l + 2)
            if rao != Invariants(d, g).rho_table(-a - 2, a + l + 2):
                ok = False
    _report("rho equals extremal Rao dimensions on the (d, g) grid", ok)


def test_criterion_flatness_of_pipeline_runs():
    ok = True
    for name, seed in (("rational-quartic", 42), ("quintic-g2", 42),
                       ("rational-quartic", 7)):
        report = specialize(fixture(name, GF), seed=seed)
        if not _flatness_holds(report):
            ok = False
    rng = random.Random(8)
    for d, g in ((4, 0), (5, 0), (6, 1)):
        a = (d - 2) * (d - 3) // 2 - g
        f_form, g_form = _coprime_pair(GF, a, d - 2, rng)
        report = specialize(extremal_curve(GF, d, g, f_form, g_form), seed=0)
        if not _flatness_holds(report):
            ok = False
    _report("flatness: graded dimensions agree with the weight limit", ok)


def test_criterion_monoid_template_dimension():
    ok = True
    for name, seed in (("rational-quartic", 42), ("quintic-g2", 42)):
        curve = fixture(name, GF)
        report = specialize(curve, seed=seed)
        d, nu = curve.degree, curve.invariants.nu
        columns = monoid_template(d, nu)
        expected = (nu + 1) * (d + 1) + 1 - (d - 1) * (d - 2) // 2
        if len(columns) != expected:
            ok = False
        # the linear system over the successful coordinates has a solution
        surface = _find_monoid_surface(report.transformed, d, nu)
        if surface.equation.is_zero:
            ok = False
    rng = random.Random(4040)
    for d, g in _genus_grid():
        a = (d - 2) * (d - 3) // 2 - g
        nu = (d - 1) * (d - 2) // 2 - g
        f_form, g_form = _coprime_pair(GF, a, d - 2, rng)
        curve = extremal_curve(GF, d, g, f_form, g_form)
        columns = monoid_template(d, nu)
        if len(columns) != (nu + 1) * (d + 1) + 1 - (d - 1) * (d - 2) // 2:
            ok = False
        surface = find_monoid_surface(curve)
        if surface.equation.is_zero:
            ok = False
    _report("monoid template dimension count and nonzero solutions", ok)


def test_criterion_projection_probe():
    ok = True
    for name, seed, expected in (("rational-quartic", 42, 3),
                                 ("quintic-g2", 42, 4)):
        curve = fixture(name, GF)
        report = specialize(curve, seed=seed)
        moved = CurveIdeal(report.transformed, curve.degree, curve.genus)
        probe = condition_star_probe(moved)
        if not (probe.double_plane and probe.ok
                and probe.z_degree == expected == curve.invariants.nu):
            ok = False
    _report("projection probe: double plane and deg Z = nu", ok)


def test_criterion_engine_property_suite():
    started = time.time()
    ring = curve_ring(GF)
    rng = random.Random(606)
    ok = True

    # Buchberger criterion on every basis this block produces
    produced = []
    for name in ("twisted-cubic", "rational-quartic", "elliptic-quartic",
                 "quintic-g2", "extremal:4:0", "extremal:5:1"):
        produced.append(fixture(name, GF).ideal.groebner())
    for _ in range(20):
        gens = [random_poly(ring, rng, rng.randint(1, 3), terms=3)
                for _ in range(2)]
        basis = IdealBasis(ring, [g for g in gens if not g.is_zero])
        produced.append(basis.groebner())
        produced.append(basis.groebner(WeightRefinedOrder((4, 2, 1, 1))))
    if not all(is_groebner(b) for b in produced):
        ok = False

    # saturation idempotence on raw weight limits
    for name, seed in (("rational-quartic", 42), ("quintic-g2", 42)):
        report = specialize(fixture(name, GF), seed=seed)
        raw = initial_ideal(report.transformed, report.omega)
        sat = saturate_irrelevant(raw)
        if not ideal_equal(saturate_irrelevant(sat), sat):
            ok = False

    # quotient/intersection brute-force agreement, 200 random cases
    cases = 0
    while cases < 200:
        a_gens = [random_poly(ring, rng, rng.randint(1, 3), terms=3)
                  for _ in range(2)]
        b_gens = [random_poly(ring, rng, rng.randint(1, 2), terms=2)
                  for _ in range(2)]
        if any(g.is_zero for g in a_gens + b_gens):
            continue
        cases += 1
        a = IdealBasis(ring, a_gens)
        b = IdealBasis(ring, b_gens)
        meet = ideal_intersect(a, b)
        quot = ideal_quotient(a, b)
        for g in meet.generators:
            if not (a.contains(g) and b.contains(g)):
                ok = False
        for g in a.generators:
            if not quot.contains(g):
                ok = False
        for n in range(1, 4):
            if oracles.intersection_graded_dim(a_gens, b_gens, n) != \
                    oracles.ideal_graded_dim(list(meet.generators), n):
                ok = False
            if oracles.colon_graded_dim(a_gens, b_gens, n) != \
                    oracles.ideal_graded_dim(list(quot.generators), n):
                ok = False

    # order axioms by exhaustion to degree 5
    orders = (GrevlexOrder(4), WeightRefinedOrder((4, 2, 1, 1)))
    monos = [m for deg in range(6) for m in monomial_exponents(4, deg)]
    for order in orders:
        keys = [order.key(m) for m in monos]
        if len(set(keys)) != len(monos):
            ok = False
        one_key = order.key((0,) * 5)
        if any(k <= one_key for m, k in zip(monos, keys) if sum(m)):
            ok = False
    small = [m for deg in range(3) for m in monomial_exponents(4, deg)]
    mids = [m for deg in range(4) for m in monomial_exponents(4, deg)]
    for order in orders:
        for u, v in itertools.combinations(mids, 2):
            less = order.key(u) < order.key(v)
            for w in small:
                if (order.key(exp_mul(u, w))
                        < order.key(exp_mul(v, w))) != less:
                    ok = False
    elapsed = time.time() - started
    ok = ok and elapsed < 300.0
    _report(f"engine property suite ({elapsed:.1f}s)", ok)


def test_criterion_dual_field_reproducibility():
    tables = {}
    ok = True
    for field_name, field in (("GF(32003)", GF), ("QQ", QQ)):
        for name in ("rational-quartic", "quintic-g2"):
            report = specialize(fixture(name, field), seed=42)
            if not report.extremal:
                ok = False
            cert = report.certificate
            tables[(field_name, name)] = (cert.n_start, cert.rao, cert.rho)
    for name in ("rational-quartic", "quintic-g2"):
        if tables[("GF(32003)", name)] != tables[("QQ", name)]:
            ok = False
    _report("dual-field reproducibility of the certificates", ok)
