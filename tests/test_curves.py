import json
import random
from math import prod
from pathlib import Path

import pytest

from extremalcurves import (BinaryForm, CurveIdeal, PrimeField,
                            complete_intersection, extremal_curve,
                            fixture, fixture_names, from_parametrization,
                            hilbert, ideal, ideal_equal, link,
                            random_coordinate_change, saturate_irrelevant)
from extremalcurves import curves, groebner
from extremalcurves.curves import line_xy, quintic_genus_two
from extremalcurves.groebner import IdealBasis, initial_ideal
from extremalcurves.orders import GrevlexOrder, monomial_exponents

import oracles


def test_extremal_four_generator_ideal(gf, ring):
    x, y, z, w = ring.gens()
    curve = extremal_curve(gf, 4, 0, BinaryForm.monomial(gf, 1, 0),
                           BinaryForm.monomial(gf, 3, 3))
    expected = ideal(x * x, x * y, y ** 4, x * w ** 3 - y ** 3 * z)
    assert ideal_equal(curve.ideal, expected)
    inv = curve.invariants
    assert (curve.degree, curve.genus, inv.a, inv.l, inv.nu) == (4, 0, 1, 2, 3)


def test_extremal_five_one(gf):
    curve = extremal_curve(gf, 5, 1, BinaryForm.monomial(gf, 2, 0),
                           BinaryForm.monomial(gf, 5, 5))
    hd = hilbert(curve.ideal)
    # Hilbert polynomial 5n + 1 - 1 = 5n
    assert (hd.degree, hd.genus) == (5, 1)


def test_extremal_three_minus_one(gf):
    curve = extremal_curve(gf, 3, -1, BinaryForm.monomial(gf, 1, 0),
                           BinaryForm.monomial(gf, 2, 2))
    hd = hilbert(curve.ideal)
    assert (hd.degree, hd.genus) == (3, -1)
    hp = hd.hp_coefficients
    assert sum(c * 2 ** k for k, c in enumerate(hp)) == 3 * 2 + 2


def test_extremal_validation_errors(gf):
    z1 = BinaryForm.monomial(gf, 1, 0)
    w3 = BinaryForm.monomial(gf, 3, 3)
    with pytest.raises(ValueError):
        extremal_curve(gf, 4, 0, BinaryForm.monomial(gf, 2, 0), w3)  # deg F
    with pytest.raises(ValueError):
        extremal_curve(gf, 4, 1, z1, w3)  # boundary genus
    w1 = BinaryForm.monomial(gf, 1, 1)
    with pytest.raises(ValueError):
        extremal_curve(gf, 4, 0, w1, w3)  # common zero at (1,0)


def test_parametrized_twisted_cubic_equals_minors(gf, ring):
    curve = fixture("twisted-cubic", gf)
    x, y, z, w = ring.gens()
    minors = ideal(x * z - y * y, x * w - y * z, y * w - z * z)
    assert ideal_equal(curve.ideal, minors)
    assert (curve.degree, curve.genus) == (3, 0)


def test_parametrized_quartic_contains_quadric(gf, ring):
    curve = fixture("rational-quartic", gf)
    x, y, z, w = ring.gens()
    assert curve.ideal.contains(x * w - y * z)
    assert (curve.degree, curve.genus) == (4, 0)


def test_degenerate_parametrization_rejected(gf):
    s2 = BinaryForm.monomial(gf, 2, 0)
    su = BinaryForm.monomial(gf, 2, 1)
    u2 = BinaryForm.monomial(gf, 2, 2)
    with pytest.raises(ValueError):
        from_parametrization(gf, (s2, su, u2, BinaryForm(gf, [gf.zero] * 3)))
    # all four share the zero (0 : 1)
    with pytest.raises(ValueError):
        from_parametrization(gf, (s2, s2, su, su))
    # all four share the zero (1 : 0)
    with pytest.raises(ValueError, match="common zero"):
        from_parametrization(gf, (u2, u2, su, su))


def _assert_vanishes_on_image_points(curve, forms, rng):
    p = curve.field.characteristic
    for _ in range(3):
        s, t = rng.randrange(p), rng.randrange(p)
        point = [f.evaluate(s, t) for f in forms]
        for g in curve.ideal.generators:
            value = sum(c * prod(pow(v, k, p) for v, k in zip(point, e))
                        for e, c in g.terms)
            assert value % p == 0


def test_parametrized_sextic_from_seeded_forms(gf):
    rng = random.Random(6)
    forms = [BinaryForm.random(gf, 6, rng) for _ in range(4)]
    curve = from_parametrization(gf, forms)
    assert (curve.degree, curve.genus) == (6, 0)
    _assert_vanishes_on_image_points(curve, forms, rng)


def test_parametrized_decic_from_seeded_forms(gf):
    # five quintics already have Hilbert polynomial 10t + 1; their
    # saturation is the curve ideal
    rng = random.Random(10)
    forms = [BinaryForm.random(gf, 10, rng) for _ in range(4)]
    curve = from_parametrization(gf, forms)
    assert (curve.degree, curve.genus) == (10, 0)
    _assert_vanishes_on_image_points(curve, forms, rng)


# generators recorded from the 7-variable graph-ideal elimination that
# from_parametrization ran before it interpolated
# (tests/data/record_parametrized_curves.py)
PARAMETRIZED = json.loads(
    (Path(__file__).parent / "data" / "parametrized_curves.json")
    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", PARAMETRIZED["cases"],
                         ids=[case["name"] for case in PARAMETRIZED["cases"]])
def test_parametrized_curves_match_the_record(case):
    field = PrimeField(PARAMETRIZED["characteristic"])
    forms = [BinaryForm(field, coeffs) for coeffs in case["forms"]]
    curve = from_parametrization(field, forms)
    assert (curve.degree, curve.genus) == (case["degree"], case["genus"])
    generators = curve.ideal.generators
    assert [[[list(e[:4]), c] for e, c in g.terms]
            for g in generators] == case["generators"]
    # generated by its reduced grevlex basis, which it caches
    assert curve.ideal.groebner().elements == generators


def test_non_injective_parametrization_rejected(gf):
    # (s^4, s^2 t^2, t^4, s^4 + t^4) factors through (s^2, t^2): the image
    # is a conic, covered twice
    forms = [BinaryForm.monomial(gf, 4, k) for k in (0, 2, 4)]
    forms.append(BinaryForm(gf, (1, 0, 0, 0, 1)))
    with pytest.raises(ValueError, match="computed 2"):
        from_parametrization(gf, forms)


def test_complete_intersection_elliptic_quartic(gf):
    curve = fixture("elliptic-quartic", gf)
    assert (curve.degree, curve.genus) == (4, 1)


def test_complete_intersection_plane_quartic(gf, ring):
    x, y, z, w = ring.gens()
    quartic = y ** 4 + z ** 4 + w ** 4 + y * z * w * w
    curve = complete_intersection(x, quartic)
    assert (curve.degree, curve.genus) == (4, 3)
    assert curve.invariants.branch == "plane"


def test_complete_intersection_common_factor_rejected(gf, ring):
    x, y, z, w = ring.gens()
    q = x * w - y * z
    with pytest.raises(ValueError):
        complete_intersection(q, 3 * q)


def test_link_quintic_genus_two(gf):
    curve = quintic_genus_two(gf)
    hd = hilbert(curve.ideal)
    assert (hd.degree, hd.genus) == (5, 2)
    hp = hd.hp_coefficients
    assert sum(c * 3 ** k for k, c in enumerate(hp)) == 5 * 3 - 1


def test_link_degree_arithmetic(gf, ring):
    x, y, z, w = ring.gens()
    line = line_xy(gf)
    residual = link(x * w - y * z, x * z * z + y * w * w, line)
    assert residual.degree + line.degree == 2 * 3


def test_link_runs_one_elimination_and_keeps_the_residual_basis(
        gf, ring, eliminations, monkeypatch):
    # the twisted cubic in a random (3, 3) complete intersection: the colon
    # by the cubic's first quadric already lies in the colon by the other
    # two, so the link runs one elimination, not five
    rng = random.Random(7)
    cubic = fixture("twisted-cubic", gf)

    def random_element(degree):
        acc = ring.zero()
        for g in cubic.ideal.generators:
            for e in monomial_exponents(4, degree - g.degree):
                acc = acc + ring.monomial(e, gf.random_element(rng)) * g
        return acc

    f, g = random_element(3), random_element(3)
    quotients, runs = [], []
    real_quotient, real_buchberger = curves.ideal_quotient, groebner.buchberger

    def quotient(a, b):
        quotients.append(real_quotient(a, b))
        return quotients[-1]

    def buchberger(ideal_basis, order, keyed=None):
        runs.append((len(quotients), order))
        return real_buchberger(ideal_basis, order, keyed)

    monkeypatch.setattr(curves, "ideal_quotient", quotient)
    monkeypatch.setattr(groebner, "buchberger", buchberger)
    residual = link(f, g, cubic)
    assert (residual.degree, residual.genus) == (6, 3)
    assert len(eliminations) == 1
    # the colon comes with its reduced grevlex basis, so saturation and
    # the Hilbert series start no grevlex run on it
    (colon,) = quotients
    assert colon.generators == colon.groebner().elements
    assert not [order for after, order in runs
                if after and order == GrevlexOrder(4)]


def test_link_requires_containment(gf, ring):
    x, y, z, w = ring.gens()
    line = line_xy(gf)
    with pytest.raises(ValueError):
        link(x * w - y * z, z ** 3, line)  # cubic misses the line's ideal


def test_self_linkage_rejected(gf, ring):
    x, y, z, w = ring.gens()
    q1 = x * x + y * y + z * z + w * w
    q2 = x * x + 2 * (y * y) + 3 * (z * z) + 4 * (w * w)
    ci = complete_intersection(q1, q2)
    with pytest.raises(ValueError):
        link(q1, q2, ci)


def test_random_change_deterministic(gf):
    curve = fixture("twisted-cubic", gf)
    moved1, change1 = random_coordinate_change(curve, seed=99)
    moved2, change2 = random_coordinate_change(curve, seed=99)
    assert change1.matrix == change2.matrix
    assert ideal_equal(moved1.ideal, moved2.ideal)
    moved3, _ = random_coordinate_change(curve, seed=100)
    assert not ideal_equal(moved1.ideal, moved3.ideal)


@pytest.mark.parametrize("d", [8, 10])
def test_ladder_move_matches_the_product_reference(gf, d):
    # the move of the seeded rational curves on the bench ladder
    rng = random.Random(d)
    forms = [BinaryForm.random(gf, d, rng) for _ in range(4)]
    curve = from_parametrization(gf, forms)
    moved, change = random_coordinate_change(curve, 0)
    reference = IdealBasis(curve.ideal.ring, [
        oracles.product_substitute_linear(g, change.matrix)
        for g in curve.ideal.generators])
    assert moved.ideal.generators == reference.generators


def test_change_preserves_invariants_and_saturation(gf):
    curve = fixture("rational-quartic", gf)
    moved, _ = random_coordinate_change(curve, seed=4)
    hd = hilbert(moved.ideal)
    assert (hd.degree, hd.genus) == (curve.degree, curve.genus)
    assert ideal_equal(saturate_irrelevant(moved.ideal), moved.ideal)


def test_curve_invariant_identity(gf):
    for name in ("twisted-cubic", "rational-quartic", "elliptic-quartic",
                 "quintic-g2", "extremal:4:0", "extremal:5:1"):
        curve = fixture(name, gf)
        inv = curve.invariants
        assert inv.nu == inv.a + inv.l


def test_fixture_table(gf):
    table = {"twisted-cubic": (3, 0), "rational-quartic": (4, 0),
             "elliptic-quartic": (4, 1), "quintic-g2": (5, 2)}
    for name, (d, g) in table.items():
        curve = fixture(name, gf)
        assert (curve.degree, curve.genus) == (d, g)


def test_fixture_unknown_name(gf):
    with pytest.raises(ValueError):
        fixture("unknown-curve", gf)
    assert "twisted-cubic" in fixture_names()


def test_constructor_saturates_input(gf, ring):
    # a deliberately unsaturated presentation of the rational quartic:
    # the raw initial ideal of a moved quartic is usually not saturated
    curve = fixture("rational-quartic", gf)
    moved, _ = random_coordinate_change(curve, seed=8)
    raw = initial_ideal(moved.ideal, (4, 2, 1, 1))
    rebuilt = CurveIdeal.from_ideal(raw)
    assert (rebuilt.degree, rebuilt.genus) == (4, 0)
    assert ideal_equal(rebuilt.ideal, saturate_irrelevant(raw))


def test_nonhomogeneous_rejected(gf, ring):
    x = ring.gen(0)
    with pytest.raises(ValueError):
        CurveIdeal.from_ideal(IdealBasis(ring, (x * x + x,)))
