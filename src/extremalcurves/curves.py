"""Constructors and fixtures for saturated curve ideals in P^3.

The constructors validate their output through the Hilbert machinery
(saturated, dimension one, expected degree and genus).  Smoothness and
local Cohen-Macaulayness of inputs are NOT verified; the degeneration
pipeline certifies its output and trusts its input to be a curve.
"""

import random
from dataclasses import dataclass

from .fields import ContextMismatchError
from .orders import ZERO_EXP, monomial_exponents
from .poly import BinaryForm, PolyRing, Polynomial, binary_forms_coprime
from .groebner import (IdealBasis, _with_basis, ideal_quotient,
                       saturate_irrelevant)
from .hilbert import hilbert
from . import linalg

CURVE_ARITY = 4


def curve_ring(field):
    """The ambient coordinate ring k[x, y, z, w]."""
    return PolyRing(field, CURVE_ARITY)


def twist_origin(a):
    """First twist 1 - a of the Rao and bound tables of a curve with
    invariant a; the bound vanishes below it."""
    return 1 - a


class CoordinateChange:
    """Invertible linear change of the four coordinates."""

    __slots__ = ("matrix",)

    def __init__(self, field, matrix):
        rows = [[field.coerce(v) for v in row] for row in matrix]
        if len(rows) != CURVE_ARITY or any(len(r) != CURVE_ARITY for r in rows):
            raise ValueError("a 4x4 matrix is required")
        linalg.mat_inverse(field, rows)  # ValueError when singular
        self.matrix = tuple(tuple(r) for r in rows)

    @classmethod
    def random(cls, field, rng):
        """Entry-wise uniform draw, rejecting singular matrices."""
        while True:
            rows = [[field.random_element(rng) for _ in range(CURVE_ARITY)]
                    for _ in range(CURVE_ARITY)]
            try:
                return cls(field, rows)
            except ValueError:
                pass

    def __repr__(self):
        return f"CoordinateChange({self.matrix})"


def transform_ideal(ideal_basis, change):
    """Image of an ideal under a coordinate change: a new `IdealBasis` of
    each generator's image under `Polynomial.substitute_linear`.  An
    invertible linear change keeps the Hilbert function, so the input's
    HilbertData, when known, is handed on."""
    moved = IdealBasis(ideal_basis.ring,
                       [g.substitute_linear(change.matrix)
                        for g in ideal_basis.generators])
    moved._hilbert = ideal_basis._hilbert
    return moved


@dataclass(frozen=True)
class Invariants:
    """The numbers the degeneration pipeline keys on for degree d, genus g.

    a = (d-2)(d-3)/2 - g is the maximal Rao dimension, l = d - 2 and
    nu = (d-1)(d-2)/2 - g = a + l; the monoid surface has degree nu + 1.
    Genus (d-1)(d-2)/2 is the plane bound and (d-2)(d-3)/2 the non-planar
    (ACM) maximum.
    """

    d: int
    g: int

    @property
    def plane_bound(self):
        return (self.d - 1) * (self.d - 2) // 2

    @property
    def acm_bound(self):
        return (self.d - 2) * (self.d - 3) // 2

    @property
    def a(self):
        return self.acm_bound - self.g

    @property
    def l(self):
        return self.d - 2

    @property
    def nu(self):
        return self.plane_bound - self.g

    @property
    def branch(self):
        """How `specialize` treats the curve: "plane", "ACM-boundary" or
        "general".  Any other genus above the non-planar maximum raises."""
        if self.g == self.plane_bound:
            return "plane"
        if self.g > self.acm_bound:
            raise ValueError(
                f"no non-planar curve has degree {self.d} and genus {self.g}; "
                "the input ideal is not a curve of the stated kind")
        if self.g == self.acm_bound:
            return "ACM-boundary"
        return "general"

    def require_bound(self):
        """Raise ValueError unless the sharp Rao bound is defined."""
        if self.d < 2:
            raise ValueError("the bound requires degree at least 2")
        if self.g > self.acm_bound:
            raise ValueError(
                f"genus {self.g} exceeds the non-planar maximum "
                f"{self.acm_bound} for degree {self.d}")

    def require_extremal(self):
        """Raise ValueError unless extremal curves exist: d >= 2, a >= 1."""
        if self.d < 2:
            raise ValueError("extremal curves need degree at least 2")
        if self.a <= 0:
            raise ValueError(
                "genus must lie strictly below (d-2)(d-3)/2; at the boundary "
                "use the plane or complete-intersection constructors")

    def rho(self, n):
        """Sharp upper bound for the Rao function of a non-planar curve:
        a trapezoid with plateau a over [0, l]."""
        self.require_bound()
        a, l = self.a, self.l
        if n <= -a:
            return 0
        if n <= 0:
            return n + a
        if n <= l:
            return a
        if n <= a + l:
            return a + l - n
        return 0

    def rho_table(self, lo=None, hi=None):
        """Values of the bound over an integer range; default [1-a, a+l].
        Raises ValueError on a reversed range lo > hi."""
        self.require_bound()
        if lo is not None and hi is not None and lo > hi:
            raise ValueError(f"range {lo}..{hi} is reversed; need lo <= hi")
        if lo is None:
            lo = twist_origin(self.a)
        if hi is None:
            hi = self.nu
        return tuple(self.rho(n) for n in range(lo, hi + 1))


class CurveIdeal:
    """Saturated homogeneous ideal of a curve with its degree d and
    arithmetic genus g; `invariants` derives a, l and nu from them."""

    __slots__ = ("ideal", "degree", "genus")

    def __init__(self, ideal, degree, genus):
        self.ideal = ideal
        self.degree = degree
        self.genus = genus

    @classmethod
    def from_ideal(cls, ideal_basis):
        if ideal_basis.ring.arity != CURVE_ARITY:
            raise ValueError("curve ideals live in the four-variable ring")
        if not ideal_basis.homogeneous:
            raise ValueError("curve ideals must be homogeneous")
        sat = saturate_irrelevant(ideal_basis)
        hd = hilbert(sat)
        if hd.dimension != 1:
            raise ValueError(
                f"not a curve: scheme has dimension {hd.dimension}")
        return cls(sat, hd.degree, hd.genus)

    @property
    def ring(self):
        return self.ideal.ring

    @property
    def field(self):
        return self.ideal.ring.field

    @property
    def invariants(self):
        return Invariants(self.degree, self.genus)

    def __repr__(self):
        return (f"CurveIdeal(d={self.degree}, g={self.genus}, "
                f"gens={[str(g) for g in self.ideal.generators]})")


def _extremal_generators(ring, d, f_form, g_form):
    """x^2, x*y, y^d and x*G - y^(d-1)*F, the last built from its terms."""
    pad = ZERO_EXP[CURVE_ARITY:]
    neg = ring.field.neg
    nu, a = g_form.degree, f_form.degree
    mixed = {(1, 0, nu - i, i) + pad: c for i, c in enumerate(g_form.coeffs)}
    mixed.update(((0, d - 1, a - i, i) + pad, neg(c))
                 for i, c in enumerate(f_form.coeffs))
    return (ring.monomial((2, 0, 0, 0) + pad),
            ring.monomial((1, 1, 0, 0) + pad),
            ring.monomial((0, d, 0, 0) + pad),
            Polynomial.from_dict(ring, mixed))


def extremal_curve(field, d, g, f_form, g_form):
    """The degree-d genus-g curve supported on x = y = 0 cut out by
    x^2, x*y, y^d and x*G - y^(d-1)*F for coprime binary forms F, G."""
    inv = Invariants(d, g)
    inv.require_extremal()
    a, nu = inv.a, inv.nu
    if f_form.field != field or g_form.field != field:
        raise ContextMismatchError("forms live over a different field")
    if f_form.degree != a:
        raise ValueError(f"first form must have degree {a}")
    if g_form.degree != nu:
        raise ValueError(f"second form must have degree {nu}")
    if f_form.is_zero or g_form.is_zero:
        raise ValueError("zero form supplied")
    if not binary_forms_coprime(f_form, g_form):
        raise ValueError("the two forms must have no common zero")
    ring = curve_ring(field)
    curve = CurveIdeal.from_ideal(
        IdealBasis(ring, _extremal_generators(ring, d, f_form, g_form)))
    if (curve.degree, curve.genus) != (d, g):
        raise AssertionError("extremal constructor produced wrong invariants")
    return curve


def from_parametrization(field, forms):
    """Kernel ideal I_C of the map sending x, y, z, w to four binary forms
    of one degree d; the image curve C of the parametrization.

    By interpolation, one degree k at a time: I_k is the kernel of the
    substitution S_k -> k[z, w]_{dk}, whose image has the dimension of
    (S/I_C)_k.  The forms have no common zero, so they generate every
    binary form of degree 2d - 1 and up (Macaulay): once the substitution
    is onto in a degree k, it is onto above it, and C has Hilbert
    polynomial dt + 1.  If (I_k), inside I_C, has it too, the two agree in
    high degrees and I_C is the saturation of (I_k).  Else the loop ends
    at k = d: the ideal of an integral curve of degree at most d in P^3 is
    generated in degree at most d (Gruson, Lazarsfeld & Peskine 1983), so
    (I_d) is I_C from degree d on.  I_C comes generated by its reduced
    grevlex basis.
    """
    forms = tuple(forms)
    if len(forms) != 4:
        raise ValueError("exactly four parametrizing forms are required")
    degrees = {f.degree for f in forms}
    if len(degrees) != 1:
        raise ValueError("parametrizing forms must share one degree")
    d = degrees.pop()
    if d < 1:
        raise ValueError("constant parametrizations are degenerate")
    if any(f.is_zero for f in forms):
        raise ValueError("degenerate parametrization: a component is zero")
    if not binary_forms_coprime(*forms):
        raise ValueError("degenerate parametrization: common zero")
    ring = curve_ring(field)
    polys = [f.to_polynomial(ring) for f in forms]
    images = {ZERO_EXP: ring.one()}
    for k in range(1, d + 1):
        # row j: the z^(dk - j) * w^j coefficients of the monomials' images
        previous, images = images, {}
        rows = [{} for _ in range(d * k + 1)]
        for col, m in enumerate(monomial_exponents(CURVE_ARITY, k)):
            i = next(i for i, v in enumerate(m) if v)
            image = previous[m[:i] + (m[i] - 1,) + m[i + 1:]] * polys[i]
            images[m] = image
            for e, c in image.terms:
                rows[e[3]][col] = c
        kernel = linalg.nullspace(field, rows, len(images))
        ideal_k = IdealBasis(ring, [Polynomial.from_dict(ring, dict(zip(
            images, v))) for v in kernel])
        if (kernel and len(images) - len(kernel) == len(rows)
                and hilbert(ideal_k).hp_coefficients == (1, d)):
            break
    curve = CurveIdeal.from_ideal(_with_basis(ring, ideal_k.groebner()))
    if curve.degree != d:
        raise ValueError(
            f"parametrization is not degree-correct: expected degree {d}, "
            f"computed {curve.degree} (non-injective map?)")
    return curve


def complete_intersection(f, g):
    """Curve cut out by two homogeneous polynomials without common factor."""
    ring = f.ring
    if g.ring != ring:
        raise ContextMismatchError("polynomials live in different rings")
    if f.is_zero or g.is_zero:
        raise ValueError("zero polynomial supplied")
    if not (f.is_homogeneous and g.is_homogeneous):
        raise ValueError("complete intersections need homogeneous equations")
    m, n = f.degree, g.degree
    ideal_fg = IdealBasis(ring, (f, g))
    sat = saturate_irrelevant(ideal_fg)
    hd = hilbert(sat)
    if hd.dimension != 1:
        raise ValueError(
            "the two equations share a factor (intersection is not a curve)")
    expected_genus = m * n * (m + n - 4) // 2 + 1
    if hd.degree != m * n or hd.genus != expected_genus:
        raise ValueError(
            "the two equations share a factor (wrong degree or genus)")
    return CurveIdeal(sat, hd.degree, hd.genus)


def link(f, g, curve):
    """Liaison residual ((f, g) : I) of a curve inside a complete intersection."""
    ideal_basis = curve.ideal
    if not (ideal_basis.contains(f) and ideal_basis.contains(g)):
        raise ValueError("the curve ideal must contain both equations")
    ci = complete_intersection(f, g)  # validates the pair
    residual = ideal_quotient(ci.ideal, ideal_basis)
    residual = saturate_irrelevant(residual)
    hd = hilbert(residual)
    if hd.dimension != 1:
        raise ValueError(
            "degenerate linkage: the residual scheme is not a curve")
    expected_degree = ci.degree - curve.degree
    if expected_degree <= 0 or hd.degree != expected_degree:
        raise ValueError("degenerate linkage: residual degree mismatch")
    return CurveIdeal(residual, hd.degree, hd.genus)


def random_coordinate_change(curve, seed):
    """Apply a seeded random invertible coordinate change; deterministic."""
    rng = random.Random(seed)
    change = CoordinateChange.random(curve.field, rng)
    moved = transform_ideal(curve.ideal, change)
    # linear changes preserve saturation and all Hilbert data
    return CurveIdeal(moved, curve.degree, curve.genus), change


# ---------------------------------------------------------------------------
# named fixtures
# ---------------------------------------------------------------------------

def twisted_cubic(field):
    forms = tuple(BinaryForm.monomial(field, 3, k) for k in range(4))
    return from_parametrization(field, forms)


def rational_quartic(field):
    powers = (0, 1, 3, 4)
    forms = tuple(BinaryForm.monomial(field, 4, k) for k in powers)
    return from_parametrization(field, forms)


def elliptic_quartic(field):
    ring = curve_ring(field)
    x, y, z, w = ring.gens()
    q1 = x * x + y * y + z * z + w * w
    q2 = x * x + 2 * (y * y) + 3 * (z * z) + 4 * (w * w)
    return complete_intersection(q1, q2)


def line_xy(field):
    """The line x = y = 0."""
    ring = curve_ring(field)
    return CurveIdeal.from_ideal(IdealBasis(ring, (ring.gen(0), ring.gen(1))))


def quintic_genus_two(field):
    """Residual of a line inside a (2,3) complete intersection: a degree-5
    genus-2 divisor of type (2,3) on the smooth quadric x*w - y*z."""
    ring = curve_ring(field)
    x, y, z, w = ring.gens()
    quadric = x * w - y * z
    cubic = x * (z * z) + y * (w * w)
    return link(quadric, cubic, line_xy(field))


FIXTURE_BUILDERS = {
    "twisted-cubic": twisted_cubic,
    "rational-quartic": rational_quartic,
    "elliptic-quartic": elliptic_quartic,
    "quintic-g2": quintic_genus_two,
}


def fixture_names():
    return tuple(sorted(FIXTURE_BUILDERS)) + ("extremal:<d>:<g>",)


def fixture(name, field):
    """Build a named fixture curve; extremal:<d>:<g> uses F=z^a, G=w^(a+l)."""
    if name in FIXTURE_BUILDERS:
        return FIXTURE_BUILDERS[name](field)
    if name.startswith("extremal:"):
        parts = name.split(":")
        if len(parts) != 3:
            raise ValueError(f"malformed fixture name {name!r}")
        try:
            d, g = int(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"malformed fixture name {name!r}") from None
        inv = Invariants(d, g)
        inv.require_extremal()
        f_form = BinaryForm.monomial(field, inv.a, 0)        # z^a
        g_form = BinaryForm.monomial(field, inv.nu, inv.nu)  # w^(a+l)
        return extremal_curve(field, d, g, f_form, g_form)
    raise ValueError(
        f"unknown fixture {name!r}; known: {', '.join(fixture_names())}")
