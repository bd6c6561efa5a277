"""Degeneration of space curves to extremal curves.

The pipeline: evaluate the sharp Rao bound, find a monoid surface through
the curve by linear algebra, take the saturated initial ideal under the
weight vector (d, 2, 1, 1), certify that the limit is the four-generator
extremal ideal, and emit the connecting flat family.  Coordinates are
chosen by seeded random changes with a retry loop; success is certified
a posteriori, so an unlucky draw is detected and retried.
"""

import random
from dataclasses import dataclass
from operator import mul

from .orders import CAPACITY, ZERO_EXP, WeightRefinedOrder
from .poly import (BinaryForm, Polynomial, _terms_to_string,
                   binary_forms_coprime)
from .groebner import ideal_quotient_poly, initial_ideal, saturate_irrelevant
from .hilbert import (_divide_one_minus_t, _one_minus_power, _poly_mul_int,
                      _trim, hilbert)
from .curves import (CURVE_ARITY, CoordinateChange, Invariants,
                     transform_ideal, twist_origin)
from . import linalg


class DegenerationError(RuntimeError):
    """Base class for pipeline failures."""


class MonoidSurfaceError(DegenerationError):
    """Monoid-surface search failed; `retryable` says whether new
    coordinates may help."""

    def __init__(self, message, retryable):
        super().__init__(message)
        self.retryable = retryable


class SpecializationError(DegenerationError):
    """All attempts exhausted; `diagnostics` lists (attempt, stage, detail)."""

    def __init__(self, message, diagnostics):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


# ---------------------------------------------------------------------------
# Rao dimensions of extremal curves
# ---------------------------------------------------------------------------

def _quotient_series_dims(a, b):
    """Graded dimensions of k[z,w]/(F,G) for coprime forms of degrees a, b,
    read off the series (1-t^a)(1-t^b)/(1-t)^2."""
    num = _poly_mul_int(_one_minus_power(a), _one_minus_power(b))
    return _trim(_divide_one_minus_t(_divide_one_minus_t(num)))


def rao_dims_extremal(f_form, g_form, a, l, lo=None, hi=None):
    """Rao dimensions h^1(n) of the extremal curve built from (F, G):
    the graded dimensions of k[z,w]/(F,G) shifted by a-1."""
    if a < 1 or l < 0:
        raise ValueError("invalid invariants: need a >= 1 and l >= 0")
    if f_form.degree != a or g_form.degree != a + l:
        raise ValueError("form degrees must be a and a + l")
    if not binary_forms_coprime(f_form, g_form):
        raise ValueError("the forms must have no common zero")
    return _rao_dims(a, l, lo, hi)


def _rao_dims(a, l, lo=None, hi=None):
    """`rao_dims_extremal` for checked invariants and forms already known
    to be coprime: the table depends on a and l only."""
    dims = _quotient_series_dims(a, a + l)
    if lo is None:
        lo = twist_origin(a)
    if hi is None:
        hi = a + l
    out = []
    for n in range(lo, hi + 1):
        m = n + a - 1
        out.append(dims[m] if 0 <= m < len(dims) else 0)
    return tuple(out)


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

def pipeline_weights(d):
    """The degeneration weight vector (d, 2, 1, 1) on (x, y, z, w)."""
    return (d, 2, 1, 1)


def check_disjoint_line(ideal_basis):
    """True when the scheme of a homogeneous ideal I in x, y, z, w misses
    the line z = w = 0: when one lead of I's reduced grevlex basis is a
    power of x alone and another a power of y alone (the unit ideal's lead
    1 is both), since in(I + (z, w)) = in(I) + (z, w) under grevlex with z
    and w last (Bayer & Stillman 1987; Eisenbud, Commutative Algebra,
    Prop. 15.12)."""
    if ideal_basis.ring.arity != CURVE_ARITY:
        raise ValueError("the line test needs the ring of x, y, z, w")
    if not ideal_basis.homogeneous:
        raise ValueError("the line test needs a homogeneous ideal")
    leads = ideal_basis.groebner().lead_exponents()
    return (any(not (e[1] or e[2] or e[3]) for e in leads)
            and any(not (e[0] or e[2] or e[3]) for e in leads))


@dataclass(frozen=True)
class MonoidSurface:
    """Surface equation x*G - sum_j y^j * F_j of degree nu+1 through the curve.

    `g_form` is G, of degree nu; `f_form` is the lead form F_(d-1), of
    degree nu+2-d.  The (d,2,1,1)-initial form of the equation is
    x*G - y^(d-1)*F_(d-1) whenever both survive.
    """

    equation: Polynomial
    g_form: BinaryForm
    f_form: BinaryForm


def monoid_template(d, nu):
    """Exponent columns of the search space, laid out in blocks: first the
    x-columns x*z^i*w^(nu-i) for i = 0..nu, then for j = 0..d-1 the
    y-columns y^j*z^i*w^(m-i) with m = nu+1-j and i = 0..m; the order is
    that of `_column_order`, and the dimension is
    (nu+1)(d+1)+1-(d-1)(d-2)/2."""
    columns = []
    for i in range(nu + 1):
        e = [0] * CAPACITY
        e[0], e[2], e[3] = 1, i, nu - i
        columns.append(tuple(e))
    for j in range(d):
        m = nu + 1 - j
        for i in range(m + 1):
            e = [0] * CAPACITY
            e[1], e[2], e[3] = j, i, m - i
            columns.append(tuple(e))
    expected = (nu + 1) * (d + 1) + 1 - (d - 1) * (d - 2) // 2
    if len(columns) != expected:
        raise AssertionError("template dimension count failed")
    return columns


def _column_order(e):
    """Sort key of a template column, the order of `monoid_template`: the
    x-block, then the y^j blocks by ascending j, each by ascending
    z-power."""
    return (1 - e[0], e[1], e[2])


def _in_template(e, d, nu):
    """True when exponent e is a column of `monoid_template(d, nu)`."""
    x, y, z, w, *rest = e
    return (x + y + z + w == nu + 1 and not any(rest)
            and (x == 1 and y == 0 or x == 0 and y < d))


def _divided_columns(leads, d, nu):
    """The template columns that some lead divides, in template order.
    Read off the layout, without testing each column: a lead
    (lx, ly, lz, lw) divides x*z^i*w^(nu-i) exactly when lx <= 1, ly = 0
    and lz <= i <= nu-lw, and y^j*z^i*w^(m-i) exactly when lx = 0,
    j >= ly and lz <= i <= m-lw."""
    pad = ZERO_EXP[CURVE_ARITY:]
    found = set()
    for lx, ly, lz, lw, *_ in leads:
        if lx <= 1 and ly == 0:
            found.update((1, 0, i, nu - i) + pad
                         for i in range(lz, nu - lw + 1))
        if lx == 0:
            # the y^j blocks with m = nu+1-j >= lz+lw
            for j in range(ly, min(d - 1, nu + 1 - lz - lw) + 1):
                m = nu + 1 - j
                found.update((0, j, i, m - i) + pad
                             for i in range(lz, m - lw + 1))
    return sorted(found, key=_column_order)


def _monoid_forms(poly, nu, powers):
    """(G, (F_j for j in `powers`)) of a polynomial x*G - sum_j y^j * F_j
    of degree nu+1, as binary forms of degrees nu and nu+1-j; None when a
    term lies outside that shape."""
    field = poly.ring.field
    g_coeffs = [field.zero] * (nu + 1)
    f_coeffs = {j: [field.zero] * (nu + 2 - j) for j in powers}
    for e, c in poly.terms:
        if sum(e) != nu + 1 or any(e[CURVE_ARITY:]):
            return None
        if e[0] == 1 and e[1] == 0:
            g_coeffs[e[3]] = c
        elif e[0] == 0 and e[1] in f_coeffs:
            f_coeffs[e[1]][e[3]] = field.neg(c)
        else:
            return None
    return (BinaryForm(field, g_coeffs),
            tuple(BinaryForm(field, f) for f in f_coeffs.values()))


def _monoid_kernel(gb, d, nu):
    """Kernel of the template's normal forms under a reduced basis: the
    `linalg.nullspace` of the rows {column: coefficient}, one per standard
    monomial.  Each kernel vector is given by its nonzero entries
    (exponent, coefficient), in the order of `monoid_template(d, nu)`.

    The columns that a lead divides are read off the template's layout
    (`_divided_columns`), so the work grows with the leads and those
    columns, not with the template.  The system is solved only on the
    columns that division touches: the non-standard columns and the
    standard ones that their forms hold.  A standard column is its own
    form, so one that no form holds is alone in its row and zero in every
    kernel vector.  The touched columns keep their template order, and
    the reduced row echelon form is unique, so the free columns and the
    basis vectors are those of the whole system.
    """
    field = gb.ring.field
    divided = _divided_columns(gb.lead_exponents(), d, nu)
    rows = {}       # standard monomial -> {column: coefficient}
    for e in divided:
        form = gb.normal_form(gb.ring.monomial(e))
        for t, c in form.terms:
            rows.setdefault(t, {})[e] = c
    standard = [t for t in rows if _in_template(t, d, nu)]
    for t in standard:
        rows[t][t] = field.one      # a standard column is its own form
    touched = sorted(divided + standard, key=_column_order)
    index = {e: i for i, e in enumerate(touched)}
    kernel = linalg.nullspace(
        field, [{index[e]: c for e, c in row.items()}
                for row in rows.values()], len(touched))
    return [[(e, c) for e, c in zip(touched, vec) if c] for vec in kernel]


def _kernel_surface(ring, entries, d, nu):
    """The surface of one kernel vector, given by its entries as
    `_monoid_kernel` lists them, scaled so that G's coefficient of lowest
    w-power is one; None when G = 0.  Its x-columns come first, and the
    last of them has the lowest w-power."""
    field = ring.field
    x_coeffs = [c for e, c in entries if e[0]]
    if not x_coeffs:
        return None
    unit = field.inv(x_coeffs[-1])
    terms = {}
    g_coeffs = [field.zero] * (nu + 1)
    f_coeffs = [field.zero] * (nu + 3 - d)
    for e, c in entries:
        c = terms[e] = field.mul(unit, c)
        if e[0]:
            g_coeffs[e[3]] = c
        elif e[1] == d - 1:
            f_coeffs[e[3]] = field.neg(c)
    return MonoidSurface(Polynomial.from_dict(ring, terms),
                         BinaryForm(field, g_coeffs),
                         BinaryForm(field, f_coeffs))


def _find_monoid_surface(ideal_basis, d, nu):
    """Kernel search for a monoid surface through the given curve ideal:
    the surface of the first kernel vector with G != 0.

    The template is reduced by the (d, 2, 1, 1) weight-refined basis, not
    grevlex.  Its leads lie in the initial ideal of the extremal limit
    (Sturmfels, Prop. 1.8), so `_monoid_kernel` divides only the template
    columns in there, where grevlex would divide half the template, and
    `initial_ideal` then finds the same basis in the cache.

    One vector is enough.  Every template polynomial in the ideal has its
    (d, 2, 1, 1) lead among the leads of the saturated limit, and when the
    limit certifies those leads hold one template monomial, the lead of
    x*G - y^(d-1)*F.  So a certifying attempt's kernel has one vector,
    and no other choice could reach a report.
    """
    ring = ideal_basis.ring
    gb = ideal_basis.groebner(
        WeightRefinedOrder(pipeline_weights(d), CURVE_ARITY))
    kernel = _monoid_kernel(gb, d, nu)
    if not kernel:
        raise MonoidSurfaceError(
            "the linear system for the surface has no nonzero solution; "
            "the input invariants are inconsistent with a curve",
            retryable=False)
    surface = next(filter(None, (_kernel_surface(ring, entries, d, nu)
                                 for entries in kernel)), None)
    if surface is None:
        raise MonoidSurfaceError(
            "every surface in the kernel has vanishing lead form; "
            "these coordinates do not separate the curve from the vertex",
            retryable=True)
    if not gb.contains(surface.equation):
        raise AssertionError("surface equation failed the membership re-check")
    return surface


def find_monoid_surface(curve):
    """Monoid surface through a curve; requires disjointness from z = w = 0."""
    inv = curve.invariants
    inv.require_bound()
    if not check_disjoint_line(curve.ideal):
        raise ValueError(
            "the curve meets the line z = w = 0; change coordinates first")
    return _find_monoid_surface(curve.ideal, inv.d, inv.nu)


# ---------------------------------------------------------------------------
# extremal certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtremalCertificate:
    """Outcome of the four-generator shape test with the Rao/bound tables."""

    invariants: Invariants
    extremal: bool
    failure: object = None          # first failing clause, or None
    f_form: object = None           # BinaryForm of degree a
    g_form: object = None           # BinaryForm of degree a+l
    n_start: int = 0
    rao: tuple = ()
    rho: tuple = ()


def _fail(inv, clause):
    return ExtremalCertificate(invariants=inv, extremal=False, failure=clause)


def verify_extremal_shape(ideal_basis, d, g):
    """Check that an ideal is exactly x^2, x*y, y^d, x*G - y^(d-1)*F with
    coprime forms of degrees a+l and a, and that its Rao dimensions meet
    the sharp bound at every twist.

    The clauses read only the reduced grevlex basis.  Lemma: for
    d >= 2, a >= 1 and nonzero G and F, the four polynomials x^2, x*y, y^d
    and h = x*G - y^(d-1)*F, made monic, are a reduced Groebner basis in
    every term order.  Proof, by Buchberger's criterion (Cox, Little &
    O'Shea, Ideals, Varieties, and Algorithms, sections 2.6 and 2.9):
    - if the lead of h is an x-term, S(x^2, h) = -x*tail(h) has each term
      divisible by x^2 or x*y, and S(x*y, h) = -y*tail(h) each by x*y or
      y^d, so both reduce to zero; the leads of y^d and h are coprime;
    - if it is a y-term, S(y^d, h) and S(x*y, h) are y*tail(h) and
      x*tail(h) up to sign, and reduce to zero in the same way; the leads
      of x^2 and h are coprime;
    - every other pair is a pair of monomials.
    It is reduced: no term of h is divisible by x^2, x*y or y^d, and the
    lead of h has a factor z or w (nu = a+d-2 >= 1 and a >= 1), so it
    divides none of them.  Hence the ideal has that shape exactly when its
    grevlex basis is those four polynomials, and a basis of any other shape
    is a true failure.  The reported F and G are those of the weight order
    (d, 2, 1, 1) too: every term of h has weight d+nu, and that order
    breaks weight ties by grevlex, so it gives h the same lead.
    """
    ring = ideal_basis.ring
    inv = Invariants(d, g)
    if d < 2 or inv.a <= 0:
        return _fail(inv, "invariants")
    a, nu = inv.a, inv.nu
    x, y = ring.gen(0), ring.gen(1)
    monomial_gens = (x * x, x * y, y ** d)
    gb = ideal_basis.groebner()
    for m in monomial_gens:
        if not gb.contains(m):
            return _fail(inv, "membership")
    elements = gb.elements
    others = [e for e in elements
              if e.terms not in {m.terms for m in monomial_gens}]
    if len(elements) != 4 or len(others) != 1:
        return _fail(inv, "shape")
    forms = _monoid_forms(others[0], nu, (d - 1,))
    if forms is None:
        return _fail(inv, "shape")
    g_form, (f_form,) = forms
    if g_form.is_zero or f_form.is_zero:
        return _fail(inv, "shape")
    if not binary_forms_coprime(f_form, g_form):
        return _fail(inv, "coprimality")
    rao = _rao_dims(a, inv.l)
    bound = inv.rho_table()
    if rao != bound:
        return _fail(inv, "rao-table")
    return ExtremalCertificate(
        invariants=inv, extremal=True, f_form=f_form, g_form=g_form,
        n_start=twist_origin(a), rao=rao, rho=bound)


# ---------------------------------------------------------------------------
# flat family emission
# ---------------------------------------------------------------------------

def emit_family(ideal_basis, weights):
    """Textual generators of the one-parameter family in x, y, z, w, t.

    Each weight-refined reduced basis element g is rescaled so that the
    fibre at t = 0 is the initial form and the fibre at t = 1 is g: a term
    of weight k picks up t^(m - k), where m, the weight degree of g, is
    the weight of its lead (the refined order compares weights first).

    The text is written in the grevlex order of x, y, z, w, t without a
    sort.  The terms of g come in blocks of equal weight, by descending
    weight, each block in grevlex order, which breaks the weight ties.
    The ideal is homogeneous, so g has one degree D, and the term of
    weight k becomes one of degree D + m - k: a heavier block has lower
    degree, and grevlex, which compares degrees first, puts it later.
    Inside a block the degree and the power of t are fixed, and grevlex
    in five variables compares what is left as grevlex in four.  So the
    family's terms are g's blocks in reverse, each in its own order.
    """
    if not ideal_basis.homogeneous:
        raise ValueError("the family needs a homogeneous ideal")
    ring = ideal_basis.ring
    refined = WeightRefinedOrder(weights, ring.arity)
    weights = refined.weights
    t_slot = ring.arity
    out = []
    for g in ideal_basis.groebner(refined).elements:
        m = sum(map(mul, weights, g.lead_exponent))
        blocks = []     # equal-weight blocks, by descending weight
        power = None
        for e, c in g.terms:
            k = m - sum(map(mul, weights, e))
            if k != power:
                power = k
                block = []
                blocks.append(block)
            block.append((e[:t_slot] + (k,) + e[t_slot + 1:], c))
        out.append(_terms_to_string(ring.field, [
            term for block in reversed(blocks) for term in block]))
    return out


# ---------------------------------------------------------------------------
# the specialization pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpecializationReport:
    """Full record of one specialization run."""

    invariants: Invariants           # .branch says how the curve was treated
    omega: tuple
    seed: int
    retries: int
    transformed: object              # IdealBasis after the change
    surface: object                  # MonoidSurface or None on boundary
    limit: object                    # IdealBasis of the limit curve
    certificate: object              # ExtremalCertificate or None on boundary
    family: tuple                    # generator strings in x, y, z, w, t
    extremal: bool
    diagnostics: tuple = ()


def _attempt_rng(seed, attempt):
    # string seeding is stable across runs and platforms
    return random.Random(f"{seed}:{attempt}")


def _boundary_report(curve, inv, seed):
    family = tuple(str(g_) for g_ in curve.ideal.generators)
    return SpecializationReport(
        invariants=inv, omega=pipeline_weights(inv.d),
        seed=seed, retries=0,
        transformed=curve.ideal, surface=None, limit=curve.ideal,
        certificate=None, family=family, extremal=True)


def check_retries(max_retries):
    """ValueError for a negative number of retries."""
    if max_retries < 0:
        raise ValueError(
            f"the number of retries must be >= 0, got {max_retries}")


def specialize(curve, seed=0, max_retries=5):
    """Degenerate a curve to an extremal curve and certify the limit.

    Dispatches the two boundary genera to trivial families.  Otherwise the
    first attempt runs on the input ideal itself, with the bases cached on
    it (so weight-homogeneous inputs are their own limit with zero
    retries), and each retry draws a fresh seeded random coordinate
    change.  A negative `max_retries` is a ValueError.
    """
    check_retries(max_retries)
    inv = curve.invariants
    if inv.branch != "general":
        return _boundary_report(curve, inv, seed)

    d, g, nu = inv.d, inv.g, inv.nu
    omega = pipeline_weights(d)
    field = curve.field
    diagnostics = []
    for attempt in range(max_retries + 1):
        if attempt == 0:
            moved = curve.ideal
        else:
            moved = transform_ideal(curve.ideal, CoordinateChange.random(
                field, _attempt_rng(seed, attempt)))
        if not check_disjoint_line(moved):
            diagnostics.append((attempt, "disjointness",
                                "the curve meets the line z = w = 0"))
            continue
        try:
            surface = _find_monoid_surface(moved, d, nu)
        except MonoidSurfaceError as err:
            if not err.retryable:
                raise SpecializationError(str(err), diagnostics) from err
            diagnostics.append((attempt, "surface", str(err)))
            continue
        limit = saturate_irrelevant(initial_ideal(moved, omega))
        certificate = verify_extremal_shape(limit, d, g)
        if certificate.extremal:
            family = tuple(emit_family(moved, omega))
            return SpecializationReport(
                invariants=inv, omega=omega, seed=seed,
                retries=attempt, transformed=moved,
                surface=surface, limit=limit, certificate=certificate,
                family=family, extremal=True,
                diagnostics=tuple(diagnostics))
        diagnostics.append((attempt, "shape",
                            f"limit failed the {certificate.failure} check"))
    raise SpecializationError(
        f"no attempt out of {max_retries + 1} produced an extremal limit; "
        "stages that failed: "
        + "; ".join(f"attempt {a}: {s} ({m})" for a, s, m in diagnostics),
        diagnostics)


# ---------------------------------------------------------------------------
# projection probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StarProbeReport:
    """Projection-from-a-point probe via the (1,0,0,0) initial ideal."""

    double_plane: bool           # x^2 lies in the limit
    z_ideal: object              # residual scheme ideal, or None
    z_degree: object             # its length, or None
    expected: int                # nu of the input curve
    ok: bool
    note: str = ""


def condition_star_probe(curve):
    """Project the curve from (1,0,0,0) by degenerating with (1,0,0,0).

    When the limit lies in the double plane x^2 = 0, the residual scheme Z
    of embedded points is zero-dimensional of length nu; an empty Z has
    length 0, as for a plane curve off the point (nu = 0).  A failure
    signals a line through the projection point meeting the curve in a
    scheme of degree three or more (or a curve through the point itself).
    """
    ideal_basis = curve.ideal
    ring = ideal_basis.ring
    nu = curve.invariants.nu
    j1 = saturate_irrelevant(initial_ideal(ideal_basis, (1, 0, 0, 0)))
    x = ring.gen(0)
    if not j1.contains(x * x):
        return StarProbeReport(
            double_plane=False, z_ideal=None,
            z_degree=None, expected=nu, ok=False,
            note="projection limit is not contained in the double plane: "
                 "some line through (1,0,0,0) meets the curve with degree "
                 ">= 3, or the curve passes through the point")
    z_ideal = saturate_irrelevant(ideal_quotient_poly(j1, x))
    hd = hilbert(z_ideal)
    if hd.dimension > 0:
        return StarProbeReport(
            double_plane=True, z_ideal=z_ideal,
            z_degree=None, expected=nu, ok=False,
            note=f"residual scheme has dimension {hd.dimension}, expected 0")
    degree = hd.degree if hd.dimension == 0 else 0
    ok = degree == nu
    note = "" if ok else (
        f"residual scheme has length {degree}, expected {nu}")
    return StarProbeReport(
        double_plane=True, z_ideal=z_ideal,
        z_degree=degree, expected=nu, ok=ok, note=note)
