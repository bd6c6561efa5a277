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

from .orders import WeightRefinedOrder
from .poly import BinaryForm, Polynomial, binary_forms_coprime
from .groebner import (IdealBasis, ideal_equal, ideal_quotient_poly,
                       ideal_sum, initial_ideal, saturate_irrelevant)
from .hilbert import hilbert
from .curves import (CURVE_ARITY, CoordinateChange, CurveIdeal, Invariants,
                     transform_ideal)
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
    num = [0] * (a + b + 1)
    num[0] = 1
    num[a] -= 1
    num[b] -= 1
    num[a + b] += 1
    for _ in range(2):
        if sum(num) != 0:
            raise AssertionError("complete-intersection series is not exact")
        acc, out = 0, []
        for c in num[:-1]:
            acc += c
            out.append(acc)
        num = out
    while num and num[-1] == 0:
        num.pop()
    return num


def rao_dims_extremal(f_form, g_form, a, l, lo=None, hi=None):
    """Rao dimensions h^1(n) of the extremal curve built from (F, G):
    the graded dimensions of k[z,w]/(F,G) shifted by a-1."""
    if a < 1 or l < 0:
        raise ValueError("invalid invariants: need a >= 1 and l >= 0")
    if f_form.degree != a or g_form.degree != a + l:
        raise ValueError("form degrees must be a and a + l")
    if not binary_forms_coprime(f_form, g_form):
        raise ValueError("the forms must have no common zero")
    dims = _quotient_series_dims(a, a + l)
    if lo is None:
        lo = 1 - a
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


def _ideal_of(curve_or_ideal):
    if isinstance(curve_or_ideal, CurveIdeal):
        return curve_or_ideal.ideal
    return curve_or_ideal


def check_disjoint_line(curve_or_ideal):
    """True when the scheme misses the line z = w = 0 (empty intersection)."""
    ideal_basis = _ideal_of(curve_or_ideal)
    ring = ideal_basis.ring
    zw = IdealBasis(ring, (ring.gen(2), ring.gen(3)))
    return hilbert(ideal_sum(ideal_basis, zw)).dimension == -1


@dataclass(frozen=True)
class MonoidSurface:
    """Surface equation x*G - sum_j y^j * F_j of degree nu+1 through the curve.

    `g_form` has degree nu; `f_forms[j]` has degree nu+1-j for j = 0..d-1.
    The (d,2,1,1)-initial form of the equation is x*G - y^(d-1)*F_(d-1)
    whenever both survive.
    """

    equation: Polynomial
    g_form: BinaryForm
    f_forms: tuple

    @property
    def degree(self):
        return self.equation.degree

    @property
    def lead_pair(self):
        """(G, F) where F is the form paired with y^(d-1)."""
        return self.g_form, self.f_forms[-1]


def monoid_template(d, nu):
    """Exponent columns of the search space: x*z^i*w^(nu-i) and
    y^j*z^i*w^(nu+1-j-i); the dimension is (nu+1)(d+1)+1-(d-1)(d-2)/2."""
    columns = []
    for i in range(nu + 1):
        e = [0] * 8
        e[0], e[2], e[3] = 1, i, nu - i
        columns.append((tuple(e), ("x", i)))
    for j in range(d):
        m = nu + 1 - j
        for i in range(m + 1):
            e = [0] * 8
            e[1], e[2], e[3] = j, i, m - i
            columns.append((tuple(e), ("y", j, i)))
    expected = (nu + 1) * (d + 1) + 1 - (d - 1) * (d - 2) // 2
    if len(columns) != expected:
        raise AssertionError("template dimension count failed")
    return columns


def _assemble_surface(ring, d, nu, columns, coefficients):
    field = ring.field
    g_coeffs = [field.zero] * (nu + 1)
    f_coeffs = [[field.zero] * (nu + 2 - j) for j in range(d)]
    for (exp, tag), c in zip(columns, coefficients):
        if field.is_zero(c):
            continue
        if tag[0] == "x":
            i = tag[1]
            g_coeffs[nu - i] = c            # w-power nu-i
        else:
            _, j, i = tag
            m = nu + 1 - j
            f_coeffs[j][m - i] = field.neg(c)
    g_form = BinaryForm(field, g_coeffs)
    f_forms = tuple(BinaryForm(field, f_coeffs[j]) for j in range(d))
    # normalize so the lead form is monic (falling back to the equation)
    unit = None
    for c in g_coeffs:
        if not field.is_zero(c):
            unit = field.inv(c)
            break
    if unit is not None and unit != field.one:
        g_form = g_form.scale(unit)
        f_forms = tuple(f.scale(unit) for f in f_forms)
    x, y = ring.gen(0), ring.gen(1)
    equation = x * g_form.to_polynomial(ring)
    for j in range(d):
        if not f_forms[j].is_zero:
            equation = equation - y ** j * f_forms[j].to_polynomial(ring)
    if unit is None:
        equation = equation.monic()
    return MonoidSurface(equation, g_form, f_forms)


def _find_monoid_surface(ideal_basis, d, nu, rng=None):
    """Kernel search for a monoid surface through the given curve ideal."""
    ring = ideal_basis.ring
    field = ring.field
    gb = ideal_basis.groebner()
    columns = monoid_template(d, nu)
    rows = []                       # one sparse row per normal-form monomial
    row_index = {}
    for col, (exp, _tag) in enumerate(columns):
        for e, c in gb.normal_form(ring.monomial(exp)).terms:
            r = row_index.get(e)
            if r is None:
                r = row_index[e] = len(rows)
                rows.append({})
            rows[r][col] = c
    ncols = len(columns)
    kernel = linalg.nullspace(field, rows, ncols)
    if not kernel:
        raise MonoidSurfaceError(
            "the linear system for the surface has no nonzero solution; "
            "the input invariants are inconsistent with a curve",
            retryable=False)
    candidates = list(kernel)
    if rng is not None and len(kernel) > 1:
        for _ in range(16):
            combo = [field.zero] * ncols
            for vec in kernel:
                s = field.random_element(rng)
                if field.is_zero(s):
                    continue
                combo = [field.add(a, field.mul(s, b))
                         for a, b in zip(combo, vec)]
            if any(not field.is_zero(c) for c in combo):
                candidates.append(combo)

    def build(vec):
        return _assemble_surface(ring, d, nu, columns, vec)

    fallback = None
    for vec in candidates:
        surface = build(vec)
        if surface.g_form.is_zero:
            continue
        lead_f = surface.f_forms[-1]
        if not lead_f.is_zero and binary_forms_coprime(surface.g_form, lead_f):
            fallback = surface
            break
        if fallback is None:
            fallback = surface
    if fallback is None:
        raise MonoidSurfaceError(
            "every surface in the kernel has vanishing lead form; "
            "these coordinates do not separate the curve from the vertex",
            retryable=True)
    if not gb.contains(fallback.equation):
        raise AssertionError("surface equation failed the membership re-check")
    return fallback


def find_monoid_surface(curve, rng=None):
    """Monoid surface through a curve; requires disjointness from z = w = 0."""
    inv = curve.invariants
    inv.require_bound()
    if not check_disjoint_line(curve):
        raise ValueError(
            "the curve meets the line z = w = 0; change coordinates first")
    return _find_monoid_surface(curve.ideal, inv.d, inv.nu, rng)


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
    generators: tuple = ()
    n_start: int = 0
    rao: tuple = ()
    rho: tuple = ()


def _fail(inv, clause):
    return ExtremalCertificate(invariants=inv, extremal=False, failure=clause)


def verify_extremal_shape(ideal_basis, d, g):
    """Check that an ideal is exactly x^2, x*y, y^d, x*G - y^(d-1)*F with
    coprime forms of degrees a+l and a, and that its Rao dimensions meet
    the sharp bound at every twist."""
    ring = ideal_basis.ring
    field = ring.field
    inv = Invariants(d, g)
    if d < 2 or inv.a <= 0:
        return _fail(inv, "invariants")
    a, nu = inv.a, inv.nu
    x, y = ring.gen(0), ring.gen(1)
    monomial_gens = (x * x, x * y, y ** d)
    gb = ideal_basis.groebner(WeightRefinedOrder(pipeline_weights(d), CURVE_ARITY))
    for m in monomial_gens:
        if not gb.contains(m):
            return _fail(inv, "membership")
    elements = list(gb.elements)
    others = [e for e in elements
              if e.terms not in {m.terms for m in monomial_gens}]
    if len(elements) != 4 or len(others) != 1:
        return _fail(inv, "shape")
    mixed = others[0]
    if mixed.degree != nu + 1 or not mixed.is_homogeneous:
        return _fail(inv, "shape")
    g_coeffs = [field.zero] * (nu + 1)
    f_coeffs = [field.zero] * (a + 1)
    for e, c in mixed.terms:
        zw = e[2] + e[3]
        if e[0] == 1 and e[1] == 0 and zw == nu:
            g_coeffs[e[3]] = c
        elif e[0] == 0 and e[1] == d - 1 and zw == a:
            f_coeffs[e[3]] = field.neg(c)
        else:
            return _fail(inv, "shape")
    g_form = BinaryForm(field, g_coeffs)
    f_form = BinaryForm(field, f_coeffs)
    if g_form.is_zero or f_form.is_zero:
        return _fail(inv, "shape")
    if not binary_forms_coprime(f_form, g_form):
        return _fail(inv, "coprimality")
    rebuilt_gens = monomial_gens + (
        x * g_form.to_polynomial(ring) - y ** (d - 1) * f_form.to_polynomial(ring),)
    rebuilt = IdealBasis(ring, rebuilt_gens)
    if not ideal_equal(ideal_basis, rebuilt):
        return _fail(inv, "ideal-equality")
    rao = rao_dims_extremal(f_form, g_form, a, inv.l)
    bound = inv.rho_table()
    if rao != bound:
        return _fail(inv, "rao-table")
    return ExtremalCertificate(
        invariants=inv, extremal=True, f_form=f_form, g_form=g_form,
        generators=rebuilt.generators, n_start=1 - a, rao=rao, rho=bound)


# ---------------------------------------------------------------------------
# flat family emission
# ---------------------------------------------------------------------------

def emit_family(curve_or_ideal, weights):
    """Textual generators of the one-parameter family in x, y, z, w, t.

    Each weight-refined reduced basis element g is rescaled so that the
    fibre at t = 0 is the initial form and the fibre at t = 1 is g: a term
    of weight k picks up t^(m - k), where m is the weight degree of g.
    """
    ideal_basis = _ideal_of(curve_or_ideal)
    ring = ideal_basis.ring
    w = tuple(weights)
    refined = WeightRefinedOrder(w, ring.arity)
    gb = ideal_basis.groebner(refined)
    ext = ring.extended(ring.arity + 1)
    t_slot = ring.arity
    out = []
    for g in gb.elements:
        m = g.weight_degree(w)
        terms = {}
        for e, c in g.terms:
            wd = sum(e[i] * w[i] for i in range(ring.arity))
            le = list(e)
            le[t_slot] = m - wd
            terms[tuple(le)] = c
        out.append(str(Polynomial.from_dict(ext, terms)))
    return out


# ---------------------------------------------------------------------------
# the specialization pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpecializationReport:
    """Full record of one specialization run."""

    invariants: Invariants
    branch: str                      # "plane" | "ACM-boundary" | "general"
    omega: tuple
    seed: int
    retries: int
    change: object                   # CoordinateChange used (identity first)
    transformed: object              # IdealBasis after the change
    surface: object                  # MonoidSurface or None on boundary
    limit: object                    # IdealBasis of the limit curve
    certificate: object              # ExtremalCertificate or None on boundary
    family: tuple                    # generator strings in x, y, z, w, t
    extremal: bool
    n_start: object = None
    rao: tuple = ()
    rho: tuple = ()
    diagnostics: tuple = ()


def _attempt_rng(seed, attempt):
    # string seeding is stable across runs and platforms
    return random.Random(f"{seed}:{attempt}")


def _boundary_report(curve, inv, seed):
    if inv.a == 0:      # the Rao function vanishes on [1 - a, a + l]
        n_start, zeros = 1, (0,) * inv.l
    else:
        n_start, zeros = None, ()
    family = tuple(str(g_) for g_ in curve.ideal.generators)
    return SpecializationReport(
        invariants=inv, branch=inv.branch, omega=pipeline_weights(inv.d),
        seed=seed, retries=0, change=CoordinateChange.identity(curve.field),
        transformed=curve.ideal, surface=None, limit=curve.ideal,
        certificate=None, family=family, extremal=True,
        n_start=n_start, rao=zeros, rho=zeros)


def specialize(curve, seed=0, max_retries=5):
    """Degenerate a curve to an extremal curve and certify the limit.

    Dispatches the two boundary genera to trivial families.  Otherwise the
    first attempt keeps the given coordinates (so weight-homogeneous inputs
    are their own limit with zero retries) and each retry draws a fresh
    seeded random coordinate change.
    """
    inv = curve.invariants
    if inv.branch != "general":
        return _boundary_report(curve, inv, seed)

    d, g, nu = inv.d, inv.g, inv.nu
    omega = pipeline_weights(d)
    field = curve.field
    diagnostics = []
    for attempt in range(max_retries + 1):
        rng = _attempt_rng(seed, attempt)
        if attempt == 0:
            change = CoordinateChange.identity(field)
        else:
            change = CoordinateChange.random(field, rng)
        moved = transform_ideal(curve.ideal, change)
        if not check_disjoint_line(moved):
            diagnostics.append((attempt, "disjointness",
                                "the curve meets the line z = w = 0"))
            continue
        try:
            surface = _find_monoid_surface(moved, d, nu, rng)
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
                invariants=inv, branch="general", omega=omega, seed=seed,
                retries=attempt, change=change, transformed=moved,
                surface=surface, limit=limit, certificate=certificate,
                family=family, extremal=True, n_start=certificate.n_start,
                rao=certificate.rao, rho=certificate.rho,
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

    initial_limit: object        # saturated (1,0,0,0)-initial ideal
    double_plane: bool           # x^2 lies in the limit
    z_ideal: object              # residual scheme ideal, or None
    z_degree: object             # its length, or None
    expected: int                # nu of the input curve
    ok: bool
    note: str = ""


def condition_star_probe(curve):
    """Project the curve from (1,0,0,0) by degenerating with (1,0,0,0).

    When the limit lies in the double plane x^2 = 0, the residual scheme Z
    of embedded points is zero-dimensional of length nu; a failure signals
    a line through the projection point meeting the curve in a scheme of
    degree three or more (or a curve through the point itself).
    """
    ideal_basis = curve.ideal
    ring = ideal_basis.ring
    nu = curve.invariants.nu
    j1 = saturate_irrelevant(initial_ideal(ideal_basis, (1, 0, 0, 0)))
    x = ring.gen(0)
    if not j1.contains(x * x):
        return StarProbeReport(
            initial_limit=j1, double_plane=False, z_ideal=None,
            z_degree=None, expected=nu, ok=False,
            note="projection limit is not contained in the double plane: "
                 "some line through (1,0,0,0) meets the curve with degree "
                 ">= 3, or the curve passes through the point")
    z_ideal = saturate_irrelevant(ideal_quotient_poly(j1, x))
    hd = hilbert(z_ideal)
    if hd.dimension != 0:
        return StarProbeReport(
            initial_limit=j1, double_plane=True, z_ideal=z_ideal,
            z_degree=None, expected=nu, ok=False,
            note=f"residual scheme has dimension {hd.dimension}, expected 0")
    degree = hd.degree
    ok = degree == nu
    note = "" if ok else (
        f"residual scheme has length {degree}, expected {nu}")
    return StarProbeReport(
        initial_limit=j1, double_plane=True, z_ideal=z_ideal,
        z_degree=degree, expected=nu, ok=ok, note=note)
