"""Seeded input generation for the benchmark workloads.

Everything here is independent of the package under test: polynomials
are dicts {(x, y, z, w) exponents: residue mod P}, and the coordinate
changes, forms and complete intersections are drawn and expanded with
this module's own arithmetic.  The program only ever sees the files
written by `write_ideal` and `write_json`.
"""

import json
import random

P = 32003
CURVE_VARS = ("x", "y", "z", "w")


# ---------------------------------------------------------------------------
# arithmetic mod P on dict polynomials and binary forms
# ---------------------------------------------------------------------------

def poly_mul(f, g):
    out = {}
    for ef, cf in f.items():
        for eg, cg in g.items():
            e = (ef[0] + eg[0], ef[1] + eg[1], ef[2] + eg[2], ef[3] + eg[3])
            out[e] = (out.get(e, 0) + cf * cg) % P
    return {e: c for e, c in out.items() if c}


def poly_add(f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = (out.get(e, 0) + c) % P
    return {e: c for e, c in out.items() if c}


def substitute(f, matrix):
    """f(M x): variable i becomes sum_j matrix[i][j] * variable j."""
    images = [{tuple(int(k == j) for k in range(4)): matrix[i][j]
               for j in range(4) if matrix[i][j]} for i in range(4)]
    powers = [[{(0, 0, 0, 0): 1}] for _ in range(4)]

    def power(i, k):
        while len(powers[i]) <= k:
            powers[i].append(poly_mul(powers[i][-1], images[i]))
        return powers[i][k]

    out = {}
    for e, c in f.items():
        term = {(0, 0, 0, 0): c}
        for i in range(4):
            if e[i]:
                term = poly_mul(term, power(i, e[i]))
        for te, tc in term.items():
            out[te] = (out.get(te, 0) + tc) % P
    return {e: c for e, c in out.items() if c}


def evaluate(f, point):
    total = 0
    for e, c in f.items():
        v = c
        for i in range(4):
            v = v * pow(point[i], e[i], P) % P
        total += v
    return total % P


def eval_form(coeffs, s, t):
    """sum_i coeffs[i] * s^(m-i) * t^i for a binary form of degree m."""
    m = len(coeffs) - 1
    return sum(c * pow(s, m - i, P) * pow(t, i, P)
               for i, c in enumerate(coeffs)) % P


def _univariate_gcd_degree(a, b):
    """Degree of gcd of two ascending coefficient lists mod P (-1 for 0)."""
    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim(list(a)), trim(list(b))
    while b:
        inv = pow(b[-1], P - 2, P)
        while len(a) >= len(b):
            factor = a[-1] * inv % P
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - factor * c) % P
            a = trim(a)
        a, b = b, a
    return len(a) - 1


def forms_coprime(f, g):
    """True when binary forms (coefficient lists c_i of s^(m-i) t^i) share
    no projective zero: none at (0:1), and F(1,t), G(1,t) are coprime."""
    if f[-1] == 0 and g[-1] == 0:
        return False
    return _univariate_gcd_degree(f, g) == 0


def determinant(matrix):
    m = [list(r) for r in matrix]
    det = 1
    for c in range(4):
        pivot = next((r for r in range(c, 4) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c] % P
        inv = pow(m[c][c], P - 2, P)
        for r in range(c + 1, 4):
            f = m[r][c] * inv % P
            m[r] = [(m[r][k] - f * m[c][k]) % P for k in range(4)]
    return det % P


def random_invertible(rng):
    while True:
        matrix = [[rng.randrange(P) for _ in range(4)] for _ in range(4)]
        if determinant(matrix):
            return matrix


def random_form(rng, degree):
    return [rng.randrange(P) for _ in range(degree + 1)]


def random_coprime_pair(rng, deg_f, deg_g):
    while True:
        f, g = random_form(rng, deg_f), random_form(rng, deg_g)
        if forms_coprime(f, g):
            return f, g


def monomials(degree):
    return [(a, b, c, degree - a - b - c)
            for a in range(degree, -1, -1)
            for b in range(degree - a, -1, -1)
            for c in range(degree - a - b, -1, -1)]


def random_dense(rng, degree, skip=()):
    return {e: rng.randrange(1, P) for e in monomials(degree) if e not in skip}


# ---------------------------------------------------------------------------
# the curves
# ---------------------------------------------------------------------------

def extremal_generators(d, g, f_form, g_form):
    """x^2, x*y, y^d, x*G - y^(d-1)*F for binary forms F, G in z, w."""
    gens = [{(2, 0, 0, 0): 1}, {(1, 1, 0, 0): 1}, {(0, d, 0, 0): 1}]
    mixed = {}
    m = len(g_form) - 1
    for i, c in enumerate(g_form):
        if c:
            mixed[(1, 0, m - i, i)] = c
    a = len(f_form) - 1
    for i, c in enumerate(f_form):
        if c:
            mixed[(0, d - 1, a - i, i)] = (-c) % P
    gens.append(mixed)
    return gens


def invariants(d, g):
    """(a, l, nu) with a = (d-2)(d-3)/2 - g, l = d-2, nu = a + l."""
    a = (d - 2) * (d - 3) // 2 - g
    return a, d - 2, a + d - 2


def fixture_extremal(d, g):
    """The package's `extremal:<d>:<g>` fixture: F = z^a, G = w^(a+l)."""
    a, l, _ = invariants(d, g)
    f_form = [1] + [0] * a
    g_form = [0] * (a + l) + [1]
    return extremal_generators(d, g, f_form, g_form)


# the reduced grevlex basis of a (2,3) divisor on the quadric x*w - y*z:
# the residual of the line x = y = 0 in (x*w - y*z, x*z^2 + y*w^2)
QUINTIC_G2 = [
    {(0, 1, 1, 0): 1, (1, 0, 0, 1): P - 1},
    {(0, 0, 3, 0): 1, (0, 0, 0, 3): 1},
    {(1, 0, 2, 0): 1, (0, 1, 0, 2): 1},
    {(2, 0, 1, 1): 1, (0, 2, 0, 2): 1},
    {(3, 0, 0, 2): 1, (0, 3, 0, 2): 1},
]

# the twisted cubic as the 2x2 minors of [[x, y, z], [y, z, w]]
TWISTED_CUBIC = [
    {(0, 0, 2, 0): 1, (0, 1, 0, 1): P - 1},
    {(0, 1, 1, 0): 1, (1, 0, 0, 1): P - 1},
    {(0, 2, 0, 0): 1, (1, 0, 1, 0): P - 1},
]


def moved(gens, matrix):
    return [substitute(f, matrix) for f in gens]


def complete_intersection_through_point(rng, m, n):
    """Dense random forms of degrees m and n with no x^m, x^n term, so the
    curve passes through (1:0:0:0), which lies on the line z = w = 0."""
    return [random_dense(rng, m, skip={(m, 0, 0, 0)}),
            random_dense(rng, n, skip={(n, 0, 0, 0)})]


def random_ideal_element(rng, gens, degree):
    out = {}
    for f in gens:
        shift = degree - sum(next(iter(f)))
        if shift >= 0:
            out = poly_add(out, poly_mul(random_dense(rng, shift), f))
    return out


# ---------------------------------------------------------------------------
# file output
# ---------------------------------------------------------------------------

def poly_text(f):
    terms = []
    for e, c in sorted(f.items(), reverse=True):
        mono = "*".join(v if k == 1 else f"{v}^{k}"
                        for v, k in zip(CURVE_VARS, e) if k)
        terms.append(f"{c}*{mono}" if mono else str(c))
    return " + ".join(terms)


def write_ideal(path, gens, why):
    lines = [f"# {why}", f"characteristic: {P}", "variables: x y z w",
             "generators:"]
    lines += [f"  {poly_text(f)}" for f in gens]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_json(path, payload):
    path.write_text(json.dumps(payload, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def rng_for(seed, label):
    # string seeding is stable across runs and platforms
    return random.Random(f"{seed}:{label}")
