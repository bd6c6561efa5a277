"""The three workloads: their inputs, their ops and the checks on each op.

An op is a (name, callable) pair; the callable runs one user-level job
through the package (`cli.main` or a public constructor) and returns a
list of problems, empty when every check passed.  The checks recompute
what they compare against (invariants, the rho table, points on the
curve) with this directory's own arithmetic, never with the package.
"""

import contextlib
import hashlib
import io
import json
import random

from inputs import (P, QUINTIC_G2, TWISTED_CUBIC,
                    complete_intersection_through_point, eval_form, evaluate,
                    extremal_generators, fixture_extremal, invariants, moved,
                    poly_text, random_coprime_pair, random_form,
                    random_ideal_element, random_invertible, rng_for,
                    write_ideal, write_json)

WHY = {
    "specialize-general": (
        "specialize on dense curves in general coordinates: coordinate "
        "change, monoid kernel and weight-order bases dominate"),
    "specialize-fixed": (
        "specialize on sparse extremal fixed points, zero retries: the "
        "coordinate change is the identity, so a fix aimed at dense inputs "
        "should not move it"),
    "construct-probe": (
        "constructors and the probe: block-order elimination, liaison "
        "colons and intersections, analyze and probe"),
}

# (rung, repeats per pass); the small rungs repeat so that the 9:6 rung
# stays about half of a pass
GENERAL_LADDER = (
    ("quintic-g2", 3), ("extremal:6:3", 3), ("extremal:7:5", 3),
    ("ci:2:4", 3), ("ci:3:3", 2), ("extremal:8:5", 1), ("extremal:9:6", 1),
)
FIXED_LADDER = ((8, 5), (10, 6), (12, 10), (14, 30), (16, 40), (18, 60),
                (20, 80))
PARAMETRIZATION_DEGREES = (4, 5)


def general_rung(seed, rung):
    """(d, g, generators) of a specialize-general rung, moved or dense."""
    rng = rng_for(seed, rung)
    kind, *rest = rung.split(":")
    if kind == "ci":
        m, n = int(rest[0]), int(rest[1])
        genus = m * n * (m + n - 4) // 2 + 1
        return m * n, genus, complete_intersection_through_point(rng, m, n)
    if kind == "quintic-g2":
        return 5, 2, moved(QUINTIC_G2, random_invertible(rng))
    d, g = int(rest[0]), int(rest[1])
    return d, g, moved(fixture_extremal(d, g), random_invertible(rng))


# ---------------------------------------------------------------------------
# independent checks
# ---------------------------------------------------------------------------

def rho_table(d, g):
    """The sharp Rao bound over [1-a, a+l]: a trapezoid with plateau a."""
    a, l, _ = invariants(d, g)
    return [max(0, min(a, n + a, a + l - n)) for n in range(1 - a, a + l + 1)]


def check_certificate(report, d, g, fixed):
    problems = []
    if (report["d"], report["g"]) != (d, g):
        problems.append(f"(d, g) = ({report['d']}, {report['g']}), "
                        f"expected ({d}, {g})")
    if report["extremal"] is not True:
        problems.append("extremal is not true")
    want = rho_table(d, g)
    if report["rao"] != want or report["rho"] != want:
        problems.append(f"rao {report['rao']} / rho {report['rho']} "
                        f"differ from the rho table {want}")
    if report["n_start"] != 1 - invariants(d, g)[0]:
        problems.append(f"n_start {report['n_start']} is not 1 - a")
    if fixed and report["retries"] != 0:
        problems.append(f"{report['retries']} retries on a fixed point")
    return problems


def check_curve(curve, d, g, label):
    if (curve.degree, curve.genus) != (d, g):
        return [f"{label}: (d, g) = ({curve.degree}, {curve.genus}), "
                f"expected ({d}, {g})"]
    return []


def as_dict(poly):
    return {e[:4]: c for e, c in poly.terms}


def call_cli(api, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = api.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def exit_problem(argv, rc, want, out, err):
    if rc == want:
        return []
    tail = (err or out).strip().splitlines()[-1:] or [""]
    return [f"{argv[0]} exited {rc}, expected {want}: {tail[0][:200]}"]


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def specialize_op(api, ctx, rung, path, d, g, fixed):
    cert = path.with_suffix(".json")
    argv = ["specialize", str(path), "--seed", str(ctx.seed),
            "--json", str(cert)]
    golden = ctx.golden.get(f"{ctx.workload}/{rung}") if ctx.golden else None

    def op():
        cert.unlink(missing_ok=True)
        rc, out, err = call_cli(api, argv)
        problems = exit_problem(argv, rc, 0, out, err)
        if problems:
            return problems
        raw = cert.read_bytes()
        problems = check_certificate(json.loads(raw), d, g, fixed)
        digest = hashlib.sha256(raw).hexdigest()
        if ctx.golden is not None and digest != golden:
            problems.append("certificate differs from the seed commit's")
        ctx.digests[f"{ctx.workload}/{rung}"] = digest
        return problems

    return f"specialize {rung}", op


def analyze_op(api, rung, path, d, g):
    argv = ["analyze", str(path)]

    def op():
        rc, out, err = call_cli(api, argv)
        problems = exit_problem(argv, rc, 0, out, err)
        fields = dict(tok.split("=", 1) for tok in out.split() if "=" in tok)
        if (fields.get("d"), fields.get("g")) != (str(d), str(g)):
            problems.append(f"analyze printed {out.strip()!r}, "
                            f"expected d={d} g={g}")
        if fields.get("saturated") != "yes":
            problems.append("analyze did not report a saturated ideal")
        return problems

    return f"analyze {rung}", op


def probe_op(api, rung, path, d, g, want_rc):
    argv = ["probe", str(path)]
    nu = invariants(d, g)[2]

    def op():
        rc, out, err = call_cli(api, argv)
        problems = exit_problem(argv, rc, want_rc, out, err)
        if want_rc == 0 and f"deg Z = {nu} (expected {nu})" not in out:
            problems.append(f"probe printed {out.strip()!r}, expected "
                            f"deg Z = {nu}")
        return problems

    return f"probe {rung}", op


def parametrization_op(api, label, path):
    def op():
        spec = json.loads(path.read_text(encoding="utf-8"))
        forms = [api.ec.BinaryForm(api.field, c) for c in spec["forms"]]
        curve = api.ec.from_parametrization(api.field, forms)
        problems = check_curve(curve, spec["degree"], 0, label)
        # every generator must vanish at image points of the parametrization
        rng = random.Random(spec["points_seed"])
        gens = [as_dict(f) for f in curve.ideal.generators]
        for _ in range(3):
            s, t = rng.randrange(P), rng.randrange(P)
            point = [eval_form(c, s, t) for c in spec["forms"]]
            if any(evaluate(f, point) for f in gens):
                problems.append(f"{label}: a generator misses an image point")
                break
        return problems

    return label, op


def liaison_op(api, cubic_path, pair_path, hop2_seed):
    def op():
        load = api.cli.load_ideal_file
        cubic = api.ec.CurveIdeal.from_ideal(load(str(cubic_path)))
        f1, g1 = load(str(pair_path)).generators
        hop1 = api.ec.link(f1, g1, cubic)
        problems = check_curve(hop1, 6, 3, "liaison hop 1")
        # draw the second pair from the reduced basis, which is canonical
        rng = random.Random(hop2_seed)
        gens = [as_dict(f) for f in hop1.ideal.groebner().elements]
        f2, g2 = (api.ec.parse_polynomial(
            hop1.ring, poly_text(random_ideal_element(rng, gens, k)))
            for k in (3, 4))
        hop2 = api.ec.link(f2, g2, hop1)
        return problems + check_curve(hop2, 6, 3, "liaison hop 2")

    return "liaison chain", op


# ---------------------------------------------------------------------------
# workload builders: write the inputs, return the ops in their fixed order
# ---------------------------------------------------------------------------

def _rung_file(workdir, rung, gens, why):
    path = workdir / (rung.replace(":", "_") + ".ideal")
    return write_ideal(path, gens, why)


def build_specialize_general(api, ctx, workdir):
    ops = []
    for rung, repeats in GENERAL_LADDER:
        d, g, gens = general_rung(ctx.seed, rung)
        path = _rung_file(workdir, rung, gens, WHY[ctx.workload])
        ops += [specialize_op(api, ctx, rung, path, d, g, False)] * repeats
    return ops


def build_specialize_fixed(api, ctx, workdir):
    ops = []
    for d, g in FIXED_LADDER:
        a, l, _ = invariants(d, g)
        f_form, g_form = random_coprime_pair(
            rng_for(ctx.seed, f"fixed:{d}:{g}"), a, a + l)
        rung = f"fixed:{d}:{g}"
        path = _rung_file(workdir, rung,
                          extremal_generators(d, g, f_form, g_form),
                          WHY[ctx.workload])
        ops.append(specialize_op(api, ctx, rung, path, d, g, True))
    return ops


def build_construct_probe(api, ctx, workdir):
    ops = []
    for degree in PARAMETRIZATION_DEGREES:
        rng = rng_for(ctx.seed, f"parametrization:{degree}")
        label = f"parametrization degree {degree}"
        path = write_json(workdir / f"parametrization_{degree}.json", {
            "degree": degree,
            "forms": [random_form(rng, degree) for _ in range(4)],
            "points_seed": rng.randrange(2 ** 32)})
        ops.append(parametrization_op(api, label, path))
    rng = rng_for(ctx.seed, "liaison")
    cubic = _rung_file(workdir, "twisted-cubic", TWISTED_CUBIC,
                       "twisted cubic")
    pair = _rung_file(workdir, "liaison-pair",
                      [random_ideal_element(rng, TWISTED_CUBIC, 3)
                       for _ in range(2)], "two cubics through it")
    ops.append(liaison_op(api, cubic, pair, rng.randrange(2 ** 32)))
    for rung in ("extremal:8:5", "extremal:9:6"):
        d, g, gens = general_rung(ctx.seed, rung)
        path = _rung_file(workdir, rung, gens, WHY[ctx.workload])
        ops += [analyze_op(api, rung, path, d, g),
                probe_op(api, rung, path, d, g, 0)]
    for rung in ("ci:2:4", "ci:3:3"):
        # the curve passes through the projection point (1:0:0:0)
        d, g, gens = general_rung(ctx.seed, rung)
        path = _rung_file(workdir, rung, gens, WHY[ctx.workload])
        ops.append(probe_op(api, rung, path, d, g, 3))
    return ops


BUILDERS = {
    "specialize-general": build_specialize_general,
    "specialize-fixed": build_specialize_fixed,
    "construct-probe": build_construct_probe,
}
