"""Command-line surface.

Subcommands: analyze, specialize, verify-extremal, rho, demo, probe.
Exit codes: 0 success, 2 trivial/boundary branch, 3 pipeline failure after
retries, 4 invalid input.  All randomness flows from --seed; there is no
wall-clock entropy anywhere.
"""

import argparse
import functools
import json
import sys

from .fields import DEFAULT_MODULUS, field_of_characteristic
from .poly import ParseError, parse_polynomial
from .groebner import IdealBasis, ideal_equal, saturate_irrelevant
from .hilbert import hilbert
from .curves import (CurveIdeal, Invariants, curve_ring, fixture,
                     twist_origin)
from .degeneration import (SpecializationError, check_retries,
                           condition_star_probe, specialize,
                           verify_extremal_shape)

EXIT_OK = 0
EXIT_BOUNDARY = 2
EXIT_PIPELINE = 3
EXIT_INVALID = 4

_KNOWN_KEYS = ("characteristic", "variables", "generators")


def load_ideal_file(path, char_override=None):
    """Parse an ideal file into an IdealBasis.

    Format: optional `characteristic:` and `variables:` header lines, then
    `generators:` followed by one polynomial per line (leading `-` list
    markers and `#` comments allowed).  Unknown keys are rejected.  The
    text is UTF-8, perhaps led by a byte-order mark.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            raw_lines = handle.read().splitlines()
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: {err}") from None
    characteristic = None
    generator_lines = []
    in_generators = False
    for lineno, raw in enumerate(raw_lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, tail = line.partition(":")
        key = head.strip().lower()
        if sep and key in _KNOWN_KEYS and not in_generators:
            if key == "characteristic":
                try:
                    characteristic = int(tail.strip())
                except ValueError:
                    raise ParseError(
                        f"{path}:{lineno}: malformed characteristic") from None
            elif key == "variables":
                if tail.split() != ["x", "y", "z", "w"]:
                    raise ParseError(
                        f"{path}:{lineno}: variables must be 'x y z w'")
            else:
                in_generators = True
                if tail.strip():
                    generator_lines.extend(
                        (lineno, p) for p in tail.split(",") if p.strip())
        elif sep and key in _KNOWN_KEYS and in_generators:
            raise ParseError(f"{path}:{lineno}: header key after generators")
        elif sep and not in_generators and key.isidentifier() and " " not in head.strip():
            raise ParseError(f"{path}:{lineno}: unknown key {head.strip()!r}")
        else:
            if not in_generators:
                raise ParseError(
                    f"{path}:{lineno}: generator before 'generators:' header")
            entry = line.lstrip("-").strip() if line.startswith("- ") else line
            generator_lines.append((lineno, entry))
    if not generator_lines:
        raise ParseError(f"{path}: no generators found")
    if char_override is not None:
        characteristic = char_override
    if characteristic is None:
        characteristic = DEFAULT_MODULUS
    try:
        field = field_of_characteristic(characteristic)
    except ValueError as err:
        raise ParseError(f"{path}: {err}") from None
    ring = curve_ring(field)
    gens = []
    for lineno, text in generator_lines:
        try:
            gens.append(parse_polynomial(ring, text))
        except ParseError as err:
            raise ParseError(f"{path}:{lineno}: {err}") from None
        except ZeroDivisionError:
            raise ParseError(f"{path}: a denominator vanishes modulo "
                             f"{characteristic}") from None
    basis = IdealBasis(ring, gens)
    if not basis.homogeneous:
        raise ParseError(f"{path}: generators are not homogeneous")
    if basis.is_zero:
        raise ParseError(f"{path}: the zero ideal is not a curve ideal")
    return basis


def report_to_dict(report):
    """JSON-ready dictionary for a specialization report: the one place
    its polynomials and tables become text, for the printed report and
    for --json alike."""
    cert = report.certificate
    inv = report.invariants
    # the certificate's rows on the general branch, zeros on [1, l] on the
    # ACM boundary (a = 0) and none on the plane branch, whatever its a
    if cert is not None:
        n_start, rao, rho = cert.n_start, cert.rao, cert.rho
    elif inv.branch == "ACM-boundary":
        n_start, rao = twist_origin(inv.a), inv.rho_table()
        rho = rao
    else:
        n_start, rao, rho = None, (), ()
    return {
        "d": inv.d,
        "g": inv.g,
        "a": inv.a,
        "l": inv.l,
        "nu": inv.nu,
        "branch": inv.branch,
        "omega": list(report.omega),
        "seed": report.seed,
        "retries": report.retries,
        "surface": str(report.surface.equation) if report.surface else None,
        "limit_ideal": [str(g) for g in report.limit.groebner().elements],
        "F": str(cert.f_form) if cert else None,
        "G": str(cert.g_form) if cert else None,
        "n_start": n_start,
        "rao": list(rao),
        "rho": list(rho),
        "extremal": report.extremal,
        "family": list(report.family),
    }


def _invariants_line(inv):
    return f"d={inv.d} g={inv.g} a={inv.a} l={inv.l} nu={inv.nu}"


def _print_rows(n_start, **rows):
    """The twists from n_start, then each table below them, by name."""
    width = len(next(iter(rows.values())))
    for name, values in {"n": range(n_start, n_start + width),
                         **rows}.items():
        print(f"{name:>4}: " + " ".join(f"{v:>3}" for v in values))


def _print_report(table):
    """The plain-text report, printed from its `report_to_dict` table."""
    print(_invariants_line(Invariants(table["d"], table["g"])))
    print(f"branch: {table['branch']}   retries: {table['retries']}   "
          f"omega: {tuple(table['omega'])}")
    if table["surface"] is not None:
        print(f"surface: {table['surface']}")
    print("limit ideal:")
    for g in table["limit_ideal"]:
        print(f"  {g}")
    if table["F"] is not None:
        print(f"F = {table['F']}")
        print(f"G = {table['G']}")
    if table["n_start"] is not None:
        _print_rows(table["n_start"], rao=table["rao"], rho=table["rho"])
    print(f"extremal: {'true' if table['extremal'] else 'false'}")
    print("family:")
    for line in table["family"]:
        print(f"  {line}")


def cmd_analyze(args):
    basis = load_ideal_file(args.path, args.char)
    hd = hilbert(basis)
    if hd.dimension != 1:
        print(f"error: scheme has dimension {hd.dimension}, not a curve")
        return EXIT_INVALID
    inv = Invariants(hd.degree, hd.genus)
    saturated = ideal_equal(basis, saturate_irrelevant(basis))
    if inv.g == inv.plane_bound:
        print(f"d={inv.d} g={inv.g} (plane curve)"
              f"  dimension=1 saturated={'yes' if saturated else 'no'}")
        return EXIT_OK
    print(f"{_invariants_line(inv)} dimension=1 "
          f"saturated={'yes' if saturated else 'no'}")
    return EXIT_OK


def _run_specialize(curve, args):
    try:
        report = specialize(curve, seed=args.seed, max_retries=args.retries)
    except SpecializationError as err:
        print(f"error: {err}")
        return EXIT_PIPELINE
    table = report_to_dict(report)
    _print_report(table)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(table, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return EXIT_OK if report.invariants.branch == "general" else EXIT_BOUNDARY


def cmd_specialize(args):
    check_retries(args.retries)
    basis = load_ideal_file(args.path, args.char)
    curve = CurveIdeal.from_ideal(basis)
    return _run_specialize(curve, args)


def cmd_verify_extremal(args):
    basis = load_ideal_file(args.path, args.char)
    cert = verify_extremal_shape(basis, args.d, args.g)
    if cert.extremal:
        print(f"extremal: true  F = {cert.f_form}  G = {cert.g_form}")
        _print_rows(cert.n_start, rao=cert.rao)
        return EXIT_OK
    print(f"extremal: false  failing clause: {cert.failure}")
    return EXIT_PIPELINE


def cmd_rho(args):
    lo = hi = None
    if args.range:
        try:
            lo_text, hi_text = args.range.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            print(f"error: malformed range {args.range!r}")
            return EXIT_INVALID
    inv = Invariants(args.d, args.g)
    try:
        values = inv.rho_table(lo, hi)
    except ValueError as err:
        print(f"error: {err}")
        return EXIT_INVALID
    start = lo if lo is not None else twist_origin(inv.a)
    for offset, value in enumerate(values):
        print(f"{start + offset:>4}  {value}")
    return EXIT_OK


def cmd_demo(args):
    check_retries(args.retries)
    if args.json and not args.specialize:
        raise ValueError("--json needs --specialize, whose certificate "
                         "it writes")
    field = field_of_characteristic(args.char if args.char is not None
                                    else DEFAULT_MODULUS)
    try:
        curve = fixture(args.name, field)
    except ValueError as err:
        print(f"error: {err}")
        return EXIT_INVALID
    print(f"fixture: {args.name}")
    print(_invariants_line(curve.invariants))
    print("generators:")
    for g in curve.ideal.groebner().elements:
        print(f"  {g}")
    if args.specialize:
        return _run_specialize(curve, args)
    return EXIT_OK


def cmd_probe(args):
    basis = load_ideal_file(args.path, args.char)
    curve = CurveIdeal.from_ideal(basis)
    report = condition_star_probe(curve)
    print(f"double plane: {'yes' if report.double_plane else 'no'}")
    if report.z_degree is not None:
        print(f"deg Z = {report.z_degree} (expected {report.expected})")
    if report.note:
        print(report.note)
    return EXIT_OK if report.ok else EXIT_PIPELINE


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit EXIT_INVALID, not argparse's
    2, which names the boundary branch here; its subparsers are of this
    class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser():
    parser = _Parser(
        prog="extremalcurves",
        description="Degenerate space curves to extremal curves and certify "
                    "the limits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_char(p):
        p.add_argument("--char", type=int, default=None,
                       help="coefficient characteristic: a prime, or 0 for "
                            "rationals (default: file header, else "
                            f"{DEFAULT_MODULUS})")

    p = sub.add_parser("analyze", help="degree/genus/invariants of an ideal file")
    p.add_argument("path")
    add_char(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("specialize", help="run the degeneration pipeline")
    p.add_argument("path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--retries", type=int, default=5)
    p.add_argument("--json", default=None, help="write a JSON certificate")
    add_char(p)
    p.set_defaults(func=cmd_specialize)

    p = sub.add_parser("verify-extremal",
                       help="check the four-generator extremal shape")
    p.add_argument("path")
    p.add_argument("d", type=int)
    p.add_argument("g", type=int)
    add_char(p)
    p.set_defaults(func=cmd_verify_extremal)

    p = sub.add_parser("rho", help="table of the sharp Rao bound")
    p.add_argument("d", type=int)
    p.add_argument("g", type=int)
    p.add_argument("--range", default=None, metavar="LO..HI")
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("demo", help="materialize a named fixture curve")
    p.add_argument("name")
    p.add_argument("--specialize", action="store_true",
                   help="chain into the degeneration pipeline")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--retries", type=int, default=5)
    p.add_argument("--json", default=None)
    add_char(p)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("probe", help="projection probe from (1,0,0,0)")
    p.add_argument("path")
    add_char(p)
    p.set_defaults(func=cmd_probe)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
