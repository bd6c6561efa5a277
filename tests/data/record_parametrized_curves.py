"""Record the curve ideals that tests/test_curves.py holds
`from_parametrization` to, term for term, over GF(32003).

Each case is four binary forms, stored as coefficient lists c_0..c_m of
sum(c_i * z^(m-i) * w^i); the record keeps the degree and genus computed
and the generators of the curve ideal, each a list of
[[x, y, z, w exponents], coefficient] terms in the ring's order.  Run
from the repository root:

    PYTHONPATH=src python tests/data/record_parametrized_curves.py

and commit tests/data/parametrized_curves.json only when a change of
output is intended.
"""

import json
import random
import sys
from pathlib import Path

from extremalcurves import BinaryForm, PrimeField, from_parametrization

RECORD = Path("tests/data/parametrized_curves.json")


def cases(field):
    """(name, forms) of every recorded parametrization."""
    out = []
    for d in range(1, 9):
        rng = random.Random(d)
        out.append((f"random-{d}",
                    [BinaryForm.random(field, d, rng) for _ in range(4)]))
    out.append(("twisted-cubic",
                [BinaryForm.monomial(field, 3, k) for k in range(4)]))
    out.append(("rational-quartic",
                [BinaryForm.monomial(field, 4, k) for k in (0, 1, 3, 4)]))
    # (s^3, s^2 t, t^3, s^3 + t^3): the cuspidal cubic y^3 = x^2 z in the
    # plane w = x + z
    out.append(("cuspidal-cubic",
                [BinaryForm.monomial(field, 3, 0),
                 BinaryForm.monomial(field, 3, 1),
                 BinaryForm.monomial(field, 3, 3),
                 BinaryForm(field, (1, 0, 0, 1))]))
    return out


def record():
    field = PrimeField()
    records = []
    for name, forms in cases(field):
        curve = from_parametrization(field, forms)
        records.append({
            "name": name,
            "forms": [list(f.coeffs) for f in forms],
            "degree": curve.degree,
            "genus": curve.genus,
            "generators": [[[list(e[:4]), c] for e, c in g.terms]
                           for g in curve.ideal.generators],
        })
    return {"characteristic": field.characteristic, "cases": records}


if __name__ == "__main__":
    text = json.dumps(record(), indent=1) + "\n"
    RECORD.write_text(text, encoding="utf-8")
    print(f"wrote {RECORD} ({len(text)} bytes)", file=sys.stderr)
