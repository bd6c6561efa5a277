"""Write golden.json: the sha256 of every certificate the specialize ops
produce on the golden seed, one pass per workload.

    python3 perfbench/record_golden.py

Run it only at the commit the digests are meant to pin (the certificates
must stay byte-equal to it); run.py then checks every certificate made on
that seed against these digests.
"""

import json
import shutil
import sys

from run import GOLDEN, ROOT, Context, set_up
from workloads import BUILDERS

GOLDEN_SEED = 1


def main():
    certificates = {}
    work = ROOT / ".perfbench_work" / "golden"
    try:
        for workload in BUILDERS:
            ctx = Context(workload, GOLDEN_SEED, None)
            _, ops = set_up(ctx, work / workload)
            for name, op in ops:
                problems = op()
                if problems:
                    raise SystemExit(f"{name}: {'; '.join(problems)}")
            certificates.update(ctx.digests)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    GOLDEN.write_text(json.dumps({"seed": GOLDEN_SEED,
                                  "certificates": certificates},
                                 indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(certificates)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
