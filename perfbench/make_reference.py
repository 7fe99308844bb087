"""Regenerate perfbench/reference.json, the stored invariants of every
named-complex job, from the package in this checkout.

    python3 perfbench/make_reference.py

Run it only when a workload gains or changes a named job, on a commit
whose outputs are trusted (the test suite and ``macoh verify-paper``
pass).  Invariants do not depend on vertex labels, so one seed serves
every seed.  Random draws are not stored: they are checked against
pipeline-independent invariants instead.
"""

from __future__ import annotations

import json
import sys

from run import HERE, SRC, setup
from workloads import WORKLOADS


def main():
    sys.path.insert(0, str(SRC))
    if not (HERE / "reference.json").exists():
        (HERE / "reference.json").write_text("{}", encoding="utf-8")
    reference = {}
    for workload in WORKLOADS:
        _, jobs = setup(workload, seed=0)
        for job in jobs:
            if job.complex.startswith("random"):
                continue
            value = job.canon(job.run())
            stored = reference.setdefault(job.complex, {}).setdefault(job.kind, value)
            if stored != value:
                raise SystemExit(f"{job.name}: two workloads computed different values")
            print(f"{workload}: {job.name}", file=sys.stderr)
    lines = []
    for cname in sorted(reference):
        kinds = [f"  {json.dumps(kind)}: {json.dumps(value, separators=(',', ':'))}"
                 for kind, value in sorted(reference[cname].items())]
        lines.append(f" {json.dumps(cname)}: {{\n" + ",\n".join(kinds) + "\n }")
    text = "{\n" + ",\n".join(lines) + "\n}\n"
    (HERE / "reference.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
