"""Baseline table from the benchmark's output files.

    python3 perfbench/report.py [perfbench/out/result-*.json ...]

Reads the untraced result files that ``run.py`` writes (all of
``perfbench/out/result-*-trace0.json`` by default) and prints one
markdown row per named complex with the median over files of the mean
job time, at the reference speed of ``yardstick``, of integral H, HH
over Z, Q and F_2, and Koszul HH over Z.  An empty cell
means no workload runs that job.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

COLUMNS = (("H (Z)", "H(Z)"), ("HH (Z)", "HH(Z)"), ("HH (Q)", "HH(Q)"),
           ("HH (F2)", "HH(F2)"), ("Koszul HH (Z)", "Koszul HH(Z)"))


def baseline_table(records):
    times = {}
    for record in records:
        for job in record["jobs"].values():
            if job["mean_s"] is not None:
                times.setdefault((job["complex"], job["kind"]), []).append(job["mean_s"])
    kinds = {kind for _, kind in COLUMNS}
    complexes = sorted({c for c, kind in times
                        if kind in kinds and not c.startswith("random")},
                       key=lambda c: [int(t) if t.isdigit() else t for t in re.split(r"(\d+)", c)])
    lines = ["| complex | " + " | ".join(title for title, _ in COLUMNS) + " |",
             "|---" * (len(COLUMNS) + 1) + "|"]
    for cname in complexes:
        cells = []
        for _, kind in COLUMNS:
            samples = times.get((cname, kind))
            cells.append(f"{statistics.median(samples):.3g} s" if samples else "")
        lines.append(f"| {cname} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv):
    paths = [Path(p) for p in argv] or sorted(
        (Path(__file__).resolve().parent / "out").glob("result-*-trace0.json"))
    if not paths:
        print("error: no result files; run perfbench/run.py first", file=sys.stderr)
        return 1
    records = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    print(baseline_table(records))
    print(f"\n{len(records)} result files, seeds "
          f"{sorted({r['seed'] for r in records})}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
