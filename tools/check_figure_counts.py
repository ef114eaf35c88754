#!/usr/bin/env python3
"""Golden check of the paper-figure operation counts.

Runs the count-only paper benches with ``--full`` and compares every
numeric row they print with the matching section of the committed
results/full_bench.txt:

* ``bench_table1_scaling``    -- Table 1: per-phase multiplication counts
  and bit costs;
* ``bench_fig2_5_multcounts`` -- Figures 2-5: predicted vs observed
  multiplication counts;
* ``bench_fig6_7_bisection``  -- Figures 6-7: bisection evaluations and
  bit complexity.

These rows are deterministic operation counts, not timings, so any
difference means the arithmetic the pipeline performs has changed.  A
numeric row is a line whose first non-blank character is a digit; the
section of a bench starts at its ``=== <bench> --full ===`` header and
ends at the next header.

Usage: python3 tools/check_figure_counts.py BENCH_DIR [full_bench.txt]
BENCH_DIR holds the built bench binaries (build/bench).  Exit status 0
when every row matches; 1 otherwise, with a line per differing row.  No
dependencies beyond the standard library.
"""

import pathlib
import re
import subprocess
import sys

BENCHES = [
    "bench_table1_scaling",
    "bench_fig2_5_multcounts",
    "bench_fig6_7_bisection",
]

HEADER_RE = re.compile(r"^=== (\S+) --full ===$")
NUMERIC_RE = re.compile(r"^\s*\d")


def golden_sections(path: pathlib.Path) -> dict:
    """Numeric rows of every bench section of the results file."""
    sections = {}
    current = None
    for line in path.read_text(encoding="utf-8").splitlines():
        m = HEADER_RE.match(line)
        if m:
            current = sections.setdefault(m.group(1), [])
        elif current is not None and NUMERIC_RE.match(line):
            current.append(line.rstrip())
    return sections


def measured_rows(binary: pathlib.Path) -> list:
    proc = subprocess.run([str(binary), "--full"], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=True)
    return [line.rstrip() for line in proc.stdout.splitlines()
            if NUMERIC_RE.match(line)]


def compare(name: str, want: list, got: list) -> list:
    errors = []
    for i in range(max(len(want), len(got))):
        w = want[i] if i < len(want) else "<missing>"
        g = got[i] if i < len(got) else "<missing>"
        if w != g:
            errors.append(f"{name} row {i + 1}:\n  golden:   {w}\n"
                          f"  measured: {g}")
    return errors


def main() -> int:
    if len(sys.argv) < 2:
        print("usage: check_figure_counts.py BENCH_DIR [full_bench.txt]",
              file=sys.stderr)
        return 2
    bench_dir = pathlib.Path(sys.argv[1])
    root = pathlib.Path(__file__).resolve().parent.parent
    results = pathlib.Path(sys.argv[2]) if len(sys.argv) > 2 else (
        root / "results" / "full_bench.txt")
    golden = golden_sections(results)
    errors = []
    rows = 0
    for name in BENCHES:
        want = golden.get(name)
        if not want:
            errors.append(f"{name}: no numeric rows in {results}")
            continue
        got = measured_rows(bench_dir / name)
        rows += len(want)
        errors.extend(compare(name, want, got))
    for e in errors:
        print(e, file=sys.stderr)
    print(f"check_figure_counts: {len(BENCHES)} benches, {rows} golden rows, "
          f"{len(errors)} difference(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
