#!/usr/bin/env python3
"""Compare two sets of benchmark records against BENCHMARK.json bounds.

    python3 perfbench/run.py --workload paper --seed 7 --out base1.json
    ...
    python3 perfbench/compare.py --base base*.json --new new*.json

Each file holds the records that run.py --out writes (one JSON object
per line). Records are grouped by workload; for every end-to-end
metric the medians of the two sides are compared against the metric's
bound. Results from hosts with a different nproc or build type are
refused: a speedup measured across them is not a speedup.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave the source tree as checked out

import benchstats as bs  # noqa: E402


def load(paths):
    records = []
    for p in paths:
        for line in Path(p).read_text().splitlines():
            if line.strip():
                records.append(json.loads(line))
    return records


def host_key(rec):
    return rec["host"]["nproc"], rec["host"]["build_type"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("compare: no records", file=sys.stderr)
        return 2
    hosts = {host_key(r) for r in base + new}
    if len(hosts) != 1:
        print("compare: refusing to compare results from different hosts "
              "(nproc, build_type): " + ", ".join(map(str, sorted(hosts))),
              file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    nproc, build_type = hosts.pop()
    print(f"host: nproc={nproc} build_type={build_type}")
    worse = 0
    for w in sorted({r["workload"] for r in base + new}):
        b = [r for r in base if r["workload"] == w and r["trace"] == 0]
        n = [r for r in new if r["workload"] == w and r["trace"] == 0]
        if not b or not n:
            continue
        print(f"{w}: {len(b)} base runs, {len(n)} new runs")
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in b]
            nv = [r["metrics"][name]["value"] for r in n]
            bm, nm = bs.median(bv), bs.median(nv)
            change = (nm - bm) / bm if bm else 0.0
            loss = change if m["better"] == "lower" else -change
            verdict = "ok"
            if loss > m["bound"]:
                verdict = "WORSE"
                worse += 1
            print(f"  {name:<20}{bm:>12.6g} -> {nm:<12.6g}{m['unit']:<4}"
                  f"{100 * change:+7.1f}%  bound {100 * m['bound']:.0f}%"
                  f"  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
