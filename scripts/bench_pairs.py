"""Before/after benchmark pairs: the evidence file for a performance change.

Usage, from the root of a checkout of the change:

    python3 scripts/bench_pairs.py --parent <checkout> --change <checkout> --pr <n>

Runs ``perfbench/run.py`` with ``--trace 0`` in the two checkouts as ten
alternating pairs per workload of ``BENCHMARK.json``: pair ``i`` uses seed
``FIRST_SEED + i`` on both sides, and the parent runs first in even pairs
and second in odd ones, so a drift of the machine's speed falls on both
sides alike.  The run length is ``run_seconds`` from ``BENCHMARK.json``.
Writes ``BENCH_<n>.json`` at the root of this checkout with every run and,
per workload and end-to-end metric, each side's median, quartiles and
spread (quartile distance over the median), the ratio of the medians, and
the pairs each side won.  ``within_bound`` says whether the change's
median is no worse than the parent's by more than the metric's bound; it
is null (unresolved) when either side's spread is wider than the bound,
unless every change run beats every parent run.  A gain is ``claimable``
when the change wins at least nine tenths of the pairs, the medians differ
by more than the parent's quartile distance and the change failed no more
operations than the parent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # a gain is claimed only when the change wins nine tenths of them
FIRST_SEED = 1000
MEASURED = ("src", "perfbench", "BENCHMARK.json")  # what source_sha256 covers


def source_sha256(checkout):
    """One hash over the package sources, the benchmark and its spec: the code that was measured."""
    digest = hashlib.sha256()
    for name in MEASURED:
        top = checkout / name
        paths = [top] if top.is_file() else sorted(top.rglob("*.py"))
        for path in paths:
            digest.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_once(checkout, workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def summarize(runs, metrics):
    """Per-metric summary of a list of ``{"parent": result, "change": result}`` pairs."""
    failed = {side: sum(pair[side]["failed"] for pair in runs) for side in ("parent", "change")}
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [pair["parent"]["metrics"][name]["value"] for pair in runs]
        change = [pair["change"]["metrics"][name]["value"] for pair in runs]
        change_wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        parent_wins = sum((p > c) if higher else (p < c) for p, c in zip(parent, change))
        before, after = quartiles(parent), quartiles(change)
        ratio = after["median"] / before["median"] if before["median"] else None
        worse_by = None if ratio is None else (1 - ratio if higher else ratio - 1)
        gain = after["median"] - before["median"] if higher else before["median"] - after["median"]
        separated = min(change) > max(parent) if higher else max(change) < min(parent)
        spreads = [side["spread"] for side in (before, after)]
        if not separated and any(s is None or s > metric["bound"] for s in spreads):
            within_bound = None
        else:
            within_bound = worse_by is not None and worse_by <= metric["bound"]
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": before,
            "change": after,
            "ratio": ratio,
            "change_wins": change_wins,
            "parent_wins": parent_wins,
            "pairs": len(runs),
            "within_bound": within_bound,
            "claimable": (change_wins >= 0.9 * len(runs) and gain > before["q3"] - before["q1"]
                          and failed["change"] <= failed["parent"]),
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--pr", required=True, type=int, help="names the output BENCH_<pr>.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    report = {
        "pr": args.pr,
        "command": spec["command"] + ["--workload", "<w>", "--seed", "<s>",
                                      "--seconds", str(seconds), "--trace", "0"],
        "python": platform.python_version(),
        "source_sha256": {side: source_sha256(path) for side, path in sides.items()},
        "pairs": PAIRS,
        "first_seed": FIRST_SEED,
        "workloads": {},
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for i in range(PAIRS):
            seed = FIRST_SEED + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, seed, seconds)
            runs.append(pair)
            print(f"{workload} pair {i + 1}/{PAIRS}: items_per_s parent "
                  f"{pair['parent']['metrics']['items_per_s']['value']:.4g}, change "
                  f"{pair['change']['metrics']['items_per_s']['value']:.4g}", file=sys.stderr, flush=True)
        report["workloads"][workload] = {
            "summary": summarize(runs, spec["end_to_end"]),
            "failed": {side: sum(p[side]["failed"] for p in runs) for side in sides},
            "attempted": {side: sum(p[side]["attempted"] for p in runs) for side in sides},
            "all_correct": all(p[side]["correct"] for p in runs for side in sides),
            "runs": runs,
        }
        # rewritten after each workload, so a later failure keeps the earlier pairs
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {workload} to {out.name}", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
