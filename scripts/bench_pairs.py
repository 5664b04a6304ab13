#!/usr/bin/env python3
"""Compare two checkouts with harqbench, in alternating seed pairs.

Automates the protocol of harqbench/README.md, "Comparing two checkouts".
For every workload and every seed 1..10, harqbench/run.py runs in the
parent checkout and in this one, one right after the other, and which side
goes first alternates from pair to pair.  The last line of each run is kept.
Each end-to-end metric of BENCHMARK.json is then summarised per side (median,
quartiles from statistics.quantiles(n=4), spread (Q3 - Q1) / median) and per
pair (in how many pairs the change beat the parent).  Three alternating
tier-1 runs per side and one traced run of each checkout per --traced
workload follow.  The result goes to one JSON file, in the layout of
BENCH_10.json.  It records which bytecode caches (src/harqfbl/__pycache__,
harqbench/__pycache__) each checkout holds, and the comparison stops before
its first run when the two sides differ.

    python3 scripts/bench_pairs.py ../parent --traced paper_artifacts \\
        --describes "what the change does" --out BENCH_14.json

The parent checkout is any directory holding the parent commit's files, for
example a `git clone` checked out at HEAD~.  Standard library only; the file
is rewritten after every pair, so an interrupted comparison keeps its runs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
PAIRS = 10  # seeds 1..10, the protocol of harqbench/README.md
TIER1_RUNS = 3  # per side, alternating
TRACED_SEED = 11  # outside the paired seeds
# a checkout holding compiled bytecode skips compiling these at start-up, which shows in setup_s
CACHES = ("src/harqfbl/__pycache__", "harqbench/__pycache__")


def bytecode_caches(parent: Path, change: Path) -> dict[str, list[str]]:
    """The CACHES each checkout holds; stops when the two sides differ, as their set-up times would."""
    found = {label: [c for c in CACHES if (checkout / c).is_dir()]
             for label, checkout in (("parent", parent), ("change", change))}
    if found["parent"] != found["change"]:
        stale = " ".join(str(checkout / c) for label, checkout in (("parent", parent), ("change", change))
                         for c in found[label])
        raise SystemExit(f"the checkouts hold different bytecode caches ({found}); remove them with\n"
                         f"    rm -rf {stale}\nand run with PYTHONDONTWRITEBYTECODE=1 so that no run writes one")
    return found


def in_turn(i: int, parent: Path, change: Path) -> tuple[tuple[str, Path], ...]:
    """Both checkouts, the parent first in even turns, so that drift of the host falls on both alike."""
    order = (("parent", parent), ("change", change))
    return order if i % 2 == 0 else order[::-1]


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One harqbench run; returns its environment line and its last line, both parsed."""
    cmd = [sys.executable, "harqbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return env, json.loads(lines[-1])


def flat(seed: int, result: dict) -> dict:
    row = {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"]}
    row.update({name: m["value"] for name, m in result["metrics"].items()})
    return row


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def side(runs: list[dict], metrics: list[dict]) -> dict:
    out: dict = {"runs": runs}
    out.update({m["name"]: summary([r[m["name"]] for r in runs]) for m in metrics})
    return out


def versus(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a, b = summary([r[name] for r in parent]), summary([r[name] for r in change])
        ratio = b["median"] / a["median"]
        wins = sum((y < x) if lower else (y > x) for x, y in zip((r[name] for r in parent),
                                                                  (r[name] for r in change)))
        worse = ratio - 1.0 if lower else 1.0 - ratio
        out[name] = {
            "parent_median": a["median"],
            "change_median": b["median"],
            "change_over_parent": ratio,
            f"change_wins_of_{len(change)}_pairs": wins,
            "bound": m["bound"],
            "regression": worse > m["bound"],
            "resolved": abs(ratio - 1.0) > max(a["spread"], b["spread"]),
        }
    for label, runs in (("parent", parent), ("change", change)):
        out[f"{label}_failed_share"] = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
    return out


def tier1(checkout: Path) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=checkout, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": "src"})
    wall = time.perf_counter() - t0
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|error)", last)}
    failed = sorted(line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED "))
    return {"wall_s": round(wall, 2), **counts, "failed_tests": failed}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--traced", nargs="*", choices=names, default=[], help="workloads to trace once")
    parser.add_argument("--describes", default="", help="one line on the change being measured")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), ROOT
    metrics = bench["end_to_end"]
    record: dict = {
        "commit": None,
        "describes": args.describes,
        "host": {},
        "protocol": (f"{Path(sys.executable).name} harqbench/run.py --workload W --seed S --seconds "
                     f"{args.seconds:g} --trace 0, seeds 1-{PAIRS}, run in pairs with the parent "
                     "checkout, alternating which side goes first (harqbench/README.md, 'Comparing two "
                     "checkouts'); last line of each run kept; scripts/bench_pairs.py"),
        "bytecode_caches": bytecode_caches(parent, change),
        "workloads": {},
        "parent_workloads": {},
        "versus_parent": {},
    }

    def save() -> None:
        args.out.write_text(json.dumps(record, indent=1) + "\n")

    turn = 0
    for workload in args.workloads:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for seed in range(1, PAIRS + 1):
            for label, checkout in in_turn(turn, parent, change):
                env, result = run_bench(checkout, workload, seed, args.seconds, 0)
                runs[label].append(flat(seed, result))
                if label == "change":
                    record["host"] = {key: env[key] for key in ("nproc", "python", "numpy", "scipy") if key in env}
                print(f"{workload} seed {seed} {label}: wall_s {result['metrics']['wall_s']['value']:.4f}",
                      file=sys.stderr)
            turn += 1
            if seed >= 2:
                record["workloads"][workload] = side(runs["change"], metrics)
                record["parent_workloads"][workload] = side(runs["parent"], metrics)
                record["versus_parent"][workload] = versus(runs["parent"], runs["change"], metrics)
                save()

    sides: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(TIER1_RUNS):
        for label, checkout in in_turn(i, parent, change):
            sides[label].append(tier1(checkout))
            print(f"tier-1 {label}: {sides[label][-1]['wall_s']} s", file=sys.stderr)
    record["tier1"] = {
        "command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
        "note": "wall time of the whole pytest process, runs alternating between the two checkouts",
        **{label: {"runs": rs, "wall_s_median": statistics.median(r["wall_s"] for r in rs)}
           for label, rs in sides.items()},
    }
    save()

    for workload in args.traced:
        for prefix, checkout in (("", change), ("parent_", parent)):
            run_bench(checkout, workload, TRACED_SEED, args.seconds, 1)
            rec = json.loads((checkout / "harqbench" / "out" / f"{workload}-seed{TRACED_SEED}-trace1.json").read_text())
            record[f"{prefix}traced_{workload}"] = {
                "seed": TRACED_SEED,
                "seconds": args.seconds,
                "passes": len(rec["pass_wall_s"]),
                "metrics": rec["metrics"],
                "layer_self_s": rec["layer_self_s"],
            }
            save()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
