#!/usr/bin/env python3
"""Benchmark of harqfbl, run from the root of a checkout.

    python3 harqbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 harqbench/run.py --smoke

A run times the set-up of the workload in fresh interpreters, then repeats
whole passes of the workload's fixed unit of work in this process until S
seconds have gone, checks the first pass against the reference
computations, and prints one JSON object as the last line of its output.
With --trace 0 it reports wall_s (median pass), setup_s (median set-up) and
peak_rss_mb; with --trace 1 the per-layer metrics of `tracing`.  harqfbl is
imported from src/ of the checkout and from nowhere else.  --smoke runs
every workload once at reduced size with all checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5


def import_program():
    """Import harqfbl from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import harqfbl
    except ImportError as exc:
        raise SystemExit(f"harqbench: cannot import harqfbl from {SRC}: {exc}")
    if Path(harqfbl.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"harqbench: harqfbl came from {harqfbl.__file__}, not {SRC}")
    from workloads import load_api

    return load_api()


def git_sha() -> str | None:
    """HEAD of the checkout's .git directory, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"git_sha": git_sha(), "nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import harqfbl and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls the child every 50 ms and
        # the times come out in 50 ms steps
        code = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise SystemExit(f"harqbench: set-up probe exited with {code}")
    return times


def run_checks(workload, digest) -> list[str]:
    try:
        return workload.check(digest)
    except Exception:  # a check that crashes marks the run incorrect
        return ["check raised:\n" + traceback.format_exc()]


def measure(args) -> int:
    from tracing import Tracer, layer_shares, median_metrics, missing_metrics, pass_metrics
    from workloads import WORKLOADS, Ops

    setup = setup_seconds(args.workload, args.seed)
    api = import_program()
    workload = WORKLOADS[args.workload](api, args.seed, smoke=False)
    tracer = Tracer() if args.trace else None
    ops = Ops()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    walls, per_pass, digest = [], [], None
    try:
        with tracer.installed(api) if tracer else nullcontext():
            start = time.perf_counter()
            while not walls or time.perf_counter() - start < args.seconds:
                pass_dir = scratch / f"pass{len(walls)}"
                pass_dir.mkdir()
                first_span = len(tracer.spans) if tracer else 0
                counts_before = tracer.counts.copy() if tracer else None
                t0 = time.perf_counter()
                with tracer.span(f"bench.{args.workload}") if tracer else nullcontext():
                    result = workload.run_pass(pass_dir, ops)
                walls.append(time.perf_counter() - t0)
                if tracer:
                    per_pass.append(pass_metrics(tracer, first_span, len(tracer.spans),
                                                 tracer.counts - counts_before))
                if digest is None:
                    digest = workload.digest(result)
                else:
                    shutil.rmtree(pass_dir)
                del result
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        t0 = time.perf_counter()
        failures = run_checks(workload, digest)
        check_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if tracer:
        metrics = median_metrics(per_pass)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": environment(), "pass_wall_s": walls, "setup_s": setup, "peak_rss_mb": peak_rss_mb,
        "check_s": check_s, "check_failures": failures, "operation_errors": ops.errors, "metrics": metrics,
    }
    if tracer:
        record["missing_functions"] = tracer.missing
        record["missing_metrics"] = missing_metrics(tracer)
        record["layer_self_s"] = layer_shares(tracer, 0, len(tracer.spans))
        record["spans"] = tracer.spans
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record) + "\n")

    print("env " + json.dumps(record["env"]))
    print(f"passes {len(walls)}: " + " ".join(f"{w:.4f}" for w in walls) + f"; checks {check_s:.2f} s")
    if tracer:
        total = sum(record["layer_self_s"].values())
        print("layer self-time shares " + json.dumps(
            {k: round(v / total, 4) for k, v in sorted(record["layer_self_s"].items())}))
        if record["missing_metrics"]:
            print("missing " + json.dumps({"functions": tracer.missing,
                                           "metrics": record["missing_metrics"]}))
    for text in failures + ops.errors:
        print(text, file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


def smoke() -> int:
    """Every workload once at reduced size, with all of its checks."""
    from workloads import WORKLOADS, Ops

    api = import_program()
    OUT.mkdir(exist_ok=True)
    ok = True
    for name, cls in WORKLOADS.items():
        ops = Ops()
        t0 = time.perf_counter()
        workload = cls(api, 1, smoke=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            failures = run_checks(workload, workload.digest(workload.run_pass(Path(tmp), ops)))
        ok = ok and not failures and not ops.failed
        print(f"{name}: {'ok' if not failures and not ops.failed else 'FAILED'} "
              f"({ops.attempted} operations, {ops.failed} failed, {time.perf_counter() - t0:.1f} s)")
        for text in failures + ops.errors:
            print("  " + text)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced-size run of every workload's checks")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        WORKLOADS[args.workload](import_program(), args.seed, smoke=False)
        return 0
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
