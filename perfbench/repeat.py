"""Run every workload in sets and report each metric's median and
quartiles per workload, with the facts of the machine.

    python3 perfbench/repeat.py                    # one set: every workload
    python3 perfbench/repeat.py --sets 10 --out perfbench/baseline.json
    python3 perfbench/repeat.py --trace 1          # per-layer metrics

Set k uses seed ``--seed + k`` and runs the workloads of BENCHMARK.json,
each for ``run_seconds``, in order when k is even and in reverse
when it is odd.  Every run's outputs are checked by
run.py; the report gives each workload's fail_ratio, in which
cli-session also counts the known +inf config defects.  A spread is the
distance between the quartiles as a share of the median, set against
the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine_facts():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, "
         "scipy.__version__)"], capture_output=True, text=True).stdout.split()
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": versions[0] if versions else "unknown",
            "scipy": versions[1] if len(versions) > 1 else "unknown",
            "git_sha": sha or "unknown"}


def run_once(workload, seed, seconds, trace):
    """One run.py run: its JSON result plus the notes it printed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(lines[-1])
    known = re.search(r"known defects: (\d+) of", proc.stdout)
    tail = re.search(r"op_tail_ms is p([\d.]+) of (\d+) ops, (\d+) beyond", proc.stdout)
    result["known_defects"] = int(known.group(1)) if known else 0
    result["tail"] = [float(tail.group(1)), int(tail.group(2)),
                      int(tail.group(3))] if tail else None
    result["failures"] = [ln for ln in lines if ln.startswith(("FAILED", "KNOWN-DEFECT"))]
    return result


def summary(values):
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the report as JSON here")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    listed = bench["per_layer" if args.trace else "end_to_end"]

    runs = {w: [] for w in names}
    for k in range(args.sets):
        for w in (names if k % 2 == 0 else names[::-1]):
            runs[w].append(run_once(w, args.seed + k, seconds, args.trace))
            print(f"set {k + 1}/{args.sets} {w}: done", file=sys.stderr, flush=True)

    facts = machine_facts()
    report = {"facts": facts, "sets": args.sets, "first_seed": args.seed,
              "seconds": seconds, "trace": args.trace, "workloads": {}}
    print("  ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"{args.sets} set(s) of {seconds:g} s from seed {args.seed}")
    for w in names:
        results = runs[w]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] + r["known_defects"] for r in results)
        entry = {"attempted": attempted, "failed": failed,
                 "fail_ratio": failed / attempted,
                 "tail": [r["tail"] for r in results], "metrics": {}}
        print(f"\n{w}: fail_ratio {failed}/{attempted} = {failed / attempted:.4g}")
        if results[0]["tail"]:
            pct, ops, beyond = zip(*entry["tail"])
            print(f"  op_tail_ms is p{pct[0]:g}; {min(ops)}-{max(ops)} ops per group, "
                  f"at least {min(beyond)} beyond it")
        for m in listed:
            stats = summary([r["metrics"][m["name"]]["value"] for r in results])
            stats["unit"] = m["unit"]
            entry["metrics"][m["name"]] = stats
            bound = m.get("bound")
            flag = ""
            if bound is not None and args.sets > 1:
                flag = ("  OVER BOUND" if stats["spread"] > bound else
                        "  over a third of bound" if stats["spread"] > bound / 3 else "")
            print(f"  {m['name']:<32} {stats['median']:>14.6g} {m['unit']:<6}"
                  f" q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g}"
                  f" spread {stats['spread']:.3f}"
                  + (f" (bound {bound})" if bound is not None else "") + flag)
        for line in sorted({f for r in results for f in r["failures"]}):
            print(f"  {line}")
        report["workloads"][w] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
