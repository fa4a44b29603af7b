"""Run one workload of the thermoact benchmark and print its metrics.

    python3 perfbench/run.py --workload single-point --seed 1 --seconds 20 --trace 0

From the root of a checkout.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it say the same for a reader.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones
from a separate traced run.  The program is imported from ``src/`` of
the checkout; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 7
# The child prints the time at which its first point is solved.
SETUP_CODE = ("import time, thermoact as ta; ta.simulate(ta.default_spec()); "
              "print(time.perf_counter())")
# One caller and no extra threads, here and in every child process: the
# BLAS library would otherwise start a thread per core, and on a 2-core
# box their start-up and spinning time the scheduler, not the program.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def fatal(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not (SRC / "thermoact" / "__init__.py").is_file():
        fatal(f"no thermoact package under {SRC}")
    os.environ.update(ONE_THREAD)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import thermoact
    if Path(thermoact.__file__).resolve().parent != SRC / "thermoact":
        fatal(f"imported thermoact from {thermoact.__file__}, not {SRC}")


def pin_to_one_core():
    """Run this process and its children on one core, the last the
    process may use (interrupts tend to land on the first), so that the
    speed samples measure the core the ops run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_ops(wl, count, latencies, spans=None):
    """Run the workload's next ``count`` ops back to back, one caller,
    and append each op's latency (ns).  Only ``wl.run`` is inside the
    clock."""
    clock = time.perf_counter_ns
    for i in range(wl.ops, wl.ops + count):
        x = wl.input(i)
        if spans is not None:
            spans.op = i
        start = clock()
        try:
            out = wl.run(x)
        except Exception as exc:  # a failed op is recorded, not fatal
            out = exc
        latencies.append(clock() - start)
        if spans is not None:
            spans.op = -1
        wl.keep(i, x, out)
    wl.ops += count


def timed_phase(wl, seconds):
    """Ops until ``seconds`` have passed and the workload's cycle of op
    kinds is whole, with a speed sample before the first op and after
    each block of about ``calibrate.EVERY_S`` of ops.  Returns the op
    latencies (ns) and, for each op, the factor to the reference speed."""
    latencies, blocks = array("q"), []
    deadline = time.perf_counter() + seconds

    def going():
        return time.perf_counter() < deadline or wl.ops % wl.cycle

    samples = [calibrate.sample()]
    while going():
        first = len(latencies)
        block_end = time.perf_counter() + calibrate.EVERY_S
        while time.perf_counter() < block_end and going():
            run_ops(wl, 1, latencies)
        samples.append(calibrate.sample())
        blocks.append(len(latencies) - first)
    scales = array("d")
    for count, factor in zip(blocks, calibrate.scales(samples)):
        scales.extend([factor] * count)
    return latencies, scales


def warm_up(make):
    calibrate.sample()
    wl = make(workloads.STREAM_WARM)
    run_ops(wl, wl.warm_ops, array("q"))


def spawn_seconds(argv, runs, workdir):
    env = workloads.child_env(SRC)
    out = []
    for _ in range(runs):
        code, seconds, _ = workloads.spawn(argv, workdir, env)
        if code != 0:
            fatal(f"{' '.join(argv)} exited {code}")
        out.append(seconds)
    return out


def setup_seconds(workdir):
    """Median time, at the reference speed, from the start of a fresh
    interpreter until it has imported thermoact and solved one point,
    after one unmeasured run fills the bytecode cache."""
    env = workloads.child_env(SRC)

    def once():
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=workdir,
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            fatal(f"set-up run exited {proc.returncode}: {proc.stderr}")
        return float(proc.stdout) - start

    once()
    times, samples = [], [calibrate.sample()]
    for _ in range(SETUP_RUNS):
        times.append(once())
        samples.append(calibrate.sample())
    return statistics.median(t * f for t, f in zip(times, calibrate.scales(samples)))


def import_seconds(stderr, prefix):
    """Cumulative -X importtime seconds of the outermost modules named
    ``prefix`` or ``prefix.*`` (children print before their parents)."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, field = line.split("|")
        name = field.rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    total = 0
    open_parents: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):
        while open_parents and open_parents[-1][0] >= depth:
            open_parents.pop()
        mine = name == prefix or name.startswith(prefix + ".")
        if mine and not any(p == prefix or p.startswith(prefix + ".")
                            for _, p in open_parents):
            total += cumulative
        open_parents.append((depth, name))
    return total / 1e6


def cli_layer(workdir, runs=3):
    """The cli layer's floor: a bare interpreter, and the import of
    thermoact.cli and of scipy within it."""
    env = workloads.child_env(SRC)
    imports, scipy = [], []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import thermoact.cli"], cwd=workdir, env=env,
                              capture_output=True, text=True, check=True)
        imports.append(import_seconds(proc.stderr, "thermoact"))
        scipy.append(import_seconds(proc.stderr, "scipy"))
    bare = spawn_seconds([sys.executable, "-c", "pass"], runs, workdir)
    return {"cli.interpreter_s": statistics.median(bare),
            "cli.import_s": statistics.median(imports),
            "cli.import_scipy_s": statistics.median(scipy)}


def summarize(latencies, points, tail_pct, tail_group=None):
    """End-to-end figures of one timed phase, given in op order, and the
    size of its tail groups, how many ops lie beyond the tail percentile
    (nearest rank) in each, and how many groups there are.

    The tail is taken in each group of ``tail_group`` consecutive ops
    (the whole phase if None), and ``op_tail_ms`` is the tenth
    percentile of the groups' tails.  A burst of load from other tenants
    of the host falls in some groups; a program that makes some of its
    ops slow makes them slow in every group."""
    ns = sorted(latencies)
    n = len(ns)
    busy = sum(ns) / 1e9
    size = min(tail_group or n, n)
    rank = max(math.ceil(tail_pct / 100.0 * size) - 1, 0)
    tails = sorted(sorted(latencies[k:k + size])[rank]
                   for k in range(0, n - size + 1, size))
    figures = {"ops_per_s": n / busy,
               "op_p50_ms": statistics.median(ns) / 1e6,
               "op_tail_ms": tails[len(tails) // 10] / 1e6,
               "points_per_s": points / busy}
    return figures, (size, size - rank - 1, len(tails))


def untraced(args, make, workdir):
    """The end-to-end figures, each op's time scaled to the reference
    speed by the samples around its block.  The notes also give the
    figures as measured."""
    setup = setup_seconds(workdir)
    warm_up(make)
    wl = make(workloads.STREAM_TIMED)
    latencies, scales = timed_phase(wl, args.seconds)
    rss = wl.peak_rss_mb()
    wl.check()
    scaled = [t * f for t, f in zip(latencies, scales)]
    metrics, (size, beyond, groups) = summarize(scaled, wl.points, wl.tail_pct,
                                                wl.tail_group)
    measured = summarize(latencies, wl.points, wl.tail_pct, wl.tail_group)[0]
    metrics.update(setup_s=setup, peak_rss_mb=rss)
    notes = [f"op_tail_ms is p{wl.tail_pct:g} of {size} ops, {beyond} beyond it, "
             f"tenth percentile of {groups} group(s) in {len(latencies)} ops",
             f"operating points solved: {wl.points}",
             f"speed factor to the reference: median {statistics.median(scales):.4g}, "
             f"{min(scales):.4g} to {max(scales):.4g}",
             "as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in measured.items())]
    return metrics, [wl], notes


def traced(args, make, workdir):
    """Blocks of untraced and traced ops alternate for the whole run, so
    that both see the same machine and the difference of their medians
    is the tracing overhead.  The traced ops run on their own input
    stream, at least ``count_ops`` of them."""
    warm_up(make)
    plain = make(workloads.STREAM_TIMED)
    wl = make(workloads.STREAM_TRACED, traced=True)
    spans = tracer.Tracer()
    untraced_ns, traced_ns = array("q"), array("q")
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or wl.ops < wl.count_ops \
            or wl.ops % wl.cycle:
        run_ops(plain, wl.trace_block, untraced_ns)
        spans.install()
        try:
            run_ops(wl, wl.trace_block, traced_ns, spans)
        finally:
            spans.uninstall()
    for w in (plain, wl):
        w.check()
    base = summarize(untraced_ns, plain.points, plain.tail_pct)[0]
    figures = summarize(traced_ns, wl.points, wl.tail_pct)[0]
    n = len(traced_ns)
    table = tracer.SpanTable([(spans.names, spans.columns()), *wl.span_parts])
    metrics = tracer.layer_metrics(table, n, wl.count_ops)
    metrics.update(cli_layer(workdir))
    metrics["trace.overhead_pct"] = \
        100.0 * (figures["op_p50_ms"] / base["op_p50_ms"] - 1.0)
    path = OUT / f"spans-{args.workload}-{args.seed}.npz"
    tracer.save(path, table.names, table.cols)
    notes = [f"traced {n} ops, {len(table.dur)} spans -> {path.relative_to(ROOT)}",
             f"counts over the first {wl.count_ops} traced ops",
             f"op_p50_ms untraced {base['op_p50_ms']:.6g}, "
             f"traced {figures['op_p50_ms']:.6g}"]
    return metrics, [plain, wl], notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        fatal(f"missing {bench_file}")
    bench = json.loads(bench_file.read_text())
    import_program()
    pin_to_one_core()
    global calibrate, tracer, workloads
    import calibrate
    import tracer
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fatal(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}")
    if not args.seconds > 0:
        fatal("--seconds must be positive")
    cls = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir()

    def make(stream, traced=False):
        return cls(args.seed, stream, workdir, SRC, traced=traced)

    try:
        run = traced if args.trace else untraced
        metrics, phases, notes = run(args, make, workdir)
        known_total, known = phases[0].known_defects()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for w in phases for f in w.failures]
    attempted = sum(w.ops + w.checked for w in phases) + known_total
    listed = bench["per_layer" if args.trace else "end_to_end"]
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in listed}
    for line in notes:
        print(f"# {line}")
    for name, entry in result.items():
        print(f"{args.workload:>14} {name:<32} {entry['value']:>14.6g} {entry['unit']}")
    for failure in failures:
        print(f"FAILED {failure}")
    if known_total:
        print(f"# known defects: {len(known)} of {known_total} +inf configs")
        for name in known:
            print(f"KNOWN-DEFECT {name}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
