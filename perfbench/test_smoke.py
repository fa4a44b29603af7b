"""Smoke test of the benchmark at its shortest run length, so that the
harness cannot rot unnoticed.  Takes a few minutes:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
COUNTS = ("model.spec_calls", "model.validate_calls", "thermomech.simulate_calls",
          "thermomech.refusals", "thermomech.oracle_dofs", "study.objective_evals",
          "study.golden_evals", "output.bytes")

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
import run  # noqa: E402


def bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0, proc.stdout
    assert out["attempted"] >= 1
    return out["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics = result(bench(workload, 0))
    assert list(metrics) == [m["name"] for m in BENCH["end_to_end"]]
    for m in BENCH["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (result(bench(workload, 1)) for _ in range(2))
    assert list(first) == [m["name"] for m in BENCH["per_layer"]]
    assert first["thermomech.simulate_calls"]["value"] > 0
    for name in COUNTS:
        assert first[name] == second[name], name


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_import_time_parser_takes_outermost_modules():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:       400 |        400 |     scipy.linalg",
        "import time:        50 |        750 |   thermoact.electrothermal",
        "import time:        10 |        760 | thermoact",
        "import time:        20 |         20 | thermoact.cli",
    ])
    assert run.import_seconds(stderr, "scipy") == pytest.approx(700e-6)
    assert run.import_seconds(stderr, "thermoact") == pytest.approx(780e-6)


def test_tail_leaves_out_a_burst_in_a_few_groups():
    steady = [100, 100, 100, 100, 100, 100, 100, 100, 100, 200]
    burst = [300] * 10
    latencies = steady * 9 + burst
    figures, (size, beyond, groups) = run.summarize(latencies, 100, 90.0, 10)
    assert (size, beyond, groups) == (10, 1, 10)
    assert figures["op_tail_ms"] == pytest.approx(100e-6)
    # a program whose ops are slow in every group keeps its tail
    figures = run.summarize(steady * 10, 100, 95.0, 10)[0]
    assert figures["op_tail_ms"] == pytest.approx(200e-6)


def test_one_odd_speed_sample_does_not_rescale_a_block():
    import calibrate

    samples = [calibrate.REF_S] * 3 + [calibrate.REF_S / 10] + [calibrate.REF_S] * 3
    assert calibrate.scales(samples) == pytest.approx([1.0] * 6)
    slower = calibrate.scales([2 * calibrate.REF_S] * 4)
    assert slower == pytest.approx([0.5] * 3)


def test_only_pinned_inf_outcomes_are_known_defects(tmp_path, monkeypatch):
    import checks
    import workloads

    # every +inf config as pinned, except one that fails another way
    # and one unpinned key that starts to fail
    outcomes = {key: (code, f"Traceback (most recent call last):\n{raised}: x"
                      if raised else "error: x")
                for key, (code, raised) in workloads.KNOWN_INF_DEFECTS.items()}
    outcomes["geometry.gap"] = (1, "Traceback (most recent call last):\nKeyError: x")
    outcomes["geometry.cold_arm_length"] = (0, "")

    def run_main(argv):
        key = Path(argv[-1]).read_text().split("=")[0].strip()
        code, stderr = outcomes[key]
        return code, "", stderr

    monkeypatch.setattr(checks, "run_main", run_main)
    wl = workloads.CliSession(1, workloads.STREAM_TIMED, tmp_path, ROOT / "src")
    total, known = wl.known_defects()
    assert total == len(workloads.FLOAT_KEYS)
    assert len(known) == len(workloads.KNOWN_INF_DEFECTS) - 1
    assert sorted(f.split(":")[1].split(" =")[0].strip() for f in wl.failures) == \
        ["geometry.cold_arm_length", "geometry.gap"]
