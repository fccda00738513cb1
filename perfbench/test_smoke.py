"""Smoke test of the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
"""
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_tiny(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / SPEC["command"][1]), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, key):
    done = run_tiny(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}
    for metric in SPEC[key]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert f"{metric['name']} {got['value']!r} {metric['unit']}" in lines


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_fails_the_run(workload, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(HERE))
    import bench

    original = bench.reference_scores

    def corrupted(a):
        scores, sigma = original(a)
        return 1.0 - scores, sigma

    monkeypatch.setattr(bench, "reference_scores", corrupted)
    code = bench.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                       "--trace", "0", "--tiny"], ROOT, {})
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
    error_rate = next(float(line.split()[1]) for line in lines
                      if line.startswith("error_rate "))
    assert error_rate == result["failed"] / result["attempted"] > 0.0


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_tiny(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_calibration_slices_stay_out_of_span_times(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    import hostspeed
    import tracer as tracer_mod

    clock = [0.0]

    class FakeProbe:
        """Each slice takes 1 s on a fake clock that only slices move."""
        total = 0.0

        def sample(self):
            clock[0] += 1.0
            self.total += 1.0
            return 1.0

    monkeypatch.setattr(tracer_mod, "time",
                        types.SimpleNamespace(perf_counter=lambda: clock[0]))
    tracer = tracer_mod.Tracer()
    tracer.probe = FakeProbe()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            clock[0] += 0.5
    assert tracer.probe.total == 4.0
    assert inner.duration == 0.5 and outer.duration == 0.5
    assert tracer_mod.self_times(tracer.spans) == [0.0, 0.5]
    assert inner.pre == inner.post == 1.0
    assert hostspeed.HostSpeed.local(inner) == 0.5 * hostspeed.REF_SLICE_S
