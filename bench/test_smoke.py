"""Smoke test of the benchmark at tiny sizes.

    python -m pytest bench/test_smoke.py

Every workload runs untraced and traced; each run must report exactly the
metrics BENCHMARK.json lists and pass every correctness check.
"""

import json
import os

import pytest

import run
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)

TINY = {
    "oracle-samples": lambda: workloads.OracleSamples(samples=3),
    "oracle-channels": workloads.OracleChannels,
    "network-report": lambda: workloads.NetworkReport(ghz_n=3),
    "zkp-transcript": lambda: workloads.ZkpTranscript(rounds=2000),
}


def test_every_listed_workload_has_a_tiny_instance():
    assert sorted(TINY) == sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_reports_every_metric_and_passes_its_checks(name, trace, capsys):
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv, workload=TINY[name]()) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    named = json.loads(lines[-2])["named"]
    assert named["fail_frac"]["value"] == 0.0
    if not trace:
        assert {"op_ms", "cal_ms", "setup_s"} <= set(named)
        assert all(v["value"] > 0 for v in named.values() if v["unit"] != "ratio")
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        expectations = result["metrics"]["qmat.expectation.calls"]["value"]
        assert (expectations > 0) == (name == "network-report")


def _traced_counts(name, capsys):
    argv = ["--workload", name, "--seed", "5", "--seconds", "0.2", "--trace", "1"]
    assert run.main(argv, workload=TINY[name]()) == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if k.endswith((".calls", ".bytes")) or ".work_" in k}


@pytest.mark.parametrize("name", ["oracle-samples", "oracle-channels", "zkp-transcript"])
def test_traced_counts_repeat_for_a_seed(name, capsys):
    assert _traced_counts(name, capsys) == _traced_counts(name, capsys)


class _FailingCheck:
    """Two classes; every check raises, and every third operation too."""

    classes = 2

    def op(self, i):
        if i % 3 == 0:
            raise RuntimeError("op failed")
        return i

    def check(self, i, output):
        raise RuntimeError("check failed")


def test_a_failure_is_timed_once_and_counted_once():
    latencies, failed = run.run_ops(_FailingCheck(), range(6))
    assert len(latencies) == 6 and failed == 6
