"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/tests

A minimal run (one pass) of every workload must print every metric that
BENCHMARK.json names, with its unit, and pass its own output checks; a
tampered expected digest or a wrong expected exit code must be counted as
a failure and make the command fail.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))


def _result(stdout: str) -> dict:
    return json.loads(stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_minimal_run_prints_every_metric(workload, trace):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    result = _result(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float))
        assert f"metric {m['name']} {value} {m['unit']}" in out.stdout.splitlines()
    meta = json.loads(next(line[5:] for line in out.stdout.splitlines() if line.startswith("meta ")))
    assert meta["digest_matches_expected"] is True


def test_tampered_digest_fails(monkeypatch, capsys):
    import run

    monkeypatch.setattr(run, "load_expected", lambda: {"seed": 0, "digests": {"search": "0" * 64}})
    code = run.main(["--workload", "search", "--seed", "0", "--seconds", "0"])
    result = _result(capsys.readouterr().out)
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_wrong_expected_exit_code_fails(monkeypatch, capsys):
    import run
    import workloads

    original = workloads._cli_op
    flipped = []

    def expect_wrong_code(wl, args, code, error, checker, shown):
        if not flipped:
            flipped.append(args)
            code = 3 if code == 0 else 0
        return original(wl, args, code, error, checker, shown)

    monkeypatch.setattr(workloads, "_cli_op", expect_wrong_code)
    code = run.main(["--workload", "cli", "--seed", "0", "--seconds", "0"])
    result = _result(capsys.readouterr().out)
    assert flipped and code == 1
    assert result["correct"] is False and result["failed"] >= 1
