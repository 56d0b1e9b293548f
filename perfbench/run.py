"""cfpow benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload {search,certify,fields,cli} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a source checkout; cfpow is imported from ``src/``.

``--trace 0`` measures the end-to-end metrics.  The timed phase runs whole
passes over the seeded op list until the ops have run for ``--seconds``, so
every run covers the same op mix; each op's latency is the best of its
repeats.  Set-up (process start, ``import cfpow``, seeded inputs, fixtures,
bytecode warm-up) is timed in fresh child processes spread over the run and
reported as their median.

``--trace 1`` gives the per-layer metrics instead: one warm-up pass, one
untraced pass and one pass with the tracer installed.  Wrappers are never
installed in a ``--trace 0`` run.

Every op's output is checked: invariants recomputed independently on the
first pass, byte-identical canonical JSON on every later pass, and for the
default seed a SHA-256 over the first pass against ``expected.json``.  Any
failure makes the command exit 1.  The last line of stdout is the result
object; the lines before it name each metric with its unit, and a ``meta``
line records the machine, versions, revision, seed and input sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads
from workloads import ROOT, SRC, canonical

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
WORKLOADS = ("search", "certify", "fields", "cli")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (the set-up probe)")
    return parser.parse_args(argv)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def require_source() -> None:
    """Put the checkout's src/ first on sys.path; refuse any other cfpow."""
    if not (SRC / "cfpow" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cfpow sources under {SRC}")
    sys.path.insert(0, str(SRC))


def setup(workload: str, seed: int):
    workloads.warm_bytecode()
    import cfpow

    if Path(cfpow.__file__).resolve().parent != SRC / "cfpow":
        raise SystemExit(f"perfbench: imported cfpow from {cfpow.__file__}, not {SRC}")
    return workloads.BUILDERS[workload](seed)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until its set-up is done."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
    timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.stdout.close()
        proc.wait()
    finally:
        timer.cancel()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


class Checker:
    """Output checks of one run, and the rolling digest of its first pass."""

    def __init__(self, ops):
        self.first: list = [None] * len(ops)
        self.digest = hashlib.sha256()
        self.failures: list[str] = []
        self.failed_ops = 0

    def check(self, index: int, op, result, error) -> None:
        try:
            if error is not None:
                raise error
            text = canonical(op.canon(result))
            problems = op.check(result) if self.first[index] is None else []
        except Exception as exc:  # a malformed output fails its op, not the run
            text = f"raised {exc!r}"
            problems = [text]
        fingerprint = hashlib.sha256(text.encode()).hexdigest()
        if self.first[index] is None:
            self.first[index] = fingerprint
            self.digest.update(text.encode() + b"\n")
        elif fingerprint != self.first[index]:
            problems.append("output differs from the first pass")
        if problems:
            self.failed_ops += 1
            self.failures.extend(f"{op.label}: {p}" for p in problems)


def run_pass(ops, checker: Checker) -> list[float]:
    latencies = []
    for index, op in enumerate(ops):
        start = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, error = None, exc
        latencies.append(time.perf_counter() - start)
        checker.check(index, op, result, error)
    return latencies


def percentile(samples, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def measure(wl, seconds: float, checker: Checker, probe) -> tuple[dict, dict]:
    """Whole passes until the ops have run for ``seconds``; set-up probes
    are spread over the run so that their median sees the same machine."""
    repeats = [[] for _ in wl.ops]  # latencies of op i, one per pass
    probes, op_time, passes = [], 0.0, 0
    while passes == 0 or op_time < seconds:
        if len(probes) * seconds <= op_time * SETUP_PROBES:
            probes.append(probe())
        for samples, latency in zip(repeats, run_pass(wl.ops, checker)):
            samples.append(latency)
            op_time += latency
        passes += 1
    probes += [probe() for _ in range(SETUP_PROBES - len(probes))]
    # each op's latency is the best of its repeats: host contention that
    # slows some repeats drops out, a slower program slows them all
    best = [min(samples) for samples in repeats]
    metrics = {
        "setup_s": statistics.median(probes),
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": statistics.median(best) * 1e3,
        "op_p90_ms": percentile(best, 0.9) * 1e3,
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    info = {
        "passes": passes, "samples": passes * len(wl.ops), "op_s": op_time,
        "pass_op_s": [sum(samples[k] for samples in repeats) for k in range(passes)],
        "ops_above_p90": sum(1 for x in best if x * 1e3 > metrics["op_p90_ms"]),
        "setup_samples_s": probes,
    }
    return metrics, info


def measure_traced(wl, checker: Checker) -> tuple[dict, dict]:
    run_pass(wl.ops, checker)  # warm-up, and the checked first pass
    untraced = sum(run_pass(wl.ops, checker))
    start = time.perf_counter()
    wl.start_trace()
    try:
        traced = sum(run_pass(wl.ops, checker))
    finally:
        layers = wl.stop_trace()
    wall = time.perf_counter() - start
    metrics = dict(layers)
    tuples = layers.get("search.tuples", 0)
    metrics["search.hit_ratio"] = layers.get("search.solutions", 0) / tuples if tuples else 0.0
    spans = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    metrics["trace.overhead_ratio"] = traced / untraced
    metrics["trace.wall_s"] = wall
    metrics["trace.spans_s"] = spans
    metrics["trace.remainder_s"] = wall - spans
    return metrics, {"passes": 3, "samples": 3 * len(wl.ops), "untraced_op_s": untraced, "traced_op_s": traced}


def git_revision() -> dict:
    def git(*args):
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
        if out.returncode:
            raise OSError(out.stderr.strip())
        return out.stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return {"rev": None, "dirty": None}
        return {"rev": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"rev": None, "dirty": None}


def main(argv=None) -> int:
    args = parse_args(argv)
    require_source()
    if args.setup_only:
        wl = setup(args.workload, args.seed)
        print("ready", flush=True)
        wl.close()
        return 0

    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    wl = setup(args.workload, args.seed)
    checker = Checker(wl.ops)
    try:
        if args.trace:
            values, info = measure_traced(wl, checker)
        else:
            values, info = measure(wl, args.seconds, checker, lambda: probe_setup(args.workload, args.seed))
    finally:
        wl.close()

    digest = checker.digest.hexdigest()
    expected = load_expected()
    digest_ok = None
    failed = checker.failed_ops
    if args.seed == expected["seed"]:
        digest_ok = expected["digests"].get(args.workload) == digest
        if not digest_ok:
            failed += 1
            checker.failures.append(f"output digest {digest} does not match expected.json")
    attempted = info["samples"]

    import mpmath

    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(), "mpmath": mpmath.__version__,
        "git": git_revision(), "digest": digest, "digest_matches_expected": digest_ok,
        "failed_ratio": failed / attempted, "inputs": wl.inputs, **info,
    }
    for line in checker.failures[:20]:
        print("FAIL " + line, file=sys.stderr)
    metrics = {}
    for entry in wanted:
        # a layer that never ran in this workload reports 0
        value = values.get(entry["name"], 0) if args.trace else values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"metric {entry['name']} {value} {entry['unit']}")
    print("meta " + canonical(meta))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(canonical(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
