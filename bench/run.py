"""Benchmark for ucycle: CLI workloads timed end to end, layers timed by tracing.

Usage, from the repository root:

    python3 bench/run.py --workload affine-large --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Every pass of a workload runs in a fresh single-threaded worker process
(bench/worker.py), as each CLI invocation would.  Passes repeat for about
``--seconds``: at least one runs, and another starts only if it should end
within half a pass of that time.  The inputs depend only on ``--seed``: it
orders the cases and picks the vertex deleted from the corrupted
affine-large file.  Every operation's output is checked against a pinned
digest or an independently computed known answer.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced replays and reports per-layer metrics, plus the
tracing overhead; its spans are written once, at the end, to
``.bench_out/trace-<workload>-seed<seed>.json``.

The last line on stdout is one JSON object: correct, attempted, failed and
metrics (name -> value and unit).  The exit code is 0 only if every
operation was correct; a worker that cannot run (say, no ucycle sources)
ends the benchmark with exit code 2 and no result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl
from spans import INPUT_COUNTS, PER_WINDOW, layer_totals, layer_units, self_times_ns

ROOT = wl.BENCH_DIR.parent
WORKER = wl.BENCH_DIR / "worker.py"
OUT_DIR = ROOT / ".bench_out"

# Set-up is short and noisy, so every run samples it at least this often.
MIN_SETUPS = 7
# Each workload run must end well inside the three minutes it is given.
RUN_DEADLINE_S = 170

E2E_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
}
# Per-subcommand times, printed for reading only: each applies to some
# workloads, and a single short call is too noisy to gate on.
CALL_METRICS = {
    "gen_s": "gen",
    "verify_s": "verify",
    "verify_fail_s": "verify_fail",
    "grassmann_s": "grassmann",
}


class BenchError(RuntimeError):
    """A worker could not run; the benchmark prints no result."""


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode: str, workload: str, seed: int, tmp: Path, deadline_ns: int) -> dict:
    """Run one worker process to completion and return its JSON result."""
    t0 = time.perf_counter_ns()
    cmd = [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--tmp", str(tmp), "--t0-ns", str(t0),
    ]
    timeout = max(1.0, (deadline_ns - t0) / 1e9)
    try:
        proc = subprocess.run(
            cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} passed the run deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker for {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def repeat(modes, workload, seed, seconds, tmp, deadline_ns) -> dict[str, list]:
    """Run rounds of one worker per mode, at least one round, and stop when
    another round would end more than half a round after ``seconds``."""
    out: dict[str, list] = {m: [] for m in modes}
    start = time.perf_counter_ns()
    while True:
        t = time.perf_counter_ns()
        for mode in modes:
            out[mode].append(spawn(mode, workload, seed, tmp, deadline_ns))
        now = time.perf_counter_ns()
        if (now - start) + (now - t) / 2 > seconds * 1e9:
            return out


def pass_times(result: dict) -> dict[str, float]:
    """Seconds per CLI subcommand kind in one untraced pass, plus their sum."""
    by_op: dict[str, float] = {}
    for op, _, seconds in result["calls"]:
        by_op[op] = by_op.get(op, 0.0) + seconds
    by_op["pass"] = sum(by_op.values())
    return by_op


def median_of(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rows)


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """Result-line metrics, and the per-subcommand times that apply."""
    times = [pass_times(p) for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": median_of(times, "pass"),
        "peak_rss_mb": median_of(passes, "peak_rss_mb"),
    }
    calls = {
        name: median_of(times, op) for name, op in CALL_METRICS.items() if op in times[0]
    }
    return metrics, calls


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    """Medians over traced passes of every per-layer metric, and the overhead."""
    rows = []
    for t in traced:
        row = layer_totals(t["spans"])
        row["geometry.hyperplanes.calls"] = t["counts"].get("geometry.hyperplanes.calls", 0)
        row["geometry.hyperplanes.distinct"] = t["counts"].get("geometry.hyperplanes.distinct", 0)
        for key in INPUT_COUNTS:
            row[f"input.{key}"] = sum(props[key] for props in t["inputs"].values())
        rows.append(row)
    metrics = {name: median_of(rows, name) for name in rows[0]}
    untraced_s = statistics.median(pass_times(p)["pass"] for p in untraced)
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.overhead_s"] = metrics["cli.main.s"] - untraced_s
    metrics["trace.overhead_ratio"] = metrics["trace.overhead_s"] / untraced_s
    return metrics


def per_case_lines(traced: dict) -> list[str]:
    """ns/window of each linear-cost span, case by case, from one traced pass."""
    acc: dict[tuple, list[int]] = {}
    for s in traced["spans"]:
        if s["name"] in PER_WINDOW:
            ns_items = acc.setdefault((s["case"], s["name"]), [0, 0])
            ns_items[0] += s["end"] - s["start"]
            ns_items[1] += s["items"]
    lines = [
        f"  {case:<22} {name:<32} {ns / items:12.1f} ns/window  ({items} windows)"
        for (case, name), (ns, items) in acc.items()
        if items
    ]
    for label, props in traced["inputs"].items():
        lines.append("  " + f"{label:<22} " + " ".join(f"{k}={v}" for k, v in props.items()))
    return lines


def dump_trace(workload: str, seed: int, traced: list[dict]) -> Path:
    """Write the spans of every traced pass once, with each span's self time."""
    for t in traced:
        for s, self_ns in zip(t["spans"], self_times_ns(t["spans"])):
            s["self_ns"] = self_ns
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "passes": traced}, fh)
    return path


def run_workload(workload: str, seed: int, seconds: int, trace: bool, tmp: Path) -> dict:
    """One workload run: its metrics with units, op counts and report lines."""
    deadline_ns = time.perf_counter_ns() + int(RUN_DEADLINE_S * 1e9)
    if trace:
        runs = repeat(("pass", "trace"), workload, seed, seconds, tmp, deadline_ns)
        workers = runs["pass"] + runs["trace"]
        values = per_layer(runs["trace"], runs["pass"])
        units = layer_units()
        lines = per_case_lines(runs["trace"][0])
        lines.append(f"  spans written to {dump_trace(workload, seed, runs['trace'])}")
    else:
        # Set-up samples come from before, during and after the passes, so
        # that their median does not rest on one moment of machine load.
        workers = [spawn("setup", workload, seed, tmp, deadline_ns) for _ in range(MIN_SETUPS // 2)]
        runs = repeat(("pass",), workload, seed, seconds, tmp, deadline_ns)
        workers += runs["pass"]
        while len(workers) < MIN_SETUPS:
            workers.append(spawn("setup", workload, seed, tmp, deadline_ns))
        setups = [w["setup_s"] for w in workers]
        values, calls = end_to_end(runs["pass"], setups)
        units = dict(E2E_UNITS)
        lines = [f"  {name:<24} {v:14.4f} s" for name, v in calls.items()]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    problems = [p for w in workers for p in w["problems"]]
    head = (
        f"{workload} seed={seed} trace={int(trace)}: {len(runs['pass'])} untraced"
        f" pass(es), {len(runs.get('trace', []))} traced; ops_failed_ratio"
        f" {failed / attempted if attempted else 1.0:.4f} ({failed}/{attempted} ops failed)"
    )
    lines = [head] + [f"  {name:<40} {values[name]:14.6g} {units[name]}" for name in units] + lines
    lines += [f"  FAILED {p}" for p in problems]
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "lines": lines,
    }


def result_line(results: dict[str, dict]) -> dict:
    """The final JSON object; several workloads prefix each metric with theirs."""
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    return {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ucycle" / "__init__.py").is_file():
        print(f"error: no ucycle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), tmp)
            print("\n".join(results[name]["lines"]), flush=True)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    final = result_line(results)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
