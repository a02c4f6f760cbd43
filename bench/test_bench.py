"""Self-test of the benchmark's bookkeeping; needs neither ucycle nor numpy.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
import worker  # noqa: E402

PAYLOAD = '{"n":2,"q":2}\n'
CASE = (2, 2, 1)


def passing_report(n, q, removed=0):
    want = wl.affine_windows(n, q)
    return {
        "expected_count": want,
        "found_count": want - removed,
        "missing": [{"dir": [0, 1], "base": [0, 0]}] if removed else [],
        "missing_total": 1 if removed else 0,
        "duplicated_total": 0,
        "unexpected_total": 0,
        "degenerate_total": 0,
        "passed": not removed,
    }


def fake_cli(gen_bytes=PAYLOAD, verify_rc=0, raise_on=None):
    """A stand-in for ucycle.cli.main with one chosen fault."""

    def main(argv):
        if argv[0] == raise_on:
            raise RuntimeError("boom")
        if argv[0] == "gen":
            if gen_bytes is not None:
                Path(argv[argv.index("--out") + 1]).write_text(gen_bytes)
            print("summary")
            return 0
        print(json.dumps(passing_report(2, 2)))
        return verify_rc

    return main


def run_fake(tmp_path, cli_main):
    digests = {wl.digest_key("gen", CASE): hashlib.sha256(PAYLOAD.encode()).hexdigest()}
    log = wl.OpLog()
    calls = worker.run_pass("affine-small-grid", [CASE], 1, tmp_path, digests, cli_main, log)
    return log, calls


def test_correct_outputs_pass(tmp_path):
    log, calls = run_fake(tmp_path, fake_cli())
    assert (log.attempted, log.failed) == (2, 0)
    assert [op for op, _, _ in calls] == ["gen", "verify"]


def test_tampered_digest_is_a_failed_operation(tmp_path):
    log, _ = run_fake(tmp_path, fake_cli(gen_bytes=PAYLOAD.replace("2", "3")))
    assert log.failed == 1 and "sha256" in log.problems[0]


def test_missing_output_file_is_a_failed_operation(tmp_path):
    log, _ = run_fake(tmp_path, fake_cli(gen_bytes=None))
    assert log.failed == 1 and "no output file" in log.problems[0]


def test_wrong_exit_code_is_a_failed_operation(tmp_path):
    log, _ = run_fake(tmp_path, fake_cli(verify_rc=1))
    assert (log.attempted, log.failed) == (2, 1)
    assert "exit code 1" in log.problems[0]


@pytest.mark.parametrize("stage", ["gen", "verify"])
def test_raised_exception_is_a_failed_operation(tmp_path, stage):
    log, _ = run_fake(tmp_path, fake_cli(raise_on=stage))
    assert log.failed == 1 and "RuntimeError" in log.problems[0]


def test_failures_are_never_reported_as_a_pass():
    ok = {"attempted": 3, "failed": 0, "metrics": {}}
    bad = {"attempted": 3, "failed": 1, "metrics": {}}
    assert run.result_line({"w": ok})["correct"] is True
    assert run.result_line({"w": bad})["correct"] is False
    assert run.result_line({"w": {"attempted": 0, "failed": 0, "metrics": {}}})["correct"] is False


def test_known_answers_are_computed_independently():
    assert wl.affine_windows(4, 9) == 597_780
    assert wl.affine_windows(2, 64) == 4_160
    assert wl.affine_windows(2, 128) == 16_512
    assert wl.gaussian_2(10, 2) == 174_251
    assert wl.gaussian_2(7, 3) == 99_463


def test_corrupted_report_must_fail_one_window_short():
    assert wl.check_affine_report(passing_report(4, 9, removed=1), 4, 9, removed=1) == []
    assert wl.check_affine_report(passing_report(4, 9), 4, 9, removed=1)
    assert wl.check_affine_report(passing_report(4, 9, removed=1), 4, 9)


def test_grassmann_payload_checks_every_level():
    levels = []
    for m in range(3, 5):
        count = wl.gaussian_2(m, 2)
        levels.append(
            {
                "m": m,
                "windows": count,
                "verification": {"expected_count": count, "found_count": count, "passed": True},
                "nested_previous": None if m == 3 else True,
                "cycle": {"vertices": [[1]] * count},
            }
        )
    obj = {"q": 2, "levels": levels}
    assert wl.check_grassmann_payload(obj, 4, 2) == []
    levels[1]["nested_previous"] = False
    assert wl.check_grassmann_payload(obj, 4, 2)


def test_corruption_is_seeded(tmp_path):
    src = tmp_path / "c.json"
    src.write_text(json.dumps({"n": 1, "q": 2, "vertices": list(range(50))}))
    idx = wl.corrupt_cycle_file(src, tmp_path / "a.json", seed=7)
    assert idx == wl.corrupt_cycle_file(src, tmp_path / "b.json", seed=7)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert len(json.loads((tmp_path / "a.json").read_text())["vertices"]) == 49


def test_self_time_subtracts_direct_children():
    recs = [
        {"name": "cli.main", "start": 0, "end": 100, "parent": None, "items": 0},
        {"name": "gf.field_make", "start": 10, "end": 30, "parent": 0, "items": 0},
        {"name": "constructions.universal_cycle", "start": 30, "end": 90, "parent": 0, "items": 0},
        {"name": "constructions.two_fiber_cycle", "start": 40, "end": 80, "parent": 2, "items": 5},
    ]
    assert spans.self_times_ns(recs) == [20, 20, 20, 40]


def test_every_metric_prints_with_the_unit_benchmark_json_declares():
    spec = json.loads((wl.BENCH_DIR.parent / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == run.E2E_UNITS
    assert declared_layer == spans.layer_units()

    passes = [
        {"calls": [["gen", "AG(2,2)", 0.5], ["verify", "AG(2,2)", 1.5]], "peak_rss_mb": 40.0}
    ]
    values, calls = run.end_to_end(passes, [0.2, 0.3])
    assert set(values) == set(declared_e2e) and all(v > 0 for v in values.values())
    assert set(calls) == {"gen_s", "verify_s"}

    traced = [
        {
            "spans": [{"name": "cli.main", "start": 0, "end": 2_000_000_000, "parent": None, "items": 9}],
            "counts": {},
            "inputs": {"AG(2,2)": dict.fromkeys(spans.INPUT_COUNTS, 1)},
        }
    ]
    assert set(run.per_layer(traced, passes)) == set(declared_layer)


def test_raising_layer_in_a_traced_replay_is_a_failed_operation(monkeypatch, tmp_path):
    class NoModules:
        def __init__(self, tracer, log, digests):
            self.inputs = {}

    def layer_raises(*args):
        raise ValueError("layer failed")

    monkeypatch.setattr(worker, "Replay", NoModules)
    monkeypatch.setattr(worker, "replay_case", layer_raises)
    log = wl.OpLog()
    worker.run_traced("affine-small-grid", [CASE], 1, tmp_path, {}, log)
    assert (log.attempted, log.failed) == (1, 1) and "ValueError" in log.problems[0]
