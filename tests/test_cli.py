"""Command-line interface: round trips, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ucycle import cli, cycles
from ucycle.cli import _dumps, main
from ucycle.gf import Field, field_from_order, field_make
from ucycle.grassmann import GrassCycle, nested_cycles


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_gen_verify_round_trip(tmp_path, capsys):
    f = tmp_path / "c.json"
    rc, out, err = run(capsys, "gen", "--n", "2", "--p", "3", "--out", str(f))
    assert rc == 0
    assert "windows=12" in out
    rc, out, err = run(capsys, "verify", "--in", str(f))
    assert rc == 0
    assert json.loads(out)["passed"] is True


def test_gen_text_format_round_trip(tmp_path, capsys):
    f = tmp_path / "c.txt"
    rc, _, _ = run(capsys, "gen", "--n", "2", "--p", "2", "--format", "text", "--out", str(f))
    assert rc == 0
    lines = f.read_text().strip().splitlines()
    assert len(lines) == 6
    assert all(line[0] in "AI" for line in lines)
    rc, out, _ = run(capsys, "verify", "--in", str(f), "--p", "2", "--n", "2")
    assert rc == 0


def test_verify_text_requires_field_parameters(tmp_path, capsys):
    f = tmp_path / "c.txt"
    run(capsys, "gen", "--n", "2", "--p", "2", "--format", "text", "--out", str(f))
    rc, _, err = run(capsys, "verify", "--in", str(f))
    assert rc == 2
    assert "--p" in err


def test_verify_tampered_cycle_exits_1(tmp_path, capsys):
    f = tmp_path / "c.json"
    run(capsys, "gen", "--n", "2", "--p", "2", "--out", str(f))
    obj = json.loads(f.read_text())
    del obj["vertices"][0]
    f.write_text(json.dumps(obj))
    rc, out, _ = run(capsys, "verify", "--in", str(f))
    assert rc == 1
    rep = json.loads(out)
    assert rep["passed"] is False
    assert rep["missing_total"] > 0


def test_verify_malformed_exits_2(tmp_path, capsys):
    f = tmp_path / "c.json"
    f.write_text("{ not json")
    assert run(capsys, "verify", "--in", str(f))[0] == 2
    f.write_text(json.dumps({"n": 2, "q": 2}))
    assert run(capsys, "verify", "--in", str(f))[0] == 2
    assert run(capsys, "verify", "--in", str(f) + ".nope")[0] == 2
    for vertices in ([1, 2], 5, [{"type": "affine", "coords": 5}],
                     [{"type": "affine", "coords": [None, 0]}], [{"coords": [0, 0]}]):
        f.write_text(json.dumps({"n": 2, "q": 2, "vertices": vertices}))
        rc, _, err = run(capsys, "verify", "--in", str(f))
        assert rc == 2, vertices
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_verify_names_a_vertex_of_the_wrong_length_for_its_length(tmp_path, capsys):
    # the vector at infinity also breaks its rule; the length is named
    f = tmp_path / "c.txt"
    f.write_text("A 0 0\nI 2 1 0\n")
    rc, out, err = run(capsys, "verify", "--in", str(f), "--p", "3")
    assert (rc, out, err) == (2, "", "error: vertex 1 has dimension 3, expected 2\n")


def test_verify_refuses_oversized_keys_at_once(tmp_path, capsys):
    # q^(2n) = 2^64 overflows the packed int64 line keys; refused before
    # the 2^32 points of AG(4,256) are enumerated
    f = tmp_path / "c.json"
    f.write_text(json.dumps({"n": 4, "q": 256, "vertices": [
        {"type": "affine", "coords": [0, 0, 0, 0]},
        {"type": "infinity", "coords": [1, 0, 0, 0]},
    ]}))
    rc, out, err = run(capsys, "verify", "--in", str(f))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "2^63" in err


@pytest.mark.parametrize("argv", [["gen", "--n", "2", "--p", "2"],
                                  ["grassmann", "--m", "3", "--p", "2"]])
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    rc, _, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "c.json"))
    assert rc == 2
    assert err.splitlines()[-1].startswith("error: ") and "Traceback" not in err, err


def two_vertex_file(path, n, q):
    path.write_text(json.dumps({"n": n, "q": q, "vertices": [
        {"type": "affine", "coords": [0] * n},
        {"type": "infinity", "coords": [1] + [0] * (n - 1)},
    ]}))
    return str(path)


def field_built(self, p, k):
    raise AssertionError(f"GF({p}^{k}) built before the size check")


# Each input used to run for more than 10 s or die with a MemoryError: the
# field-order bound is now checked before any arithmetic on the order, and
# the CLI refuses more than 2^24 lines or planes before any work.
@pytest.mark.parametrize("argv,needle", [
    (["gen", "--n", "2", "--p", "1000000000000000003"], "bound"),
    (["gen", "--n", "2", "--p", "3", "--k", "1000000000"], "bound"),
    (["verify", "--in", "q=1000000007"], "bound"),
    (["gen", "--n", "20", "--p", "2"], "2^24"),
    (["grassmann", "--m", "24", "--p", "2"], "2^24"),
    (["verify", "--in", "AG(28,2)"], "2^24"),
    (["gen", "--n", "30", "--p", "2", "--k", "11"], "2^24"),
    (["stats", "--n", "30", "--p", "2", "--k", "11"], "2^24"),
], ids=["huge-p", "huge-k", "verify-huge-q", "gen-AG(20,2)", "grassmann-m24",
        "verify-AG(28,2)", "gen-AG(30,2048)", "stats-AG(30,2048)"])
def test_oversized_inputs_exit_2_at_once(tmp_path, capsys, monkeypatch, argv, needle):
    if argv[-1] == "11":
        # GF(2048) passes the raised bound; the size check needs only q, so
        # the field must not be built
        monkeypatch.setenv("UCYCLE_MAX_Q", "2048")
        monkeypatch.setattr(Field, "__init__", field_built)
    elif argv[-1] == "q=1000000007":
        argv[-1] = two_vertex_file(tmp_path / "c.json", 2, 1000000007)
    elif argv[-1] == "AG(28,2)":
        argv[-1] = two_vertex_file(tmp_path / "c.json", 28, 2)
    t0 = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err, err


def test_grassmann_refuses_oversized_plane_keys_at_once(capsys, monkeypatch):
    # q^(2m) = 2^66 overflows the packed int64 plane keys although the
    # 4.2M planes pass the size budget; refused before GF(2048) is built
    monkeypatch.setenv("UCYCLE_MAX_Q", "2048")
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "grassmann", "--m", "3", "--p", "2", "--k", "11")
    assert time.perf_counter() - t0 < 1.0
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "2^63" in err, err


@pytest.mark.parametrize("command", ["gen", "stats"])
def test_line_keys_of_one_dimension_refused_at_once(capsys, monkeypatch, command):
    # AG(1,q) has one line, within the size budget, but at q past 2^31.5 its
    # key overflows an int64; refused before GF(q) would take its q - 1
    # generator powers one at a time
    monkeypatch.setenv("UCYCLE_MAX_Q", str(2**32))
    monkeypatch.setattr(Field, "__init__", field_built)
    t0 = time.perf_counter()
    rc, out, err = run(capsys, command, "--n", "1", "--p", "3037000507")
    assert time.perf_counter() - t0 < 1.0
    assert (rc, out) == (2, "")
    assert err == ("error: AG(1,3037000507) is too large to verify:"
                   " line keys need q^(2n) <= 2^63-1\n")


def test_verify_parameter_mismatch_exits_2(tmp_path, capsys):
    f = tmp_path / "c.json"
    run(capsys, "gen", "--n", "2", "--p", "2", "--out", str(f))
    assert run(capsys, "verify", "--in", str(f), "--n", "3")[0] == 2
    assert run(capsys, "verify", "--in", str(f), "--p", "3")[0] == 2


@pytest.mark.parametrize("file_q,flags,message", [
    (4, ["--p", "4"], "p must be prime, got 4"),
    (5, ["--p", "1"], "p must be prime, got 1"),
    (5, ["--p", "5", "--k", "0"], "k must be >= 1, got 0"),
    (5, ["--p", "5", "--k", "-3"], "k must be >= 1, got -3"),
    (4, ["--p", "2", "--k", "2"], None),
    (4, ["--p", "2"], "file has q=4, expected q=2^1"),
])
def test_verify_checks_the_field_flags_before_comparing_them(tmp_path, capsys, file_q, flags, message):
    # a JSON file names its own field: --p and --k are checked as gen checks
    # them, so that --p 4 on a GF(4) file is refused as no prime, not as q=4^1
    f = tmp_path / "c.json"
    F = field_from_order(file_q)
    assert run(capsys, "gen", "--n", "2", "--p", str(F.p), "--k", str(F.k), "--out", str(f))[0] == 0
    rc, _, err = run(capsys, "verify", "--in", str(f), *flags)
    assert (rc, err) == ((0, "PASS 20/20 windows (missing=0 duplicated=0 unexpected=0 degenerate=0)\n")
                         if message is None else (2, f"error: {message}\n"))


def test_verify_checks_the_field_flags_before_the_file_and_q_before_n(tmp_path, capsys):
    # the decode takes the flags' field, so a refused flag is named before a
    # refused file body, and the file's q is compared before its n (both once
    # came after the decode, n first)
    f = tmp_path / "c.json"
    text = gen_json(capsys, f, 2, 5)
    assert run(capsys, "verify", "--in", str(f), "--n", "3", "--p", "7") == (
        2, "", "error: file has q=5, expected q=7^1\n")
    f.write_text(text.replace('"q":5,', '"q":5.5,', 1))
    assert run(capsys, "verify", "--in", str(f), "--p", "4") == (2, "", "error: p must be prime, got 4\n")


def test_gen_invalid_parameters_exit_2(capsys):
    assert run(capsys, "gen", "--n", "1", "--p", "2")[0] == 2
    assert run(capsys, "gen", "--n", "2", "--p", "6")[0] == 2
    assert run(capsys, "gen", "--n", "2")[0] == 2  # argparse: missing --p


def test_gen_stdout_payload(capsys):
    rc, out, err = run(capsys, "gen", "--n", "2", "--p", "2")
    assert rc == 0
    obj = json.loads(out)
    assert obj["n"] == 2 and obj["q"] == 2 and len(obj["vertices"]) == 6
    assert "windows=6" in err


def test_stats_even_branch(capsys):
    rc, out, _ = run(capsys, "stats", "--n", "2", "--p", "3")
    assert rc == 0
    assert "directions = 4" in out
    assert "lines = 12" in out
    assert "even: 2 pairs" in out


def test_stats_odd_branch(capsys):
    rc, out, _ = run(capsys, "stats", "--n", "2", "--p", "2")
    assert rc == 0
    assert "directions = 3" in out
    assert "odd: triplet" in out
    rc, out, _ = run(capsys, "stats", "--n", "4", "--p", "3")
    assert "directions = 40" in out
    assert "even: 20 pairs" in out


def test_stats_rejects_bad_n(capsys):
    assert run(capsys, "stats", "--n", "1", "--p", "2")[0] == 2


def test_grassmann_command(tmp_path, capsys):
    f = tmp_path / "g.json"
    rc, _, err = run(capsys, "grassmann", "--m", "3", "--p", "2", "--out", str(f))
    assert rc == 0
    doc = json.loads(f.read_text())
    assert [lvl["m"] for lvl in doc["levels"]] == [3]
    assert doc["levels"][0]["windows"] == 7
    assert doc["levels"][0]["verification"]["passed"] is True

    rc, _, err = run(capsys, "grassmann", "--m", "4", "--p", "2", "--nested", "--out", str(f))
    assert rc == 0
    doc = json.loads(f.read_text())
    assert [lvl["m"] for lvl in doc["levels"]] == [3, 4]
    assert doc["levels"][1]["nested_previous"] is True
    assert "nesting" in err


def test_grassmann_failing_level_exits_1(capsys, monkeypatch):
    # U_4 over GF(2) with its first vertex deleted no longer covers G(2,4)
    levels = nested_cycles(4, field_make(2))
    broken = levels[:-1] + [GrassCycle(levels[-1].vertices[1:], levels[-1].field)]
    monkeypatch.setattr(cli, "nested_levels", lambda m, F: iter(broken))
    rc, out, err = run(capsys, "grassmann", "--m", "4", "--p", "2", "--nested")
    assert rc == 1
    assert json.loads(out)["levels"][-1]["verification"]["passed"] is False
    assert "FAIL" in next(line for line in err.splitlines() if line.startswith("U_4"))


def test_grassmann_rejects_small_m(capsys):
    assert run(capsys, "grassmann", "--m", "2", "--p", "2")[0] == 2


def test_gen_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "gen", "--n", "3", "--p", "2", "--out", str(a))
    run(capsys, "gen", "--n", "3", "--p", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gen_extension_field_round_trip(tmp_path, capsys):
    f = tmp_path / "c4.json"
    rc, out, _ = run(capsys, "gen", "--n", "2", "--p", "2", "--k", "2", "--out", str(f))
    assert rc == 0
    assert "q=4" in out and "windows=20" in out
    assert run(capsys, "verify", "--in", str(f))[0] == 0


def test_order_bound_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("UCYCLE_MAX_Q", "4")
    rc, _, err = run(capsys, "gen", "--n", "2", "--p", "5")
    assert rc == 2
    assert "bound" in err


@pytest.mark.parametrize("value", ["abc", "1e3", "", "-1", "1"])
def test_malformed_order_bound_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("UCYCLE_MAX_Q", value)
    rc, out, err = run(capsys, "gen", "--n", "2", "--p", "2")
    assert (rc, out) == (2, "")
    assert err == f"error: UCYCLE_MAX_Q must be an integer >= 2, got {value!r}\n"


def test_memory_exhausted_exits_2_with_one_line(tmp_path, capsys):
    # verify of AG(4,9) JSON that is not gen's bytes (a space after each
    # vertex's comma), so read by json.loads: ~500 MB of address space.  The
    # interpreter and numpy start in ~120 MB with one BLAS thread, so a 256 MB
    # cap on the child alone leaves the decode short of memory.
    resource = pytest.importorskip("resource")
    f = tmp_path / "c.json"
    assert run(capsys, "gen", "--n", "4", "--p", "3", "--k", "2", "--out", str(f))[0] == 0
    f.write_bytes(f.read_bytes().replace(b"},{", b"}, {"))
    cap = 256 * 2**20
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run(
        [sys.executable, "-m", "ucycle", "verify", "--in", str(f)],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    size = f.stat().st_size
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr == f"error: verify ran out of memory on {f} ({size} bytes)\n"


@pytest.mark.parametrize("command,argv,names", [
    ("gen", ["--n", "3", "--p", "5"], "n=3 q=5^1"),
    ("stats", ["--n", "2", "--p", "2", "--k", "3"], "n=2 q=2^3"),
    ("grassmann", ["--m", "4", "--p", "3"], "m=4 q=3^1"),
])
def test_memory_error_of_a_build_names_its_size(capsys, monkeypatch, command, argv, names):
    def exhausted(*args):
        np.empty(2**62, dtype=np.uint8)  # numpy's MemoryError subclass: past any address space

    for name in ("universal_cycle", "plan_fibers", "nested_levels"):
        monkeypatch.setattr(cli, name, exhausted)
    rc, out, err = run(capsys, command, *argv)
    assert (rc, out) == (2, "")
    assert err == f"error: {command} ran out of memory on {names}\n"


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_one_parser_serves_every_call(capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    # argparse refuses the first call after it has already read --n and --p
    refused = ["gen", "--n", "2", "--p", "3", "--format", "xml"]
    valid = ["stats", "--n", "2", "--p", "3"]
    together = [run(capsys, *argv) for argv in (refused, valid, ["--help"], refused, valid)]
    # the top-level parser; its subcommand parsers share the class
    assert built.count("ucycle") <= 1
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    alone = []
    for argv in (refused, valid):  # each call in a fresh process
        child = subprocess.run([sys.executable, "-m", "ucycle", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        alone.append((child.returncode, child.stdout, child.stderr))
    assert alone[0][0] == 2 and alone[0][2].startswith("error: ") and alone[0][2].count("\n") == 1
    assert together[:2] == together[3:] == alone


@pytest.mark.parametrize(
    "n,p,k",
    [(2, 2, 1), (2, 3, 1), (2, 2, 2), (2, 5, 1), (2, 7, 1), (2, 2, 3), (2, 3, 2),
     (3, 2, 1), (3, 3, 1)],
)
def test_gen_verify_round_trip_grid(tmp_path, capsys, n, p, k):
    f = tmp_path / "c.json"
    assert run(capsys, "gen", "--n", str(n), "--p", str(p), "--k", str(k),
               "--out", str(f))[0] == 0
    assert run(capsys, "verify", "--in", str(f))[0] == 0


# -- JSON decoding: gen's bytes in one pass, json.loads for everything else ----


class LoadsCalled(Exception):
    pass


def refuse_loads(text):
    raise LoadsCalled("json.loads reached")


def not_canonical(data, field=None):
    raise cycles._NotCanonical("not the canonical byte form")


def loads_route(monkeypatch, capsys, *argv):
    """The CLI's result when every JSON text goes through json.loads and
    cycle_from_json_obj, the reference route that words every refusal."""
    with monkeypatch.context() as m:
        m.setattr(cycles, "_canonical_rows", not_canonical)
        return run(capsys, *argv)


def gen_json(capsys, path, n, p, k=1):
    assert run(capsys, "gen", "--n", str(n), "--p", str(p), "--k", str(k), "--out", str(path))[0] == 0
    return path.read_text()


@pytest.mark.parametrize("n,p,k", [(3, 5, 1), (2, 2, 3), (2, 2, 1), (2, 11, 1), (2, 101, 1)])
def test_verify_reads_gen_files_without_json_loads(tmp_path, capsys, monkeypatch, n, p, k):
    f = tmp_path / "c.json"
    text = gen_json(capsys, f, n, p, k)
    assert '"type":"infinity"' in text
    bad = tmp_path / "bad.json"
    obj = json.loads(text)
    del obj["vertices"][len(obj["vertices"]) // 2]
    bad.write_text(_dumps(obj))
    for path, rc in ((f, 0), (bad, 1)):
        expected = loads_route(monkeypatch, capsys, "verify", "--in", str(path))
        with monkeypatch.context() as m:
            m.setattr(json, "loads", refuse_loads)
            assert run(capsys, "verify", "--in", str(path)) == expected
        assert expected[0] == rc


def with_codes(obj, rule, change):
    """gen's bytes of obj with the codes of the first vertex that ``rule``
    accepts passed through ``change``."""
    obj = json.loads(json.dumps(obj))
    v = next(v for v in obj["vertices"] if rule(v["coords"]))
    v["coords"] = [change(x) for x in v["coords"]]
    return _dumps(obj)


def reordered(obj):
    vs = [{"type": v["type"], "coords": v["coords"]} for v in obj["vertices"]]
    return json.dumps({"vertices": vs, "schema_version": 1, "q": obj["q"], "n": obj["n"]})


# valid JSON of the AG(2,5) cycle in a form gen does not write; the second
# item says whether the text still differs from gen's bytes once read with
# universal newlines
NON_CANONICAL = {
    "indented": (lambda t, o: json.dumps(o, indent=2, sort_keys=True) + "\n", True),
    "spaces": (lambda t, o: json.dumps(o, sort_keys=True) + "\n", True),
    "key-order": (lambda t, o: reordered(o), True),
    "float-code": (lambda t, o: with_codes(o, any, float), True),
    "zero-padded-string": (lambda t, o: with_codes(o, any, lambda x: f"0{x}"), True),
    "true": (lambda t, o: with_codes(o, lambda c: max(c) == 1, bool), True),
    "extra-keys": (lambda t, o: _dumps(dict(o, comment="x")).replace("}", ',"label":1}', 1), True),
    "escaped-kind": (lambda t, o: t.replace('"type":"affine"', '"type":"\\u0061ffine"', 1), True),
    "schema-version-float": (lambda t, o: t.replace('"schema_version":1,', '"schema_version":1.0,'), True),
    "schema-version-true": (lambda t, o: t.replace('"schema_version":1,', '"schema_version":true,'), True),
    "schema-version-string": (lambda t, o: t.replace('"schema_version":1,', '"schema_version":"1",'), True),
    "no-final-newline": (lambda t, o: t[:-1], True),
    "crlf-between-vertices": (lambda t, o: t.replace("},{", "},\r\n{"), True),
    "crlf-line-end": (lambda t, o: t[:-1] + "\r\n", False),
}


@pytest.mark.parametrize("case", sorted(NON_CANONICAL))
def test_verify_non_canonical_json_takes_json_loads(tmp_path, capsys, monkeypatch, case):
    f = tmp_path / "c.json"
    text = gen_json(capsys, f, 2, 5)
    change, differs = NON_CANONICAL[case]
    f.write_bytes(change(text, json.loads(text)).encode())
    assert f.read_bytes() != text.encode()
    expected = loads_route(monkeypatch, capsys, "verify", "--in", str(f))
    assert expected[0] == 0
    calls = []
    loads = json.loads
    with monkeypatch.context() as m:
        m.setattr(json, "loads", lambda s: calls.append(s) or loads(s))
        assert run(capsys, "verify", "--in", str(f)) == expected
    assert len(calls) == differs


# gen's AG(3,5) file with a number that int() would truncate, and the name
# that the refusal gives it; 1.0, true and "02" are integers (NON_CANONICAL)
NON_INTEGRAL = {
    "q": (('"q":5,', '"q":5.5,'), "malformed cycle object: 'q'"),
    "n": (('"n":3,', '"n":3.9,'), "malformed cycle object: 'n'"),
    "code": (('"coords":[0,', '"coords":[0.5,'), "malformed vertex 0: "),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGRAL))
def test_verify_refuses_a_number_that_is_not_an_integer(tmp_path, capsys, case):
    f = tmp_path / "c.json"
    text = gen_json(capsys, f, 3, 5)
    (old, new), name = NON_INTEGRAL[case]
    f.write_text(text.replace(old, new, 1))
    rc, out, err = run(capsys, "verify", "--in", str(f))
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {name}") and err.count("\n") == 1, err


@pytest.mark.parametrize("version", ["2", '"x"', "0", "null", "1.5", "[1]"])
def test_verify_reads_only_schema_version_1(tmp_path, capsys, version):
    # any schema_version read: gen's AG(2,5) file with "schema_version":2 once verified PASS
    f = tmp_path / "c.json"
    text = gen_json(capsys, f, 2, 5)
    f.write_text(text.replace('"schema_version":1,', f'"schema_version":{version},', 1))
    rc, out, err = run(capsys, "verify", "--in", str(f))
    assert (rc, out, err) == (2, "", "error: malformed cycle object: 'schema_version' is not 1\n")
    # library objects omit the key, and read as version 1
    obj = json.loads(text)
    del obj["schema_version"]
    assert cycles.cycle_from_json_obj(obj).codes.tolist() == cycles.cycle_from_json(text).codes.tolist()


def test_verify_counts_every_degenerate_window_of_a_file_of_one_point(tmp_path, capsys):
    f = tmp_path / "same.txt"
    f.write_text("A 0 0\n" * 100_000)
    rc, out, err = run(capsys, "verify", "--in", str(f), "--p", "2")
    rep = json.loads(out)
    assert rc == 1 and not rep["passed"]
    assert rep["found_count"] == rep["degenerate_total"] == 100_000
    assert rep["degenerate_windows"] == list(range(32))
    assert err == ("FAIL 100000/6 windows"
                   " (missing=6 duplicated=0 unexpected=0 degenerate=100000)\n")


# gen's AG(2,2) file with its first vertex's coords written as a string of
# its digits or as an object keyed by them: iterated item by item, either
# read as the codes themselves, and the file verified PASS 6/6
NOT_A_LIST = {
    "string": lambda coords: json.dumps("".join(map(str, coords))),
    "object": lambda coords: json.dumps({str(x): x for x in coords}, separators=(",", ":")),
}


@pytest.mark.parametrize("case", sorted(NOT_A_LIST))
def test_verify_refuses_coords_that_are_not_a_list(tmp_path, capsys, case):
    f = tmp_path / "c.json"
    text = gen_json(capsys, f, 2, 2)
    first = json.loads(text)["vertices"][0]["coords"]
    old = '"coords":' + json.dumps(first, separators=(",", ":"))
    f.write_text(text.replace(old, '"coords":' + NOT_A_LIST[case](first), 1))
    assert f.read_text() != text
    rc, out, err = run(capsys, "verify", "--in", str(f))
    assert (rc, out) == (2, "")
    assert err.startswith("error: malformed vertex 0: ") and err.count("\n") == 1, err
    # the same codes in a list, as integral numbers, booleans or strings, still read
    for change in (float, bool, lambda x: f"0{x}"):
        obj = json.loads(text)
        obj["vertices"][0]["coords"] = [change(x) for x in first]
        f.write_text(json.dumps(obj))
        assert run(capsys, "verify", "--in", str(f))[0] == 0, change


def test_verify_reads_a_pipe_as_it_reads_the_file(tmp_path, capsys):
    # a pipe cannot seek, so the CLI reads it whole before the decode
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    gen_json(capsys, tmp_path / "c.json", 3, 5)
    run(capsys, "gen", "--n", "3", "--p", "5", "--format", "text", "--out", str(tmp_path / "c.txt"))
    commented = tmp_path / "commented.txt"
    commented.write_text("# a comment\n" + (tmp_path / "c.txt").read_text())
    for f, flags in ((tmp_path / "c.json", ()), (tmp_path / "c.txt", ("--p", "5")),
                     (commented, ("--n", "3", "--p", "5"))):
        outcomes = []
        for path, data in ((str(f), None), ("/dev/stdin", f.read_bytes())):
            child = subprocess.run([sys.executable, "-m", "ucycle", "verify", "--in", path, *flags],
                                   input=data, env=env, capture_output=True, timeout=120)
            outcomes.append((child.returncode, child.stdout, child.stderr))
        assert outcomes[0][0] == 0 and b"PASS 775/775" in outcomes[0][2], f
        assert outcomes[1] == outcomes[0], f


PASS_30 = "PASS 30/30 windows (missing=0 duplicated=0 unexpected=0 degenerate=0)"
TEXT_FLAGS = ("--n", "2", "--p", "5")
DECODE_ERROR = "error: 'utf-8' codec can't decode byte 0xff in position {}: invalid start byte"

# the AG(2,5) files of gen, JSON and text, changed so that reading them as a
# UTF-8 text file matters: the CLI reads bytes, and each case must give the
# exit code and stderr line that reading the file as text gave
AS_TEXT = {
    "utf8-bom": (lambda j, t: b"\xef\xbb\xbf" + j, (), 2,
                 "error: text cycle files need --p (and --k for extensions)"),
    "utf8-bom-text": (lambda j, t: b"\xef\xbb\xbf" + t, TEXT_FLAGS, 2,
                      "error: line 1: expected A or I, got '\\ufeffA'"),
    "invalid-utf8": (lambda j, t: j[:100] + b"\xff" + j[101:], (), 2, DECODE_ERROR.format(100)),
    "invalid-utf8-first-byte": (lambda j, t: b"\xff" + j[1:], (), 2, DECODE_ERROR.format(0)),
    "lone-cr-line-end": (lambda j, t: j[:-1] + b"\r", (), 0, PASS_30),
    "lone-cr-text": (lambda j, t: t.replace(b"\n", b"\r"), TEXT_FLAGS, 0, PASS_30),
    "nbsp-before-brace": (lambda j, t: "\u00a0".encode() + j, (), 2,
                          "error: Expecting value: line 1 column 1 (char 0)"),
    "text-format": (lambda j, t: t, TEXT_FLAGS, 0, PASS_30),
}


@pytest.mark.parametrize("case", sorted(AS_TEXT))
def test_verify_reads_bytes_as_a_text_file(tmp_path, capsys, case):
    j, t = tmp_path / "c.json", tmp_path / "c.txt"
    for path, fmt in ((j, "json"), (t, "text")):
        assert run(capsys, "gen", "--n", "2", "--p", "5", "--format", fmt, "--out", str(path))[0] == 0
    change, flags, rc, line = AS_TEXT[case]
    f = tmp_path / "changed"
    f.write_bytes(change(j.read_bytes(), t.read_bytes()))
    try:
        text = f.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        with pytest.raises(UnicodeDecodeError, match=re.escape(str(e))):
            cycles.file_text(f.read_bytes())
    else:
        assert cycles.file_text(f.read_bytes()) == text
    got, _, err = run(capsys, "verify", "--in", str(f), *flags)
    assert (got, err) == (rc, line + "\n")


# one byte of the canonical AG(2,5) file changed in each field, or inserted
def unnormalized_last_direction(text):
    """gen's JSON with the lead 1 of its last vertex at infinity written 2
    (not normalized, still gen's bytes), the vertex's index and coords, and
    the offset just past its object."""
    at = text.rindex('"type":"infinity"')
    start = text.rindex("[", 0, at) + 1
    stop = text.index("]", start)
    coords = text[start:stop].split(",")
    coords[next(j for j, x in enumerate(coords) if x != "0")] = "2"
    k = text.count('{"coords":', 0, at) - 1
    changed = text[:start] + ",".join(coords) + text[stop:]
    return changed, k, tuple(map(int, coords)), text.index("}", stop) + 1


def test_verify_refuses_an_unnormalized_direction_in_a_late_block(tmp_path, capsys, monkeypatch):
    # the streamed reader finds vertex k in one of the last blocks, and
    # refuses it once the whole file has proved gen's bytes, in the words of
    # the general route and before the flags' n and q are compared
    f = tmp_path / "c.json"
    text, k, v, end = unnormalized_last_direction(gen_json(capsys, f, 4, 3, 2))
    assert k > 500_000
    message = f"error: vertex {k}: infinity vector {v} not normalized\n"
    f.write_text(text)
    with monkeypatch.context() as m:  # gen's bytes are streamed, not parsed
        m.setattr(json, "loads", refuse_loads)
        for flags in ((), ("--n", "3"), ("--p", "3")):
            assert run(capsys, "verify", "--in", str(f), *flags) == (2, "", message)
    # a byte after vertex k that is not gen's: the general route reads the
    # file from its start, and json.loads refuses it before vertex k is read
    bad = text[:end] + "]" + text[end:]
    f.write_text(bad)
    with pytest.raises(json.JSONDecodeError) as e:
        json.loads(bad)
    assert run(capsys, "verify", "--in", str(f)) == (2, "", f"error: {e.value}\n")


ONE_BYTE = {
    "n": ('"n":2', '"n":3'),
    "n-non-digit": ('"n":2', '"n":x'),
    "q": ('"q":5', '"q":7'),
    "q-not-prime-power": ('"q":5', '"q":6'),
    "code-out-of-range": ('[0,4]', '[0,9]'),
    "code-non-digit": ('[0,4]', '[0,a]'),
    "code-leading-zero": ('[0,4]', '[0,04]'),
    "kind": ('"affine"', '"affinf"'),
    "kind-infinity": ('"infinity"', '"infinitz"'),
    "bracket": ('"coords":[0,4]', '"coords":{0,4]'),
    "tail": (']}\n', ']]\n'),
}


@pytest.mark.parametrize("case", sorted(ONE_BYTE))
def test_verify_one_byte_changed_matches_json_loads(tmp_path, capsys, monkeypatch, case):
    f = tmp_path / "c.json"
    text = gen_json(capsys, f, 2, 5)
    old, new = ONE_BYTE[case]
    assert old in text
    f.write_text(text.replace(old, new, 1))
    expected = loads_route(monkeypatch, capsys, "verify", "--in", str(f))
    assert run(capsys, "verify", "--in", str(f)) == expected
    assert expected[0] in (1, 2) and expected[2].count("\n") == 1


@pytest.mark.parametrize("size", [1, 3, 7])
@pytest.mark.parametrize("where", ["last-byte", "first-byte-of-next"])
@pytest.mark.parametrize("byte", [b" ", b"}"])
def test_verify_one_byte_changed_at_a_block_edge_matches_json_loads(
    tmp_path, capsys, monkeypatch, size, where, byte
):
    # the last byte of a row block is the "," between rows and the first
    # byte of the next is the "{" of its first row; the translate keeps the
    # one and drops the other, so only the blockwise re-encode sees the "{"
    monkeypatch.setattr(cycles, "BLOCK_ROWS", size)
    f = tmp_path / "c.json"
    text = gen_json(capsys, f, 2, 5)
    head, first, second = list(cycles.cycle_blocks(cycles.cycle_from_json(text)))[:3]
    edge = len(head) + len(first) + len(second)
    at = edge - 1 if where == "last-byte" else edge
    assert text[at] == ("," if where == "last-byte" else "{")
    f.write_bytes(text[:at].encode() + byte + text[at + 1 :].encode())
    expected = loads_route(monkeypatch, capsys, "verify", "--in", str(f))
    assert run(capsys, "verify", "--in", str(f)) == expected
    assert expected[0] == 2 and expected[2].count("\n") == 1


# -- codes of every width: the gather against the general route ----------------


def wide_cycle(q, rows=40):
    """A 40-row cycle over GF(q) in AG(2,q), every third vertex at infinity,
    whose second codes take every width from 1 to len(str(q-1)) digits in
    turn: the gather reads codes of 1, 2 and 3 digits from one file."""
    digits = len(str(q - 1))
    F = field_from_order(q)
    codes = np.random.default_rng(q).integers(0, q, (rows, 2))
    inf = np.arange(rows) % 3 == 1
    codes[inf, 0] = 1
    codes[:, 1] = [min(10 ** (r % digits) + r % 7, q - 1) for r in range(rows)]
    return cycles.Cycle._from_arrays(F, np.column_stack([codes, ~inf]).astype(F.arrays[0].dtype))


def rows_of(c, fmt):
    """gen's bytes of the cycle, as its head and one string a row."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cycles, "BLOCK_ROWS", 1)
        return list(cycles.cycle_blocks(c, fmt))


def first_code(row, fmt):
    """The span of a row's first code."""
    start = row.index("[") + 1 if fmt == "json" else 2
    return start, start + len(re.match(r"[0-9]+", row[start:])[0])


def last_code(row, fmt):
    """The span of a row's last code."""
    stop = row.index("]") if fmt == "json" else len(row.rstrip("\n"))
    return stop - len(re.search(r"[0-9]+$", row[:stop])[0]), stop


def change_code(rows, r, fmt, span, change):
    """rows with the code that ``span`` finds in row r passed through ``change``."""
    row = rows[r + 1]
    a, b = span(row, fmt)
    return rows[: r + 1] + [row[:a] + change(row[a:b]) + row[b:]] + rows[r + 2 :]


def next_kind(row, fmt):
    """The row with the byte that gives its kind (a, i, A or I) one higher."""
    at = row.index('"type":"') + 8 if fmt == "json" else 0
    return row[:at] + chr(ord(row[at]) + 1) + row[at + 1 :]


# each case: the rows of gen's bytes, the block size and the format -> the changed rows
WIDE_CASES = {
    "leading-zero": lambda c, rows, s, fmt: change_code(rows, s, fmt, first_code, lambda x: "0" + x),
    "one-digit-too-many": lambda c, rows, s, fmt: change_code(  # at the widest first code
        rows, int(np.argmax(c.codes[:, 0])), fmt, first_code, lambda x: x + "1"),
    "the-code-q": lambda c, rows, s, fmt: change_code(
        rows, s, fmt, first_code, lambda x: str(c.field.q)),
    "digit-deleted-before-the-edge": lambda c, rows, s, fmt: change_code(
        rows, s - 1, fmt, last_code, lambda x: x[:-1]),
    "digit-deleted-after-the-edge": lambda c, rows, s, fmt: change_code(
        rows, s, fmt, first_code, lambda x: x[1:]),
    "non-digit": lambda c, rows, s, fmt: change_code(rows, s, fmt, last_code, lambda x: ":" * len(x)),
    "kind": lambda c, rows, s, fmt: rows[: s + 1] + [next_kind(rows[s + 1], fmt)] + rows[s + 2 :],
    "last-byte-of-the-block": lambda c, rows, s, fmt: rows[:s] + [rows[s][:-1] + " "] + rows[s + 1 :],
    "first-byte-of-the-next": lambda c, rows, s, fmt: rows[: s + 1] + ["}" + rows[s + 1][1:]] + rows[s + 2 :],
    "tail": lambda c, rows, s, fmt: rows[:-1] + [rows[-1][:-1]],
    # the head and brackets of JSON alone: text takes n from its first line and q from --p
    "n": lambda c, rows, s, fmt: [rows[0].replace('"n":2', '"n":3')] + rows[1:],
    "q": lambda c, rows, s, fmt: [rows[0].replace(
        f'"q":{c.field.q},', f'"q":{ {11: 13, 101: 103, 509: 512}[c.field.q]},')] + rows[1:],
    "q-not-prime-power": lambda c, rows, s, fmt: [
        rows[0].replace(f'"q":{c.field.q},', f'"q":{c.field.q + 1},')] + rows[1:],
    "bracket": lambda c, rows, s, fmt: rows[: s + 1] + [rows[s + 1].replace("[", "{", 1)] + rows[s + 2 :],
}
JSON_ONLY = {"n", "q", "q-not-prime-power", "bracket"}


@pytest.mark.parametrize("fmt,case", [(fmt, case) for fmt in ("json", "text")
                                      for case in sorted(WIDE_CASES)
                                      if fmt == "json" or case not in JSON_ONLY])
@pytest.mark.parametrize("size", [1, 3, 7])
@pytest.mark.parametrize("q", [11, 101, 509])
def test_verify_codes_of_every_width_match_the_general_route(
    tmp_path, capsys, monkeypatch, q, fmt, size, case
):
    # gen's bytes of a cycle whose codes have 1 to 3 digits, changed at the
    # edge between the first two blocks of ``size`` rows: the streamed gather
    # gives the exit code, stdout and stderr of the general route
    c = wide_cycle(q)
    rows = rows_of(c, fmt)
    f = tmp_path / f"c.{fmt}"
    f.write_text("".join(rows))
    flags = () if fmt == "json" else ("--n", "2", "--p", str(q))
    monkeypatch.setattr(cycles, "BLOCK_ROWS", size)
    argv = ("verify", "--in", str(f), *flags)
    unchanged = loads_route(monkeypatch, capsys, *argv)
    with monkeypatch.context() as m:  # gen's bytes are gathered, not parsed
        m.setattr(json, "loads", refuse_loads)
        m.setattr(cycles, "_cycle_from_lines", lambda text, field: refuse_loads(text))
        assert run(capsys, *argv) == unchanged and unchanged[0] == 1
    changed = WIDE_CASES[case](c, rows, size, fmt)
    assert changed != rows
    f.write_text("".join(changed))
    expected = loads_route(monkeypatch, capsys, *argv)
    assert run(capsys, *argv) == expected
    assert expected[0] in (1, 2) and expected[2].count("\n") == 1
