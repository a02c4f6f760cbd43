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
from ucycle.gf import Field, field_make
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


def test_verify_parameter_mismatch_exits_2(tmp_path, capsys):
    f = tmp_path / "c.json"
    run(capsys, "gen", "--n", "2", "--p", "2", "--out", str(f))
    assert run(capsys, "verify", "--in", str(f), "--n", "3")[0] == 2
    assert run(capsys, "verify", "--in", str(f), "--p", "3")[0] == 2


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
    raise ValueError("not the canonical byte form")


def loads_route(monkeypatch, capsys, *argv):
    """The CLI's result when every JSON text goes through json.loads and
    cycle_from_json_obj, the reference route that words every refusal."""
    with monkeypatch.context() as m:
        m.setattr(cycles, "_canonical_cycle", not_canonical)
        return run(capsys, *argv)


def gen_json(capsys, path, n, p, k=1):
    assert run(capsys, "gen", "--n", str(n), "--p", str(p), "--k", str(k), "--out", str(path))[0] == 0
    return path.read_text()


@pytest.mark.parametrize("n,p,k", [(3, 5, 1), (2, 2, 3), (2, 2, 1)])
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
