"""Property test of the CLI input boundary: malformed cycle files, random flag
values (integers or not) and unknown subcommands never raise a traceback, and
every refusal is one line.

``cli.main`` runs in-process.  Sizes stay tiny (q <= 9, n <= 3, m <= 4 when
the input is valid), so no example allocates more than a few MB; the
oversized inputs are refused before any work.
"""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ucycle.cli import main  # noqa: E402

BOUNDARY = settings(
    max_examples=60,
    deadline=2000,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def check_outcome(rc, err):
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
    if rc == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err


# -- flags ------------------------------------------------------------------

dims = st.integers(-2, 3) | st.sampled_from([17, 20, 28, 10**9])
primes = st.sampled_from([-7, -1, 0, 1, 2, 3, 4, 6, 9, 10**18 + 3])
degrees = st.integers(-1, 2) | st.just(10**9)
# flag values argparse must refuse: not integers, empty, or option-like
non_integers = st.sampled_from(["abc", "", "1.5", "2e3", "0x3", "-", "--", "-h"]) | st.text(max_size=4)


def flag_value(values):
    return st.builds(str, values) | non_integers


@st.composite
def flag_argv(draw):
    cmd = draw(st.sampled_from(["gen", "stats", "grassmann", "frob", ""]))
    if cmd == "grassmann":
        # G(2,4) over GF(9) is the largest valid chain drawn here
        argv = ["grassmann", "--m", draw(flag_value(dims.map(lambda d: d + 1)))]
    else:
        argv = [cmd, "--n", draw(flag_value(dims))]
    argv += ["--p", draw(flag_value(primes)), "--k", draw(flag_value(degrees))]
    if cmd == "gen" and draw(st.booleans()):
        argv += ["--format", "text"]
    if cmd == "grassmann" and draw(st.booleans()):
        argv.append("--nested")
    return argv


@BOUNDARY
@given(flag_argv())
@example(["gen", "--n", "2", "--p", "1000000000000000003"])
@example(["gen", "--n", "2", "--p", "3", "--k", "1000000000"])
@example(["gen", "--n", "2", "--p", "1000000000000000003", "--k", "0"])
@example(["gen", "--n", "20", "--p", "2"])
@example(["grassmann", "--m", "24", "--p", "2"])
@example(["gen", "--n", "abc", "--p", "2"])
@example(["frob"])
@example([])
def test_random_flags(argv):
    check_outcome(*run_main(argv))


# -- cycle files --------------------------------------------------------------

scalars = (
    st.none() | st.booleans() | st.integers(-2, 10) | st.floats(allow_nan=True)
    | st.text(max_size=4) | st.sampled_from([1000000007, 1e400, 2**70])
)
junk = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
codes = st.integers(-1, 9) | scalars
vertex = st.fixed_dictionaries(
    {"type": st.sampled_from(["affine", "infinity", "A", 1]) | junk,
     "coords": st.lists(codes, max_size=4) | junk},
) | junk
cycle_obj = st.fixed_dictionaries(
    {"n": st.integers(-1, 3) | st.sampled_from([28, 10**9]) | scalars,
     "q": st.sampled_from([-1, 0, 1, 2, 3, 4, 6, 8, 9, 1000000007]) | scalars,
     "vertices": st.lists(vertex, max_size=6) | junk},
    optional={"schema_version": junk},
)


@BOUNDARY
@given(obj=cycle_obj | st.dictionaries(st.text(max_size=3), junk, max_size=4))
@example(obj={"n": 2, "q": 1000000007, "vertices": [
    {"type": "affine", "coords": [0, 0]}, {"type": "infinity", "coords": [1, 0]}]})
@example(obj={"n": 28, "q": 2, "vertices": [
    {"type": "affine", "coords": [0] * 28}, {"type": "infinity", "coords": [1] + [0] * 27}]})
def test_malformed_json_files(tmp_path_factory, obj):
    f = tmp_path_factory.mktemp("json") / "c.json"
    f.write_text(json.dumps(obj))
    check_outcome(*run_main(["verify", "--in", str(f)]))


text_line = st.builds(
    " ".join,
    st.lists(st.sampled_from(["A", "I", "#", "x", "0", "1", "2", "-1", "9", "1e3"]),
             max_size=4),
)


@BOUNDARY
@given(lines=st.lists(text_line | st.text(max_size=8), max_size=8),
       p=primes, k=degrees, n=st.none() | dims)
def test_malformed_text_files(tmp_path_factory, lines, p, k, n):
    f = tmp_path_factory.mktemp("text") / "c.txt"
    f.write_text("\n".join(lines), encoding="utf-8")
    argv = ["verify", "--in", str(f), "--p", str(p), "--k", str(k)]
    if n is not None:
        argv += ["--n", str(n)]
    check_outcome(*run_main(argv))
