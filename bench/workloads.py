"""Workload definitions, known answers and operation checks.

Pure standard library: the benchmark's parent process imports this module
without importing ucycle or numpy, and the known answers below are computed
here, independently of ucycle.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DIGESTS_FILE = BENCH_DIR / "digests.json"

# An affine case is (n, p, k) with q = p**k; a Grassmann case is (m, p, k).
LARGE = [(4, 3, 2)]
WIDE_Q = [(2, 2, 6), (2, 2, 7)]
# Every acceptance-grid case with q**n <= 500: the verifier's pure-Python route.
SMALL_GRID = [(2, p, k) for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))]
SMALL_GRID += [(3, p, k) for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1))]
SMALL_GRID += [(4, p, k) for p, k in ((2, 1), (3, 1), (2, 2))]
GRASSMANN = [(10, 2, 1), (7, 3, 1)]

WORKLOADS = {
    "affine-large": LARGE,
    "affine-wide-q": WIDE_Q,
    "affine-small-grid": SMALL_GRID,
    "grassmann-chain": GRASSMANN,
}

# Largest number of items a coverage report lists per category.
REPORT_LIST_LIMIT = 32


def affine_windows(n: int, q: int) -> int:
    """Number of affine lines of AG(n,q): q^(n-1) (q^n - 1) / (q - 1)."""
    return q ** (n - 1) * (q**n - 1) // (q - 1)


def gaussian_2(m: int, q: int) -> int:
    """Gaussian binomial [m choose 2]_q: the number of planes in F_q^m."""
    return (q**m - 1) * (q ** (m - 1) - 1) // ((q * q - 1) * (q - 1))


def case_label(workload: str, case: tuple) -> str:
    a, p, k = case
    if workload == "grassmann-chain":
        return f"G(2,{a})/q={p ** k}"
    return f"AG({a},{p ** k})"


def case_order(workload: str, seed: int) -> list[tuple]:
    cases = list(WORKLOADS[workload])
    random.Random(seed).shuffle(cases)
    return cases


def corruption_index(seed: int, vertices: int) -> int:
    """Seed-chosen vertex deleted from the affine-large cycle."""
    return random.Random(f"corrupt:{seed}").randrange(vertices)


def load_digests() -> dict:
    with open(DIGESTS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def digest_key(kind: str, case: tuple) -> str:
    a, p, k = case
    return f"{kind} {a} {p} {k}"


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def cli_json(obj) -> str:
    """JSON text encoded with the CLI's settings."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def corrupt_cycle_file(src, dst, seed: int) -> int:
    """Write ``src`` with one seed-chosen vertex deleted; return its index.

    The result is encoded with the CLI's settings, so only the deletion
    differs from a file the CLI would write.
    """
    with open(src, encoding="utf-8") as fh:
        obj = json.load(fh)
    idx = corruption_index(seed, len(obj["vertices"]))
    del obj["vertices"][idx]
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write(cli_json(obj))
    return idx


# -- known-answer checks -------------------------------------------------------
#
# Each check returns a list of problems; an empty list means the operation's
# output is correct.


def check_exit(rc, want: int) -> list[str]:
    return [] if rc == want else [f"exit code {rc}, expected {want}"]


def check_output(path, expected: str | None) -> list[str]:
    """The file a call should have written exists and has the pinned digest."""
    if expected is None:
        return ["no pinned digest for this output"]
    if not Path(path).is_file():
        return [f"no output file {Path(path).name}"]
    actual = sha256_file(path)
    return [] if actual == expected else [f"sha256 {actual[:12]}… differs from pinned {expected[:12]}…"]


def check_affine_report(rep: dict, n: int, q: int, removed: int = 0) -> list[str]:
    """A verify report for a cycle of AG(n,q) with ``removed`` vertices deleted.

    A valid cycle must pass with every count exact.  One deleted vertex drops
    two windows and joins their neighbours into one, so the report must fail
    with one window short and list at least one missing line.
    """
    want = affine_windows(n, q)
    problems = []
    if rep.get("expected_count") != want:
        problems.append(f"expected_count {rep.get('expected_count')} != {want}")
    if rep.get("found_count") != want - removed:
        problems.append(f"found_count {rep.get('found_count')} != {want - removed}")
    if removed == 0:
        if rep.get("passed") is not True:
            problems.append("valid cycle did not pass")
        totals = ("missing_total", "duplicated_total", "unexpected_total", "degenerate_total")
        problems += [f"{t} = {rep.get(t)}" for t in totals if rep.get(t) != 0]
    else:
        if rep.get("passed") is not False:
            problems.append("corrupted cycle passed")
        missing_total = rep.get("missing_total", 0)
        if not 1 <= missing_total <= 2 * removed:
            problems.append(f"missing_total {missing_total} outside [1, {2 * removed}]")
        if len(rep.get("missing", ())) != min(missing_total, REPORT_LIST_LIMIT):
            problems.append("missing lines are not listed")
    return problems


def check_grassmann_payload(obj: dict, m_top: int, q: int) -> list[str]:
    """Every level U_3..U_m is listed, exactly covered and nested in the next."""
    problems = []
    if obj.get("q") != q:
        problems.append(f"q {obj.get('q')} != {q}")
    levels = obj.get("levels", [])
    if [lv.get("m") for lv in levels] != list(range(3, m_top + 1)):
        return problems + ["levels are not m = 3..%d" % m_top]
    for lv in levels:
        m, want = lv["m"], gaussian_2(lv["m"], q)
        rep = lv.get("verification", {})
        if lv.get("windows") != want or len(lv.get("cycle", {}).get("vertices", ())) != want:
            problems.append(f"U_{m}: {lv.get('windows')} windows, expected {want}")
        if rep.get("expected_count") != want or rep.get("found_count") != want:
            problems.append(f"U_{m}: report counts {rep.get('expected_count')}/{rep.get('found_count')}")
        if rep.get("passed") is not True:
            problems.append(f"U_{m}: verification did not pass")
        nested = None if m == 3 else True
        if lv.get("nested_previous") is not nested:
            problems.append(f"U_{m}: nested_previous {lv.get('nested_previous')}, expected {nested}")
    return problems


# -- running and counting operations --------------------------------------------


class OpLog:
    """Operations attempted and failed; a failure keeps its reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")
        return not problems


def call_cli(cli_main, argv: list[str]):
    """Time one in-process CLI call with its output captured.

    Returns (exit code, stdout, seconds, problems).  An exception is caught
    here so that it counts as a failed operation instead of ending the run;
    the exit code is then None.
    """
    out, err = io.StringIO(), io.StringIO()
    problems: list[str] = []
    rc = None
    t0 = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(argv)
    except Exception as e:  # any escape from the CLI is a failed operation
        problems.append(f"raised {type(e).__name__}: {e}")
    seconds = (time.perf_counter_ns() - t0) / 1e9
    return rc, out.getvalue(), seconds, problems


def parse_report(stdout: str) -> tuple[dict, list[str]]:
    try:
        return json.loads(stdout), []
    except json.JSONDecodeError as e:
        return {}, [f"report is not JSON: {e}"]
