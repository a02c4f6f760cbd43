"""Per-window references for the key walk and its report.

Each window is decoded on its own, by ``geometry.decode_window`` or
``grassmann.span2``, and the report is built from a Counter of the decoded
windows and a set of targets.  None of it shares code with the packed-key
walk or with ``verify._key_report``, which the tests compare against it.
"""

import itertools
from collections import Counter

from ucycle.geometry import DegenerateWindowError, decode_window
from ucycle.grassmann import Subspace2
from ucycle.verify import MAX_REPORT_ITEMS, CoverageReport


def rref_plane_pairs(m, F):
    """All rank-2 RREF row pairs of F_q^m, built row by row: pivots i < j,
    free entries enumerated; independent of the packed plane keys."""
    q, out = F.q, set()
    for i in range(m):
        for j in range(i + 1, m):
            free1 = [c for c in range(i + 1, m) if c != j]
            free2 = list(range(j + 1, m))
            for vals1 in itertools.product(range(q), repeat=len(free1)):
                row1 = [0] * m
                row1[i] = 1
                for col, v in zip(free1, vals1):
                    row1[col] = v
                for vals2 in itertools.product(range(q), repeat=len(free2)):
                    row2 = [0] * m
                    row2[j] = 1
                    for col, v in zip(free2, vals2):
                        row2[col] = v
                    out.add(Subspace2((tuple(row1), tuple(row2))))
    return out


def decoded_windows(vs, decode, wrap=True):
    """Each window's decoding in order, and the indices that do not decode;
    the last vertex pairs with the first only if ``wrap``."""
    out, degenerate = [], []
    for i in range(len(vs) if wrap else len(vs) - 1):
        try:
            out.append(decode(vs[i], vs[(i + 1) % len(vs)]))
        except DegenerateWindowError:
            degenerate.append(i)
    return out, degenerate


def build_report(expected, windows, degenerate) -> CoverageReport:
    """The coverage report of the decoded ``windows`` and the ``degenerate``
    window indices against the ``expected`` targets, compared as a Counter
    and a set."""
    expected, found = set(expected), Counter(windows)
    missing = sorted(k for k in expected if k not in found)
    duplicated = sorted((k, c) for k, c in found.items() if c > 1)
    unexpected = sorted(k for k in found if k not in expected)
    window_count = sum(found.values()) + len(degenerate)
    passed = (
        not missing
        and not duplicated
        and not unexpected
        and not degenerate
        and window_count == len(expected)
    )
    return CoverageReport(
        expected_count=len(expected),
        found_count=window_count,
        missing=missing[:MAX_REPORT_ITEMS],
        duplicated=duplicated[:MAX_REPORT_ITEMS],
        unexpected=unexpected[:MAX_REPORT_ITEMS],
        degenerate_windows=degenerate[:MAX_REPORT_ITEMS],
        missing_total=len(missing),
        duplicated_total=len(duplicated),
        unexpected_total=len(unexpected),
        degenerate_total=len(degenerate),
        passed=passed,
    )


def line_report(c, expected) -> CoverageReport:
    """``build_report`` of a cycle's or a segment's windows, each decoded by
    ``decode_window``, against the target lines."""
    lines, degenerate = decoded_windows(
        c.vertices, lambda a, b: decode_window(a, b, c.field), c.wrap
    )
    return build_report(expected, lines, degenerate)
