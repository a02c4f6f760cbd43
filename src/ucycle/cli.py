"""Command-line front end: generate, verify, Grassmannian chains, statistics.

Exit codes: 0 success (verification passed where applicable), 1 a
verification failed, 2 invalid parameters, unreadable/malformed input, more
than 2^24 lines or planes, an unwritable output file, or memory exhausted.
Output is byte-identical across runs for identical flags.  ``verify`` opens
its file for ``verify.verify_file``, which reads it as ``cycles.decode_rows``
does: JSON if led by ``{`` after whitespace, else text over ``--p``/``--k``;
gen's bytes streamed a block at a time through the rank walk into one count
per line, so that neither the cycle nor its ranks are held; any other file
read whole.  The file's n and q are checked (``_admit``) before the counts
are made, and refused only once the file has been read to its end.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
from typing import Iterable

from .gf import Field, field_make, field_order
from .cycles import cycle_blocks, occurs_cyclically
from .constructions import plan_fibers, universal_cycle
from .grassmann import embed_codes, grass_blocks, nested_levels
from .verify import affine_line_count, gaussian_binomial_2, key_radix
from .verify import verify_file, verify_grassmann

SIZE_BUDGET_BITS = 24  # at most 2^24 lines or planes
# what the budget counts for each kind of packed key, and its name
_BUDGETED = {"line": (affine_line_count, "the lines of AG({dim},{q})"),
             "plane": (gaussian_binomial_2, "the planes of F_{q}^{dim}")}


def _check_size(kind: str, dim: int, q: int) -> None:
    """Refuse, before any work, more than 2^SIZE_BUDGET_BITS lines or planes.
    Both number at least 2^(2·dim-4), so a dim past that is refused without
    forming q^dim; dim < 1 is left to the library's own checks."""
    count, what = _BUDGETED[kind]
    if 2 * dim - 4 > SIZE_BUDGET_BITS or (dim >= 1 and count(dim, q) > 2**SIZE_BUDGET_BITS):
        what = what.format(dim=dim, q=q)
        raise ValueError(f"{what} exceed the size budget of 2^{SIZE_BUDGET_BITS}")


def _flags_field(args, kind: str, dim: int) -> Field:
    """GF(p^k) of the flags, built only once its order bound, the size budget
    and the int64 key bound pass, in that order: each needs q alone."""
    q = field_order(args.p, args.k)
    _check_size(kind, dim, q)
    key_radix(kind, dim, q)
    return field_make(args.p, args.k)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(payload: Iterable[str], out: str | None, summary: str | None = None) -> None:
    """Write the payload's pieces to ``out``, or to stdout when there is none;
    the summary line then goes to stdout, or to stderr beside the payload."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(payload)
    else:
        sys.stdout.writelines(payload)
    if summary is not None:
        print(summary, file=sys.stdout if out else sys.stderr)


class _Parser(argparse.ArgumentParser):
    """An argument error exits 2 with one ``error: ...`` line, like every
    other refusal; subcommand parsers inherit the class."""

    def error(self, message):
        self.exit(2, "error: " + message.replace("\n", "\\n") + "\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The grammar, built once: argparse keeps no state between parses."""
    parser = _Parser(
        prog="ucycle",
        description="Universal cycles for affine lines of AG(n,q) and nested "
        "cycles on Grassmannians of planes, with exact-cover verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a universal cycle for AG(n,q)")
    gen.set_defaults(run=cmd_gen)
    gen.add_argument("--n", type=int, required=True, help="affine dimension (>= 2)")
    gen.add_argument("--p", type=int, required=True, help="prime characteristic")
    gen.add_argument("--k", type=int, default=1, help="extension degree (q = p^k)")
    gen.add_argument("--format", choices=("json", "text"), default="json")
    gen.add_argument("--out", help="output path (default: stdout)")

    ver = sub.add_parser("verify", help="verify a cycle file against the oracle")
    ver.set_defaults(run=cmd_verify)
    ver.add_argument("--in", dest="infile", required=True, help="cycle file")
    ver.add_argument("--n", type=int, help="expected dimension, checked against the file's")
    ver.add_argument("--p", type=int, help="prime (required for text files)")
    ver.add_argument("--k", type=int, default=1)

    gr = sub.add_parser("grassmann", help="build and verify plane-Grassmannian cycles")
    gr.set_defaults(run=cmd_grassmann)
    gr.add_argument("--m", type=int, required=True, help="ambient dimension (>= 3)")
    gr.add_argument("--p", type=int, required=True)
    gr.add_argument("--k", type=int, default=1)
    gr.add_argument("--nested", action="store_true", help="emit the whole chain U_3..U_m")
    gr.add_argument("--out", help="output path (default: stdout)")

    st = sub.add_parser("stats", help="print counts and the planned fiber partition")
    st.set_defaults(run=cmd_stats)
    st.add_argument("--n", type=int, required=True)
    st.add_argument("--p", type=int, required=True)
    st.add_argument("--k", type=int, default=1)

    return parser


def _direction_count(n: int, q: int) -> int:
    return (q**n - 1) // (q - 1)


def cmd_gen(args) -> int:
    F = _flags_field(args, "line", args.n)
    c = universal_cycle(args.n, F)
    ndirs = _direction_count(args.n, F.q)
    summary = f"n={args.n} q={F.q} vertices={len(c)} windows={len(c)} directions={ndirs}"
    _emit(cycle_blocks(c, args.format), args.out, summary)
    return 0


def _admit(want_n: int | None, n: int, q: int) -> None:
    """The checks of a cycle file's n and q, once its cycle is read."""
    if want_n is not None and n != want_n:
        raise ValueError(f"file has n={n}, expected n={want_n}")
    # an int64 overflow of the line keys names its own bound, so it is checked first
    key_radix("line", n, q)
    _check_size("line", n, q)


def cmd_verify(args) -> int:
    with open(args.infile, "rb") as fh:
        if not fh.seekable():  # a pipe: the reader reads a file twice
            fh = io.BytesIO(fh.read())
        field = None if args.p is None else field_make(args.p, args.k)
        rep = verify_file(fh, field, functools.partial(_admit, args.n))
    sys.stdout.write(_dumps(rep.to_json_obj()))
    print(rep.summary(), file=sys.stderr)
    return 0 if rep.passed else 1


def cmd_grassmann(args) -> int:
    F = _flags_field(args, "plane", args.m)
    levels, failed = nested_levels(args.m, F), []

    def payload():  # each level written once checked; only the previous one is kept
        prev, lead = None, '{"levels":['
        for mi, u in enumerate(levels, 3):
            rep = verify_grassmann(u, mi, F)
            # verify_nesting without a validated copy of the padded level
            nested = None if prev is None else occurs_cyclically(embed_codes(prev, mi), u.codes)
            failed.append(not rep.passed or nested is False)
            prev = u
            if args.nested or mi == args.m:
                obj = {"m": mi, "windows": len(u), "verification": rep.to_json_obj(),
                       "nested_previous": nested}
                # "cycle" sorts before the other keys: _dumps of the level with it
                yield lead + '{"cycle":'
                yield from grass_blocks(u, "]},")
                yield _dumps(obj)[1:-1]
                lead = ","
                nesting = "" if nested is None else f" nesting(U_{mi - 1} in U_{mi})={nested}"
                print(f"U_{mi}: windows={len(u)} {rep.summary()}{nesting}", file=sys.stderr)
        yield f'],"q":{F.q}}}\n'

    _emit(payload(), args.out)
    return 1 if any(failed) else 0


def cmd_stats(args) -> int:
    F = _flags_field(args, "line", args.n)
    plan = plan_fibers(args.n, F)
    print(f"directions = {_direction_count(args.n, F.q)}")
    print(f"lines = {affine_line_count(args.n, F.q)}")
    if plan.triplet is None:
        print(f"branch = even: {len(plan.pairs)} pairs")
    else:
        print(f"branch = odd: triplet + {len(plan.pairs)} pairs")
        t = " ".join(str(list(d.vector)) for d in plan.triplet)
        print(f"triplet: {t}")
    for i, (a, b) in enumerate(plan.pairs, 1):
        print(f"pair {i}: {list(a.vector)} + {list(b.vector)}")
    return 0


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.run(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:  # numpy's allocation failures subclass it
        if args.command == "verify":
            given = f"{args.infile} ({os.path.getsize(args.infile)} bytes)"
        else:
            dim = "m" if args.command == "grassmann" else "n"
            given = f"{dim}={getattr(args, dim)} q={args.p}^{args.k}"
        print(f"error: {args.command} ran out of memory on {given}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
