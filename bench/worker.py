"""One benchmark process: set up, then run one pass of a workload.

Started by run.py, never by hand.  Modes:

- ``setup``: import ucycle and prepare the inputs, then stop.  Reports the
  set-up time only.
- ``pass``: run the workload's CLI calls once through ``ucycle.cli.main``,
  timing each call, with tracing off.
- ``trace``: replay the same calls through each module's public functions,
  recording one span around every call into a layer.

Set-up time runs from ``--t0-ns`` (the parent's perf_counter_ns just before
it started this process; CLOCK_MONOTONIC is shared by all processes) to the
first timed call.  The last line on stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads as wl
from spans import Tracer

ROOT = wl.BENCH_DIR.parent
SRC = ROOT / "src"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- untraced pass through the CLI ----------------------------------------------


def run_pass(workload, cases, seed, tmp, digests, cli_main, log):
    """Run the workload's CLI calls once; returns [(op, case label, seconds)]."""
    times = []

    def timed(op, label, argv):
        rc, out, seconds, problems = wl.call_cli(cli_main, argv)
        times.append((op, label, seconds))
        return rc, out, problems

    for case in cases:
        a, p, k = case
        q = p**k
        label = wl.case_label(workload, case)
        if workload == "grassmann-chain":
            path = tmp / f"grassmann-{a}-{p}-{k}.json"
            argv = ["grassmann", "--m", str(a), "--p", str(p), "--k", str(k), "--nested", "--out", str(path)]
            rc, _, problems = timed("grassmann", label, argv)
            problems += wl.check_exit(rc, 0)
            if not problems:
                problems += wl.check_output(path, digests.get(wl.digest_key("grassmann", case)))
            if not problems:  # the pinned bytes are valid JSON
                with open(path, encoding="utf-8") as fh:
                    problems += wl.check_grassmann_payload(json.load(fh), a, q)
            log.record(f"grassmann {label}", problems)
            continue

        path = tmp / f"gen-{a}-{p}-{k}.json"
        argv = ["gen", "--n", str(a), "--p", str(p), "--k", str(k), "--out", str(path)]
        rc, _, problems = timed("gen", label, argv)
        problems += wl.check_exit(rc, 0)
        if not problems:
            problems += wl.check_output(path, digests.get(wl.digest_key("gen", case)))
        if not log.record(f"gen {label}", problems):
            continue

        rc, out, problems = timed("verify", label, ["verify", "--in", str(path)])
        problems += wl.check_exit(rc, 0)
        rep, bad = wl.parse_report(out)
        log.record(f"verify {label}", problems + bad + wl.check_affine_report(rep, a, q))

        if workload == "affine-large":
            bad_path = corrupted_input(path, tmp, seed)
            rc, out, problems = timed("verify_fail", label, ["verify", "--in", str(bad_path)])
            problems += wl.check_exit(rc, 1)
            rep, bad = wl.parse_report(out)
            log.record(f"verify corrupted {label}", problems + bad + wl.check_affine_report(rep, a, q, removed=1))
    return times


def corrupted_input(path: Path, tmp: Path, seed: int) -> Path:
    """The seed's corrupted copy of ``path``, made once per run, untimed.

    Untraced and traced passes share it: their ``gen`` outputs carry the
    same pinned digest.
    """
    bad_path = tmp / "corrupt-gen.json"
    if not bad_path.exists():
        part = bad_path.with_suffix(".part")
        wl.corrupt_cycle_file(path, part, seed)
        part.replace(bad_path)
    return bad_path


# -- traced replay through the modules ------------------------------------------


class Replay:
    """The CLI's pipeline, called layer by layer with a span around each call.

    Mirrors ``cli.cmd_gen``, ``cli.cmd_verify`` and ``cli.cmd_grassmann``
    and the bodies of ``universal_cycle`` and ``nested_cycles``; the output
    digests and report checks confirm that the replay did the same work.
    Probes (hyperplane points, the line and subspace oracles) run outside
    the ``cli.main`` spans, so they do not count as tracing overhead.
    """

    def __init__(self, tracer: Tracer, log: wl.OpLog, digests: dict):
        from ucycle import constructions, cycles, geometry, gf, grassmann, verify

        self.gf, self.geometry, self.constructions = gf, geometry, constructions
        self.cycles, self.grassmann, self.verify = cycles, grassmann, verify
        self.tr = tracer
        self.log = log
        self.digests = digests
        self.inputs: dict[str, dict] = {}

    def universal_cycle(self, n, F, label):
        C, span = self.constructions, self.tr.span
        with span("constructions.universal_cycle") as top:
            with span("constructions.plan_fibers") as s:
                plan = C.plan_fibers(n, F)
                directions = 2 * len(plan.pairs) + (3 if plan.triplet is not None else 0)
                s["items"] = directions
            parts = []
            if plan.triplet is not None:
                with span("constructions.triple_fiber_cycle") as s:
                    parts.append(C.triple_fiber_cycle(*plan.triplet, n, F))
                    s["items"] = len(parts[-1])
            for d1, d2 in plan.pairs:
                with span("constructions.two_fiber_cycle") as s:
                    parts.append(C.two_fiber_cycle(d1, d2, n, F))
                    s["items"] = len(parts[-1])
            if len(parts) == 1:
                c = parts[0]
            else:
                with span("cycles.glue_cycles", items=sum(len(x) for x in parts)):
                    c = self.cycles.glue_cycles(parts, self.geometry.affine((0,) * n), check=False)
            top["items"] = len(c)
        self.inputs[label] = {
            "points": F.q**n,
            "directions": directions,
            "pairs": len(plan.pairs),
            "triplets": int(plan.triplet is not None),
            "windows": len(c),
        }
        return c, plan

    def probe_hyperplanes(self, plan, F):
        G = self.geometry
        distinct = set()
        for d1, d2 in plan.pairs:
            W = G.complementary_hyperplane(d1, d2, F)
            distinct.add(W)
            with self.tr.span("geometry.hyperplane_points") as s:
                s["items"] = len(G.hyperplane_points(W, F))
        self.tr.count("geometry.hyperplanes.calls", len(plan.pairs))
        self.tr.count("geometry.hyperplanes.distinct", len(distinct))

    def gen(self, case, path, label):
        n, p, k = case
        span = self.tr.span
        with span("cli.main") as top:
            with span("gf.field_make") as s:
                F = self.gf.field_make(p, k)
                s["items"] = F.q
            c, plan = self.universal_cycle(n, F, label)
            with span("cycles.cycle_to_json_obj", items=len(c)):
                obj = self.cycles.cycle_to_json_obj(c)
            with span("cli.encode") as s:
                payload = wl.cli_json(obj)
                s["items"] = len(payload)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(payload)
            top["items"] = len(payload)
        self.probe_hyperplanes(plan, F)
        problems = wl.check_output(path, self.digests.get(wl.digest_key("gen", case)))
        return self.log.record(f"traced gen {label}", problems)

    def verify_file(self, case, path, label, removed=0):
        n, p, k = case
        span = self.tr.span
        with span("cli.main") as top:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            top["items"] = len(text)
            with span("cli.decode", items=len(text)):
                obj = json.loads(text)
            with span("cycles.cycle_from_json_obj") as s:
                c = self.cycles.cycle_from_json_obj(obj)
                s["items"] = len(c)
            with span("verify.verify_affine", items=len(c)):
                rep = self.verify.verify_affine(c, c.n, c.field)
            report = json.loads(wl.cli_json(rep.to_json_obj()))
        kind = "traced verify corrupted" if removed else "traced verify"
        self.log.record(f"{kind} {label}", wl.check_affine_report(report, n, p**k, removed))
        return c.field

    def probe_lines(self, case, F, label):
        n = case[0]
        with self.tr.span("verify.all_affine_lines") as s:
            s["items"] = len(self.verify.all_affine_lines(n, F))
        want = wl.affine_windows(n, F.q)
        problems = [] if s["items"] == want else [f"oracle has {s['items']} lines, expected {want}"]
        self.log.record(f"line oracle {label}", problems)

    def grassmann_chain(self, case, path, label):
        M, p, k = case
        Gr, V, span = self.grassmann, self.verify, self.tr.span
        with span("cli.main") as top:
            with span("gf.field_make") as s:
                F = self.gf.field_make(p, k)
                s["items"] = F.q
            plans = []
            with span("grassmann.nested_cycles") as nest:
                with span("grassmann.singer_cycle") as s:
                    levels = [Gr.singer_cycle(F)]
                    s["items"] = len(levels[0])
                for m in range(3, M):
                    c, plan = self.universal_cycle(m, F, f"{label} AG({m},{F.q})")
                    plans.append(plan)
                    with span("grassmann.lift_affine_cycle") as s:
                        shell = Gr.lift_affine_cycle(c)
                        s["items"] = len(shell)
                    e1 = (1,) + (0,) * m
                    emb = Gr.embed_cycle(levels[-1], m + 1)
                    i = shell.vertices.index(e1)
                    levels.append(Gr.GrassCycle(emb.vertices + shell.vertices[i:] + shell.vertices[:i], F))
                nest["items"] = len(levels[-1])
            level_objs = []
            for idx, u in enumerate(levels):
                mi = idx + 3
                with span("verify.verify_grassmann", items=len(u)):
                    rep = V.verify_grassmann(u, mi, F)
                nested_ok = None
                if idx > 0:
                    with span("verify.verify_nesting", items=len(u)):
                        nested_ok = V.verify_nesting(Gr.embed_cycle(levels[idx - 1], mi), u)
                with span("grassmann.grass_to_json_obj", items=len(u)):
                    cycle_obj = Gr.grass_to_json_obj(u)
                level_objs.append(
                    {
                        "m": mi,
                        "windows": len(u),
                        "verification": rep.to_json_obj(),
                        "nested_previous": nested_ok,
                        "cycle": cycle_obj,
                    }
                )
            with span("cli.encode") as s:
                payload = wl.cli_json({"q": F.q, "levels": level_objs})
                s["items"] = len(payload)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(payload)
            top["items"] = len(payload)
        for plan in plans:
            self.probe_hyperplanes(plan, F)
        problems = wl.check_output(path, self.digests.get(wl.digest_key("grassmann", case)))
        self.log.record(f"traced grassmann {label}", problems)
        for mi in range(3, M + 1):
            with span("verify.all_2subspaces") as s:
                s["items"] = len(V.all_2subspaces(mi, F))
            want = wl.gaussian_2(mi, F.q)
            problems = [] if s["items"] == want else [f"oracle has {s['items']} planes, expected {want}"]
            self.log.record(f"plane oracle {label} m={mi}", problems)


def replay_case(replay, workload, case, label, seed, tmp):
    a, p, k = case
    if workload == "grassmann-chain":
        replay.grassmann_chain(case, tmp / f"traced-grassmann-{a}-{p}-{k}.json", label)
        return
    path = tmp / f"traced-gen-{a}-{p}-{k}.json"
    if not replay.gen(case, path, label):
        return
    F = replay.verify_file(case, path, label)
    if workload == "affine-large":
        replay.verify_file(case, corrupted_input(path, tmp, seed), label, removed=1)
    replay.probe_lines(case, F, label)


def run_traced(workload, cases, seed, tmp, digests, log):
    tr = Tracer(workload)
    replay = Replay(tr, log, digests)
    for case in cases:
        label = wl.case_label(workload, case)
        tr.case = label
        try:
            replay_case(replay, workload, case, label, seed, tmp)
        except Exception as e:  # a layer that raises is a failed operation
            log.record(f"traced {label}", [f"raised {type(e).__name__}: {e}"])
    return tr, replay.inputs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "pass", "trace"))
    ap.add_argument("--tmp", required=True, type=Path)
    ap.add_argument("--t0-ns", required=True, type=int)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import ucycle
    from ucycle.cli import main as cli_main

    if not Path(ucycle.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported ucycle from {ucycle.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    digests = wl.load_digests()
    cases = wl.case_order(args.workload, args.seed)
    log = wl.OpLog()
    result = {"setup_s": (time.perf_counter_ns() - args.t0_ns) / 1e9}
    if args.mode == "pass":
        result["calls"] = run_pass(args.workload, cases, args.seed, args.tmp, digests, cli_main, log)
    elif args.mode == "trace":
        tr, inputs = run_traced(args.workload, cases, args.seed, args.tmp, digests, log)
        result["spans"] = tr.spans
        result["counts"] = tr.counts
        result["inputs"] = inputs
    result.update(
        attempted=log.attempted,
        failed=log.failed,
        problems=log.problems,
        peak_rss_mb=peak_rss_mb(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
