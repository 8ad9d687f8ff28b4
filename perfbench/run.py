"""The fairbound benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep-eps-op --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src``
directory.  Set-up writes the seeded inputs (and, for ``cli-certify``, trains
and audits h*) several times and reports the median.  Then whole rounds of
ops run, one fresh child interpreter at a time, until ``--seconds`` have
passed.  Every op's outputs are checked.  With ``--trace 0`` the last line
holds the end-to-end metrics; with ``--trace 1`` every op runs twice, plain
and traced, and the last line holds the per-layer metrics.  See README.md.

Op and set-up times are reported in reference seconds: wall seconds times
``reference.NOMINAL_S`` over the time the child took for its workload's
reference kernel around the same work.  The wall-clock figures are printed
beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

import tracing
from reference import NOMINAL_S
from workloads import WORKLOADS, fresh_dir

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
RUN_LIMIT_S = 170.0  # every child is killed by then, so a run ends within 180 s

# End-to-end metrics of the result line, name -> unit.
END_TO_END = {
    "setup_s": "s",
    "releases_per_s": "1/s",
    "op_s.median": "s",
    "unit_success_rate": "fraction",
    "peak_rss_mb": "MB",
    "cert_lemma_mean": "bound",
}
# Printed with their sample counts but kept out of the result line (README.md).
PRINTED = {"op_s.tail": "s", "releases_per_wall_s": "1/s", "setup_wall_s": "s"}


def speed(result: dict) -> float:
    """How much faster than nominal the machine ran around this child's
    work: NOMINAL_S over the mean of its reference kernel timings."""
    return NOMINAL_S / statistics.fmean(result["reference_s"])


def op_ref_s(record: dict) -> float:
    """Op time in reference seconds."""
    return record["result"]["op_s"] * speed(record["result"])


class Harness:
    def __init__(self, workload, trace: bool, work: str):
        self.wl = workload
        self.trace = trace
        self.work = work
        self.started = time.perf_counter()
        self.seq = 0

    def child(self, op: dict, cwd: str, trace: bool = False, environment: bool = False) -> dict:
        """Run one op in a fresh interpreter and wait for it to end."""
        self.seq += 1
        op = dict(op, src=SRC, cwd=cwd, trace=trace, environment=environment, reference=self.wl.reference,
                  op_id=f"{self.seq}:{op.get('key', 'setup')}",
                  result=os.path.join(cwd, "result.json"),
                  trace_out=os.path.join(cwd, "trace.json"))
        path = os.path.join(cwd, "op.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(op, fh)
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        with open(os.path.join(cwd, "child.log"), "w", encoding="utf-8") as log:
            try:
                proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), path],
                                      cwd=cwd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(remaining, 1.0))
            except subprocess.TimeoutExpired:
                raise SystemExit(f"op {op['op_id']} still running at the {RUN_LIMIT_S:.0f} s limit")
        if proc.returncode != 0:
            with open(os.path.join(cwd, "child.log"), encoding="utf-8") as fh:
                sys.stderr.write(fh.read()[-4000:])
            raise SystemExit(f"op child {op['op_id']} exited with {proc.returncode}")
        with open(op["result"], encoding="utf-8") as fh:
            return json.load(fh)

    def setup(self) -> tuple[list[tuple[float, float]], dict]:
        """Write the inputs several times, each from scratch; the last copy
        stays for the ops.  Returns (wall s, reference s) per set-up, both
        without the child's reference timings."""
        times, env = [], {}
        for i in range(self.wl.setup_runs):
            start = time.perf_counter()
            inputs = fresh_dir(os.path.join(self.work, "inputs"))
            op = self.wl.write_inputs(inputs)
            result = self.child(op, inputs, environment=(i == 0))
            wall = time.perf_counter() - start - sum(result["reference_s"])
            times.append((wall, wall * speed(result)))
            env = env or result["environment"]
            bad = [u for u in result["units"] if u["error"] is not None]
            if bad:
                raise SystemExit(f"set-up failed: {bad}")
        return times, env

    def run_op(self, op: dict, trace: bool) -> dict:
        cwd = fresh_dir(os.path.join(self.work, "ops", f"{self.seq + 1}"))
        result = self.child(op, cwd, trace=trace)
        outcome = self.wl.check(dict(op, cwd=cwd), result)
        record = {"key": op["key"], "trace": trace, "result": result, "outcome": outcome}
        if trace:
            with open(op_trace := os.path.join(cwd, "trace.json"), encoding="utf-8") as fh:
                record["dump"] = json.load(fh)
            os.remove(op_trace)
        return record

    def measure(self, seconds: float) -> list[dict]:
        records = []
        start = time.perf_counter()
        r = 0
        # whole seed cycles only, so every run of a seed has the same op mix
        while r % self.wl.cycle or r == 0 or time.perf_counter() - start < seconds:
            for op in self.wl.round(r):
                order = [False, True] if (len(records) // 2) % 2 == 0 else [True, False]
                for trace in (order if self.trace else [False]):
                    records.append(self.run_op(op, trace))
            r += 1
        return records


def percentile_tail(values: list[float]) -> tuple[float, int]:
    """p90 by linear interpolation; (value, samples beyond it)."""
    if len(values) == 1:
        return values[0], 0
    p90 = statistics.quantiles(values, n=10, method="inclusive")[-1]
    return p90, sum(v > p90 for v in values)


def consistency(records: list[dict]) -> list[str]:
    """Digest checks: an op key gives the same outputs on every repeat and
    in traced and plain runs; digest parts must match across all ops."""
    problems = []
    by_key: dict[str, set] = {}
    parts: dict[str, set] = {}
    for rec in records:
        o = rec["outcome"]
        if o.digest:
            by_key.setdefault(rec["key"], set()).add(o.digest)
        for name, value in o.parts.items():
            parts.setdefault(name, set()).add(value)
    problems += [f"digest: op {k} gave {len(v)} different outputs" for k, v in by_key.items() if len(v) > 1]
    problems += [f"digest: {k} differs between ops" for k, v in parts.items() if len(v) > 1]
    return problems


def end_to_end(records: list[dict], setup_times: list[tuple[float, float]]) -> tuple[dict, dict]:
    outcomes = [r["outcome"] for r in records]
    ok = [op_ref_s(r) for r in records if not r["outcome"].failed and not r["outcome"].violations]
    all_s = sum(op_ref_s(r) for r in records)
    wall_s = sum(r["result"]["op_s"] for r in records)
    releases = sum(o.releases for o in outcomes)
    units = sum(o.units for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    cert = [v for o in outcomes for v in o.cert]
    if not ok or not cert:
        raise SystemExit("no op succeeded; nothing to report")
    tail, beyond = percentile_tail(ok)
    values = {
        "setup_s": statistics.median(ref for _, ref in setup_times),
        "setup_wall_s": statistics.median(wall for wall, _ in setup_times),
        "releases_per_s": releases / all_s,
        "releases_per_wall_s": releases / wall_s,
        "op_s.median": statistics.median(ok),
        "op_s.tail": tail,
        "unit_success_rate": 1.0 - failed / units,
        "peak_rss_mb": max(r["result"]["maxrss_mb"] for r in records),
        "cert_lemma_mean": statistics.fmean(cert),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups, reference seconds",
        "setup_wall_s": f"median of {len(setup_times)} set-ups, wall clock",
        "releases_per_s": f"{releases} certified releases / {all_s:.3f} op reference seconds",
        "releases_per_wall_s": f"{releases} certified releases / {wall_s:.3f} op wall seconds",
        "op_s.median": f"n={len(ok)} successful ops",
        "op_s.tail": f"p90, n={len(ok)}, {beyond} beyond",
        "unit_success_rate": f"error_rate={failed}/{units}",
        "peak_rss_mb": f"max ru_maxrss of {len(records)} op children",
        "cert_lemma_mean": f"mean of {len(cert)} a-priori certificates",
    }
    return values, notes


def per_layer(records: list[dict]) -> tuple[dict, dict]:
    traced = [r for r in records if r["trace"]]
    plain = {r["key"]: [] for r in records}
    for r in records:
        if not r["trace"]:
            plain[r["key"]].append(op_ref_s(r))
    summaries = [tracing.op_summary(r["dump"]) for r in traced]
    values = tracing.layer_metrics(summaries)
    values["cli.import_s"] = statistics.median(r["result"]["import_s"] for r in records)
    traced_s = sum(op_ref_s(r) for r in traced)
    plain_s = sum(statistics.fmean(plain[r["key"]]) for r in traced)
    values["trace_overhead_frac"] = traced_s / plain_s - 1.0
    # deterministic counts must repeat exactly for every repeat of an op key
    seen: dict[tuple, set] = {}
    for r, s in zip(traced, summaries):
        for name in tracing.DETERMINISTIC:
            seen.setdefault((r["key"], name), set()).add(s.get(name, 0))
    unstable = sorted({name for (_, name), v in seen.items() if len(v) > 1})
    missing = sorted({m for r in traced for m in r["result"].get("missing", [])})
    notes = {
        "ops": f"{len(traced)} traced ops, each paired with a plain run of the same op",
        "largest_self_layer": tracing.largest_self_layer(values),
        "deterministic_counts": ", ".join(tracing.DETERMINISTIC)
        + (f" (NOT repeating: {unstable})" if unstable else " (repeat exactly)"),
        "unwrapped_names": ", ".join(missing) or "none",
    }
    return values, notes


def git_commit() -> str | None:
    """HEAD of the checkout, when it is a git work tree."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", *ref[5:].split("/"))
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    # SystemExit inside subprocess.run kills the running child and waits for it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "fairbound", "__init__.py")):
        print(f"no fairbound package under {SRC}; run from a fairbound checkout", file=sys.stderr)
        return 2

    work = fresh_dir(os.path.join(WORK, args.workload))
    wl = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    harness = Harness(wl, bool(args.trace), work)
    setup_times, env = harness.setup()
    env.update(workload=args.workload, seed=args.seed, git_commit=git_commit(),
               tiny=args.tiny, generator=wl.g)
    records = harness.measure(args.seconds)

    violations = [v for r in records for v in r["outcome"].violations] + consistency(records)
    failures = Counter()
    for r in records:
        failures.update(r["outcome"].failures)

    if args.trace:
        values, notes = per_layer(records)
        units = tracing.REPORTED
        printed = {**tracing.REPORTED, **tracing.PRINTED}
        with open(os.path.join(work, "spans.jsonl"), "w", encoding="utf-8") as fh:
            for r in records:
                if r["trace"]:
                    fh.write(json.dumps(r["dump"]) + "\n")
    else:
        values, notes = end_to_end(records, setup_times)
        units = END_TO_END
        printed = {**END_TO_END, **PRINTED}
    with open(os.path.join(work, "environment.json"), "w", encoding="utf-8") as fh:
        json.dump(env, fh, indent=1)

    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{args.workload}  {name} = {value!r} {printed[name]}{note}")
    for name in [n for n in notes if n not in values]:
        print(f"{args.workload}  {name}: {notes[name]}")
    print(f"{args.workload}  op wall seconds: {[round(r['result']['op_s'], 4) for r in records]}")
    print(f"{args.workload}  speed vs reference: {[round(speed(r['result']), 3) for r in records]}")
    print(f"{args.workload}  failures by type: {json.dumps(failures, sort_keys=True)}")
    for v in violations:
        print(f"{args.workload}  CHECK FAILED {v}")
    attempted = sum(r["outcome"].units for r in records)
    failed = sum(r["outcome"].failed for r in records)
    print(json.dumps({
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
