"""Smoke test of the benchmark itself: ``python3 perfbench/smoke.py``.

1. A tiny-size run of every workload, plain and traced, must print every
   metric named in BENCHMARK.json with its unit, and pass its checks.
2. A doctored ``sweep.csv`` must be rejected by the containment check.
3. A directory holding only BENCHMARK.json and perfbench/ must make the
   benchmark exit non-zero without printing a result.

Exits 0 when all of this holds.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from workloads import WORKLOADS, check_sweep, fresh_dir

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_work", "smoke")


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_tiny_runs(spec: dict) -> list[str]:
    problems = []
    for workload in sorted(WORKLOADS):
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", trace, "--tiny")
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
            if set(result["metrics"]) != {m["name"] for m in declared}:
                problems.append(f"{where}: metric names differ from BENCHMARK.json")
            for m in declared:
                got = result["metrics"].get(m["name"], {})
                if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{where}: {m['name']} reported as {got}")
                if not any(f" {m['name']} = " in line and f" {m['unit']}" in line for line in lines[:-1]):
                    problems.append(f"{where}: {m['name']} [{m['unit']}] not printed")
    return problems


DOCTORED = """# fairbound experiment
axis,grid_value,n,epsilon,delta,notion,k,group,f_star,f_priv_min,f_priv_max,bound_lemma,bound_measured,bound_refined,dist_lemma,dist_measured,dist_provenance,flags
epsilon,1.0,100,1.0,0.0001,accuracy_parity,0,s=0,0.01,0.0,0.02,0.5,0.011,0.01,0.1,0.05,lemma2,
epsilon,1.0,100,1.0,0.0001,accuracy_parity,1,s=1,0.01,0.0,0.05,0.5,0.02,0.01,0.1,0.05,lemma2,
"""


def check_doctored_sweep() -> list[str]:
    out = fresh_dir(os.path.join(SCRATCH, "doctored"))
    with open(os.path.join(out, "sweep.csv"), "w", encoding="utf-8") as fh:
        fh.write(DOCTORED)
    with open(os.path.join(out, "failures.csv"), "w", encoding="utf-8") as fh:
        fh.write("grid_index,grid_value,error\n")
    outcome = check_sweep({"units": [{"error": None}]}, out, grid_count=1, draws=3)
    # group 0 drifts 0.01 <= 0.011 and passes; group 1 drifts 0.04 > 0.02
    if len(outcome.violations) != 1 or "group 1" not in outcome.violations[0]:
        return [f"doctored sweep.csv: violations {outcome.violations}"]
    if outcome.failures != {"ContainmentViolation": 1} or outcome.releases != 0:
        return [f"doctored sweep.csv: failures {outcome.failures}, releases {outcome.releases}"]
    return []


def check_bare_directory() -> list[str]:
    bare = fresh_dir(os.path.join(SCRATCH, "bare"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sweep-eps-op", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_doctored_sweep() + check_bare_directory() + check_tiny_runs(spec)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
