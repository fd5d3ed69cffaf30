"""Fast self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. BENCHMARK.json names exactly the workloads and metrics run.py reports.
2. Each workload runs at a tiny size in traced mode with one op whose
   output is deliberately corrupted and one op made to overrun its time
   limit. The run must finish, every other op must pass its checks, and
   exactly those two ops must count as failed. On `registry` the known
   num_cpus=1 hang already overruns (the run's last op), so no op is
   made to; it and the corrupted op must fail, and no other.
3. In a directory holding only BENCHMARK.json and perfbench/, run.py
   must exit non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.run import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.workloads import WORKLOADS, registry  # noqa: E402

# per workload: the op whose output is damaged, the op made to overrun
# (or None) and the op time limit
PLAN = {name: (2, 3, 8.0) for name in WORKLOADS}
PLAN["registry"] = (3, None, 5.0)


def check_manifest() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    listed = [w["name"] for w in spec["workloads"]]
    if any(w not in WORKLOADS for w in listed):
        problems.append(f"BENCHMARK.json workloads {listed} not all in {sorted(WORKLOADS)}")
    for key, want in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        got = {m["name"]: m["unit"] for m in spec[key]}
        if got != want:
            problems.append(f"BENCHMARK.json {key} differs from run.py: {sorted(set(got) ^ set(want))}")
    return problems


def run(args: list[str], cwd: str = ROOT) -> tuple[int, str]:
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=300,
    )
    return p.returncode, p.stdout


def check_workload(name: str) -> list[str]:
    corrupt, stall, limit = PLAN[name]
    code, out = run([
        "--workload", name, "--seed", "7", "--seconds", "1", "--trace", "1",
        "--scale", "0.05", "--op-limit", str(limit), "--corrupt-ops", str(corrupt),
        "--stall-ops", *([str(stall)] if stall else []),
    ])
    if code != 0:
        return [f"{name}: exit code {code}"]
    res = json.loads(out.strip().splitlines()[-1])
    with open(os.path.join(ROOT, ".perfbench_out", f"{name}-seed7-trace1.json")) as fh:
        ops = json.load(fh)["ops"]
    want = {corrupt, stall} - {None}
    if name == "registry":
        want |= {o["n"] for o in ops if registry.query_of(o["i"]) in registry.KNOWN_HANGS}
    failed = {o["n"] for o in ops if not o["ok"]}
    problems = []
    if res["correct"]:
        problems.append(f"{name}: the corrupted op was not caught")
    if failed != want or res["failed"] != len(want) or res["attempted"] < 4:
        problems.append(f"{name}: ops {sorted(failed)} of {res['attempted']} failed, expected {sorted(want)}")
    if set(res["metrics"]) != set(PER_LAYER):
        problems.append(f"{name}: traced run metrics differ from PER_LAYER")
    return problems


def check_bare_directory() -> list[str]:
    bare = os.path.join(ROOT, ".perfbench_work", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        code, out = run(["--workload", "temporal", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or out.strip():
        return [f"bare directory: exit code {code}, stdout {out.strip()[:200]!r}"]
    return []


def main() -> int:
    problems = check_manifest()
    for name in WORKLOADS:
        problems += check_workload(name)
    problems += check_bare_directory()
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
