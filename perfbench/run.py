"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload search --seed 1 --seconds 5 --trace 0

Run from the root of a checkout. The run builds its inputs from
`--seed` and sets up more than once; each set-up is a fresh worker
process (Python start, Ray start, input generation and the first,
warm-up op), and `setup_s` is their median. Each worker then runs
timed ops: together as many as fill `--seconds` seconds of op time (and
the workload's minimum count), rounded up to a whole lap of the
workload's inputs, shared out over the workers. Known hangs run last,
once each. Every op runs under the workload's time limit.
An op that overruns counts as failed; its worker is killed with every
Ray process it started and a fresh one is set up before the run carries
on. Every op's answer is checked, and a wrong answer also counts as
failed.

`--trace 0` prints the end-to-end metrics. `--trace 1` is the separate
traced run: it alternates untraced and traced ops (their difference is
the tracing overhead), then times single-layer passes, and prints the
per-layer metrics. Spans, host facts and every op are written to
`.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.spans import self_times  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from perfbench.workloads.registry import QUERIES as REGISTRY_QUERIES  # noqa: E402

PACKAGE = "complexity_driven_feature_construction_ray"
SETUPS = 2  # set-ups per untraced run; setup_s is their median
SETUP_LIMIT_S = 40.0  # set-ups take 10-13 s
REFERENCE_LIMIT_S = 20.0
LAYERS_LIMIT_S = 30.0
TRACE_MIN_OPS = 4  # two untraced and two traced
# Past this no op starts and no worker is replaced. With the limits
# above, even a run whose ops hang ends within 180 s.
RUN_DEADLINE_S = 80.0

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "items_per_s": "1/s",
    "ok_ops_share": "ratio",
    "driver_peak_rss_mb": "MB",
}
PER_LAYER = {
    "search.run_s": "s",
    "search.enumerated": "count",
    "search.deduped_sympy": "count",
    "search.deduped_value": "count",
    "search.constant": "count",
    "search.pruned_eps": "count",
    "search.scored": "count",
    "search.scored_per_enumerated": "ratio",
    "sympy_rules.canonical_key_s": "s",
    "kernels.evaluate_s": "s",
    "fit.s": "s",
    "fit.rows_per_s": "1/s",
    "sources.read_s": "s",
    "token_stats.s": "s",
    "backfill.s": "s",
    "backfill.rows_per_s": "1/s",
    "backfill.bytes_written": "B",
    "backfill.shard_s_p50": "s",
    "checkpoint.resume_s": "s",
    "checkpoint.shards_computed": "count",
    "checkpoint.shards_skipped": "count",
    "temporal.attach_s": "s",
    "temporal.rows_per_s": "1/s",
    "bucketing.buckets": "count",
    "temporal.hot_share": "ratio",
    "temporal.sessions": "count",
    "temporal.sessionize_s": "s",
    "temporal.asof_s": "s",
    **{f"relational.{q}_s": "s" for q in REGISTRY_QUERIES},
    "relational.hash_ok": "ratio",
    "relational.timeouts": "count",
    "trace.overhead_s": "s",
    "trace.harness_self_s": "s",
}


class WorkerTimeout(Exception):
    pass


class Worker:
    """One `python -m perfbench.worker` process in its own process group."""

    def __init__(self, log_path: str, tmp_dir: str):
        # no usage reporting, and no metrics agent scraping every process
        # in the background while ops are timed
        env = dict(
            os.environ,
            RAY_USAGE_STATS_ENABLED="0",
            RAY_enable_metrics_collection="0",
            TMPDIR=tmp_dir,
        )
        env["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, env.get("PYTHONPATH")) if p)
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.worker"],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.log,
            start_new_session=True,
        )

    def call(self, limit_s: float, cmd: str, **kwargs) -> dict:
        self.proc.stdin.write((json.dumps({"cmd": cmd, **kwargs}) + "\n").encode())
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], limit_s)
        if not ready:
            raise WorkerTimeout(f"{cmd} overran {limit_s:.0f} s")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited during {cmd}; see {self.log.name}")
        return json.loads(line)

    def kill(self) -> None:
        """Kill the worker's whole process group, Ray's processes included.
        Ray is not shut down politely first: nothing the benchmark keeps
        lives in the session, and a clean shutdown costs seconds."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        for f in (self.proc.stdin, self.proc.stdout, self.log):
            f.close()

    def reap(self, limit_s: float = 5.0) -> None:
        """Wait until every process of the killed group has ended."""
        deadline = time.monotonic() + limit_s
        while time.monotonic() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def nproc() -> int:
    """Usable CPUs as the `nproc` tool counts them: OMP_NUM_THREADS and
    OMP_THREAD_LIMIT cap the CPUs this process may run on."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        head = os.environ.get(var, "").split(",")[0]
        if head.isdigit() and int(head) > 0:
            n = min(n, int(head)) if var == "OMP_THREAD_LIMIT" else int(head)
    return n


def host_facts() -> dict:
    return {
        "nproc": nproc(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "host_cpus": os.cpu_count(),
        "mem_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        "python": sys.version.split()[0],
    }


def ray_temp_dir(base: str) -> str | None:
    """Ray's session directory inside the checkout, unless the path would
    push Ray's Unix socket paths past the 107-byte limit."""
    path = os.path.join(base, "ray")
    return path if len(path) <= 42 else None


def median(xs: list[float]) -> float:
    return float(statistics.median(xs)) if xs else 0.0


class Run:
    def __init__(self, args):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.limit_s = args.op_limit or self.spec.op_limit_s
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.work = os.path.join(ROOT, ".perfbench_work", f"{tag}-{os.getpid()}")
        self.out_dir = os.path.join(ROOT, ".perfbench_out")
        self.tmp = os.path.join(ROOT, ".pbtmp", str(os.getpid()))
        os.makedirs(self.work, exist_ok=True)
        os.makedirs(self.out_dir, exist_ok=True)
        os.makedirs(os.path.join(self.tmp, "tmp"), exist_ok=True)
        self.record_path = os.path.join(self.out_dir, f"{tag}.json")
        self.host = host_facts()
        self.worker: Worker | None = None
        self.dead: list[Worker] = []  # killed workers whose groups may not be gone yet
        self.n_workers = 0
        self.problems: list[str] = []
        self.setup_parts: list[dict] = []

    def start(self, trace: bool) -> tuple[float, dict]:
        """Fresh worker and set-up, then the untimed checks of the warm-up
        op against the reference answers. Returns the set-up's wall
        seconds and its reply."""
        log = os.path.join(self.work, f"worker-{self.n_workers}.log")
        t0 = time.perf_counter()
        self.worker = Worker(log, os.path.join(self.tmp, "tmp"))
        info = self.worker.call(
            SETUP_LIMIT_S,
            "setup",
            workload=self.args.workload,
            seed=self.args.seed,
            workdir=os.path.join(self.work, f"w{self.n_workers}"),
            num_cpus=self.host["nproc"],
            temp_dir=ray_temp_dir(self.tmp),
            trace=trace,
            scale=self.args.scale,
        )
        wall = time.perf_counter() - t0
        self.n_workers += 1
        if "error" in info:
            raise RuntimeError("set-up failed:\n" + info["error"])
        self.ray = {k: info[k] for k in ("ray_version", "ray_cpus")}
        ref = self.worker.call(REFERENCE_LIMIT_S, "reference")
        if "error" in ref:
            raise RuntimeError("reference failed:\n" + ref["error"])
        self.problems += [f"warm-up: {p}" for p in ref["problems"]]
        self.reap()  # earlier workers' processes are gone before ops are timed
        return wall, info

    def stop(self) -> None:
        if self.worker is not None:
            self.worker.kill()
            self.dead.append(self.worker)
            self.worker = None

    def reap(self) -> None:
        while self.dead:
            self.dead.pop().reap()

    def measure(self) -> dict:
        """Set up SETUPS times (once when traced). The workers share the
        run's ops, so op samples come from more than one process and
        moment: the first worker runs ops until it has spent the
        workload's share (`split`) of `--seconds` and of its minimum op
        count; the last one runs ops until `--seconds` of op time is
        spent, the minimum count is reached and the ops make whole laps
        (a traced lap is twice as long: each input runs untraced and
        traced). After the spans are collected, the workload's tail ops
        (its known hangs) run once each, untraced. A worker killed for an
        overrun is replaced before the next op, unless the run is past
        its deadline."""
        args, spec = self.args, self.spec
        trace = bool(args.trace)
        t_run = time.perf_counter()
        setups: list[float] = []
        ops: list[dict] = []
        n_setups = 1 if trace else SETUPS
        lap = spec.lap * (2 if trace else 1)
        min_ops = TRACE_MIN_OPS if trace else spec.min_ops

        def in_time() -> bool:
            return time.perf_counter() - t_run < RUN_DEADLINE_S

        for k in range(n_setups):
            self.stop()
            wall, info = self.start(trace)
            setups.append(wall)
            self.setup_parts.append({k: info[k] for k in ("ray_start_s", "inputs_s", "warmup_s")})
            last = k == n_setups - 1
            mine: list[dict] = []
            while in_time():
                if last:
                    # the tail ops will each take the time limit
                    done = (
                        sum(o["seconds"] for o in ops) + spec.tail * self.limit_s >= args.seconds
                        and len(ops) >= min_ops
                        and len(ops) % lap == 0
                    )
                else:
                    done = (
                        sum(o["seconds"] for o in mine) >= args.seconds * spec.split
                        and len(mine) >= min_ops * spec.split
                    )
                if done:
                    break
                if self.worker is None:
                    self.start(trace)
                    continue  # the deadline may have passed meanwhile
                n = len(ops) + 1
                # traced pairs alternate which runs first, so a first run's
                # extra cost does not land on one side of the overhead
                i = (n + 1) // 2 if trace else n
                traced = trace and (n % 2 == 0) != (i % 2 == 0)
                mine.append(self.op(n, i, traced))
                ops.append(mine[-1])
        print(json.dumps({"host": self.host, "ray": self.ray}), file=sys.stderr)

        layers, spans = {}, []
        if self.worker is not None:
            if trace:
                reply = self.worker.call(LAYERS_LIMIT_S, "layers")
                if "error" in reply:
                    raise RuntimeError("layer passes failed:\n" + reply["error"])
                layers = reply["layers"]
            spans = self.worker.call(REFERENCE_LIMIT_S, "finish")["spans"]
        for j in range(spec.tail):
            if not in_time():
                break
            if self.worker is None:
                self.start(trace)
            ops.append(self.op(len(ops) + 1, -(j + 1), False))
        self.stop()
        return {"setups": setups, "ops": ops, "layers": layers, "spans": spans}

    def op(self, n: int, i: int, traced: bool) -> dict:
        """The n-th checked, time-limited op, on the workload's input i
        (tail ops have negative inputs). A traced run pairs an untraced op
        with a traced one on the same input, so their difference is the
        tracing overhead."""
        args = self.args
        op = {"n": n, "i": i, "traced": traced, "ok": False}
        try:
            r = self.worker.call(
                self.limit_s, "op", i=i, traced=traced, corrupt=n in args.corrupt_ops,
                stall_s=2 * self.limit_s if n in args.stall_ops else 0.0,
            )
        except WorkerTimeout as e:
            op.update(seconds=self.limit_s, failure=str(e), overran=True)
            self.stop()
            return op
        if "error" in r:
            op.update(seconds=self.limit_s, failure=r["error"].strip().splitlines()[-1])
            return op
        op.update(seconds=r["seconds"], items=r["items"], layers=r["layers"],
                  peak_rss_mb=r["peak_rss_mb"], steal_s=r["steal_s"])
        if r["problems"]:
            op["failure"] = "wrong answer: " + "; ".join(r["problems"])
            self.problems += r["problems"]
        else:
            op["ok"] = True
        return op

    def metrics(self, m: dict) -> dict:
        ops = m["ops"]
        ok = [o for o in ops if o["ok"]]
        # a failed op counts at the time limit: it missed any latency bound
        times = [o["seconds"] if o["ok"] else max(o["seconds"], self.limit_s) for o in ops]
        if not self.args.trace:
            values = {
                "setup_s": median(m["setups"]),
                "op_s_p50": median(times),
                "items_per_s": median([o["items"] / o["seconds"] for o in ok]),
                "ok_ops_share": sum(o["ok"] for o in ops) / len(ops),
                "driver_peak_rss_mb": max((o["peak_rss_mb"] for o in ok), default=0.0),
            }
            units = END_TO_END
        else:
            values = dict.fromkeys(PER_LAYER, 0.0)
            traced = [o for o in ops if o["ok"] and o["traced"]]
            for name in {k for o in traced for k in o["layers"]}:
                values[name] = median([o["layers"][name] for o in traced if name in o["layers"]])
            values.update(m["layers"])
            own = self_times(m["spans"])
            # median over inputs of traced minus untraced time on that input
            pairs: dict[int, dict[bool, float]] = {}
            for o in ops:
                if o["ok"]:
                    pairs.setdefault(o["i"], {})[o["traced"]] = o["seconds"]
            values["trace.overhead_s"] = median(
                [p[True] - p[False] for p in pairs.values() if len(p) == 2]
            )
            values["trace.harness_self_s"] = median(own.get("op", []))
            if self.args.workload == "registry":
                values["relational.timeouts"] = sum(o.get("overran", False) for o in ops)
            units = PER_LAYER
        return {k: {"value": float(values[k]), "unit": units[k]} for k in units}

    def write_record(self, m: dict, metrics: dict, result: dict) -> None:
        own = self_times(m["spans"])
        record = {
            "workload": self.args.workload,
            "why": self.spec.why,
            "seed": self.args.seed,
            "seconds": self.args.seconds,
            "trace": self.args.trace,
            "host": self.host,
            "ray": self.ray,
            "setups_s": m["setups"],
            "setup_parts_s": self.setup_parts,
            "ops": m["ops"],
            "problems": self.problems,
            "self_time_s": {k: {"n": len(v), "total": sum(v), "p50": median(v)} for k, v in own.items()},
            "spans": m["spans"],
            "result": result,
        }
        with open(self.record_path, "w") as fh:
            json.dump(record, fh, indent=1)

    def cleanup(self) -> None:
        self.stop()
        self.reap()
        shutil.rmtree(self.work, ignore_errors=True)
        shutil.rmtree(self.tmp, ignore_errors=True)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # self-check knobs: input size factor, op time limit, ops whose output
    # is damaged before the check, and ops made to overrun the time limit
    ap.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    ap.add_argument("--op-limit", type=float, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--corrupt-ops", type=int, nargs="*", default=[], help=argparse.SUPPRESS)
    ap.add_argument("--stall-ops", type=int, nargs="*", default=[], help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, PACKAGE)):
        print(f"error: {PACKAGE}/ not found under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    run = Run(args)

    def on_signal(signum, _frame):
        run.cleanup()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    try:
        m = run.measure()
        metrics = run.metrics(m)
        ops = m["ops"]
        result = {
            "correct": not run.problems,
            "attempted": len(ops),
            "failed": sum(not o["ok"] for o in ops),
            "metrics": metrics,
        }
        run.write_record(m, metrics, result)
    except Exception:  # a run that cannot measure prints no result
        traceback.print_exc()
        return 1
    finally:
        run.cleanup()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
