"""Worker process of the benchmark: hosts one Ray session and one workload.

Started by perfbench/run.py as `python -m perfbench.worker` from the root
of the checkout, in its own process group, so that the parent can kill
it together with every Ray process it started when an op overruns its
time limit. Commands arrive as JSON lines on stdin; each reply is one
JSON line on a private copy of the original stdout. Everything else the
process prints (Ray's own output included) goes to stderr. The parent
ends the process by killing its group.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

from perfbench.spans import Tracer


def _reset_peak_rss() -> None:
    """Start a new peak-RSS window (VmHWM) for this process."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def _peak_rss_mb() -> float:
    """Peak RSS of this process since the last _reset_peak_rss()."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _steal_s() -> float:
    """CPU time the hypervisor has taken from this host's CPUs since boot,
    summed over CPUs (the steal column of /proc/stat)."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _disable_thp() -> None:
    """Opt this process tree (Ray's processes are forked after this) out
    of transparent huge pages: page-compaction stalls otherwise add
    seconds of kernel time to identical runs."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl(41, 1, 0, 0, 0)  # PR_SET_THP_DISABLE


def start_ray(num_cpus: int, temp_dir: str | None) -> dict:
    import ray

    _disable_thp()
    from ray.data import DataContext

    kwargs = {"_temp_dir": temp_dir} if temp_dir else {}
    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        object_store_memory=512 * 1024 * 1024,
        # keep the worker pool warm between dataset executions, so ops
        # are not timed across worker respawns
        _system_config={"kill_idle_workers_interval_ms": 0, "enable_worker_prestart": True},
        **kwargs,
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    return {"ray_version": ray.__version__, "ray_cpus": int(ray.cluster_resources().get("CPU", 0))}


class Session:
    def __init__(self):
        self.wl = None
        self.tracer = Tracer(False)

    def setup(self, workload, seed, workdir, num_cpus, temp_dir, trace, scale=1.0):
        from perfbench import workloads

        t0 = time.perf_counter()
        info = start_ray(num_cpus, temp_dir)
        t1 = time.perf_counter()
        self.tracer = Tracer(bool(trace))
        self.wl = workloads.make(workload, seed, workdir, self.tracer, scale)
        self.tracer.op_id = "setup"
        self.wl.setup()
        t2 = time.perf_counter()
        self.wl.first = self.wl.op(0)
        t3 = time.perf_counter()
        info.update(ray_start_s=t1 - t0, inputs_s=t2 - t1, warmup_s=t3 - t2)
        return info

    def reference(self):
        """Check the warm-up op, then compare it with the reference answers."""
        self.tracer.op_id = "reference"
        problems = self.wl.check(self.wl.first)
        self.wl.reference()
        return {"problems": problems + self.wl.ref_problems}

    def op(self, i, traced=True, corrupt=False, stall_s=0.0):
        self.tracer.op_id = f"op-{i}"
        was, self.tracer.enabled = self.tracer.enabled, self.tracer.enabled and traced
        try:
            _reset_peak_rss()
            steal0 = _steal_s()
            t0 = time.perf_counter()
            with self.tracer.span("op"):
                res = self.wl.op(i, corrupt=corrupt)
                time.sleep(stall_s)
            seconds = time.perf_counter() - t0
            steal_s = _steal_s() - steal0
            peak_rss_mb = _peak_rss_mb()  # the op's own peak, before the checks run
        finally:
            self.tracer.enabled = was
        problems = self.wl.check(res)
        return {
            "seconds": seconds,
            "items": res["items"],
            "problems": problems,
            "layers": self.wl.layers(res),
            "peak_rss_mb": peak_rss_mb,
            "steal_s": steal_s,
        }

    def layers(self):
        self.tracer.op_id = "layers"
        return {"layers": self.wl.layer_passes()}

    def finish(self):
        return {"spans": self.tracer.spans}


def main() -> None:
    reply = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)  # stray prints must not corrupt the reply stream
    session = Session()
    for line in sys.stdin:
        cmd = json.loads(line)
        name = cmd.pop("cmd")
        try:
            out = getattr(session, name)(**cmd)
        except Exception:  # reported to the parent, which decides what it costs
            out = {"error": traceback.format_exc()}
        reply.write(json.dumps(out) + "\n")
        reply.flush()


if __name__ == "__main__":
    main()
