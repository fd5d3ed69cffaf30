"""bench.py --scaling refuses to report an efficiency when the two
parallelism levels compute different answers."""

import json
import subprocess

import pytest

import bench


def _fake_workers(monkeypatch, checksum_by_cpus):
    def run(cmd, *, env, **kw):
        cpus = int(env["RAY_GRAFT_CPUS"])
        rep = {"rows_per_sec": 100.0 * cpus, "session_idx_sum": checksum_by_cpus[cpus]}
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(rep) + "\n", stderr="")

    monkeypatch.setattr(bench.subprocess, "run", run)


def test_scaling_reports_when_checksums_match(monkeypatch):
    _fake_workers(monkeypatch, {2: 7, 8: 7})
    out = bench.run_scaling("sf", 2, 8, n_rows=10, reps=1)
    assert out["scaling_efficiency"] == 1.0
    assert out["low_session_idx_sum"] == out["high_session_idx_sum"] == 7


def test_scaling_raises_when_checksums_differ(monkeypatch):
    _fake_workers(monkeypatch, {2: 7, 8: 8})
    with pytest.raises(RuntimeError, match="session_idx_sum differs"):
        bench.run_scaling("sf", 2, 8, n_rows=10, reps=1)
