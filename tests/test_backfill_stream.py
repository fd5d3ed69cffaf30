"""resumable_backfill runs every pending shard in one Ray Data execution
and commits each shard as its rows complete: per-shard parity with one
execution per shard, mid-stream failure, and fingerprints that see a
same-size rewrite or a refit on changed data."""

import glob
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
import ray.data

from complexity_driven_feature_construction_ray.functions.expr import (
    CUSTOM_OPS,
    custom,
    groupbythen,
    raw,
    register_op,
    unary,
)
from complexity_driven_feature_construction_ray.functions.kernels import fit_on_arrays
from complexity_driven_feature_construction_ray.sources import write_token_table
from complexity_driven_feature_construction_ray.sources.token_table import TOKEN_TABLE_SCHEMA
from complexity_driven_feature_construction_ray.stages.backfill import backfill_dataset
from complexity_driven_feature_construction_ray.stages.fit import fit_distributed
from complexity_driven_feature_construction_ray.stages.token_stats import (
    TOKEN_STAT_COLS,
    token_stats_dataset,
)
from complexity_driven_feature_construction_ray.state import resumable_backfill
from complexity_driven_feature_construction_ray.state.checkpoint import plan_fingerprint

N_TOK = raw("n_tok", properties={"min": 1.0, "max": 512.0, "has_zero": False, "distinct": 512})
TOK_MEAN = raw("tok_mean", properties={"min": 0.0, "max": 50257.0, "has_zero": False})
SOURCE = raw("source", "categorical", {"distinct": 5})


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory, ray_session):
    d = str(tmp_path_factory.mktemp("stream_in"))
    write_token_table(d, 4000, num_files=8)
    return d


def _files(d):
    return sorted(glob.glob(os.path.join(d, "*.parquet")))


def _features(files):
    """A raw, a stateless, a fitted and a grouped feature, fitted on the input."""
    feats = [
        N_TOK, unary("log", N_TOK), unary("minmax", TOK_MEAN), groupbythen("mean", N_TOK, SOURCE)
    ]
    blocks = ray.get(token_stats_dataset(ray.data.read_parquet(files)).to_arrow_refs())
    t = pa.concat_tables([b for b in blocks if b.num_rows])
    cols = {c: t[c].to_numpy(zero_copy_only=False) for c in ("n_tok", "tok_mean", "source")}
    return feats, fit_on_arrays(feats, cols)


def _shard_table(shard_dir) -> pa.Table | None:
    files = sorted(glob.glob(os.path.join(shard_dir, "*.parquet")))
    if not files:
        return None
    return pads.dataset(files).to_table().sort_by("doc_id")


def _one_execution_per_shard(files, out, num_shards, feats, fitted, **kw):
    """The backfill as one execution per shard: read, token stats,
    backfill and write_parquet for each shard in turn."""
    shards = [sorted(files)[i::num_shards] for i in range(num_shards)]
    for i, sf in enumerate(shards):
        if sum(pq.read_metadata(f).num_rows for f in sf) == 0:
            continue  # write_parquet of no rows writes no directory at all
        ds = backfill_dataset(token_stats_dataset(ray.data.read_parquet(sf)), feats, fitted, **kw)
        ds.write_parquet(os.path.join(out, f"shard={i:05d}"))


def _assert_same_shards(got_dir, ref_dir, num_shards):
    for i in range(num_shards):
        got = _shard_table(os.path.join(got_dir, f"shard={i:05d}"))
        ref = _shard_table(os.path.join(ref_dir, f"shard={i:05d}"))
        if ref is None:
            assert got is None, i
            continue
        assert got["doc_id"].to_pylist() == ref["doc_id"].to_pylist(), i
        assert [(f.name, f.type) for f in got.schema] == [(f.name, f.type) for f in ref.schema], i
        assert got.replace_schema_metadata().equals(ref.replace_schema_metadata()), i


@pytest.mark.parametrize(
    "case",
    ["keep_input_false", "relative_paths", "batch_size_none", "concurrency_2", "empty_shard"],
)
def test_matches_one_execution_per_shard(tmp_path, input_dir, ray_session, case):
    files = _files(input_dir)
    num_shards = 4
    kw = {"batch_size": 4096, "concurrency": None, "keep_input": True}
    if case == "keep_input_false":
        kw["keep_input"] = False
    elif case == "relative_paths":
        files = [os.path.relpath(f) for f in files]
    elif case == "batch_size_none":
        kw["batch_size"] = None
    elif case == "concurrency_2":
        kw["concurrency"] = 2
    elif case == "empty_shard":
        # one more shard, whose only file holds no rows
        empty = str(tmp_path / "zz_empty.parquet")
        pq.write_table(pq.read_table(files[0]).slice(0, 0), empty)
        files, num_shards = files + [empty], 9
    feats, fitted = _features(files)

    out, ref = str(tmp_path / "out"), str(tmp_path / "ref")
    r = resumable_backfill(files, out, feats, fitted, num_shards=num_shards, **kw)
    assert r["computed"] == list(range(num_shards)) and r["skipped"] == []
    _one_execution_per_shard(files, ref, num_shards, feats, fitted, **kw)
    _assert_same_shards(out, ref, num_shards)
    for i in range(num_shards):
        with open(os.path.join(out, f"shard={i:05d}", "_lineage.json")) as fh:
            rec = json.load(fh)
        expect = sum(pq.read_metadata(f).num_rows for f in rec["input_files"])
        assert rec["rows"] == expect
    if case == "empty_shard":
        assert rec["shard"] == 8 and rec["rows"] == 0
    assert not glob.glob(os.path.join(out, "*.tmp-*"))


def test_pending_shards_share_one_read(tmp_path, input_dir, ray_session, monkeypatch):
    files = _files(input_dir)
    reads = []
    real = ray.data.read_parquet

    def counting(paths, **kw):
        reads.append(list(paths))
        return real(paths, **kw)

    monkeypatch.setattr(ray.data, "read_parquet", counting)
    r = resumable_backfill(files, str(tmp_path / "o"), [unary("log", N_TOK)], {}, num_shards=4)
    assert r["computed"] == [0, 1, 2, 3]
    assert len(reads) == 1 and sorted(reads[0]) == files


def test_same_size_rewrite_recomputes_only_its_shard(tmp_path, ray_session):
    d = str(tmp_path / "in")
    write_token_table(d, 2000, num_files=4)
    files = _files(d)
    out = str(tmp_path / "o")
    feats = [unary("log", N_TOK)]
    resumable_backfill(files, out, feats, {}, num_shards=4)
    # rewrite shard 2's file in place with the same bytes, so only its
    # modification time tells the rewrite apart
    backup = str(tmp_path / "backup.parquet")
    shutil.copyfile(files[2], backup)
    st = os.stat(files[2])
    shutil.copyfile(backup, files[2])
    os.utime(files[2], ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000_000))
    assert os.path.getsize(files[2]) == st.st_size
    r = resumable_backfill(files, out, feats, {}, num_shards=4)
    assert r["computed"] == [2] and r["skipped"] == [0, 1, 3]


def test_refit_on_changed_data_recomputes_every_shard(tmp_path, input_dir, ray_session):
    files = _files(input_dir)
    feats, fitted = _features(files)
    out = str(tmp_path / "o")
    resumable_backfill(files, out, feats, fitted, num_shards=4)
    # an equal fitted state, built again from scratch, still resumes
    _, same = _features(files)
    r = resumable_backfill(files, out, feats, same, num_shards=4)
    assert r["skipped"] == [0, 1, 2, 3] and r["computed"] == []
    # the same keys fitted on changed values recompute every shard
    changed = fit_on_arrays(
        feats,
        {
            "n_tok": np.arange(1.0, 101.0),
            "tok_mean": np.linspace(0.0, 9.0, 100),
            "source": np.array(["web", "wiki"] * 50, dtype=object),
        },
    )
    assert changed.keys() == fitted.keys()
    r = resumable_backfill(files, out, feats, changed, num_shards=4)
    assert r["computed"] == [0, 1, 2, 3] and r["skipped"] == []


FITTED_SRC = (
    "{'gbt': (np.array(['books', 'web'], dtype=object), np.array([1.0, 2.0])),"
    " 'mm': (np.float64(0.5), 3.0)}"
)


def test_plan_fingerprint_hashes_values_the_same_in_every_process():
    fitted = eval(FITTED_SRC)
    fp = plan_fingerprint([], fitted)
    assert fp == plan_fingerprint([], eval(FITTED_SRC))
    for key, value in [
        ("gbt", (np.array(["books", "wiki"], dtype=object), np.array([1.0, 2.0]))),
        ("gbt", (fitted["gbt"][0], np.array([1.0, 2.5]))),
        ("mm", (np.float64(0.5), 3.5)),
    ]:
        assert fp != plan_fingerprint([], {**fitted, key: value})
    # string hashing is salted per process; the fingerprint must not be
    code = (
        "import numpy as np\n"
        "from complexity_driven_feature_construction_ray.state.checkpoint import plan_fingerprint\n"
        f"print(plan_fingerprint([], {FITTED_SRC}))\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": root}
        got = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert got.stdout.strip() == fp


def _fit_distributed(files, feats):
    """The backfill job's fit: one partial per input file, merged on the driver."""
    ds = token_stats_dataset(ray.data.read_parquet(files, override_num_blocks=len(files)))
    return fit_distributed(feats, ds, input_cols=[*TOKEN_TABLE_SCHEMA.names, *TOKEN_STAT_COLS])


FLOAT_FITS = [
    unary("zscore", TOK_MEAN),
    groupbythen("mean", TOK_MEAN, SOURCE),
    groupbythen("std", TOK_MEAN, SOURCE),
]


def test_fit_distributed_does_not_depend_on_partial_order(input_dir, ray_session, monkeypatch):
    # partials come back in task completion order; float sums merged in
    # another order can differ in the last bit and change the fingerprint
    files = _files(input_dir)
    fp = plan_fingerprint(FLOAT_FITS, _fit_distributed(files, FLOAT_FITS))
    real = ray.data.Dataset.take_all
    for order in (lambda r: r[::-1], lambda r: r[1::2] + r[::2]):
        monkeypatch.setattr(ray.data.Dataset, "take_all", lambda ds, *a, _o=order: _o(real(ds, *a)))
        assert plan_fingerprint(FLOAT_FITS, _fit_distributed(files, FLOAT_FITS)) == fp


def test_refit_over_unchanged_files_resumes(tmp_path, input_dir, ray_session):
    files, out = _files(input_dir), str(tmp_path / "o")
    runs = [
        resumable_backfill(files, out, FLOAT_FITS, _fit_distributed(files, FLOAT_FITS), num_shards=4)
        for _ in range(2)
    ]
    first, again = runs
    assert again["plan_fingerprint"] == first["plan_fingerprint"]
    assert again["skipped"] == [0, 1, 2, 3] and again["computed"] == []


def _tag_parts(files, d):
    """Copies of `files` with each row tagged by its file's index in `part`."""
    tagged = []
    for k, f in enumerate(files):
        t = pq.read_table(f)
        tagged.append(os.path.join(d, f"part{k:02d}.parquet"))
        pq.write_table(t.append_column("part", pa.array([k] * t.num_rows, pa.int32())), tagged[-1])
    return tagged


PART = raw("part", properties={"min": 0.0, "max": 7.0})


def _register_fault(bad, delay_s=0.0):
    """A custom op that raises, after `delay_s`, on a batch holding a row of a `bad` part."""

    def faulty(args, f, state):
        if bad.intersection(args[0].astype(np.int64).tolist()):
            time.sleep(delay_s)
            raise ValueError("fault on the last shard's rows")
        return args[0] * 0.5

    register_op("fault_half", kernel=faulty)


def _committed(out):
    return sorted(
        int(os.path.basename(os.path.dirname(p))[6:])
        for p in glob.glob(os.path.join(out, "shard=*", "_lineage.json"))
    )


def _assert_full_records(out, committed):
    for i in committed:
        with open(os.path.join(out, f"shard={i:05d}", "_lineage.json")) as fh:
            rec = json.load(fh)
        n = sum(pq.read_metadata(f).num_rows for f in rec["input_files"])
        assert rec["shard"] == i and rec["rows"] == n > 0
        assert _shard_table(os.path.join(out, f"shard={i:05d}")).num_rows == n


def test_mid_stream_failure_keeps_the_shards_committed_before_it(tmp_path, input_dir, ray_session):
    # each row tagged by its file's index, so a custom op can fail on
    # the last shard's rows
    num_shards = 4
    files = _tag_parts(_files(input_dir), str(tmp_path))
    kw = {"num_shards": num_shards, "concurrency": 1, "batch_size": 100}
    _register_fault(set(range(num_shards - 1, len(files), num_shards)))
    try:
        feats = [custom("fault_half", PART), unary("log", N_TOK)]
        out = str(tmp_path / "o")
        with pytest.raises(Exception, match="fault on the last shard"):
            resumable_backfill(files, out, feats, {}, **kw)
        committed = _committed(out)
        assert committed and num_shards - 1 not in committed
        _assert_full_records(out, committed)

        register_op("fault_half", kernel=lambda args, f, state: args[0] * 0.5)
        r = resumable_backfill(files, out, feats, {}, **kw)
        assert r["skipped"] == committed
        assert r["computed"] == [i for i in range(num_shards) if i not in committed]
        full = str(tmp_path / "full")
        resumable_backfill(files, full, feats, {}, **kw)
        _assert_same_shards(out, full, num_shards)
        assert not glob.glob(os.path.join(out, "*.tmp-*"))
    finally:
        CUSTOM_OPS.pop("fault_half", None)


def test_failure_at_default_settings_keeps_every_earlier_shard(tmp_path, ray_session):
    # shards of more rows than the default batch_size (4096): the read
    # splits at shard boundaries, so no task holds two shards' rows and
    # the three healthy shards commit while the last one is failing
    num_shards, d = 4, str(tmp_path / "in")
    write_token_table(d, 18_000, num_files=8)
    files = _tag_parts(_files(d), str(tmp_path))
    _register_fault(set(range(num_shards - 1, len(files), num_shards)), delay_s=2.0)
    try:
        out = str(tmp_path / "o")
        with pytest.raises(Exception, match="fault on the last shard"):
            resumable_backfill(files, out, [custom("fault_half", PART)], {}, num_shards=num_shards)
        assert _committed(out) == [0, 1, 2]
        _assert_full_records(out, [0, 1, 2])
    finally:
        CUSTOM_OPS.pop("fault_half", None)
