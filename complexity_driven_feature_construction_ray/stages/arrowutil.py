"""Small Arrow and numpy helpers shared by the embedding, dedup,
similarity, token and temporal stages."""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def list_column_matrix(col, dtype=np.float64) -> np.ndarray:
    """(n, dim) matrix from a fixed-width list column without a per-row
    Python conversion: flatten() honors list offsets, the flat values
    buffer converts zero-copy (or one memcpy for non-native dtypes) and
    reshapes. Replaces np.stack(col.to_pylist()) — which builds n Python
    lists — in the embedding hot paths (VERDICT r1 item 10)."""
    if isinstance(col, pa.ChunkedArray):
        if col.num_chunks == 0:
            return np.empty((0, 0), dtype=dtype)
        col = col.combine_chunks()
        if isinstance(col, pa.ChunkedArray):  # pyarrow version drift
            col = col.chunk(0)
    n = len(col)
    if n == 0:
        return np.empty((0, 0), dtype=dtype)
    if not isinstance(col, (pa.ListArray, pa.LargeListArray, pa.FixedSizeListArray)):
        # Ray's ArrowTensorArray extension (from_pandas of ndarray cells)
        # and friends: to_numpy yields the (n, dim) tensor directly
        out = np.asarray(col.to_numpy(zero_copy_only=False))
        if out.ndim == 1 and out.dtype == object:
            out = np.stack(out)
        return out.reshape(n, -1).astype(dtype, copy=False)
    if isinstance(col, (pa.ListArray, pa.LargeListArray)):
        # validate via the offsets, not total-length divisibility: a
        # ragged batch whose total happens to divide n would otherwise
        # reshape into silently-wrong rows
        offs = col.offsets.to_numpy(zero_copy_only=False)
        widths = np.diff(offs)
        if len(widths) and (widths != widths[0]).any():
            raise ValueError("ragged list column; fixed-width embeddings expected")
    vals = col.flatten().to_numpy(zero_copy_only=False)
    if len(vals) % n != 0:
        raise ValueError("ragged list column; fixed-width embeddings expected")
    out = vals.reshape(n, len(vals) // n)
    return out.astype(dtype, copy=False)


def sorted_lookup(sorted_keys: np.ndarray, values: np.ndarray):
    '''(idx, found) for probing `values` against a SORTED key array --
    the key-membership primitive shared by the semi/anti joins,
    q_broadcast_join, the in-bucket header probe and apply_dedup.
    `idx` is meaningful only where `found`; a caller that reads
    `values[idx]` unmasked attaches a neighbour's row. Dimension
    columns attach through partition.broadcast_join instead. Safe on
    an empty key set (found is all-False).'''
    if len(sorted_keys) == 0:
        return np.zeros(len(values), dtype=np.int64), np.zeros(len(values), dtype=bool)
    idx = np.clip(np.searchsorted(sorted_keys, values), 0, len(sorted_keys) - 1)
    return idx, sorted_keys[idx] == values


def packed_keys(group: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, int]:
    """(key, span): int64 keys that order rows by (group, value), with
    key = group * span + rank, so key // span gives the group back.
    `group` holds non-negative integers. Integer and NaT-free datetime
    values rank as value - min; floats, NaN or NaT, and a group count
    times span past int64 rank through np.unique's inverse instead
    (NaN and NaT rank last and equal, as a sort puts them), so span <=
    len(values) there. Equal keys are equal (group, value) pairs."""
    if not len(values):
        return np.zeros(0, dtype=np.int64), 1
    if values.dtype.kind in "Mm" and not np.isnat(values).any():
        values = values.view(np.int64)
    if values.dtype.kind in "iu":
        # subtract in the values' own signedness so value - min is exact
        values = values.astype(np.uint64 if values.dtype.kind == "u" else np.int64, copy=False)
        lo = values.min()
        span = int(values.max()) - int(lo) + 1
        if span <= (1 << 63) // (int(group.max()) + 1):
            key = (values - lo).astype(np.int64, copy=False)
            key += group * np.int64(span)
            return key, span
    key = np.unique(values, return_inverse=True)[1].reshape(-1).astype(np.int64, copy=False)
    span = int(key.max()) + 1
    key += group * np.int64(span)
    return key, span


def _fold_dtype(dtype: np.dtype) -> np.dtype:
    # integer folds accumulate in int64 (uint64 stays unsigned), float
    # folds in at least float64 -- the accumulators the relational
    # queries always allocated by hand
    if dtype.kind in "bi" or (dtype.kind == "u" and dtype.itemsize < 8):
        return np.dtype(np.int64)
    if dtype.kind == "f":
        return np.promote_types(dtype, np.float64)
    if dtype.kind == "u":
        return dtype
    raise TypeError(f"bucket_fold: cannot fold values of dtype {dtype}")


def _fold_identity(ufunc, dtype: np.dtype):
    if ufunc is np.add:
        return 0
    top, bottom = (np.inf, -np.inf) if dtype.kind == "f" else (
        np.iinfo(dtype).max, np.iinfo(dtype).min)
    if ufunc is np.minimum:
        return top
    if ufunc is np.maximum:
        return bottom
    raise ValueError(f"bucket_fold: unsupported ufunc {ufunc!r}")


def bucket_fold(keys, *folds):
    '''Group rows by `keys` and fold value columns per group:
    `bucket_fold(keys, (np.add, rev), (np.maximum, t))` returns
    `(distinct_keys, counts, rev_sums, t_maxima)`.

    `keys` is 1-D, or a 2-D stack whose COLUMNS are the rows (grouped
    with `np.unique(axis=1)`); distinct keys come back as np.unique
    orders them. `counts` is each key's row count (int64). Each
    `(ufunc, values)` pair, for ufunc in np.add / np.minimum /
    np.maximum, yields one array aligned with the distinct keys,
    started from the ufunc's identity for the accumulator dtype (0;
    the dtype's max or +inf; its min or -inf) -- every key has a row,
    so the identity never survives, whatever the sign of the values.
    Integers fold in int64 and floats in float64. The fold is `ufunc.at`
    in row order, so float sums are bit-equal to a sequential loop and
    int64 sums stay exact past 2**53 (np.bincount(weights=) would not).
    Empty input gives empty outputs.'''
    keys = np.asarray(keys)
    if keys.ndim == 2:
        uniq, inv = np.unique(keys, axis=1, return_inverse=True)
    else:
        uniq, inv = np.unique(keys, return_inverse=True)
    inv = inv.reshape(-1)
    n = uniq.shape[-1]
    out = [uniq, np.bincount(inv, minlength=n).astype(np.int64)]
    for ufunc, values in folds:
        values = np.asarray(values)
        dtype = _fold_dtype(values.dtype)
        acc = np.full(n, _fold_identity(ufunc, dtype), dtype=dtype)
        ufunc.at(acc, inv, values)
        out.append(acc)
    return tuple(out)


def list_to_binary(col) -> pa.Array:
    """Encode each row of a list<int32> column as its raw little-endian
    bytes, producing a large_binary array built directly from the flat
    values buffer (no per-row Python). Two equal token sequences encode
    to equal bytes, so downstream exact-dedup / grouping on the column
    is token-array equality."""
    import pyarrow.compute as pc

    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    lengths = pc.list_value_length(arr).to_numpy(zero_copy_only=False)
    lengths = np.nan_to_num(lengths.astype(np.float64), nan=0.0).astype(np.int64)
    values = arr.flatten().to_numpy(zero_copy_only=False).astype(np.int32)
    off = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=off[1:])
    out = pa.Array.from_buffers(
        pa.large_binary(),
        len(lengths),
        [None, pa.py_buffer((off * 4).tobytes()), pa.py_buffer(values.tobytes())],
    )
    if arr.null_count:
        # keep null rows NULL (not b'') so a null list stays distinct
        # from an empty list under downstream grouping — SQL semantics
        out = pc.if_else(arr.is_null(), pa.scalar(None, pa.large_binary()), out)
    return out


def cast_fixed_list(ds, col: str, dim: int, dtype: pa.DataType | None = None):
    """Ingestion-time cast of a variable `list<T>` column to
    `fixed_size_list<T, dim>` so every downstream stage can read the
    embedding width from METADATA instead of partially executing the
    pipeline (the retired ds.take(1) fallback). Ragged rows fail loudly
    inside the map task. Returns a new Dataset; zero-copy on the values
    buffer (only the offsets are dropped)."""

    def cast(batch: pa.Table) -> pa.Table:
        c = batch[col]
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        if isinstance(c, pa.FixedSizeListArray):
            return batch
        if isinstance(c, (pa.ListArray, pa.LargeListArray)):
            offs = c.offsets.to_numpy(zero_copy_only=False)
            widths = np.diff(offs)
            if len(widths) and (widths != dim).any():
                raise ValueError(
                    f"cast_fixed_list: column {col!r} has rows of width "
                    f"{set(int(w) for w in widths[widths != dim][:3])}, "
                    f"expected {dim}"
                )
            flat = c.flatten()
            if dtype is not None:
                flat = flat.cast(dtype)
            fixed = pa.FixedSizeListArray.from_arrays(flat, dim)
            return batch.set_column(
                batch.column_names.index(col), col, fixed
            )
        raise ValueError(f"cast_fixed_list: {col!r} is not a list column")

    return ds.map_batches(cast, batch_format="pyarrow")
