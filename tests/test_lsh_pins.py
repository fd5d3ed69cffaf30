"""Full-output pins of the five LSH registry entries the oracle gate
checks on row count only: `d_minhash_dedup`, `d_simhash_dedup`,
`d_embedding_dedup`, `m_phash_dedup` and `d_minhash_incremental`. LSH
bucketing has no SQL twin, so these values at sf0.01 are what holds
the one pair scan (`stages/dedup.py:_pairs_from_band_arrays`) to its
answers. The cluster maps pin (id, rep_id); is_dup is id != rep_id."""

import os

import numpy as np
import pandas as pd
import pytest
from test_curation import SF

from complexity_driven_feature_construction_ray.pipelines import relational as R

SF01 = os.path.join(os.path.dirname(SF), "sf0.01")

PINS = {
    "d_minhash_dedup": {
        "id": [
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 26, 31, 44,
            45, 58, 61, 70, 72, 87, 92, 98, 107, 120, 134, 152, 166, 178, 185, 245, 267, 285,
            290, 293, 295, 301, 310, 323, 326, 332, 374, 377, 383, 387, 389, 393, 413, 420, 435,
            446, 447, 450, 455, 457, 458, 462, 486, 10000000, 10000001, 10000002, 10000003,
            10000004, 10000005, 10000006, 10000007, 10000008, 10000009, 10000010, 10000011,
            10000012, 10000013, 10000014, 10000015, 10000016, 10000017, 10000018, 10000019
        ],
        "rep_id": [
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 26, 31, 44,
            45, 58, 61, 70, 72, 87, 92, 98, 107, 120, 87, 152, 166, 152, 61, 8, 45, 285, 98, 58,
            295, 285, 310, 166, 326, 120, 295, 72, 31, 107, 310, 393, 45, 393, 435, 44, 70, 92,
            26, 326, 458, 458, 435, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
            17, 18, 19
        ],
    },
    "d_simhash_dedup": {
        "id": [
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 31, 32, 45,
            58, 61, 70, 72, 98, 107, 120, 152, 166, 178, 185, 245, 267, 285, 290, 293, 295, 301,
            323, 332, 353, 374, 376, 377, 383, 387, 393, 399, 413, 420, 435, 447, 486, 10000000,
            10000001, 10000002, 10000003, 10000004, 10000005, 10000006, 10000007, 10000008,
            10000009, 10000010, 10000011, 10000012, 10000013, 10000014, 10000015, 10000016,
            10000017, 10000018, 10000019
        ],
        "rep_id": [
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 31, 32, 45,
            58, 61, 70, 72, 98, 107, 120, 152, 166, 152, 61, 8, 45, 285, 98, 58, 295, 285, 166,
            120, 353, 295, 353, 72, 31, 107, 393, 32, 45, 393, 435, 70, 435, 0, 1, 2, 3, 4, 5,
            6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19
        ],
    },
    "d_embedding_dedup": {
        "id": [
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10000000, 10000001, 10000002, 10000003, 10000004,
            10000005, 10000006, 10000007, 10000008, 10000009
        ],
        "rep_id": [
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9
        ],
    },
    "m_phash_dedup": {
        "id": [
            'dup-of-ppm-00000000', 'dup-of-ppm-00000008', 'dup-of-ppm-00000016',
            'dup-of-ppm-00000024', 'dup-of-ppm-00000032', 'dup-of-ppm-00000040',
            'dup-of-ppm-00000056', 'dup-of-ppm-00000064', 'dup-of-ppm-00000072',
            'dup-of-ppm-00000080', 'dup-of-ppm-00000088', 'ppm-00000000', 'ppm-00000008',
            'ppm-00000016', 'ppm-00000024', 'ppm-00000032', 'ppm-00000040', 'ppm-00000056',
            'ppm-00000064', 'ppm-00000072', 'ppm-00000080', 'ppm-00000088'
        ],
        "rep_id": [
            'dup-of-ppm-00000000', 'dup-of-ppm-00000008', 'dup-of-ppm-00000016',
            'dup-of-ppm-00000024', 'dup-of-ppm-00000032', 'dup-of-ppm-00000040',
            'dup-of-ppm-00000056', 'dup-of-ppm-00000064', 'dup-of-ppm-00000072',
            'dup-of-ppm-00000080', 'dup-of-ppm-00000088', 'dup-of-ppm-00000000',
            'dup-of-ppm-00000008', 'dup-of-ppm-00000016', 'dup-of-ppm-00000024',
            'dup-of-ppm-00000032', 'dup-of-ppm-00000040', 'dup-of-ppm-00000056',
            'dup-of-ppm-00000064', 'dup-of-ppm-00000072', 'dup-of-ppm-00000080',
            'dup-of-ppm-00000088'
        ],
    },
    "d_minhash_incremental": {
        "doc_id": [
            8, 58, 98, 178, 389, 458
        ],
        "matched_id": [
            245, 293, 290, 152, 310, 462
        ],
        "est": [
            0.984375, 0.984375, 1.0, 0.984375, 0.9375, 0.984375
        ],
    },
}


@pytest.mark.parametrize("entry", sorted(PINS))
def test_lsh_entry_pinned(ray_session, entry):
    got = getattr(R, entry)(SF01)
    got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
    want = pd.DataFrame(PINS[entry])
    if "rep_id" in want:
        want["is_dup"] = want["id"] != want["rep_id"]
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want)
    for c in want.columns:
        if want[c].dtype.kind == "f":
            np.testing.assert_allclose(
                got[c].to_numpy(np.float64), want[c].to_numpy(np.float64), rtol=1e-9, err_msg=c
            )
        else:
            assert got[c].tolist() == want[c].tolist(), c
