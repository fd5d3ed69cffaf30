"""Full-output pins of the four registry entries the oracle gate checks
on row count only: `f_sffs`, `f_nsga2`, `tok_nested_cv` and
`tok_side_metrics`. They are iterative model fits with no SQL twin, so
these values (read off the per-fit implementation) are what holds
their answers in place. Every number is compared at 1e-9."""

import numpy as np
import pandas as pd
import pytest

from complexity_driven_feature_construction_ray.pipelines import relational as R

PINS = {
    "f_sffs": {
        "name": ["log_n_tok", "recip_n_tok", "tok_distinct_ratio", "tok_mean", "__acc__", "__fair__"],
        "value": [1.0, 1.0, 1.0, 1.0, 0.7904, -0.467154],
    },
    "f_nsga2": {
        "selected": [
            "log_n_tok;recip_n_tok;tok_distinct_ratio;tok_mean;tok_std",
            "log_n_tok;tok_distinct_ratio;tok_mean;tok_std",
            "log_n_tok;recip_n_tok",
            "recip_n_tok;tok_distinct_ratio;tok_mean;tok_std",
            "tok_mean",
            "recip_n_tok;tok_distinct_ratio",
            "recip_n_tok",
            "tok_distinct_ratio;tok_mean",
        ],
        "acc": [0.776316, 0.770221, 0.755382, 0.749158, 0.744222, 0.724756, 0.707576, 0.566426],
        "fair": [-0.43951, -0.383646, -0.484621, -0.010686, -0.154847, -0.097949, -0.061301, -0.059771],
        "n_features": [5, 4, 2, 4, 1, 2, 1, 2],
    },
    "tok_nested_cv": {
        "name": ["minmax(n_tok)", "n_tok"],
        "nested_mean": [0.77999, 0.77999],
        "nested_std": [0.013687, 0.013687],
    },
    "tok_side_metrics": {
        "name": ["minmax(n_tok)", "n_tok"],
        "rss": [192.120754, 192.120754],
        "aicc_k1": [-2196.33994, -2196.33994],
        "bic_kc": [-2184.163125, -2191.253202],
        "consistency": [0.391667, 0.310833],
    },
}


@pytest.mark.parametrize("entry", sorted(PINS))
def test_registry_entry_pinned(ray_session, entry):
    got = getattr(R, entry)("sf0.01")
    want = pd.DataFrame(PINS[entry])
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want)
    for c in want.columns:
        if want[c].dtype == object:
            assert got[c].tolist() == want[c].tolist(), c
        else:
            np.testing.assert_allclose(
                got[c].to_numpy(dtype=np.float64), want[c].to_numpy(dtype=np.float64),
                rtol=1e-9, atol=1e-9, err_msg=c,
            )
