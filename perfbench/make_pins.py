"""Write perfbench/search_pins.json: the pinned answer (best feature,
score and candidate counts) of every `search` sample for a range of
seeds, at the benchmark's size and at the self-check's.

    python3 perfbench/make_pins.py --seeds 0 31

Run from the root of a checkout. Rerun it only when a change is meant
to change what the search finds; the file's diff then shows which
answers moved.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.run import nproc, ray_temp_dir  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402
from perfbench.worker import start_ray  # noqa: E402
from perfbench.workloads.search import COUNTS, PINS, SAMPLES, Search, load_pins, pin_key  # noqa: E402

SELFCHECK = (7, 0.05)  # the self-check's seed and scale


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "LAST"), required=True)
    args = ap.parse_args()
    pins = load_pins()
    runs = [(seed, 1.0) for seed in range(args.seeds[0], args.seeds[1] + 1)] + [SELFCHECK]
    with tempfile.TemporaryDirectory(prefix=".pbtmp-", dir=ROOT) as tmp:
        os.environ["TMPDIR"] = tmp
        start_ray(nproc(), ray_temp_dir(tmp))
        for seed, scale in runs:
            wl = Search(seed, tmp, Tracer(False), scale)
            wl.setup()
            for k in range(SAMPLES):
                res = wl.op(k)
                pins[pin_key(seed, wl.rows, k)] = {c: res[c] for c in ("best", "score", *COUNTS)}
            print(seed, wl.rows, [pins[pin_key(seed, wl.rows, k)]["best"] for k in range(SAMPLES)], flush=True)
            with open(PINS, "w") as fh:
                json.dump(dict(sorted(pins.items())), fh, indent=0)
        import ray

        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
