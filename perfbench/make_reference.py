"""Regenerate reference.json: the seeded counts and float summaries that
every benchmark pass is compared with (see workloads.compare_reference).

    python3 perfbench/make_reference.py --seeds 0-20

Run it only when a change is meant to alter seeded outputs, and say so in
that change.  Like run.py, it pins BLAS to one thread.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as W  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-20"))
    args = parser.parse_args()
    workdir = HERE.parent / ".perfbench_work" / "reference"
    out: dict = {}
    try:
        for name, cls in W.WORKLOADS.items():
            for seed in args.seeds:
                wl = cls(seed, workdir) if name == "dataset-pass" else cls(seed)
                res = wl.run_pass()
                if res.failures:
                    print(f"{name} seed {seed}: {res.failures}", file=sys.stderr)
                    return 1
                out.setdefault(name, {})[str(seed)] = res.summary
                print(name, seed, res.digest, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    W.REFERENCE_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
