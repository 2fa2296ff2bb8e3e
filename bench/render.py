"""Set-up step of the benchmark: render one workload's inputs into a directory.

    python3 bench/render.py --workload long-session --seed 1 --out DIR

run.py starts this script in its own process and times it as ``setup_s``,
so the memory rendering needs never shows in the measured ``peak_rss_mb``.
The one line it prints is the machine slowdown its probe saw (probe.py).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from probe import Probe  # noqa: E402
from workloads import WORKLOADS, render_inputs  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with Probe() as probe:
        render_inputs(args.workload, args.seed, Path(args.out))
    print(json.dumps({"slowdown": probe.slowdown()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
