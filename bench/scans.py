"""The scan client: one long-lived process that runs a scan workload's
``ccsl scan`` job again and again through ``ccsl.cli.main(argv)``, each
pass after ``clear_cache()`` so that every pass does the same work.
Three passes at ``--jobs 1`` alternate with one at ``--jobs <cores>``
until ``--seconds`` are used (at least one pass of each), and the host
probe (probe.py) runs before the first pass and after every pass. Each
pass writes its panels to a directory of its own under ``--out``, and one
JSON line ``[role, wall s, probe before s, probe after s, exit code,
output directory]`` to ``<out>/passes.jsonl``. Config files named by the
workload are read from the working directory.

    PYTHONPATH=src python3 bench/scans.py --workload scan-primitive-quad --seed 1 --jobs 2 --seconds 5 --out passes
"""

from __future__ import annotations

import argparse
import itertools
import json
import time
from pathlib import Path

from probe import probe
from queries import send
from workloads import SCAN_WORKLOADS, scan_inputs


def _main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=SCAN_WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    from ccsl.cli import main
    from ccsl.diffusion import clear_cache

    inputs = scan_inputs(args.workload, args.seed)
    root = Path(args.out)
    root.mkdir(parents=True)
    roles = (("serial", 1), ("parallel", args.jobs))
    deadline = time.perf_counter() + args.seconds
    before = probe()
    with open(root / "passes.jsonl", "w", encoding="utf-8") as fh:
        for n in itertools.count():
            role, jobs = roles[n % 4 == 3]
            out = root / f"pass-{n}"
            clear_cache()
            code, _, wall = send(main, inputs.argv(str(out), jobs))
            after = probe()
            fh.write(json.dumps([role, wall, before, after, code, str(out)]) + "\n")
            before = after
            if n >= 3 and time.perf_counter() + wall > deadline:
                break
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
