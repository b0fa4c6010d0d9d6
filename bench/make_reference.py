"""Record the reference scan outputs that run.py compares against on the
default seed: one ``ccsl scan`` per scan workload, digested per panel and
experiment column into ``bench/reference/<workload>.json``.

    python3 bench/make_reference.py

Run it only at a commit whose scan output is known to be right; every later
commit must reproduce these data rows byte for byte.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import BENCH, DEFAULT_SEED, SRC, WORK, run_child


def main() -> int:
    sys.path.insert(0, str(SRC))
    import ccsl
    import check
    import workloads

    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = WORK / f"reference-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        for workload in workloads.SCAN_WORKLOADS:
            inputs = workloads.scan_inputs(workload, DEFAULT_SEED)
            for name, text in inputs.configs.items():
                (work / name).write_text(text, encoding="utf-8")
            out = work / workload
            cmd = [sys.executable, "-m", "ccsl", *inputs.argv(str(out), 1)]
            if run_child(cmd, work, env)[2] != 0:
                raise SystemExit(f"ccsl scan failed for {workload}")
            ids = [ccsl.load(s if s in workloads.BUNDLED else str(work / s)).id
                   for s in inputs.experiments]
            if check.check_structure(inputs, ids, out):
                raise SystemExit(f"malformed scan output for {workload}")
            record = check.column_digests(inputs, ids, out)
            path = BENCH / "reference" / f"{workload}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
            print(path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
