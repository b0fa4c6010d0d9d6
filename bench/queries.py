"""The point-queries client: a closed loop with one client in one
long-lived process, sending seeded requests to ``ccsl.cli.main(argv)``
with stdout and stderr captured. Each request is sent only after the
previous one returned.

Run as a script it sends the first ``--count`` requests of the stream, and
sends them again, each cycle after ``clear_cache()`` so that every cycle
does the same work, until ``--seconds`` are used (at least two cycles).
The host probe (probe.py) runs at the start of each cycle and after every
BLOCK requests. It writes every request, exit code, output and latency as
one JSON line ``[argv, code, output, latency s]`` to ``--out``, in the
order sent, each probe time as a line ``{"probe": s}`` in its place among
them, and last a line with the cycle count and each cycle's wall time:

    PYTHONPATH=src python3 bench/queries.py --seed 1 --count 1000 --seconds 5 --out q.jsonl
"""

from __future__ import annotations

import argparse
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import islice

from probe import probe
from workloads import query_stream

BLOCK = 50  # requests between two probes


def send(main, argv: list[str]) -> tuple[int, str, float]:
    """One request: (exit code, captured stdout, latency in seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), time.perf_counter() - t0


def run_count(main, seed: int, count: int, sink) -> float:
    """Send the first `count` requests of the seeded stream, handing each
    (argv, exit code, output, latency) to sink. Returns the loop's wall
    seconds."""
    start = time.perf_counter()
    for argv in islice(query_stream(seed), count):
        sink((argv, *send(main, argv)))
    return time.perf_counter() - start


def _main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    from ccsl.cli import main
    from ccsl.diffusion import clear_cache
    # records are streamed out, so the client's memory holds only what ccsl
    # itself keeps between requests
    deadline = time.perf_counter() + args.seconds
    walls = []
    with open(args.out, "w", encoding="utf-8") as fh:
        def write(item):
            fh.write(json.dumps(item) + "\n")

        while True:
            clear_cache()
            start = time.perf_counter()
            write({"probe": probe()})
            for k, argv in enumerate(islice(query_stream(args.seed), args.count), 1):
                write([argv, *send(main, argv)])
                if k % BLOCK == 0 or k == args.count:
                    write({"probe": probe()})
            walls.append(time.perf_counter() - start)
            if len(walls) >= 2 and time.perf_counter() + walls[-1] > deadline:
                break
        write({"cycles": len(walls), "wall_s": walls})
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
