"""ccsl benchmark: exclusion-scan throughput, point-query latency and
per-module layer metrics on four seeded workloads.

    python3 bench/run.py --workload scan-bundled-dense --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a source checkout; ccsl is imported from the
checkout's ``src`` directory, and nothing is installed. Scratch files go to
``.bench-work/`` at the checkout root. With ``--trace 0`` a client process
(scans.py or queries.py) repeats the workload's ``ccsl.cli.main`` calls for
the run, and each is timed at its fastest repetition; set-up is timed in
fresh interpreters. With ``--trace 1`` it runs the workload in process
with every layer wrapped, and reports per-layer metrics. Outputs are checked
either way (see check.py). The last line of stdout is the result
``{"correct", "attempted", "failed", "metrics"}``; the two lines before it
hold the environment block and figures reported without a bound.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench-work"

DEFAULT_SEED = 0          # the seed whose scan outputs are stored in reference/
SETUP_SAMPLES = 5
SAMPLE_POINTS = 40        # round-trip checks per scan run
REFERENCE_POINTS = 4      # eta_reduced_reference checks per scan run
QUERY_PASS = 1000         # requests per point-queries cycle

SETUP_CODE = "import sys, ccsl\nfor source in sys.argv[1:]:\n    ccsl.load(source)\n"


@dataclass
class Pass:
    """One ``ccsl scan`` job of a workload, run in process."""

    role: str        # "parallel", "serial" or "in-process"
    wall: float      # s
    code: int
    out: Path


def run_child(cmd: list[str], cwd: Path, env: dict) -> tuple[float, float, int]:
    """Run cmd to completion: (wall s, peak RSS in MB, exit code). The RSS
    is the largest of the process and the children it waited for."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def until(seconds: float, one_round):
    """Call one_round() until the next round would end after `seconds`;
    always at least once."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        t0 = time.perf_counter()
        one_round(rounds)
        rounds += 1
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return


def ok_ratio(points: int, errors: list | None) -> float:
    """Share of scan points that produced a value; 0 when no pass was usable."""
    return 0.0 if errors is None else 1.0 - len(errors) / points


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """q-th percentile by the nearest-rank rule."""
    s = sorted(values)
    return float(s[max(0, min(len(s) - 1, round(q / 100.0 * len(s)) - 1))])


# --- set-up -----------------------------------------------------------------------

def measure_setup(sources, work: Path, env: dict) -> list[float]:
    """Wall times of fresh interpreters that import ccsl, load the
    workload's descriptors and exit."""
    cmd = [sys.executable, "-c", SETUP_CODE, *sources]
    walls = []
    for _ in range(SETUP_SAMPLES):
        wall, _, code = run_child(cmd, work, env)
        if code != 0:
            raise RuntimeError(f"set-up interpreter exited with {code}")
        walls.append(wall)
    return walls


# --- scan workloads -------------------------------------------------------------------

def traced_rounds(seconds: float, one_pass):
    """Alternate untraced and traced in-process passes, each with a cold
    cache, until `seconds` are used. one_pass(main) runs the workload once
    through `main` and returns its wall time. Returns (median traced over
    untraced wall time, per-pass layer times, the last recorder)."""
    from ccsl import cli
    from ccsl.diffusion import clear_cache
    from spans import SpanRecorder, installed

    ratios, layers, last = [], [], []

    def one_round(r):
        clear_cache()
        untraced = one_pass(cli.main)
        clear_cache()
        rec = SpanRecorder()
        with installed(rec) as main:
            traced = one_pass(main)
        ratios.append(traced / untraced)
        layers.append(rec.layer_times())
        last[:] = [rec]

    until(seconds, one_round)
    return median(ratios), layers, last[0]


def check_scans(workload: str, seed: int, inputs, descs, passes: list[Pass]) -> dict:
    """Check the first pass in full; every later pass, at any --jobs, must
    repeat its data rows and failed points exactly."""
    import check

    ids = [d.id for d in descs]
    failed, recovered, sampled, problems = 0, 0, 0, []
    first = first_rows = None
    repeats = 0  # passes whose output equals the first good pass's
    for p in passes:
        if p.code != 0:
            bad = [f"exit code {p.code}"]
        elif first is None:
            bad = check.check_structure(inputs, ids, p.out)
            if not bad:
                first, first_rows = p, check.data_rows(inputs, p.out)
        elif check.data_rows(inputs, p.out) != first_rows:
            bad = ["data rows or failed points differ from the first pass"]
        else:
            bad = []
        repeats += not bad
        if bad:
            failed += inputs.points
            problems += [f"{p.out.name}: {b}" for b in bad]
    result = {"problems": problems, "errors": None, "reference": "not checked"}
    if first is None:
        return {**result, "failed": failed}
    if seed == DEFAULT_SEED:
        ref = json.loads((BENCH / "reference" / f"{workload}.json").read_text("utf-8"))
        n_bad, recovered, bad = check.compare_reference(ref, inputs, ids, first.out)
        failed += n_bad * repeats
        problems += bad
        result["reference"] = "differs" if bad else "identical"
    rcs = check.rc_values(inputs.rc_grid)
    cells = check.filled_cells(inputs, ids, first.out)
    affordable = [c for c in cells if check.reference_affordable(descs[c[1]], rcs[c[2]])]
    rng = random.Random(f"check:{workload}:{seed}")
    for routine, tol, chosen in (
            (check.round_trip_error, check.ROUND_TRIP_TOL,
             rng.sample(cells, min(SAMPLE_POINTS, len(cells)))),
            (check.reference_error, check.REFERENCE_TOL,
             rng.sample(affordable, min(REFERENCE_POINTS, len(affordable))))):
        for token, j, i, lam in chosen:
            sampled += 1
            err = routine(descs[j], check.noise_of(token), float(rcs[i]), lam)
            if not err <= tol:
                failed += 1
                problems.append(f"{ids[j]} rc={rcs[i]!r} omega_c={token}: "
                                f"{routine.__name__} {err:.3e} > {tol:g}")
    return {**result, "failed": min(failed, inputs.points * len(passes)),
            "recovered_points": recovered, "sampled_points": sampled,
            "errors": first_rows[1]}


# --- provenance ---------------------------------------------------------------------------

def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    files = sorted((SRC / "ccsl").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or None
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "commit": commit,
            "src_ccsl_sha256": digest.hexdigest(), "src_ccsl_lines": lines}


# --- entry point -----------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    """Generate the workload's inputs, measure, check; returns (result, info)."""
    import ccsl
    import workloads

    info: dict = {}
    if workload == workloads.QUERY_WORKLOAD:
        inputs, sources = None, list(workloads.BUNDLED)
    else:
        inputs = workloads.scan_inputs(workload, seed)
        for name, text in inputs.configs.items():
            (work / name).write_text(text, encoding="utf-8")
        sources = list(inputs.experiments)
        info["inputs"] = {"experiments": sources, "rc_grid": inputs.rc_grid,
                          "omega_c": list(inputs.omega_c), "points_per_pass": inputs.points}
    descs = [ccsl.load(s if s in workloads.BUNDLED else str(work / s)) for s in sources]
    if trace:
        return run_traced(workload, seed, seconds, inputs, descs, work, info)

    env = dict(os.environ, PYTHONPATH=str(SRC))
    setup = measure_setup(sources, work, env)
    metrics = {"setup_s": (median(setup), "s")}
    info["samples"] = {"setup_s": len(setup)}
    if inputs is None:
        attempted, failed = run_queries(seed, seconds, descs, work, env, metrics, info)
    else:
        attempted, failed = run_scans(workload, seed, seconds, inputs, descs, work, env,
                                      metrics, info)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, info


def run_scans(workload, seed, seconds, inputs, descs, work, env, metrics, info):
    """One client process runs the scan job pass after pass for `seconds`,
    three at --jobs 1 to one at --jobs <usable cores>, with the host probe
    between passes (see scans.py). A job's time is the median over the
    passes at --jobs 1, each in reference seconds. The rate at --jobs
    <usable cores> is reported without a bound: how fast the pool runs
    depends on the load on every core, and the probe, run on one core,
    does not follow it."""
    from probe import to_reference

    cores = len(os.sched_getaffinity(0))
    root = work / "passes"
    cmd = [sys.executable, str(BENCH / "scans.py"), "--workload", workload,
           "--seed", str(seed), "--jobs", str(cores), "--seconds", repr(seconds),
           "--out", str(root)]
    _, peak, code = run_child(cmd, work, env)
    if code != 0:
        raise RuntimeError(f"scan client exited with {code}")
    passes, ref_s, probe_s = [], {"serial": [], "parallel": []}, []
    for role, wall, before, after, status, out in map(
            json.loads, (root / "passes.jsonl").read_text("utf-8").splitlines()):
        passes.append(Pass(role, wall, status, Path(out)))
        ref_s[role].append(to_reference(wall, before, after))
        probe_s.append(0.5 * (before + after))
    result = check_scans(workload, seed, inputs, descs, passes)
    job_s = median(ref_s["serial"])
    metrics.update({
        "points_per_ref_s": (inputs.points / job_s, "1/ref_s"),
        "latency_ref_ms": (1e3 * job_s, "ref_ms"),
        "ok_ratio": (ok_ratio(inputs.points, result.pop("errors")), "ratio"),
        "peak_rss_mb": (peak, "MB")})
    info["samples"].update({"serial_passes": len(ref_s["serial"]),
                            "parallel_passes": len(ref_s["parallel"]), "jobs": cores})
    info["points_per_ref_s_parallel"] = inputs.points / median(ref_s["parallel"])
    info["pass_s"] = {role: [p.wall for p in passes if p.role == role] for role in ref_s}
    info["probe_s"] = probe_s
    info["points_per_s"] = {f"{role}_{stat.__name__}": inputs.points / stat(walls)
                            for role, walls in info["pass_s"].items()
                            for stat in (min, median)}
    info.update(result)
    return inputs.points * len(passes), result["failed"]


def run_queries(seed, seconds, descs, work, env, metrics, info):
    """One client process sends the same QUERY_PASS requests cycle after
    cycle for `seconds`, each cycle with a cold cache, with the host probe
    between blocks of requests (see queries.py); every cycle does the same
    work, and the client's memory does not grow with the number of cycles.
    Latencies are in reference seconds, each scaled by the probes on either
    side of its block."""
    import check
    from probe import to_reference

    out = work / "queries.jsonl"
    cmd = [sys.executable, str(BENCH / "queries.py"), "--seed", str(seed),
           "--count", str(QUERY_PASS), "--seconds", repr(seconds), "--out", str(out)]
    _, peak, code = run_child(cmd, work, env)
    if code != 0:
        raise RuntimeError(f"query client exited with {code}")
    *lines, last = [json.loads(ln) for ln in out.read_text("utf-8").splitlines()]
    records, ref_ms, block, before = [], [], [], None
    for item in lines:
        if isinstance(item, dict):
            ref_ms += [1e3 * to_reference(r[3], before, item["probe"]) for r in block]
            block, before = [], item["probe"]
        else:
            records.append(item)
            block.append(item)
    cycle_ms = [sum(ref_ms[i:i + QUERY_PASS]) for i in range(0, len(ref_ms), QUERY_PASS)]
    failed, info["problems"] = check.check_answers(records, descs)
    metrics.update({
        "points_per_ref_s": (1e3 * QUERY_PASS / median(cycle_ms), "1/ref_s"),
        "latency_ref_ms": (median(ref_ms), "ref_ms"),
        "ok_ratio": (1.0 - failed / len(records), "ratio"),
        "peak_rss_mb": (peak, "MB")})
    info["samples"].update({"cycles": last["cycles"], "requests": len(records)})
    info["cycle_s"] = last["wall_s"]
    latency_ms = [r[3] * 1e3 for r in records]
    info["query_ms"] = {q: percentile(latency_ms, float(q[1:])) for q in ("p50", "p90", "p99")}
    info["query_ref_ms"] = {q: percentile(ref_ms, float(q[1:])) for q in ("p90", "p99")}
    return len(records), failed


def run_traced(workload, seed, seconds, inputs, descs, work, info):
    import check
    from queries import run_count, send
    from spans import eta_replay, layer_metrics

    if inputs is None:
        records = []

        def one_pass(main):
            return run_count(main, seed, QUERY_PASS, records.append)

        ratio, layers, rec = traced_rounds(seconds, one_pass)
        attempted = len(records)
        failed, info["problems"] = check.check_answers(records, descs)
    else:
        passes = []

        def one_pass(main):
            out = work / f"pass-{len(passes)}"
            code, _, wall = send(main, inputs.argv(str(out), 1))
            passes.append(Pass("in-process", wall, code, out))
            return wall

        ratio, layers, rec = traced_rounds(seconds, one_pass)
        result = check_scans(workload, seed, inputs, descs, passes)
        del result["errors"]
        attempted, failed = inputs.points * len(passes), result["failed"]
        info.update(result)
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    rec.write(WORK / "traces" / f"{workload}.npz")
    metrics = layer_metrics(layers, rec)
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    metrics.update(eta_replay())
    info["traced_passes"] = len(layers)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ccsl benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ccsl" / "__init__.py").is_file():
        print(f"error: no ccsl source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    # config files are named relative to the work directory, both by the
    # scan processes and by the in-process passes
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        result, info = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    problems = info.get("problems", [])
    if len(problems) > 20:
        info["problems"] = problems[:20] + [f"... {len(problems) - 20} more"]
    print(json.dumps({"env": environment(args.workload, args.seed)}))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": result["failed"] == 0 and not problems,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
