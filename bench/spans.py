"""Span recorder for the traced benchmark run.

ccsl is not edited: the recorder wraps public functions at the module
attributes their callers look up. ``bounds``, ``predict`` and ``cli`` bind
names with ``from .x import y``, so a function is replaced both in its home
module and at each import site. Spans (name, start, end, parent) are kept in
flat in-memory arrays and written once, when the run ends. A layer's self
time is its spans' durations minus the durations of their direct children.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

from ccsl import (bounds, cli, composite, cuboid, cylinder, diffusion, point_mass,
                  predict, registry, sphere)
from ccsl.diffusion import DEFAULT_TOL, clear_cache

# (span name, module the function lives in, attribute, import sites)
WRAPPED = (
    ("registry.load", registry, "load", (cli,)),
    ("geometry.validate_distribution", None, "validate_distribution", (diffusion,)),
    ("diffusion.eta_reduced", diffusion, "eta_reduced", (bounds,)),
    ("quadrature.integrate", None, "integrate", (diffusion, predict)),
    ("predict.lambda_eff_quad", predict, "lambda_eff_quad", (bounds,)),
    ("bounds.lambda_max_for", bounds, "lambda_max_for", ()),
    ("bounds.scan", None, "scan", (cli,)),
    ("bounds.envelope", None, "envelope", (cli,)),
)

# exception classes counted as bounds.failed.<name>; other classes are
# counted under their own name but are not reported as metrics
FAILURE_CLASSES = ("QuadratureNotConverged", "CompositeCrossTermUnsupported", "WashedOut")


class SpanRecorder:
    """In-memory spans plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._eta_keys: set = set()

    def _id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, before=None, after=None, failed=None):
        nid = self._id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.start.append(clock())
            self.end.append(0.0)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if failed is not None:
                    failed(err)
                raise
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- hooks for counters -------------------------------------------------

    def _eta_call(self, args, kwargs):
        tol = args[2] if len(args) > 2 else kwargs.get("tol", DEFAULT_TOL)
        key = (args[0], float(args[1]), float(tol))
        if key in self._eta_keys:
            self.counts["eta_repeats"] += 1
        else:
            self._eta_keys.add(key)

    def _integrate_done(self, result):
        self.counts["neval"] += result.neval

    def _bound_failed(self, err):
        self.counts["failed." + type(err).__name__] += 1

    def hooks(self, name: str) -> dict:
        return {
            "diffusion.eta_reduced": {"before": self._eta_call},
            "quadrature.integrate": {"after": self._integrate_done},
            "bounds.lambda_max_for": {"failed": self._bound_failed},
        }.get(name, {})

    # --- results ---------------------------------------------------------------

    def layer_times(self) -> dict[str, tuple[int, float]]:
        """{span name: (calls, self seconds)}."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for i, name in enumerate(self.names):
            sel = nid == i
            out[name] = (int(sel.sum()), float(self_time[sel].sum()))
        return out

    def write(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float))


@contextmanager
def installed(rec: SpanRecorder):
    """Swap every function in WRAPPED for its traced wrapper, and restore
    the originals on exit. Yields the traced ``cli.main``."""
    saved = []
    try:
        for name, home, attr, sites in WRAPPED:
            modules = ((home,) if home is not None else ()) + sites
            original = getattr(modules[0], attr)
            wrapper = rec.wrap(name, original, **rec.hooks(name))
            for mod in modules:
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapper)
        yield rec.wrap("cli.main", cli.main)
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


# --- per-layer metrics ----------------------------------------------------------

# (span name, report its call count)
LAYER_METRICS = (
    ("registry.load", True),
    ("geometry.validate_distribution", True),
    ("diffusion.eta_reduced", True),
    ("quadrature.integrate", True),
    ("predict.lambda_eff_quad", True),
    ("bounds.lambda_max_for", True),
    ("bounds.scan", False),
    ("bounds.envelope", False),
    ("cli.main", False),
)


def layer_metrics(layers: list[dict], rec: SpanRecorder) -> dict:
    """Call counts from the last traced pass (they repeat exactly) and the
    median self time over all traced passes, plus the counters."""
    out = {}
    for name, with_calls in LAYER_METRICS:
        if with_calls:
            out[f"{name}.calls"] = (layers[-1][name][0], "count")
        out[f"{name}.self_s"] = (float(np.median([lt[name][1] for lt in layers])), "s")
    eta_calls = layers[-1]["diffusion.eta_reduced"][0]
    out["diffusion.eta_reduced.repeat_ratio"] = (
        rec.counts["eta_repeats"] / eta_calls if eta_calls else 0.0, "ratio")
    out["quadrature.integrate.neval"] = (rec.counts["neval"], "count")
    for cls in FAILURE_CLASSES:
        out[f"bounds.failed.{cls}"] = (rec.counts["failed." + cls], "count")
    return out


# --- eta replay ---------------------------------------------------------------------

REPLAY_REPS = 3


def replay_cases() -> dict:
    """Fixed geometries and rc lists, named by input regime rather than by
    the route ccsl takes today: X = (R/rc)^2 for spheres, u = R^2/(2 rc^2)
    for cylinder cross sections."""
    grid = np.geomspace
    micro = sphere(15.5e-6, density=7430.0)
    cube = cuboid(1e-3, 1e-3, 1e-3, density=2200.0)
    ball = sphere(1e-5, density=2200.0)
    return {
        "point": (point_mass(1e-3), grid(1e-9, 1e-3, 12)),
        "sphere.large_x": (micro, grid(1e-9, 3e-7, 12)),        # X > 2600
        "sphere.small_x": (micro, grid(1e-6, 1e-3, 12)),        # X < 250
        "cuboid": (cuboid(0.046, 0.046, 0.046, mass=1.928), grid(1e-9, 1e-3, 12)),
        "cylinder.large_u": (cylinder(0.3, 3.0, mass=2300.0), grid(1e-9, 1e-3, 12)),
        "cylinder.small_u": (cylinder(1e-8, 2e-7, density=2200.0, measurement_axis=(1, 0, 0)),
                             grid(2e-9, 1e-3, 12)),             # u < 13
        "composite.cuboid_pair": (composite([(cube, (-1e-3, 0, 0)), (cube, (1e-3, 0, 0))]),
                                  grid(1e-9, 1e-3, 12)),
        # 10 um gap: the cross term is not negligible for rc > 4e-7 m
        "composite.sphere_pair": (composite([(ball, (-1.5e-5, 0, 0)), (ball, (1.5e-5, 0, 0))]),
                                  grid(1e-6, 1e-3, 12)),
    }


def eta_replay() -> dict:
    """Mean microseconds per eta_reduced call over each case's rc list, after
    clear_cache() (cold) and then again (warm); median of REPLAY_REPS."""
    out = {}
    for case, (d, rcs) in replay_cases().items():
        cold, warm = [], []
        for _ in range(REPLAY_REPS):
            clear_cache()
            for times in (cold, warm):
                t0 = time.perf_counter()
                for rc in rcs:
                    diffusion.eta_reduced(d, float(rc))
                times.append((time.perf_counter() - t0) / len(rcs) * 1e6)
        out[f"diffusion.eta_cold_us.{case}"] = (float(np.median(cold)), "us")
        out[f"diffusion.eta_warm_us.{case}"] = (float(np.median(warm)), "us")
    clear_cache()
    return out
