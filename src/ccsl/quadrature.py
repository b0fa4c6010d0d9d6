"""Vectorized adaptive Gauss-Kronrod quadrature (G7/K15) over many integrands.

``integrate_rows`` integrates one row per seed edge list. Each row keeps its
own panels and bisects those whose K15-G7 discrepancy exceeds their fair
share of its error budget. A round evaluates the 15 Kronrod nodes of every
new panel of every active row in vectorized integrand calls of at most
_BLOCK panels, so memory stays flat. Each row's panels then go through
matrix products and sums of their own, in the order a one-row call keeps
them: every row is bit-identical to ``integrate``, the one-row call, on its
edges alone, and repeated calls are bit-identical.

Integrands take a 1-D numpy array of nodes (for ``integrate_rows`` also the
row index of each node) and return an array of the same shape. The error
estimate |K15 - G7| is conservative for smooth integrands.
"""
from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import QuadratureNotConverged

# 15-point Kronrod abscissae on [-1, 1] (positive half; symmetric).
_XGK_HALF = np.array([
    0.9914553711208126392068547,
    0.8648644233597690727897128,
    0.5860872354676911302941448,
    0.2077849550078984676006894,
    0.9491079123427585245261897,
    0.7415311855993944398638648,
    0.4058451513773971669066064,
    0.0,
])
_WGK_HALF = np.array([
    0.0229353220105292249637320,
    0.1047900103222501838398763,
    0.1690047266392679028265834,
    0.2044329400752988924141620,
    0.0630920926299785532907007,
    0.1406532597155259187451896,
    0.1903505780647854099132564,
    0.2094821410847278280129992,
])
_WG_HALF = np.array([
    0.1294849661688696932706114,
    0.2797053914892766679014678,
    0.3818300505051189449503698,
    0.4179591836734693877551020,
])

# Full 15-node arrays: negative mirror, then the positive half (center once).
XGK = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF])
WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF])
# Gauss nodes sit at indices of +-x for the last three half-entries and 0.
_GAUSS_IDX = np.array([4, 5, 6, 11, 12, 13, 14])
WG = np.concatenate([_WG_HALF[:-1], _WG_HALF])


class QuadResult(NamedTuple):
    value: float
    error: float  # absolute error estimate
    neval: int


_BLOCK = 256  # panels per integrand call, unless one row's new panels are more
_sum = np.add.reduce  # ndarray.sum without its Python wrapper


def _segments(row: np.ndarray):
    """Ids, starts and stops of the runs of one id in the sorted row ids."""
    cut = np.flatnonzero(row[1:] != row[:-1]) + 1
    return row[np.append(0, cut)].tolist(), [0, *cut.tolist()], [*cut.tolist(), row.size]


def _eval_panels(f: Callable, lo: np.ndarray, hi: np.ndarray, row: np.ndarray):
    """Panels grouped by row as a (lo, hi, K15, |K15 - G7|) array, and the
    rows with a non-finite integrand value. Each row's group is one matrix
    product, whose rounding depends on that group alone."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    k15, g7, bad = np.zeros(lo.size), np.zeros(lo.size), set()
    ids, starts, stops = _segments(row)
    first = 0
    for j, b in enumerate(stops):
        if j + 1 < len(stops) and stops[j + 1] - starts[first] <= _BLOCK:
            continue
        a = starts[first]
        nodes = mid[a:b, None] + half[a:b, None] * XGK[None, :]
        y = np.asarray(f(nodes.ravel(), np.repeat(row[a:b], XGK.size)),
                       dtype=float).reshape(nodes.shape)
        finite = np.all(np.isfinite(y))
        for rid, s, e in zip(ids[first:j + 1], starts[first:j + 1], stops[first:j + 1]):
            ys = y[s - a:e - a]
            if finite or np.all(np.isfinite(ys)):
                k15[s:e] = ys @ WGK
                g7[s:e] = ys[:, _GAUSS_IDX] @ WG
            else:
                bad.add(rid)
        first = j + 1
    ik = half * k15
    return np.stack([lo, hi, ik, np.abs(ik - half * g7)]), bad


def integrate_rows(f: Callable, edges: Sequence[Sequence[float]], *,
                   rel_tol: float = 1e-10, max_panels: int = 20000,
                   max_rounds: int = 100) -> list:
    """Integrate f over [e[0], e[-1]] for each seed edge list e, each row as
    ``integrate`` would; f(x, rows) gets the nodes x and each one's row
    index. Returns, per row, its QuadResult or the QuadratureNotConverged it
    failed with; the other rows keep their values."""
    seeds = [np.asarray(e, dtype=float) for e in edges]
    if any(e.ndim != 1 or e.size < 2 for e in seeds):
        raise ValueError("need at least two edges")
    out: list = [None] * len(seeds)
    if not seeds:
        return out
    lo, hi = np.concatenate([e[:-1] for e in seeds]), np.concatenate([e[1:] for e in seeds])
    if np.any(hi - lo <= 0):
        raise ValueError("edges must be strictly increasing")
    row = np.repeat(np.arange(len(seeds)), [e.size - 1 for e in seeds])
    neval = 15 * np.bincount(row)
    pan, bad = _eval_panels(f, lo, hi, row)  # pan[:, i]: lo, hi, value, error

    for rnd in range(max_rounds + 1):
        refine, shares = [], []
        for rid, a, b in zip(*_segments(row)):
            if rid in bad:
                out[rid] = QuadratureNotConverged("integrand returned non-finite values")
                continue
            total, total_err = float(_sum(pan[2, a:b])), float(_sum(pan[3, a:b]))
            target = rel_tol * abs(total)
            # after the last round, a zero target alone no longer passes
            if total_err <= target or (target == 0.0 and rnd < max_rounds):
                out[rid] = QuadResult(total, total_err, int(neval[rid]))
            elif rnd == max_rounds or b - a >= max_panels:
                out[rid] = QuadratureNotConverged(
                    f"error estimate {total_err:.3e} above target {target:.3e} "
                    f"after {b - a} panels", estimate=total_err, tol=target)
            else:
                refine.append(rid)
                shares.append(target / (2.0 * (b - a)))
        if not refine:
            break
        live = np.zeros(len(seeds), dtype=bool)
        live[refine] = True
        pan, row = pan.compress(live[row], axis=1), row[live[row]]
        # Bisect the panels holding more than their fair share of their row's
        # budget; a row with none takes its worst panel, and a row with more
        # than fit its budget takes the worst that fit.
        counts = np.bincount(row)[refine]
        mask = pan[3] > np.repeat(shares, counts)
        picked = np.bincount(row[mask], minlength=len(seeds))[refine]
        for k in np.flatnonzero((picked == 0) | (picked > max_panels - counts)).tolist():
            a = int(counts[:k].sum())
            err = pan[3, a:a + counts[k]]
            candidates = np.where(err > shares[k])[0]
            if candidates.size == 0:
                candidates = np.array([int(np.argmax(err))])
            order = candidates[np.argsort(err[candidates])[::-1]][:max_panels - counts[k]]
            mask[a:a + counts[k]] = False
            mask[a + order] = True
        s_lo, s_hi, s_row = pan[0, mask], pan[1, mask], row[mask]
        s_mid = 0.5 * (s_lo + s_hi)
        neval += 30 * np.bincount(s_row, minlength=len(seeds))
        # a row's new panels: its left halves, then its right halves
        n_row = np.concatenate([s_row, s_row])
        order = np.argsort(n_row, kind="stable")
        new, bad = _eval_panels(f, np.concatenate([s_lo, s_mid])[order],
                                np.concatenate([s_mid, s_hi])[order], n_row[order])
        # a row's panels: those it kept, then its new ones
        row = np.concatenate([row[~mask], n_row[order]])
        order = np.argsort(row, kind="stable")
        pan = np.concatenate([pan.compress(~mask, axis=1), new], axis=1).take(order, axis=1)
        row = row[order]
    return out


def integrate(f: Callable, edges: Sequence[float], *, rel_tol: float = 1e-10,
              max_panels: int = 20000, max_rounds: int = 100) -> QuadResult:
    """Integrate f over [edges[0], edges[-1]], seeded with the given panel
    edges, refining adaptively until the summed error estimate is below
    rel_tol * |integral|."""
    res, = integrate_rows(lambda x, _: f(x), [edges], rel_tol=rel_tol,
                          max_panels=max_panels, max_rounds=max_rounds)
    if isinstance(res, Exception):
        raise res
    return res


def merge_edges(lo: float, hi: float, *groups) -> np.ndarray:
    """Sorted unique edges clipped to [lo, hi], always containing both ends."""
    pts = [np.asarray([lo, hi], dtype=float)]
    for g in groups:
        g = np.asarray(g, dtype=float)
        if g.size:
            pts.append(g[(g > lo) & (g < hi)])
    edges = np.unique(np.concatenate(pts))
    return edges
