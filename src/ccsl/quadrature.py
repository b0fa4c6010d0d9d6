"""Vectorized adaptive Gauss-Kronrod quadrature (G7/K15) over many integrands.

``integrate_rows`` integrates one row per seed edge list. Each row keeps its
own panels and bisects those whose K15-G7 discrepancy exceeds their fair
share of its error budget. A round evaluates the 15 Kronrod nodes of every
new panel of every active row node-major, as (15, m) arrays of at most
_BLOCK panels, so memory stays flat. Rows given one edge-array object share
its seed panels: their nodes are built once and go to the integrand as
(15, 1, P) against row indices (1, k, 1), k rows of P panels per call. That
is an optimisation only; rows given equal copies get the same bits. K15 and
G7 are sums w[j] y[j] added left to right element by element, with no BLAS
routine, so a panel's value depends only on its own 15 nodes. Each row's
totals are one segmented reduction over its panels, in the order a one-row
call keeps them, and the round's converge/fail/refine tests are array
operations: every row is bit-identical to ``integrate``, the one-row call,
on its edges alone, on any host BLAS, and repeated calls are bit-identical.

``integrate``'s integrand takes a 1-D numpy array of nodes and returns an
array of the same shape. ``integrate_rows``'s takes nodes x and row indices
rows, arrays that broadcast against each other, and returns an array of
their broadcast shape (or one that broadcasts to it). The error estimate
|K15 - G7| is conservative for smooth integrands.
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


_BLOCK = 1024  # panels per integrand call
MAX_PANELS = 20000  # panels a row may hold, its seed panels included
_MAX_ROUNDS = 100  # bisection rounds


def _left_to_right(w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """w[0] y[0] + w[1] y[1] + ..., added left to right element by element."""
    p = w[:, None] * y
    total = p[0] + p[1]
    for q in p[2:]:
        total += q
    return total


def _eval_panels(f: Callable, lo: np.ndarray, hi: np.ndarray, row: np.ndarray,
                 shared: bool = False):
    """The panels as rows (lo, hi, K15, |K15 - G7|) of an (n, 4) array, and
    the mask of those with a non-finite integrand value, whose K15 and G7
    are set to 0. Panel i is [lo[i], hi[i]] of row[i]; shared, every row of
    row has all the panels, whose nodes are built once, and the panels run
    row by row."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    if shared:  # nodes (15, 1, P) against rows (1, k, 1): k P <= _BLOCK, or k = 1
        nodes, k = (mid + half * XGK[:, None])[:, None], max(1, _BLOCK // lo.size)
        calls = [(nodes, row[None, a:a + k, None]) for a in range(0, row.size, k)]
        lo, hi, half = (np.tile(v, row.size) for v in (lo, hi, half))
    else:  # node-major (15, m) nodes of m <= _BLOCK panels, flattened
        calls = ((np.ravel(mid[a:a + _BLOCK] + half[a:a + _BLOCK] * XGK[:, None]),
                  np.tile(row[a:a + _BLOCK], XGK.size)) for a in range(0, lo.size, _BLOCK))
    k15, g7, bad = np.empty(lo.size), np.empty(lo.size), np.zeros(lo.size, dtype=bool)
    s = slice(0, 0)
    for x, r in calls:
        y = np.broadcast_to(np.asarray(f(x, r), dtype=float),
                            np.broadcast_shapes(x.shape, r.shape)).reshape(XGK.size, -1)
        a, s = s.stop, slice(s.stop, s.stop + y.shape[1])
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf in a bad panel
            k15[s] = _left_to_right(WGK, y)
            g7[s] = _left_to_right(WG, y[_GAUSS_IDX])
        # every weight is positive, so a non-finite y makes K15 non-finite
        odd = np.flatnonzero(~np.isfinite(k15[s]))
        if odd.size:
            bad[a + odd] = ~np.all(np.isfinite(y[:, odd]), axis=0)
    k15[bad] = g7[bad] = 0.0
    ik = half * k15
    return np.stack([lo, hi, ik, np.abs(ik - half * g7)], axis=1), bad


def integrate_rows(f: Callable, edges: Sequence[Sequence[float]], *,
                   rel_tol: float = 1e-10) -> list:
    """Integrate f over [e[0], e[-1]] for each seed edge list e, each row as
    ``integrate`` would; f(x, rows) gets nodes x and row indices rows that
    broadcast against each other, each node with its row's index. Rows given
    one edge-array object share its seed nodes, an optimisation only: equal
    copies give the same bits. Returns, per row, its QuadResult or the
    QuadratureNotConverged it failed with; the other rows keep their values."""
    edges = list(edges)
    groups: dict = {}  # the rows given each edge object
    for i, e in enumerate(edges):
        groups.setdefault(id(e), []).append(i)
    rows = sorted(groups.values(), key=lambda g: len(g) == 1)  # shared objects first
    seeds = [np.asarray(edges[g[0]], dtype=float) for g in rows]
    if any(e.ndim != 1 or e.size < 2 for e in seeds):
        raise ValueError("need at least two edges")
    out: list = [None] * len(edges)
    if not seeds:
        return out
    lo, hi = np.concatenate([e[:-1] for e in seeds]), np.concatenate([e[1:] for e in seeds])
    if np.any(hi - lo <= 0):
        raise ValueError("edges must be strictly increasing")
    # the live rows, each object's as one run, and their panel counts and
    # evaluations; each row's panels are one run of pan's rows, in the order
    # a one-row call keeps them
    ids = np.array([i for g in rows for i in g])
    counts = np.repeat([e.size - 1 for e in seeds], [len(g) for g in rows])
    row, neval = np.repeat(ids, counts), 15 * counts
    shared = sum(len(g) > 1 for g in rows)
    parts = [_eval_panels(f, e[:-1], e[1:], np.array(g), shared=True)
             for g, e in zip(rows[:shared], seeds[:shared])]
    m = sum(e.size - 1 for e in seeds[shared:])  # the rows alone: the last m panels
    if m:
        parts.append(_eval_panels(f, lo[-m:], hi[-m:], row[-m:]))
    pan, bad = (np.concatenate(v) for v in zip(*parts))  # pan[i]: lo, hi, value, error
    nonfinite = np.zeros(len(edges), dtype=bool)  # rows with a non-finite value
    nonfinite[row[bad]] = True
    for rnd in range(_MAX_ROUNDS + 1):
        starts = np.cumsum(counts) - counts
        total, total_err = np.add.reduceat(pan[:, 2], starts), np.add.reduceat(pan[:, 3], starts)
        target = rel_tol * np.abs(total)
        failed = nonfinite[ids]
        # after the last round, a zero target alone no longer passes
        done = ~failed & ((total_err <= target) | ((target == 0.0) & (rnd < _MAX_ROUNDS)))
        spent = ~(failed | done) & ((counts >= MAX_PANELS) | (rnd == _MAX_ROUNDS))
        refine = ~(failed | done | spent)
        for rid in ids[failed].tolist():
            out[rid] = QuadratureNotConverged("integrand returned non-finite values")
        for rid, *res in zip(*(v[done].tolist() for v in (ids, total, total_err, neval))):
            out[rid] = QuadResult(*res)
        for rid, err, tol, n in zip(*(v[spent].tolist() for v in (ids, total_err, target, counts))):
            out[rid] = QuadratureNotConverged(f"error estimate {err:.3e} above target {tol:.3e} "
                                              f"after {n} panels", estimate=err, tol=tol)
        if not refine.any():
            break
        pan = pan.compress(np.repeat(refine, counts), axis=0)
        ids, counts, neval = ids[refine], counts[refine], neval[refine]
        starts = np.cumsum(counts) - counts
        shares = target[refine] / (2.0 * counts)
        # Bisect the panels holding more than their fair share of their row's
        # budget; a row with none takes its worst panel, and a row with more
        # than fit its budget takes the worst that fit.
        mask = pan[:, 3] > np.repeat(shares, counts)
        picked = np.add.reduceat(mask, starts, dtype=np.intp)
        for k in np.flatnonzero((picked == 0) | (picked > MAX_PANELS - counts)).tolist():
            a, n = int(starts[k]), int(counts[k])
            err = pan[a:a + n, 3]
            candidates = np.where(err > shares[k])[0]
            if candidates.size == 0:
                candidates = np.array([int(np.argmax(err))])
            order = candidates[np.argsort(err[candidates])[::-1]][:MAX_PANELS - n]
            mask[a:a + n] = False
            mask[a + order] = True
            picked[k] = order.size
        s_lo, s_hi = pan.compress(mask, axis=0)[:, :2].T
        s_mid = 0.5 * (s_lo + s_hi)
        n_row = np.tile(np.repeat(ids, picked), 2)
        new, bad = _eval_panels(f, np.concatenate([s_lo, s_mid]),
                                np.concatenate([s_mid, s_hi]), n_row)
        nonfinite[n_row[bad]] = True
        neval += 30 * picked
        # a row's panels: those it kept, its left halves, its right halves
        at = np.arange(ids.size)  # the rows' places in pan
        order = np.argsort(np.concatenate([np.repeat(at, counts - picked),
                                           np.tile(np.repeat(at, picked), 2)]), kind="stable")
        pan = np.concatenate([pan.compress(~mask, axis=0), new]).take(order, axis=0)
        counts = counts + picked
    return out


def integrate(f: Callable, edges: Sequence[float], *, rel_tol: float = 1e-10) -> QuadResult:
    """Integrate f over [edges[0], edges[-1]], seeded with the given panel
    edges, refining adaptively until the summed error estimate is below
    rel_tol * |integral|."""
    res, = integrate_rows(lambda x, _: f(x), [edges], rel_tol=rel_tol)
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
