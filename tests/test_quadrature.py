import math

import numpy as np
import pytest
from scipy.integrate import quad

from ccsl import QuadratureNotConverged
from ccsl import quadrature
from ccsl.quadrature import XGK, WGK, WG, _GAUSS_IDX, integrate, integrate_rows, merge_edges


def test_kronrod_weights_sum_to_two():
    assert WGK.sum() == pytest.approx(2.0, abs=1e-14)
    assert WG.sum() == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("deg", range(0, 23))
def test_kronrod_rule_polynomial_exactness(deg):
    # K15 integrates polynomials exactly through degree 22
    vals = XGK**deg
    exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
    assert float(vals @ WGK) == pytest.approx(exact, abs=3e-14)


@pytest.mark.parametrize("deg", range(0, 14))
def test_gauss_subrule_polynomial_exactness(deg):
    # embedded G7 is exact through degree 13
    vals = XGK[_GAUSS_IDX]**deg
    exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
    assert float(vals @ WG) == pytest.approx(exact, abs=3e-14)


def test_gaussian_moments():
    rc = 0.37
    res = integrate(lambda k: k**4 * np.exp(-(k * rc) ** 2),
                    np.linspace(0.0, 12.0 / rc, 25), rel_tol=1e-12)
    exact = 3.0 / 8.0 * math.sqrt(math.pi) / rc**5
    assert res.value == pytest.approx(exact, rel=1e-12)
    assert res.error <= 1e-12 * abs(res.value) * 10


def test_oscillatory_against_scipy():
    f = lambda x: np.sin(50.0 * x) * np.exp(-0.3 * x)
    res = integrate(f, np.linspace(0.0, 10.0, 40), rel_tol=1e-11)
    ref, _ = quad(lambda x: math.sin(50.0 * x) * math.exp(-0.3 * x), 0.0, 10.0,
                  limit=400)
    assert res.value == pytest.approx(ref, rel=1e-9)


def test_sharp_peak_needs_adaptivity():
    # Lorentzian of width 1e-4 around 0.5: coarse seed panels must refine
    f = lambda x: 1.0 / ((x - 0.5) ** 2 + 1e-8)
    res = integrate(f, np.linspace(0.0, 1.0, 5), rel_tol=1e-9)
    ref = (math.atan(0.5 / 1e-4) - math.atan(-0.5 / 1e-4)) / 1e-4
    assert res.value == pytest.approx(ref, rel=1e-8)


def test_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_PANELS", 8)
    monkeypatch.setattr(quadrature, "_MAX_ROUNDS", 4)
    f = lambda x: 1.0 / ((x - 0.5) ** 2 + 1e-16)
    with pytest.raises(QuadratureNotConverged) as err:
        integrate(f, np.linspace(0.0, 1.0, 3), rel_tol=1e-14)
    assert err.value.estimate is not None


def test_non_finite_integrand_raises():
    def f(x):
        with np.errstate(divide="ignore"):
            return 1.0 / x  # hits the x = 0 node of the symmetric panel
    with pytest.raises(QuadratureNotConverged):
        integrate(f, np.array([-1.0, 1.0]), rel_tol=1e-8)


def test_deterministic_bit_identical():
    f = lambda x: np.exp(-x * x) * np.cos(7.0 * x)
    a = integrate(f, np.linspace(0, 8, 9), rel_tol=1e-12)
    b = integrate(f, np.linspace(0, 8, 9), rel_tol=1e-12)
    assert a.value == b.value and a.error == b.error and a.neval == b.neval


def test_bad_edges_rejected():
    with pytest.raises(ValueError):
        integrate(np.sin, np.array([0.0]))
    with pytest.raises(ValueError):
        integrate(np.sin, np.array([0.0, -1.0]))


def test_merge_edges():
    out = merge_edges(0.0, 10.0, [2.0, 5.0, 12.0], [5.0, -1.0])
    np.testing.assert_allclose(out, [0.0, 2.0, 5.0, 10.0])


# integrands of one batch: smooth, refined over several rounds, non-finite,
# past a panel budget of 300 (the budget fixture), oscillatory, and refined
# up to 300 panels
FS = [lambda x: np.exp(-x * x) * np.cos(7.0 * x),
      lambda x: 1.0 / ((x - 0.5) ** 2 + 1e-8),
      lambda x: np.where(x > 0.7, np.nan, x),
      lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-24),
      lambda x: np.sin(50.0 * x) * np.exp(-0.3 * x),
      lambda x: 1.0 / ((x - 0.5) ** 2 + 1e-16)]
EDGES = [np.linspace(0.0, 8.0, 9), np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 3),
         np.linspace(0.0, 1.0, 3), np.linspace(0.0, 10.0, 40), np.linspace(0.0, 1.0, 3)]
OPTS = dict(rel_tol=1e-11)


@pytest.fixture
def budget(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_PANELS", 300)


def _batch(fs):
    """One integrand over rows: fs[r] at the nodes of row r."""
    def f(x, rows):
        x, rows = np.broadcast_arrays(x, rows)
        out = np.empty_like(x)
        for r, g in enumerate(fs):
            out[rows == r] = g(x[rows == r])
        return out
    return f


def _bits(res):
    if isinstance(res, Exception):
        return type(res).__name__, str(res), res.estimate, res.tol
    return res.value.hex(), res.error.hex(), res.neval


def test_rows_match_one_row_calls_and_fail_alone(budget):
    # one batched call over six integrands: each row ends as the one-row
    # call on it ends, bit for bit, and a failing row fails with its own
    # message while the others keep their values
    got = integrate_rows(_batch(FS), EDGES, **OPTS)
    for g, e, res in zip(FS, EDGES, got):
        try:
            want = integrate(g, e, **OPTS)
        except QuadratureNotConverged as err:
            assert type(res) is QuadratureNotConverged and str(res) == str(err)
            assert (res.estimate, res.tol) == (err.estimate, err.tol)
        else:
            assert res == want and res.value.hex() == want.value.hex()
    assert [type(r).__name__ for r in got] == ["QuadResult", "QuadResult",
                                               "QuadratureNotConverged",
                                               "QuadratureNotConverged", "QuadResult",
                                               "QuadResult"]
    assert "non-finite" in str(got[2]) and "after 300 panels" in str(got[3])
    assert got[1].neval > 15 * 4 and got[5].neval > 15 * 200  # refined


@pytest.mark.parametrize("block", [None, 1, 7, 4096])
def test_a_row_has_its_bits_alone_between_rows_and_in_any_block(monkeypatch, budget, block):
    # a panel's K15 and G7 depend on its own 15 values only, and a row's
    # totals on its own panels: a row's value, error, neval and failure are
    # the same bits alone, between two other rows, and with any number of
    # panels per integrand call
    alone = [_bits(integrate_rows(_batch([g]), [e], **OPTS)[0]) for g, e in zip(FS, EDGES)]
    if block is not None:
        monkeypatch.setattr(quadrature, "_BLOCK", block)
    assert [_bits(r) for r in integrate_rows(_batch(FS), EDGES, **OPTS)] == alone
    for k in range(len(FS)):
        trio = [(k + d) % len(FS) for d in (-1, 0, 1)]
        got = integrate_rows(_batch([FS[i] for i in trio]), [EDGES[i] for i in trio], **OPTS)
        assert _bits(got[1]) == alone[k]


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_rows_given_one_edge_array_have_the_bits_of_copies_and_alone(monkeypatch, budget, block):
    # rows given one edge-array object share its seed nodes, which reach the
    # integrand as (15, 1, P) against rows (1, k, 1): a row that refines, one
    # with a non-finite value and one that runs out of panels end with the
    # bits they have given equal copies of the edges, and in one-row calls
    seed, other = np.linspace(0.0, 1.0, 3), np.linspace(0.0, 8.0, 9)
    fs = [FS[1], FS[0], FS[2], FS[4], FS[3], FS[4], FS[5]]
    edges = [seed, other, seed, EDGES[4], seed, other, seed]
    alone = [_bits(integrate_rows(_batch([g]), [e.copy()], **OPTS)[0]) for g, e in zip(fs, edges)]
    monkeypatch.setattr(quadrature, "_BLOCK", block)
    shapes = []

    def f(x, rows):
        shapes.append(np.broadcast_shapes(x.shape, rows.shape))
        return _batch(fs)(x, rows)
    res = integrate_rows(f, edges, **OPTS)
    got = [_bits(r) for r in res]
    assert got == [_bits(r) for r in integrate_rows(_batch(fs), [e.copy() for e in edges], **OPTS)]
    assert got == alone
    assert [type(r).__name__ for r in res] == ["QuadResult", "QuadResult", "QuadratureNotConverged",
                                               "QuadResult", "QuadratureNotConverged",
                                               "QuadResult", "QuadResult"]
    assert "non-finite" in str(res[2]) and "after 300 panels" in str(res[4])
    assert res[0].neval > 15 * 2 and res[6].neval > 15 * 200  # refined
    # each call holds as many rows of the seed's P panels as fit in _BLOCK, one at least
    assert shapes[0] == (15, min(4, max(1, block // 2)), 2)
    assert (15, min(2, max(1, block // 8)), 8) in shapes


def test_rows_edge_cases():
    assert integrate_rows(lambda x, r: x, []) == []
    with pytest.raises(ValueError, match="at least two"):
        integrate_rows(lambda x, r: x, [[0.0, 1.0], [2.0]])
    with pytest.raises(ValueError, match="strictly increasing"):
        integrate_rows(lambda x, r: x, [[0.0, 1.0], [2.0, 2.0]])
