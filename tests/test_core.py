import math

import pytest

from ccsl import (CONSTANTS, CollapseParams, NegativeLambda, NonPositiveRc,
                  validate_params)


def test_constants_positive():
    for name in ("hbar", "m0", "me", "e_charge", "eps0", "c_light", "kB"):
        assert getattr(CONSTANTS, name) > 0


def test_constants_exact_si():
    # exact SI definitions
    assert CONSTANTS.c_light == 299792458.0
    assert CONSTANTS.e_charge == 1.602176634e-19
    assert CONSTANTS.kB == 1.380649e-23
    assert CONSTANTS.hbar == pytest.approx(1.0545718176461565e-34, rel=1e-12)
    # nucleon reference mass: proton
    assert CONSTANTS.m0 == pytest.approx(1.67262192369e-27, rel=0)


def test_validate_params_grw_values_ok():
    p = CollapseParams(lam=1e-16, rc=1e-7)
    assert validate_params(p) is p


def test_validate_params_zero_lambda_ok():
    p = CollapseParams(lam=0.0, rc=1e-7)
    assert validate_params(p) is p


def test_validate_params_zero_rc_rejected():
    with pytest.raises(NonPositiveRc):
        validate_params(CollapseParams(lam=1e-8, rc=0.0))


@pytest.mark.parametrize("rc", [-1e-7, float("nan"), float("inf")])
def test_validate_params_bad_rc(rc):
    with pytest.raises(NonPositiveRc):
        validate_params(CollapseParams(lam=1e-8, rc=rc))


@pytest.mark.parametrize("lam", [-1e-20, float("nan")])
def test_validate_params_bad_lambda(lam):
    with pytest.raises(NegativeLambda):
        validate_params(CollapseParams(lam=lam, rc=1e-7))


def test_invalid_params_cannot_be_built():
    with pytest.raises(NonPositiveRc):
        CollapseParams(1.0, 0.0)
    with pytest.raises(NegativeLambda):
        CollapseParams(-1.0, 1e-7)


def test_params_are_immutable_and_hashable():
    p = CollapseParams(lam=1e-16, rc=1e-7)
    with pytest.raises(Exception):
        p.lam = 2e-16
    assert hash(p) == hash(CollapseParams(lam=1e-16, rc=1e-7))
    assert not math.isnan(hash(p))
