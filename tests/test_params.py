import pytest

from conftest import bits_to_address
from qlut.errors import ConfigError, KOutOfRangeError, NonPowerOfTwoError, OrderingViolationError
from qlut.params import (
    DataTable, ErrorRates, Readout, Specialization,
    address_bits, arch_params_from_json, arch_params_to_json,
    derive_params, error_rates_from_json, error_rates_to_json, json_int, specialization,
)


def test_derive_fig11_instance():
    p = derive_params(16, 4, 2)
    assert (p.n, p.d, p.d_prime, p.d_dprime) == (4, 2, 1, 0)
    assert p.repetitions == 4


def test_derive_smallest_instance():
    p = derive_params(2, 2, 1)
    assert (p.d, p.d_prime) == (0, 1)


def test_derive_larger_instance():
    p = derive_params(256, 16, 4)
    assert (p.d, p.d_prime) == (4, 2)


@pytest.mark.parametrize("N,lam,gamma", [(10, 2, 1), (16, 3, 1), (16, 4, 3)])
def test_non_power_of_two_rejected(N, lam, gamma):
    with pytest.raises(NonPowerOfTwoError):
        derive_params(N, lam, gamma)


def test_ordering_violations_rejected():
    with pytest.raises(OrderingViolationError):
        derive_params(16, 4, 8)   # gamma > lambda
    with pytest.raises(OrderingViolationError):
        derive_params(16, 32, 1)  # lambda > N
    with pytest.raises(KOutOfRangeError):
        derive_params(16, 4, 2, k=3)  # k > n - d


def test_bucket_brigade_corner_is_accepted():
    # lambda = N gives d' = n > d = 0; the conclusion's degeneration relies on it
    p = derive_params(16, 16, 1)
    assert (p.d, p.d_prime) == (0, 4)


@pytest.mark.parametrize("lam,gamma,expect", [
    (16, 1, Specialization.BUCKET_BRIGADE),
    (1, 1, Specialization.QROM),
    (4, 1, Specialization.SELECT_SWAP_VARIANT),
    (4, 2, Specialization.GENERAL),
    (8, 1, Specialization.GENERAL),
])
def test_specialization(lam, gamma, expect):
    assert specialization(derive_params(16, lam, gamma)) == expect


def test_specialization_stable_under_b():
    for b in (1, 2, 4):
        p = derive_params(16, 16, 1, b=b, readout=Readout.PARALLEL if b > 1 else Readout.SINGLE_BIT)
        assert specialization(p) == Specialization.BUCKET_BRIGADE


def test_derive_bijection_onto_exponents():
    # given N and b, the (lambda, gamma) -> (d, d') map is injective
    seen = {}
    N = 64
    lam = 1
    while lam <= N:
        gam = 1
        while gam <= lam:
            p = derive_params(N, lam, gam)
            key = (p.d, p.d_prime)
            assert key not in seen
            seen[key] = (lam, gam)
            gam *= 2
        lam *= 2


def test_address_bits_roundtrip():
    for n in range(5):
        for a in range(1 << n):
            bits = address_bits(a, n)
            assert len(bits) == n
            assert bits_to_address(bits) == a
    assert address_bits(5, 4) == (0, 1, 0, 1)


def test_arch_params_json_roundtrip():
    p = derive_params(16, 4, 2, b=2, readout=Readout.PARALLEL, k=1)
    obj = arch_params_to_json(p)
    assert obj["lambda"] == 4 and obj["dPrime"] == 1
    assert arch_params_from_json(obj) == p


def test_arch_params_json_rejects_inconsistent_derived():
    obj = arch_params_to_json(derive_params(16, 4, 2))
    obj["d"] = 3
    with pytest.raises(OrderingViolationError):
        arch_params_from_json(obj)


def test_error_rates_json_roundtrip():
    r = ErrorRates(eps_i=1e-5, eps_q=1e-4, eps_l=None, eps_s=1e-3, eps_cs=2e-3,
                   eps_c=1e-3, eps_cc=3e-3, eps_f=1e-2, eps_initial=0.2)
    obj = error_rates_to_json(r)
    assert obj["epsL"] is None and obj["epsCS"] == 2e-3
    assert error_rates_from_json(obj) == r


def test_error_rates_validation():
    with pytest.raises(OrderingViolationError):
        ErrorRates(eps_s=1.5)


def test_derived_long_range_error():
    r = ErrorRates(eps_q=0.001, eps_f=0.02)
    assert r.long_range(5) == pytest.approx(0.005)
    assert r.long_range(500) == pytest.approx(0.02)
    fixed = ErrorRates(eps_l=0.03, eps_q=0.001, eps_f=0.02)
    assert fixed.long_range(500) == pytest.approx(0.03)


def test_data_table_validation():
    with pytest.raises(NonPowerOfTwoError):
        DataTable(words=(0, 1, 0), b=1)
    with pytest.raises(OrderingViolationError):
        DataTable(words=(0, 2), b=1)
    t = DataTable(words=(1, 2, 0, 3), b=2)
    assert t.bit(1, 0) == 0 and t.bit(1, 1) == 1


@pytest.mark.parametrize("value", ["16", " 1", None, [16], True])
def test_json_int_takes_only_whole_json_numbers(value):
    # int() used to turn the strings "16" and " 1" into integers
    with pytest.raises(ConfigError, match="N must be an integer"):
        json_int(value, "N")


@pytest.mark.parametrize("key", ["epsI", "epsQ", "epsL", "epsS", "epsCS", "epsC",
                                 "epsCC", "epsF", "epsInitial"])
@pytest.mark.parametrize("bad", [True, "x", "0.1"], ids=["bool", "word", "numeric-string"])
def test_rates_must_be_json_numbers(key, bad):
    # true used to run as the rate 1.0 and "x" failed inside the range check
    with pytest.raises(ConfigError, match=f"{key} must be a number"):
        error_rates_from_json({key: bad})


def test_null_rate_derives_long_range_error_only():
    assert error_rates_from_json({"epsL": None}).eps_l is None
    with pytest.raises(ConfigError, match="epsI must be a number"):
        error_rates_from_json({"epsI": None})


def test_long_range_budget_must_be_a_json_number():
    obj = {"N": 16, "lambda": 4, "gamma": 2}
    assert arch_params_from_json({**obj, "longRangeBudgetK": 1}).k == 1
    for bad in ("1", True, None):
        with pytest.raises(ConfigError, match="longRangeBudgetK must be a number"):
            arch_params_from_json({**obj, "longRangeBudgetK": bad})
