"""Closed-form cost and infidelity evaluators, plus exponent fitting.

Every evaluator instantiates the published asymptotic expressions with all
big-O constants set to 1; log means log2 throughout, and the polylog idle
factors are modeled as cubed logs. These are leading-order envelopes: exact
gate-level numbers come from resources.count_resources, and the idle ground
truth from layout.build_schedule, which reads the builder's ASAP layers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, InvalidParamsError, KOutOfRangeError
from .params import ArchParams, ErrorRates, Readout

@dataclass
class FidelityBreakdown:
    """Per-error-type coefficients and the first-order infidelity total."""
    terms: dict[str, float]                 # eps symbol -> coefficient
    rates: dict[str, float]                 # eps symbol -> rate used
    survival_factors: dict[str, float] = field(default_factory=dict)

    @property
    def contributions(self) -> dict[str, float]:
        return {k: self.terms[k] * self.rates[k] for k in self.terms}

    @property
    def total(self) -> float:
        return sum(self.contributions.values())

    def to_json(self) -> dict:
        return {
            "terms": dict(sorted(self.terms.items())),
            "rates": dict(sorted(self.rates.items())),
            "contributions": dict(sorted(self.contributions.items())),
            "total": self.total,
            "survivalFactors": dict(sorted(self.survival_factors.items())),
        }


def _log2(x: float) -> float:
    return math.log2(x) if x > 0 else 0.0


def _effective_eps_l(rates: ErrorRates, lam: float) -> float:
    # theorem-level eps_L: a distilled link spanning the lambda-sized tree
    # footprint (explicit eps_l wins, as for every link)
    return rates.long_range(max(1, math.isqrt(int(max(lam, 1)))))


def _general_terms(n: float, d: float, dp: float) -> dict[str, float]:
    """Coefficients of the single-bit infidelity expression on real exponents."""
    N = 2.0 ** n
    lam = 2.0 ** (n - d)
    gam = 2.0 ** (n - d - dp)
    reps = N / lam
    log_lam = n - d
    log_tree = dp                      # log(lambda / gamma)
    return {
        "eps_l": gam * reps + reps * log_tree,
        "eps_s": _log2(lam * lam / gam),
        "eps_i": reps * n * (_log2(N / gam) + gam + log_tree) + log_lam ** 3,
        "eps_c": gam * reps,
        "eps_cc": reps * d,
        "eps_cs": reps * log_tree + log_tree ** 2 + log_lam ** 2,
    }


def general_infidelity(params: ArchParams, rates: ErrorRates) -> FidelityBreakdown:
    """First-order single-query infidelity of the unified single-bit design."""
    if params.b != 1:
        raise InvalidParamsError("general_infidelity covers the single-bit design")
    terms = _general_terms(params.n, params.d, params.d_prime)
    used = {k: getattr(rates, k) for k in terms if k != "eps_l"}
    used["eps_l"] = _effective_eps_l(rates, params.lam)
    return FidelityBreakdown(terms=terms, rates=used)


def bucket_brigade_infidelity(N: int, rates: ErrorRates) -> FidelityBreakdown:
    """Fine-grained planar bucket-brigade infidelity with explicit sums.

    The per-error exponents are the fault-location counts along one query
    branch: 3(T - l) long-range CNOTs per level, two local SWAPs per router,
    2l CSWAPs at level l, and a cubed-log idle envelope.
    """
    if N < 2 or N & (N - 1):
        raise InvalidParamsError("N must be a power of two >= 2")
    T = int(math.log2(N))
    p_l = 3 * T * (T - 1) // 2          # sum of 3(T - l), l = 1..T
    p_s = 2 * T
    p_cs = T * (T + 1)                  # sum of 2l
    p_i = T ** 3                        # polylog idle envelope (modeled)
    eps_l = _effective_eps_l(rates, N)
    terms = {"eps_l": float(p_l), "eps_s": float(p_s),
             "eps_cs": float(p_cs), "eps_i": float(p_i)}
    used = {"eps_l": eps_l, "eps_s": rates.eps_s,
            "eps_cs": rates.eps_cs, "eps_i": rates.eps_i}
    survival = {
        "P_L": (1.0 - eps_l) ** p_l,
        "P_s": (1.0 - rates.eps_s) ** p_s,
        "P_cs": (1.0 - rates.eps_cs) ** p_cs,
        "P_I": (1.0 - rates.eps_i) ** p_i,
    }
    return FidelityBreakdown(terms=terms, rates=used, survival_factors=survival)


def multi_bit_infidelity(params: ArchParams, rates: ErrorRates) -> FidelityBreakdown:
    """Parallel: b copies plus the q_i fan-out links; sequential: b passes
    plus the quadratic idle of registers waiting for their readout turn."""
    if params.readout == Readout.SINGLE_BIT:
        raise InvalidParamsError("multi_bit_infidelity needs a multi-bit readout mode")
    b = params.b
    base = _general_terms(params.n, params.d, params.d_prime)
    if b == 1:
        terms = dict(base)
    elif params.readout == Readout.PARALLEL:
        terms = {k: b * v for k, v in base.items()}
        fan = 2.0 ** ((params.n - params.d) / 2)
        terms["eps_l"] += b * fan * params.d_prime + (2.0 ** params.d) * b * fan
    else:
        terms = {k: b * v for k, v in base.items()}
        dpp = params.d_dprime
        terms["eps_i"] += (2.0 ** dpp + params.d_prime) * (
            2.0 ** dpp + (params.n - params.d) + dpp)
    used = {k: getattr(rates, k) for k in terms if k != "eps_l"}
    used["eps_l"] = _effective_eps_l(rates, params.lam)
    return FidelityBreakdown(terms=terms, rates=used)


def _budgeted_terms(n: float, d: float, dp: float, k: float) -> dict[str, float]:
    """eps_Q coefficient of the limited-long-range-budget corollary."""
    N = 2.0 ** n
    lam = 2.0 ** (n - d)
    gam = 2.0 ** (n - d - dp)
    if k <= dp:
        coeff = (2.0 ** (-k / 2) * math.sqrt(lam)
                 + 2.0 ** (-k / 2) * N / math.sqrt(lam)
                 + gam * N / lam)
    else:
        coeff = 2.0 ** (-k) * N + 2.0 ** (-k / 2) * math.sqrt(lam)
    return {"eps_q": coeff}


def budgeted_infidelity(params: ArchParams, rates: ErrorRates,
                        k: float | None = None) -> FidelityBreakdown:
    """Infidelity with the first k router levels granted free long-range ops.

    Below k the remaining long-range operations ride GHZ chains, so the
    eps_L terms are replaced by explicit eps_Q coefficients; all other error
    terms carry over unchanged.
    """
    if k is None:
        k = params.k
    n, d = params.n, params.d
    if not 0 <= k <= n - d:
        raise KOutOfRangeError(f"k must lie in [0, n-d] = [0, {n - d}], got {k}")
    return budgeted_infidelity_at(n, d, params.d_prime, k, rates)


def budgeted_infidelity_at(n: float, d: float, dp: float, k: float,
                           rates: ErrorRates) -> FidelityBreakdown:
    """:func:`budgeted_infidelity` on real exponents (n, d, d') and budget k."""
    terms = _general_terms(n, d, dp)
    del terms["eps_l"]
    terms.update(_budgeted_terms(n, d, dp, k))
    used = {key: getattr(rates, key) for key in terms}
    return FidelityBreakdown(terms=terms, rates=used)


def budgeted_bucket_brigade(N: int, rates: ErrorRates, k: float) -> FidelityBreakdown:
    """Bucket-brigade variant of the limited-budget analysis."""
    if N < 2 or N & (N - 1):
        raise InvalidParamsError("N must be a power of two >= 2")
    T = math.log2(N)
    if not 0 <= k <= T:
        raise KOutOfRangeError(f"k must lie in [0, log2 N], got {k}")
    terms = {
        "eps_q": 2.0 ** (-k / 2) * T * math.sqrt(N),
        "eps_s": T,
        "eps_cs": T * T,
        "eps_i": T * T,
    }
    used = {key: getattr(rates, key) for key in terms}
    return FidelityBreakdown(terms=terms, rates=used)


def t_count_at(n: float, d: float, dp: float, b: float, readout: Readout) -> float:
    """Leading-term T count on real exponents (n, d, d') and word size b."""
    if readout == Readout.PARALLEL and b > 1:
        return 2.0 ** d * (d + b * 2.0 ** dp) + b * 2.0 ** (n - d)
    extra = b if readout == Readout.SEQUENTIAL else 1.0
    return 2.0 ** d * (2.0 ** dp + d) + extra * 2.0 ** (n - d)


def t_count_formula(params: ArchParams) -> float:
    """Leading-term T count with unit constants."""
    return t_count_at(params.n, params.d, params.d_prime, params.b, params.readout)


def qubit_count_at(n: float, d: float, b: float, readout: Readout) -> float:
    """Leading-term qubit count on real exponents (n, d) and word size b."""
    if readout == Readout.PARALLEL and b > 1:
        return d + b * 2.0 ** (n - d)
    if readout == Readout.SEQUENTIAL and b > 1:
        return d + 2.0 ** (n - d + math.log2(b))
    return d + 2.0 ** (n - d)


def qubit_count_formula(params: ArchParams) -> float:
    """Leading-term qubit count with unit constants."""
    return qubit_count_at(params.n, params.d, params.b, params.readout)


def query_depth_at(n: float, d: float, b: float, readout: Readout) -> float:
    """Leading-term logical query depth on real exponents (n, d) and word size b."""
    reps = 2.0 ** d
    if b > 1 and readout == Readout.SEQUENTIAL:
        return reps * (n + math.log2(b)) + b
    if b > 1:
        return reps * (n + math.log2(b))
    return reps * n


def query_depth_formula(params: ArchParams) -> float:
    """Leading-term logical query depth with unit constants."""
    return query_depth_at(params.n, params.d, params.b, params.readout)


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    ci95: float


def fit_exponent(sizes, values) -> ExponentFit:
    """Least-squares slope of log2(value) against log2(N), with a 95% CI."""
    sizes = np.asarray(sizes, dtype=float)
    values = np.asarray(values, dtype=float)
    if sizes.shape != values.shape or sizes.size < 5:
        raise DegenerateInputError("need at least 5 (N, value) pairs")
    if np.any(values <= 0) or np.any(sizes <= 0):
        raise DegenerateInputError("sizes and values must be positive")
    x = np.log2(sizes)
    y = np.log2(values)
    xm, ym = x.mean(), y.mean()
    sxx = float(((x - xm) ** 2).sum())
    if sxx == 0:
        raise DegenerateInputError("all sizes identical")
    slope = float(((x - xm) * (y - ym)).sum() / sxx)
    intercept = float(ym - slope * xm)
    resid = y - (slope * x + intercept)
    dof = max(1, x.size - 2)
    se = math.sqrt(float((resid ** 2).sum()) / dof / sxx)
    return ExponentFit(slope=slope, intercept=intercept, ci95=1.96 * se)
