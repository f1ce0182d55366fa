"""Architecture parameters, error rates, and the classical data table.

All sizes are powers of two. The tuning tuple (N, lambda, gamma, b) fixes the
derived stage structure: d linear routers, a depth-d' CSWAP tree, and CNOT
trees of size gamma, with d = log2(N/lambda) and d' = log2(lambda/gamma).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError, KOutOfRangeError, NonPowerOfTwoError, OrderingViolationError


class Readout(str, Enum):
    SINGLE_BIT = "SingleBit"
    PARALLEL = "ParallelMultiBit"
    SEQUENTIAL = "SequentialMultiBit"


class Specialization(str, Enum):
    QROM = "QROM"
    SELECT_SWAP_VARIANT = "SelectSwapVariant"
    BUCKET_BRIGADE = "BucketBrigade"
    GENERAL = "General"


def _log2_exact(value: int, name: str) -> int:
    if value < 1 or value & (value - 1):
        raise NonPowerOfTwoError(f"{name} must be a power of two, got {value}")
    return value.bit_length() - 1


@dataclass(frozen=True)
class ArchParams:
    """Validated tuning tuple plus derived exponents.

    Use :func:`derive_params` instead of constructing directly.
    """

    N: int
    lam: int
    gamma: int
    b: int
    readout: Readout
    k: float  # long-range budget: levels of cost-free long-range ops
    n: int
    d: int
    d_prime: int
    d_dprime: int

    @property
    def repetitions(self) -> int:
        """Number of Stage-II repetitions, N / lambda."""
        return self.N // self.lam

    @property
    def tree_depth(self) -> int:
        """Depth of the routing tree used in Stage III: log2(lambda)."""
        return self.n - self.d


def derive_params(
    N: int,
    lam: int,
    gamma: int,
    b: int = 1,
    readout: Readout = Readout.SINGLE_BIT,
    k: float = 0,
) -> ArchParams:
    """Validate the tuning tuple and compute (n, d, d', d'').

    Non-power-of-two sizes are rejected, not padded. Note d' > d is accepted:
    the bucket-brigade corner (lambda = N) requires it, even though the
    analytic theorems are stated for d' <= d.
    """
    n = _log2_exact(N, "N")
    log_lam = _log2_exact(lam, "lambda")
    log_gamma = _log2_exact(gamma, "gamma")
    d_dprime = _log2_exact(b, "b")
    if isinstance(readout, str):
        readout = Readout(readout)
    if not 1 <= gamma <= lam <= N:
        raise OrderingViolationError(
            f"need 1 <= gamma <= lambda <= N, got gamma={gamma} lambda={lam} N={N}"
        )
    d = n - log_lam
    d_prime = log_lam - log_gamma
    if not 0 <= k <= n - d:
        raise KOutOfRangeError(f"k must lie in [0, n-d] = [0, {n - d}], got {k}")
    return ArchParams(
        N=N, lam=lam, gamma=gamma, b=b, readout=readout, k=k,
        n=n, d=d, d_prime=d_prime, d_dprime=d_dprime,
    )


def specialization(params: ArchParams) -> Specialization:
    """Classify which prior architecture the tuning tuple degenerates to."""
    if params.lam == 1 and params.gamma == 1:
        return Specialization.QROM
    if params.lam == params.N and params.gamma == 1:
        return Specialization.BUCKET_BRIGADE
    if params.lam * params.lam == params.N and params.gamma == 1:
        return Specialization.SELECT_SWAP_VARIANT
    return Specialization.GENERAL


@dataclass(frozen=True)
class ErrorRates:
    """Per-location error probabilities (see the fine-grained error table).

    eps_l may be None, in which case long-range errors are derived per link
    from its length and resource (:func:`qlut.layout.long_range_error`).
    """

    eps_i: float = 0.0       # idling, per qubit per idle step
    eps_q: float = 0.0       # per-qubit error (GHZ chain constituent)
    eps_l: float | None = None  # long-range operation error; None = derive
    eps_s: float = 0.0       # SWAP gate
    eps_cs: float = 0.0      # CSWAP gate
    eps_c: float = 0.0       # CNOT gate
    eps_cc: float = 0.0      # CCNOT (Toffoli) gate
    eps_f: float = 0.0       # distilled Bell-pair residual error
    eps_initial: float = 0.0  # noisy Bell-pair initial error

    def __post_init__(self) -> None:
        for name in ("eps_i", "eps_q", "eps_s", "eps_cs", "eps_c", "eps_cc",
                     "eps_f", "eps_initial"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise OrderingViolationError(f"{name} must be in [0, 1], got {v}")
        if self.eps_l is not None and not 0.0 <= self.eps_l <= 1.0:
            raise OrderingViolationError(f"eps_l must be in [0, 1], got {self.eps_l}")

    def long_range(self, m: int) -> float:
        """Error of a length-m operation over a distilled Bell pair.

        eps_l when given, else min(m * eps_q, eps_f); with no distillation
        residual (eps_f = 0) the bare GHZ-chain value min(m * eps_q, 1).
        """
        if self.eps_l is not None:
            return self.eps_l
        return min(m * self.eps_q, self.eps_f) if self.eps_f > 0 else min(m * self.eps_q, 1.0)

    @classmethod
    def uniform(cls, eps: float, **overrides) -> "ErrorRates":
        """All gate/idle/long-range rates set to eps (generic-error analyses)."""
        base = dict(eps_i=eps, eps_q=eps, eps_l=eps, eps_s=eps, eps_cs=eps,
                    eps_c=eps, eps_cc=eps, eps_f=eps, eps_initial=eps)
        base.update(overrides)
        return cls(**base)


@dataclass(frozen=True)
class DataTable:
    """N classical words of b bits each; words[a] is the value at address a."""

    words: tuple[int, ...]
    b: int = 1

    def __post_init__(self) -> None:
        _log2_exact(len(self.words), "table length")
        _log2_exact(self.b, "b")
        limit = 1 << self.b
        for i, w in enumerate(self.words):
            if not 0 <= w < limit:
                raise OrderingViolationError(f"word {i} = {w} does not fit in {self.b} bits")

    def __len__(self) -> int:
        return len(self.words)

    def bit(self, address: int, w: int = 0) -> int:
        """Bit w (LSB-first) of the word at the given address."""
        return (self.words[address] >> w) & 1


def address_bits(address: int, n: int) -> tuple[int, ...]:
    """Big-endian bit tuple a_0 ... a_{n-1} of an address (a_0 most significant)."""
    if not 0 <= address < (1 << n):
        raise OrderingViolationError(f"address {address} out of range for n={n}")
    return tuple((address >> (n - 1 - i)) & 1 for i in range(n))


# JSON field names follow the external schema exactly (camelCase for the
# derived exponents, "lambda" for the partition size).

def arch_params_to_json(p: ArchParams) -> dict:
    return {
        "N": p.N, "lambda": p.lam, "gamma": p.gamma, "b": p.b,
        "readout": p.readout.value, "longRangeBudgetK": p.k,
        "n": p.n, "d": p.d, "dPrime": p.d_prime, "dDoublePrime": p.d_dprime,
    }


# json.load gives a JSON number as exactly int or float; the type tests
# below are exact so that a boolean (an int subclass) is not a number


def json_number(value, name: str) -> int | float:
    """A config value that must be a JSON number, returned unchanged;
    anything else (a boolean, a string, null) is a ConfigError."""
    if type(value) is not int and type(value) is not float:
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return value


def json_int(value, name: str) -> int:
    """A config value that must be a whole JSON number, as an int: a
    boolean, a string or a number with a fractional part is a ConfigError
    instead of being converted or truncated."""
    if type(value) is int:
        return value
    if type(value) is not float or not value.is_integer():
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def arch_params_from_json(obj: dict) -> ArchParams:
    k = json_number(obj.get("longRangeBudgetK", 0), "longRangeBudgetK")
    p = derive_params(
        N=json_int(obj["N"], "N"),
        lam=json_int(obj["lambda"], "lambda"),
        gamma=json_int(obj.get("gamma", 1), "gamma"),
        b=json_int(obj.get("b", 1), "b"),
        readout=Readout(obj.get("readout", "SingleBit")),
        k=k,
    )
    for key, got in (("n", p.n), ("d", p.d), ("dPrime", p.d_prime),
                     ("dDoublePrime", p.d_dprime)):
        if key in obj and json_int(obj[key], key) != got:
            raise OrderingViolationError(
                f"declared {key}={obj[key]} inconsistent with derived {got}")
    return p


_RATE_KEYS = [
    ("epsI", "eps_i"), ("epsQ", "eps_q"), ("epsL", "eps_l"), ("epsS", "eps_s"),
    ("epsCS", "eps_cs"), ("epsC", "eps_c"), ("epsCC", "eps_cc"),
    ("epsF", "eps_f"), ("epsInitial", "eps_initial"),
]


def error_rates_to_json(r: ErrorRates) -> dict:
    return {json_key: getattr(r, attr) for json_key, attr in _RATE_KEYS}


def error_rates_from_json(obj: dict) -> ErrorRates:
    """Rates from their JSON keys; each must be a number, except that
    ``"epsL": null`` derives the long-range error per link."""
    kwargs = {attr: None if json_key == "epsL" and obj[json_key] is None
              else json_number(obj[json_key], json_key)
              for json_key, attr in _RATE_KEYS if json_key in obj}
    return ErrorRates(**kwargs)
