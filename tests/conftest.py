"""Shared fixtures and oracle helpers."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from qlut.ir import Circuit
from qlut.params import DataTable, derive_params
from qlut.simulator import run_basis
from state_helpers import basis_input, expected_word, pack_register, read_register

# the benchmark's workloads module, loaded by path; the tests only read its
# generators and perfbench/reference.json
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                               PERFBENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def random_table(rng: np.random.Generator, N: int, b: int = 1) -> DataTable:
    words = tuple(int(w) for w in rng.integers(0, 1 << b, size=N))
    return DataTable(words=words, b=b)


def lam_gamma_grid(N: int):
    """All valid (lambda, gamma) power-of-two pairs for a memory size."""
    lams = []
    lam = 1
    while lam <= N:
        gam = 1
        while gam <= lam:
            lams.append((lam, gam))
            gam *= 2
        lam *= 2
    return lams


def classical_lookup(table: DataTable, address: int, b: int = 1) -> int:
    """Independent lookup oracle: plain table indexing."""
    word = table.words[address]
    return word & ((1 << b) - 1)


def masked_stage2_cells(table: DataTable, params, address: int) -> list[int]:
    """Expected cell contents after Stage II for a basis address.

    Eq.-(2)-style XOR accumulation restricted to the activated CNOT tree:
    q'_j = sum_i q_i x_{lam*i+j} lands only on the gamma positions whose tree
    index matches the middle address bits; other cells stay zero.
    """
    n, d, dp = params.n, params.d, params.d_prime
    prefix = address >> (n - d) if d else 0
    middle = (address >> (n - d - dp)) & ((1 << dp) - 1) if dp else 0
    cells = [0] * params.lam
    for j in range(params.lam):
        if dp and (j >> (params.tree_depth - dp)) != middle:
            continue
        cells[j] = table.bit(params.lam * prefix + j, 0)
    return cells


def lookup_target(circuit: Circuit, amplitudes: dict[int, complex]) -> dict[int, complex]:
    """The ideal post-uncompute state: address and bus set, all else zero."""
    addr_reg, bus_reg = circuit.reg("address"), circuit.reg("bus")
    out: dict[int, complex] = {}
    for bits, amp in amplitudes.items():
        a = read_register(bits, addr_reg)
        word = expected_word(circuit, a)
        key = pack_register(a, addr_reg) | pack_register(word, bus_reg, big_endian=False)
        out[key] = out.get(key, 0.0) + amp
    return out


def trial_outcome_ok(circuit: Circuit, address: int,
                     events: dict[int, list[tuple[int, str]]] | None) -> bool:
    """Basis-address fidelity indicator: measured (address, word) unchanged."""
    bits, _ = run_basis(circuit, basis_input(circuit, address), events)
    ok_addr = read_register(bits, circuit.reg("address")) == address
    ok_word = (read_register(bits, circuit.reg("bus"), big_endian=False)
               == expected_word(circuit, address))
    return ok_addr and ok_word


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def fig11_params():
    """The running example: N=16, lambda=4, gamma=2."""
    return derive_params(16, 4, 2)


@pytest.fixture
def small_tables(rng):
    return {N: random_table(rng, N) for N in (1, 2, 4, 8, 16)}
