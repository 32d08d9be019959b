import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from infodist import Garbling, ZeroSumGame, lp, validate_structure

# The benchmark's workloads (``catalog_members``) are test inputs too.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

# The settings of every property test: 40 examples, no per-example deadline.
# A failure prints a ``@reproduce_failure`` blob that replays its example
# exactly; the printed arrays, at 8 digits, may not.
settings.register_profile("infodist", max_examples=40, deadline=None, print_blob=True)
settings.load_profile("infodist")


def random_structure(rng, n_k, n_c, n_d, zeros=0.0):
    probs = rng.random((n_k, n_c, n_d))
    if zeros > 0:
        mask = rng.random((n_k, n_c, n_d)) < zeros
        probs[mask] = 0.0
        if probs.sum() <= 0:
            probs[0, 0, 0] = 1.0
    return validate_structure(probs / probs.sum())


def random_ci_structure(rng, n_k, n_c, n_d):
    """Signals conditionally independent given the state."""
    pk = rng.random(n_k) + 0.1
    pk /= pk.sum()
    c_given_k = rng.random((n_k, n_c)) + 0.05
    c_given_k /= c_given_k.sum(axis=1, keepdims=True)
    d_given_k = rng.random((n_k, n_d)) + 0.05
    d_given_k /= d_given_k.sum(axis=1, keepdims=True)
    probs = np.einsum("k,kc,kd->kcd", pk, c_given_k, d_given_k)
    return validate_structure(probs)


def columnwise_problem(row_idx, col_idx, coefficients, **fields):
    """``lp.LpProblem`` of a reference LP whose triplets come in another
    order, put in the column-wise order it takes by a stable lexsort on
    (column, row).  The triplets must not repeat a (row, column)."""
    order = np.lexsort((row_idx, col_idx))
    return lp.LpProblem(
        row_idx=np.asarray(row_idx)[order],
        col_idx=np.asarray(col_idx)[order],
        coefficients=np.asarray(coefficients, dtype=float)[order],
        **fields,
    )


def random_game(rng, n_k, n_i, n_j):
    return ZeroSumGame(rng.uniform(-1.0, 1.0, (n_k, n_i, n_j)))


def random_garbling(rng, source, target):
    rows = rng.random((source, target)) + 0.01
    return Garbling(rows / rows.sum(axis=1, keepdims=True))


@pytest.fixture
def two_cpus(monkeypatch):
    """``lp.solve_pair`` sees two CPUs, whatever the host has, so large
    pairs take the helper path."""
    monkeypatch.setattr(lp.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture(autouse=True)
def no_helper_outlives_its_pair():
    """``lp.solve_pair`` joins its helper thread before it returns, so none
    is alive after any test."""
    yield
    helpers = [t for t in threading.enumerate() if t.name == "infodist-highs"]
    assert not helpers, f"{len(helpers)} HiGHS helper thread(s) still alive"


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def solve_rows(monkeypatch):
    """Row counts of the LPs handed to ``lp.solve``, in call order."""
    rows = []
    solve = lp.solve

    def counting_solve(problem):
        rows.append(problem.n_rows)
        return solve(problem)

    monkeypatch.setattr(lp, "solve", counting_solve)
    return rows
