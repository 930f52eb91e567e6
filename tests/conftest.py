"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's own algorithms: variations
are recomputed over all word pairs, cycle means over exhaustively enumerated
simple cycles, and window masses over full cylinder enumerations, so the fast
paths are checked against something that cannot share their bugs.
"""

import itertools
import math
from pathlib import Path

import pytest

from thermosft import (
    cylinder_mass,
    enumerate_words,
    make_potential,
    validate_transitions,
)
from thermosft.cli import load_model

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def full2():
    return validate_transitions([[1, 1], [1, 1]])


@pytest.fixture(scope="session")
def golden():
    return validate_transitions([[0, 1], [1, 1]])


@pytest.fixture(scope="session")
def bernoulli_model():
    return load_model(str(FIXTURES / "bernoulli.json"))


@pytest.fixture(scope="session")
def golden_model():
    return load_model(str(FIXTURES / "golden_mean.json"))


@pytest.fixture(scope="session")
def random_model():
    return load_model(str(FIXTURES / "random_range3.json"))


def make_pot(tm, r, values, theta=0.5):
    """Potential from a {word-string: value} map."""
    table = {tuple(int(c) for c in w): v for w, v in values.items()}
    return make_potential(tm, r, table, theta)


def random_aperiodic(rng, s0):
    """Seeded random aperiodic transition matrix (densify until valid)."""
    mat = (rng.random((s0, s0)) < 0.6).astype(int)
    while True:
        try:
            return validate_transitions(mat)
        except Exception:
            i = int(rng.integers(s0))
            j = int(rng.integers(s0))
            mat[i, j] = 1


def random_potential(rng, tm, r, theta=0.5, lo=-1.0, hi=1.0, lattice=None):
    """Seeded random potential; on a 1/lattice grid when lattice is given."""
    table = {}
    for w in enumerate_words(tm, r):
        v = float(rng.uniform(lo, hi))
        if lattice:
            v = round(v * lattice) / lattice
        table[w] = v
    return make_potential(tm, r, table, theta)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def brute_variations(tm, r, table):
    """var_k by literal pairwise scan over admissible r-words."""
    words = enumerate_words(tm, r)
    out = []
    for k in range(r - 1):
        vk = 0.0
        for w, v in itertools.product(words, words):
            if w[: k + 1] == v[: k + 1]:
                vk = max(vk, abs(table[w] - table[v]))
        out.append(vk)
    return out


def simple_cycles(num_states, edges):
    """All simple cycles of a digraph as (total weight, length), each anchored
    at its smallest state.  Totals start from the integer 0, so Fraction
    weights give exact totals."""
    adj = {}
    for u, v, w in edges:
        adj.setdefault(u, []).append((v, w))
    cycles = []

    def extend(anchor, node, path_nodes, path_weight):
        for nxt, w in adj.get(node, ()):
            if nxt == anchor:
                cycles.append((path_weight + w, len(path_nodes)))
            elif nxt > anchor and nxt not in path_nodes:
                extend(anchor, nxt, path_nodes | {nxt}, path_weight + w)

    for a in range(num_states):
        extend(a, a, {a}, 0)
    return cycles


def brute_cycle_means(psi):
    """(min, max) Birkhoff average over exhaustively enumerated simple
    cycles of the potential's word graph."""
    from thermosft.potentials import potential_graph

    words, _, edges = potential_graph(psi)
    cycles = simple_cycles(len(words), edges)
    means = [total / length for total, length in cycles]
    return min(means), max(means)


def brute_window_mass(mu, psi, n, p, delta):
    """Open-window mass by full enumeration of (n + r - 1)-cylinders."""
    r = psi.r
    total = 0.0
    for w in enumerate_words(psi.tm, n + r - 1):
        s = sum(psi.table[w[j : j + r]] for j in range(n))
        if p - delta < s / n < p + delta:
            total += cylinder_mass(mu, w)
    return total


def binomial_window_mass(n, p_lo, p_hi):
    """Mass of {S/n in (p_lo, p_hi)} for a fair-coin count S."""
    return sum(math.comb(n, s) for s in range(n + 1) if p_lo < s / n < p_hi) / 2.0**n
