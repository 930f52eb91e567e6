"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's own algorithms: variations
are recomputed over all word pairs, cycle means over exhaustively enumerated
simple cycles, and window masses over full cylinder enumerations, so the fast
paths are checked against something that cannot share their bugs.
"""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from thermosft import (
    cylinder_mass,
    enumerate_words,
    make_potential,
    normalize_potential,
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


def _orbit_words(orbit, r):
    ext = orbit * (r // len(orbit) + 2)
    return [tuple(ext[j : j + r]) for j in range(len(orbit))]


def planted_potentials(r=5):
    """(phi, psi): full 4-shift, range-r tables, phi normalised.  psi is 0
    along the orbit 123 and 1 along 1122, so strong tilts concentrate on a
    periodic orbit and plain power iteration slows down."""
    rng = np.random.default_rng(0)
    words = list(itertools.product(range(1, 5), repeat=r))
    f = {w: float(rng.uniform(-0.5, 0.5)) for w in words}
    psi = {w: float(rng.uniform(0.25, 0.75)) for w in words}
    psi.update({w: 0.0 for w in _orbit_words([1, 2, 3], r)})
    psi.update({w: 1.0 for w in _orbit_words([1, 1, 2, 2], r)})
    tm = validate_transitions(np.ones((4, 4), dtype=int))
    phi = normalize_potential(make_potential(tm, r, f, 0.5))
    return phi, make_potential(tm, r, psi, 0.5)


def dense(T):
    """The n x n matrix of a transfer matrix or chain held as edge arrays:
    entry (u, v) is the weight of edge u -> v, 0 where there is none."""
    out = np.zeros((T.size, T.size))
    out[T.graph.src, T.graph.dst] = T.edge_weights
    return out


def potential_graph(psi):
    """Weighted digraph whose cycles carry the Birkhoff averages of psi:
    states are (r-1)-words (symbols when r = 1), the weight of an edge is the
    value of psi on the overlap word."""
    words, index, src, dst, overlaps = reference_state_graph(psi.tm, max(1, psi.r - 1))
    weights = (psi.table[ow[: psi.r]] for ow in overlaps)
    return words, index, list(zip(src.tolist(), dst.tolist(), weights))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def reference_state_graph(tm, k):
    """(words, index, src, dst, overlaps) of the k-word graph by enumeration:
    the k-words in order, each word's position, and per edge, the (k+1)-word
    ``overlaps[j]``, whose first k symbols are state ``src[j]`` and whose
    last k, looked up by word, are state ``dst[j]``."""
    words = enumerate_words(tm, k)
    index = {w: i for i, w in enumerate(words)}
    overlaps = [w + (b,) for w in words for b in tm.successors(w[-1])]
    src = np.repeat(np.arange(len(words)), [len(tm.successors(w[-1])) for w in words])
    dst = np.array([index[w[1:]] for w in overlaps], dtype=np.intp)
    return words, index, src, dst, overlaps


def reference_prefix_runs(words):
    """Start indices of the runs of words sharing a (j+1)-prefix, for each
    depth j = 0..L-2 of a lexicographically ordered list of distinct
    L-words, from where each word first differs from its predecessor."""
    if len(words[0]) == 1:
        return []
    codes = np.array(words)
    # where each word first differs from its predecessor; -1 for the first
    split = np.full(len(words), -1)
    split[1:] = (codes[1:] != codes[:-1]).argmax(axis=1)
    return [(split <= j).nonzero()[0] for j in range(codes.shape[1] - 1)]


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


def reference_indicator_values(tm, targets, pad):
    """The values of ``indicator_example`` on the admissible r-words in
    order, r the longest target plus pad, by a loop over the words: 0
    distance when a target occurs within the first pad shifts, else the
    least prefix-agreement deficit over the targets."""
    cyl = [tuple(t) for t in targets]
    r = max(len(t) for t in cyl) + pad

    def distance(word):
        for t in cyl:
            span = len(word) - len(t)
            for j in range(0, min(pad, span) + 1):
                if word[j : j + len(t)] == t:
                    return 0
        best = None
        for t in cyl:
            lcp = 0
            for a, b in zip(word, t):
                if a != b:
                    break
                lcp += 1
            d = len(t) - lcp
            best = d if best is None else min(best, d)
        return best

    return [max(0.0, 1.0 - distance(w) / (pad + 1)) for w in enumerate_words(tm, r)]


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
