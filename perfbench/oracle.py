"""Reference computations made apart from the library.

Nothing here imports thermosft.  Models are plain tables (a 0/1 transition
matrix and word-keyed dicts), pressures are logs of Perron roots taken from
``numpy.linalg.eigvals`` on matrices built here, window masses come from a
Markov chain built here from ``numpy.linalg.eig``, and cycle means come from
exhaustive simple-cycle enumeration or a dense numpy min-plus Karp.  The
checks in ``workloads.py`` compare the library's outputs against these.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True, eq=False)
class Tables:
    """Shift space plus base potential and observable as word tables."""

    A: np.ndarray
    f: dict
    rf: int
    psi: dict
    rpsi: int


def parse_word(key: str) -> tuple:
    """Word tuple of a key like '121' or '10,2'."""
    if "," in key:
        return tuple(int(part) for part in key.split(","))
    return tuple(int(ch) for ch in key)


def load_tables(path) -> Tables:
    """Tables of a model JSON file, parsed without the library's loader."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return Tables(
        A=np.array(raw["transitions"], dtype=np.int64),
        f={parse_word(k): float(v) for k, v in raw["potential_f"]["values"].items()},
        rf=int(raw["potential_f"]["range"]),
        psi={parse_word(k): float(v) for k, v in raw["observable_psi"]["values"].items()},
        rpsi=int(raw["observable_psi"]["range"]),
    )


def words(A: np.ndarray, k: int) -> list:
    """Admissible k-words in lexicographic order."""
    out = [(a,) for a in range(1, A.shape[0] + 1)]
    for _ in range(k - 1):
        out = [w + (b,) for w in out for b in range(1, A.shape[0] + 1) if A[w[-1] - 1, b - 1]]
    return out


def word_edges(A: np.ndarray, k: int):
    """(states, src, dst, overlap words) of the k-word overlap graph."""
    states = words(A, k)
    index = {w: i for i, w in enumerate(states)}
    src, dst, over = [], [], []
    for i, u in enumerate(states):
        for b in range(1, A.shape[0] + 1):
            if A[u[-1] - 1, b - 1]:
                w = u + (b,)
                src.append(i)
                dst.append(index[w[1:]])
                over.append(w)
    return states, np.array(src), np.array(dst), over


class Pressure:
    """P(q) = log of the Perron root of the matrix of exp(f + q*psi) on the
    smallest word states that carry both tables."""

    def __init__(self, t: Tables):
        k = max(1, t.rf - 1, t.rpsi - 1)
        states, self.src, self.dst, over = word_edges(t.A, k)
        self.f_e = np.array([t.f[w[: t.rf]] for w in over])
        self.psi_e = np.array([t.psi[w[: t.rpsi]] for w in over])
        self.n = len(states)
        self._cache: dict = {}

    def matrix(self, q: float) -> np.ndarray:
        M = np.zeros((self.n, self.n))
        M[self.src, self.dst] = np.exp(self.f_e + q * self.psi_e)
        return M

    def __call__(self, q: float) -> float:
        if q not in self._cache:
            self._cache[q] = math.log(float(np.max(np.abs(np.linalg.eigvals(self.matrix(q))))))
        return self._cache[q]

    def increment(self, q: float) -> float:
        """P(q) - P(0): the pressure of the normalised base tilted by q."""
        return self(q) - self(0.0)

    def slope(self, q: float, h: float = 1e-5) -> float:
        """P'(q) by central difference."""
        return (self(q + h) - self(q - h)) / (2.0 * h)

    def rate(self, p: float) -> float:
        """sup_q p*q - (P(q) - P(0)) for p inside the range of P', by
        bisection on the central-difference slope."""
        d0 = p - self.slope(0.0)
        if d0 == 0.0:
            return 0.0
        step = 1.0 if d0 > 0.0 else -1.0
        lo, hi = 0.0, step
        while (p - self.slope(hi)) * d0 > 0.0:
            lo, hi = hi, 2.0 * hi
            if abs(hi) > 200.0:
                raise ValueError(f"level {p} is not reached by any tilt up to {hi}")
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if (p - self.slope(mid)) * d0 > 0.0:
                lo = mid
            else:
                hi = mid
        q = 0.5 * (lo + hi)
        return p * q - self.increment(q)


# ---------------------------------------------------------------------------
# equilibrium chain and window masses
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Chain:
    """Stationary Markov chain of the equilibrium state of f on word states;
    ``step[e]`` is psi on edge e in units of 1/den, shifted by ``offset``."""

    pi: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    prob: np.ndarray
    step: np.ndarray
    offset: int
    den: int


def _perron(M: np.ndarray) -> tuple:
    """(positive Perron vector, Perron root) of a primitive matrix."""
    vals, vecs = np.linalg.eig(M)
    i = int(np.argmax(vals.real))
    return np.abs(vecs[:, i].real), float(vals[i].real)


def chain(t: Tables) -> Chain:
    """Equilibrium chain of f, with psi read exactly on a decimal lattice
    (each value taken as the decimal its repr prints)."""
    pr = Pressure(t)
    M = pr.matrix(0.0)
    h, lam = _perron(M)
    left, _ = _perron(M.T)
    pi = left * h
    pi = pi / pi.sum()
    prob = M[pr.src, pr.dst] * h[pr.dst] / (lam * h[pr.src])
    fr = [Fraction(repr(float(v))) for v in pr.psi_e]
    den = math.lcm(*(x.denominator for x in fr))
    ints = [int(x * den) for x in fr]
    offset = min(ints)
    return Chain(
        pi=pi, src=pr.src, dst=pr.dst, prob=prob,
        step=np.array([i - offset for i in ints]), offset=offset, den=den,
    )


def _window_keys(c: Chain, n: int, p: float, delta: float, keys: np.ndarray) -> np.ndarray:
    """Mask of running-sum keys whose average lies in the open window; key k
    stands for the sum (k + n*offset)/den, so the test is on integers."""
    lo = (Fraction(repr(p)) - Fraction(repr(delta))) * n * c.den - n * c.offset
    hi = (Fraction(repr(p)) + Fraction(repr(delta))) * n * c.den - n * c.offset
    return (keys >= math.floor(lo) + 1) & (keys <= math.ceil(hi) - 1)


def window_mass(c: Chain, n: int, p: float, delta: float) -> float:
    """Exact open-window mass by a forward pass over (state, running sum),
    one transition matrix per step size."""
    size = len(c.pi)
    n_keys = n * int(c.step.max()) + 1
    mats = {}
    for s in np.unique(c.step):
        sel = c.step == s
        m = np.zeros((size, size))
        np.add.at(m, (c.dst[sel], c.src[sel]), c.prob[sel])
        mats[int(s)] = m
    cur = np.zeros((size, n_keys))
    cur[:, 0] = c.pi
    for _ in range(n):
        nxt = np.zeros_like(cur)
        for s, m in mats.items():
            nxt[:, s:] += m @ cur[:, : n_keys - s]
        cur = nxt
    total = cur.sum(axis=0)
    return float(total[_window_keys(c, n, p, delta, np.arange(n_keys))].sum())


def window_mass_brute(c: Chain, n: int, p: float, delta: float) -> float:
    """Open-window mass by enumerating every n-step path (one cylinder each)."""
    state = np.arange(len(c.pi))
    mass = c.pi.copy()
    key = np.zeros(len(c.pi), dtype=np.int64)
    order = np.argsort(c.src, kind="stable")
    first = np.searchsorted(c.src[order], np.arange(len(c.pi)))
    degree = np.bincount(c.src, minlength=len(c.pi))
    for _ in range(n):
        reps = degree[state]
        path = np.repeat(np.arange(len(state)), reps)
        within = np.arange(len(path)) - np.repeat(np.cumsum(reps) - reps, reps)
        edge = order[first[state[path]] + within]
        state = c.dst[edge]
        mass = mass[path] * c.prob[edge]
        key = key[path] + c.step[edge]
    keys, inverse = np.unique(key, return_inverse=True)
    inside = _window_keys(c, n, p, delta, keys)
    return float(mass[inside[inverse]].sum())


def binomial_mass(n: int, p: float, delta: float) -> float:
    """Mass of {S/n in the open window} for a fair-coin count S."""
    lo = Fraction(repr(p)) - Fraction(repr(delta))
    hi = Fraction(repr(p)) + Fraction(repr(delta))
    return sum(math.comb(n, s) for s in range(n + 1) if lo < Fraction(s, n) < hi) / 2.0**n


# ---------------------------------------------------------------------------
# cycle means
# ---------------------------------------------------------------------------


def cycle_graph(A: np.ndarray, psi: dict, r: int):
    """(number of states, src, dst, weights) of the graph whose cycles carry
    the Birkhoff averages of a range-r table: (r-1)-word states (symbols when
    r = 1), edge weight psi on the overlap word."""
    states, src, dst, over = word_edges(A, max(1, r - 1))
    return len(states), src, dst, np.array([psi[w[:r]] for w in over])


def simple_cycle_means(n_states: int, src, dst, weight) -> tuple:
    """(min, max) mean over every simple cycle, by exhaustive search."""
    adj: dict = {}
    for u, v, w in zip(src.tolist(), dst.tolist(), weight.tolist()):
        adj.setdefault(u, []).append((v, w))
    means = []

    def extend(anchor, node, seen, total):
        for nxt, w in adj.get(node, ()):
            if nxt == anchor:
                means.append((total + w) / len(seen))
            elif nxt > anchor and nxt not in seen:
                extend(anchor, nxt, seen | {nxt}, total + w)

    for a in range(n_states):
        extend(a, a, {a}, 0.0)
    return min(means), max(means)


def karp_min_mean(n_states: int, src, dst, weight) -> float:
    """Karp's minimum cycle mean of a strongly connected graph, with the
    walk table filled by dense min-plus products."""
    W = np.full((n_states, n_states), np.inf)
    np.minimum.at(W, (src, dst), weight)
    D = np.full((n_states + 1, n_states), np.inf)
    D[0, 0] = 0.0
    for k in range(1, n_states + 1):
        D[k] = np.min(D[k - 1][:, None] + W, axis=0)
    with np.errstate(invalid="ignore"):
        ks = np.arange(n_states)[:, None]
        ratios = (D[n_states][None, :] - D[:-1]) / (n_states - ks)
    ratios = np.where(np.isfinite(D[:-1]), ratios, -np.inf)
    worst = ratios.max(axis=0)
    return float(worst[np.isfinite(D[n_states])].min())


def orbit_mean(psi: dict, r: int, orbit: tuple) -> float:
    """Average of a range-r table along the periodic orbit spelled by orbit."""
    ext = orbit * (r // len(orbit) + 2)
    return sum(psi[tuple(ext[j : j + r])] for j in range(len(orbit))) / len(orbit)
