"""Finite-range potentials on a shift space with exactly computed norms.

Only locally constant functions are representable: a range-r potential is a
table on admissible r-words.  That restriction is what makes every quantity
downstream (norms, transfer matrices, cylinder masses) exactly computable.
A general Hoelder function must be truncated externally; conditioning it on
its first r coordinates moves values by at most ``|g|_theta * theta**(r-1)``,
which callers can use to size r.  The toolkit reports this tail bound but does
not propagate it into certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadTheta,
    CohomologousConstant,
    InadmissibleWord,
    MissingWord,
    ModelMismatch,
    WordTooShort,
)
from .sft import TransitionMatrix, Word, enumerate_words, state_graph

#: spread below which an observable is treated as cohomologous to a constant
TOL_COB = 1e-9


@dataclass(frozen=True, eq=False)
class Potential:
    """Range-r potential: a value table on admissible r-words.

    ``sup_norm`` is max |value|; ``hoelder_seminorm`` is the largest
    ``var_k / theta**k`` over 0 <= k <= r-2 (zero for r = 1, since a range-1
    function cannot vary between points sharing their first coordinate);
    ``b`` is ``max(1, hoelder_seminorm)``.
    """

    tm: TransitionMatrix
    r: int
    theta: float
    table: dict
    sup_norm: float
    hoelder_seminorm: float
    b: float

    @property
    def norm(self) -> float:
        """Full Hoelder norm: seminorm plus sup norm."""
        return self.hoelder_seminorm + self.sup_norm

    def value(self, word: Word) -> float:
        """Value on any word carrying at least the first r coordinates."""
        if len(word) < self.r:
            raise WordTooShort(f"need {self.r} coordinates, got {len(word)}")
        return self.table[word[: self.r]]

    def truncation_tail_bound(self) -> float:
        """Worst-case value shift if this table were the range-r conditioning
        of a Hoelder function with the same seminorm."""
        return self.hoelder_seminorm * self.theta ** (self.r - 1)

    def min_value(self) -> float:
        return min(self.table.values())

    def max_value(self) -> float:
        return max(self.table.values())


def variations(tm: TransitionMatrix, r: int, table: dict) -> list:
    """var_k for k = 0..r-2: largest value gap between admissible r-words
    sharing a (k+1)-prefix.  Exhaustive over prefix classes, hence exact."""
    words = enumerate_words(tm, r)
    out = []
    for k in range(r - 1):
        groups: dict = {}
        for w in words:
            groups.setdefault(w[: k + 1], []).append(table[w])
        vk = 0.0
        for vals in groups.values():
            vk = max(vk, max(vals) - min(vals))
        out.append(vk)
    return out


def make_potential(tm: TransitionMatrix, r: int, table: dict, theta: float) -> Potential:
    """Build a Potential, validating the table against the admissible r-words
    and computing its norms exactly."""
    if not 0.0 < theta < 1.0:
        raise BadTheta(f"theta must lie in (0, 1), got {theta}")
    if r < 1:
        raise InadmissibleWord(f"range must be >= 1, got {r}")
    words = enumerate_words(tm, r)
    admissible = set(words)
    clean = {}
    for key, val in table.items():
        word = tuple(key)
        if word not in admissible:
            raise InadmissibleWord(f"word {word} is not an admissible {r}-word")
        clean[word] = float(val)
    for w in words:
        if w not in clean:
            raise MissingWord(f"table is missing admissible word {w}")
    sup = max(abs(v) for v in clean.values())
    var = variations(tm, r, clean)
    semi = 0.0
    for k, vk in enumerate(var):
        semi = max(semi, vk / theta**k)
    return Potential(
        tm=tm,
        r=r,
        theta=theta,
        table=clean,
        sup_norm=sup,
        hoelder_seminorm=semi,
        b=max(1.0, semi),
    )


def birkhoff_sum(g: Potential, w: Word, n: int) -> float:
    """Sum of g along the first n shifts of w (exact table lookups)."""
    if n == 0:
        return 0.0
    if len(w) < n + g.r - 1:
        raise WordTooShort(
            f"word of length {len(w)} cannot determine {n} terms of a range-{g.r} sum"
        )
    return sum(g.table[tuple(w[j : j + g.r])] for j in range(n))


def affine_combine(phi: Potential, psi: Potential, q: float) -> Potential:
    """The potential phi + q*psi on words of the larger range."""
    if not phi.tm.same_space(psi.tm) or phi.theta != psi.theta:
        raise ModelMismatch("potentials live over different shift spaces")
    r = max(phi.r, psi.r)
    table = {}
    for w in enumerate_words(phi.tm, r):
        table[w] = phi.table[w[: phi.r]] + q * psi.table[w[: psi.r]]
    return make_potential(phi.tm, r, table, phi.theta)


def shift_nonnegative(psi: Potential) -> tuple:
    """Add the constant making psi nonnegative; returns (shifted, c).

    The Hoelder seminorm is unchanged (constants cancel in every variation)
    and the sup norm at most doubles.
    """
    lo = psi.min_value()
    if lo >= 0.0:
        return psi, 0.0
    c = -lo
    table = {w: v + c for w, v in psi.table.items()}
    return make_potential(psi.tm, psi.r, table, psi.theta), c


# ---------------------------------------------------------------------------
# extreme cycle means (endpoints of the rate-function domain)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CohomologySpread:
    """Extreme averages of a potential over periodic orbits.

    ``min_mean``/``max_mean`` are the endpoints of the interval of possible
    ergodic averages; each is the recomputed average along its witness cycle
    (a periodic symbol sequence).  ``is_constant`` flags a spread at or below
    ``tol``, in which case rate-function queries are refused.
    """

    min_mean: float
    max_mean: float
    witness_min: tuple
    witness_max: tuple
    tol: float

    @property
    def width(self) -> float:
        return self.max_mean - self.min_mean

    @property
    def is_constant(self) -> bool:
        return self.width <= self.tol


def _walk_table(n: int, src, dst, w, source: int, length: int):
    """Least walk weights on the edge arrays ``src, dst, w``: row k holds,
    for every state, the least weight of a walk of exactly k edges from
    ``source`` (inf where there is none)."""
    d = np.full((length + 1, n), np.inf)
    d[0, source] = 0.0
    for k in range(1, length + 1):
        np.minimum.at(d[k], dst, d[k - 1, src] + w)
    return d


def _walk_back(d, src, dst, w, end: int):
    """Edge indices of a least walk of len(d) - 1 edges ending at ``end``,
    taking at each step the first in-edge of the current state, in edge
    order, that attains the table value."""
    ins = [[] for _ in range(d.shape[1])]
    for e, v in enumerate(dst.tolist()):
        ins[v].append(e)
    src, w = src.tolist(), w.tolist()
    walk = []
    for k in range(len(d) - 1, 0, -1):
        # Python floats add and compare as the float64 table does
        target = d.item(k, end)
        e = next(e for e in ins[end] if d.item(k - 1, src[e]) + w[e] == target)
        walk.append(e)
        end = src[e]
    return np.array(walk[::-1], dtype=np.int64)


def _karp_min_mean(n: int, src, dst, w):
    """Karp's minimum mean cycle on a strongly connected digraph.

    Returns (mean, cycle edge indices).  The walk table from state 0 gives
    the classical min-max over (d_n - d_k)/(n - k); the least n-walk to the
    optimising state contains a critical cycle.  Of the closed segments of
    that walk, the one of least mean (the first by end, then start) is the
    witness; row i of ``sums`` adds the walk's edge weights from step i on,
    left to right from 0, so its mean is bit for bit the plain sum's.  If
    that mean misses Karp's value by more than ``1e-9 * (1 + |value|)`` --
    cancellation in a large coboundary part can cause this -- the repair
    path decides instead.
    """
    d = _walk_table(n, src, dst, w, 0, n)
    with np.errstate(invalid="ignore"):
        ratios = (d[n] - d[:n]) / (n - np.arange(n))[:, None]
    ratios[np.isinf(d[:n])] = -np.inf
    worst = ratios.max(axis=0)
    worst[np.isinf(d[n])] = np.inf
    end = int(np.argmin(worst))
    walk = _walk_back(d, src, dst, w, end)
    states = np.append(src[walk], end)
    ends, starts = np.nonzero(np.tril(states[:, None] == states, -1))
    tails = np.concatenate((w[walk], np.zeros(n)))[np.arange(n)[:, None] + np.arange(n)]
    sums = np.cumsum(np.hstack((np.zeros((n, 1)), tails)), axis=1)
    means = sums[starts, ends - starts] / (ends - starts)
    best = int(np.argmin(means))
    if abs(means[best] - worst[end]) > 1e-9 * (1.0 + abs(worst[end])):
        return _closed_walk_min_mean(n, src, dst, w)
    return float(means[best]), walk[starts[best] : ends[best]]


def _closed_walk_min_mean(n: int, src, dst, w):
    """Repair path: the least (cheapest closed L-walk)/L over L <= n.

    A cheapest closed walk decomposes into cycles of mean at least the
    optimum, and the critical cycle itself realises it, so the minimum is
    exact.  The closed L-walks at v are read from the walk table from v; the
    first minimum in L-major, then state, order wins, and its walk is the
    witness.
    """
    closed = np.array([_walk_table(n, src, dst, w, v, n)[1:, v] for v in range(n)]).T
    means = closed / np.arange(1, n + 1)[:, None]
    length, v = divmod(int(np.argmin(means)), n)
    d = _walk_table(n, src, dst, w, v, length + 1)
    return float(means[length, v]), _walk_back(d, src, dst, w, v)


def potential_graph(psi: Potential):
    """Weighted digraph whose cycles carry the Birkhoff averages of psi:
    states are (r-1)-words (symbols when r = 1), the weight of an edge is the
    value of psi on the overlap word."""
    words, index, src, dst, overlaps = state_graph(psi.tm, max(1, psi.r - 1))
    weights = (psi.table[ow[: psi.r]] for ow in overlaps)
    return words, index, list(zip(src.tolist(), dst.tolist(), weights))


def cohomology_spread(psi: Potential, tol: float = TOL_COB) -> CohomologySpread:
    """Extreme cycle means of psi: Karp's method on the edge arrays of its
    word graph, run on psi and on -psi.  Each witness is the periodic symbol
    sequence of its cycle (states overlap by one shift per step, so their
    first symbols spell the orbit)."""
    words, _, edges = potential_graph(psi)
    src, dst, w = (np.array(col) for col in zip(*edges))
    lo, cyc_lo = _karp_min_mean(len(words), src, dst, w)
    hi_neg, cyc_hi = _karp_min_mean(len(words), src, dst, -w)
    return CohomologySpread(
        min_mean=lo,
        # 0.0 - x is x negated, except that it maps +0.0 to +0.0, not -0.0
        max_mean=0.0 - hi_neg,
        witness_min=tuple(words[s][0] for s in src[cyc_lo]),
        witness_max=tuple(words[s][0] for s in src[cyc_hi]),
        tol=tol,
    )


def require_not_constant(psi: Potential, tol: float = TOL_COB) -> CohomologySpread:
    spread = cohomology_spread(psi, tol)
    if spread.is_constant:
        raise CohomologousConstant(
            f"cycle-mean spread {spread.width:.3e} is at or below tolerance {tol:.1e}"
        )
    return spread


# ---------------------------------------------------------------------------
# indicator approximation
# ---------------------------------------------------------------------------


def indicator_example(tm: TransitionMatrix, targets: list, pad: int, theta: float) -> Potential:
    """Smooth-from-above approximation of the indicator of a union of cylinders.

    The value on a word w is ``max(0, 1 - d/(pad+1))`` where the refinement
    distance d is 0 when some target word occurs in w within the first
    ``pad`` shifts (the pad-extended core), and otherwise the prefix-agreement
    deficit ``len(target) - lcp(w, target)`` minimised over targets.  The
    result is 1 on every target cylinder, 0 outside the extended
    neighbourhood, and its Hoelder seminorm grows like ``theta**-depth`` --
    the regime in which the certified lower bound degrades like
    ``1/seminorm``.
    """
    if pad < 0:
        raise InadmissibleWord(f"pad must be >= 0, got {pad}")
    cyl = [tuple(t) for t in targets]
    if not cyl:
        raise InadmissibleWord("need at least one target cylinder")
    for t in cyl:
        if not tm.is_admissible(t):
            raise InadmissibleWord(f"target cylinder {t} is not admissible")
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

    table = {}
    for w in enumerate_words(tm, r):
        d = distance(w)
        table[w] = max(0.0, 1.0 - d / (pad + 1))
    return make_potential(tm, r, table, theta)
