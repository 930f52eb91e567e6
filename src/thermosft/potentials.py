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

import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadTheta,
    CohomologousConstant,
    InadmissibleWord,
    MissingWord,
    NoConvergence,
    WordTooShort,
)
from .sft import TransitionMatrix, Word, _frozen, enumerate_words, require_same_space, state_graph

#: spread below which an observable is treated as cohomologous to a constant
TOL_COB = 1e-9
#: policy-iteration rounds after which a cycle-mean solve gives up
_HOWARD_MAX_ROUNDS = 500


@dataclass(frozen=True, eq=False)
class Potential:
    """Range-r potential: a value table on admissible r-words.

    ``values`` holds them as an array over the r-words in order, which a
    state graph reads by one gather through ``StateGraph.prefix``.
    ``sup_norm`` is max |value|; ``hoelder_seminorm`` is the largest
    ``var_k / theta**k`` over 0 <= k <= r-2 (zero for r = 1, since a range-1
    function cannot vary between points sharing their first coordinate);
    ``b`` is ``max(1, hoelder_seminorm)``.  ``_families`` holds the tilted
    families ``transfer.tilted_family`` has built on this potential, weakly
    keyed by observable and then by state length, so each is built once for
    as long as the potential and the observable live.  ``_solves`` holds, by
    state length k, the Perron solve of the potential's transfer matrix on
    k-word states from the all-ones start (``transfer.solve_potential``); its
    families read their q = 0 solve there, so the matrix is solved once.
    ``_spread`` holds the potential's cycle-mean spread once
    ``require_not_constant`` has computed it, and is empty before.
    """

    tm: TransitionMatrix
    r: int
    theta: float
    table: dict
    values: np.ndarray = field(repr=False)
    sup_norm: float
    hoelder_seminorm: float
    b: float
    _families: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False
    )
    _solves: dict = field(default_factory=dict, init=False, repr=False)
    _spread: list = field(default_factory=list, init=False, repr=False)

    @property
    def norm(self) -> float:
        """Full Hoelder norm: seminorm plus sup norm."""
        return self.hoelder_seminorm + self.sup_norm

    def truncation_tail_bound(self) -> float:
        """Worst-case value shift if this table were the range-r conditioning
        of a Hoelder function with the same seminorm."""
        return self.hoelder_seminorm * self.theta ** (self.r - 1)

    def min_value(self) -> float:
        return min(self.table.values())


def variations(values: np.ndarray, runs) -> list:
    """var_j for each depth of ``runs`` (``StateGraph.prefix_runs``): the largest value
    gap within one run of ``values``.  Exhaustive over prefix classes, hence
    exact; 0.0 exactly when every run holds one value."""
    out = []
    for starts in runs:
        gaps = np.maximum.reduceat(values, starts) - np.minimum.reduceat(values, starts)
        # +0.0, not -0.0, where a run holds both zeros
        out.append(max(0.0, float(gaps.max())))
    return out


def hoelder_seminorm(var, theta: float) -> float:
    """Largest ``var_j / theta**j`` over the depths of ``var``."""
    return max((vj / theta**j for j, vj in enumerate(var)), default=0.0)


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
    values = _frozen(np.array([clean[w] for w in words]))
    semi = hoelder_seminorm(variations(values, state_graph(tm, r).prefix_runs()), theta)
    return Potential(
        tm=tm,
        r=r,
        theta=theta,
        table=clean,
        values=values,
        sup_norm=max(abs(v) for v in clean.values()),
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
    """The potential phi + q*psi on words of the larger range, each read on
    the words by one gather through their prefix maps."""
    require_same_space(phi.tm, phi.theta, psi, "potentials")
    graph = state_graph(phi.tm, max(phi.r, psi.r))
    values = phi.values[graph.prefix(phi.r)] + q * psi.values[graph.prefix(psi.r)]
    return make_potential(phi.tm, graph.k, dict(zip(graph.words, values.tolist())), phi.theta)


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
    ``TOL_COB``, in which case rate-function queries are refused.
    """

    min_mean: float
    max_mean: float
    witness_min: tuple
    witness_max: tuple

    @property
    def width(self) -> float:
        return self.max_mean - self.min_mean

    @property
    def is_constant(self) -> bool:
        return self.width <= TOL_COB


def _out_edges(psi: Potential) -> tuple:
    """(graph, heads, weights) of psi's word graph, whose states are
    (r-1)-words (symbols when r = 1) and whose edge weights are psi on the
    edge words: row u of ``heads`` and ``weights`` holds the head and the
    weight of each edge out of state u, padded by repeating its first."""
    graph = state_graph(psi.tm, max(1, psi.r - 1))
    first = np.searchsorted(graph.src, np.arange(graph.size))
    degree = np.diff(first, append=len(graph.src))
    j = np.arange(degree.max())
    cell = first[:, None] + np.where(j < degree[:, None], j, 0)
    w = psi.values[graph.edge_prefix(psi.r)]
    return graph, graph.dst[cell], w[cell]


def _evaluate_policy(succ, cost) -> tuple:
    """(eta, x, cycles) of the policy that steps from u to ``succ[u]`` at
    ``cost[u]``: ``cycles`` holds each cycle's (mean, states) from its least
    state, summing the costs left to right in that order; ``eta[u]`` is the
    mean of the cycle u's path enters; the bias ``x[u]`` is 0 at a cycle's
    least state and ``cost[u] - eta[u] + x[succ[u]]`` elsewhere.  In plain
    Python, which beats numpy's per-call cost on one edge per state."""
    succ, cost = succ.tolist(), cost.tolist()
    eta, x, walk = [0.0] * len(succ), [0.0] * len(succ), [-1] * len(succ)
    cycles = []
    for start in range(len(succ)):
        path, u = [], start
        while walk[u] < 0:
            walk[u] = start
            path.append(u)
            u = succ[u]
        if walk[u] == start:
            # the walk closed a new cycle at u; its least state roots it
            ring = path[path.index(u) :]
            least = ring.index(min(ring))
            states = ring[least:] + ring[:least]
            eta[states[0]] = sum(cost[v] for v in states) / len(states)
            cycles.append((eta[states[0]], states))
            path = path[: len(path) - len(ring)] + states[1:]
        for v in reversed(path):
            eta[v] = eta[succ[v]]
            x[v] = cost[v] - eta[v] + x[succ[v]]
    return np.array(eta), np.array(x), cycles


def _min_cycle_mean(heads, weights) -> tuple:
    """Howard's policy iteration (Cochet-Terrasson, Cohen, Gaubert,
    McGettrick and Quadrat, 1998) on a strongly connected graph padded as by
    ``_out_edges``: (mean, states) of the last policy's least-mean cycle
    (the first by least state on ties), from its least state.

    Each state keeps one out-edge, at first its first of least weight.  A
    round evaluates the policy, then moves every state with a successor of
    lower ``eta`` to its first of least ``eta``; only if there is none, to
    its first edge of least ``w - eta + x[head]`` among those of equal
    ``eta`` (within ``tol``).  A move must gain more than ``tol``: n ulps of
    the largest |w| plus the largest |x|, what rounding gathers along n
    edges.  On exit every edge must satisfy ``w - mean + x[head] >= x[tail]
    - tol``, so no cycle mean lies below the witness's by more than ``tol``;
    that failing, or the round budget running out, raises NoConvergence.
    """
    rows, choice = np.arange(len(heads)), np.argmin(weights, axis=1)
    ulps, scale = len(heads) * np.finfo(float).eps, float(np.abs(weights).max())
    for _ in range(_HOWARD_MAX_ROUNDS):
        eta, x, cycles = _evaluate_policy(heads[rows, choice], weights[rows, choice])
        tol = ulps * (scale + float(np.abs(x).max()))
        gain = weights - eta[:, None] + x[heads]
        # with one cycle every state has its mean: no successor differs
        if len(cycles) > 1:
            eta_next = eta[heads]
            lower = eta_next.min(axis=1) < eta - tol
            if lower.any():
                choice = np.where(lower, np.argmin(eta_next, axis=1), choice)
                continue
            gain[eta_next > eta[:, None] + tol] = np.inf
        best = np.argmin(gain, axis=1)
        better = gain[rows, best] < x - tol
        if not better.any():
            break
        choice = np.where(better, best, choice)
    else:
        raise NoConvergence(f"policy iteration did not settle in {_HOWARD_MAX_ROUNDS} rounds")
    mean, states = min(cycles)
    if not np.all(weights - mean + x[heads] >= x[:, None] - tol):
        raise NoConvergence(f"cycle mean {mean!r} fails its optimality certificate")
    return mean, states


def cohomology_spread(psi: Potential) -> CohomologySpread:
    """Extreme cycle means of psi: Howard's policy iteration on the edge
    arrays of its word graph, run on psi and on -psi, in memory linear in the
    graph.  Each witness is the periodic symbol sequence of a simple cycle,
    from the cycle's least state (states overlap by one shift per step, so
    their first symbols spell the orbit), and each endpoint is the plain
    mean of psi along its witness.  A solve that exhausts its round budget or
    fails its optimality certificate raises NoConvergence."""
    graph, heads, weights = _out_edges(psi)
    lo, cyc_lo = _min_cycle_mean(heads, weights)
    hi_neg, cyc_hi = _min_cycle_mean(heads, -weights)
    first = (graph.prefix(1) + 1).tolist()  # each state's first symbol
    return CohomologySpread(
        min_mean=lo,
        # 0.0 - x is x negated, except that it maps +0.0 to +0.0, not -0.0
        max_mean=0.0 - hi_neg,
        witness_min=tuple(first[s] for s in cyc_lo),
        witness_max=tuple(first[s] for s in cyc_hi),
    )


def require_not_constant(psi: Potential) -> CohomologySpread:
    """psi's cycle-mean spread, refused when it is at or below ``TOL_COB``.
    ``cohomology_spread`` runs once per psi and its result is kept on psi,
    so a constant observable raises ``CohomologousConstant`` on every call;
    a run that raises keeps nothing."""
    if not psi._spread:
        psi._spread.append(cohomology_spread(psi))
    spread = psi._spread[0]
    if spread.is_constant:
        raise CohomologousConstant(
            f"cycle-mean spread {spread.width:.3e} is at or below tolerance {TOL_COB:.1e}"
        )
    return spread


def kept_spread(psi: Potential) -> CohomologySpread | None:
    """The spread ``require_not_constant`` has kept on psi, or None before it
    has run: nothing is computed."""
    return psi._spread[0] if psi._spread else None


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
