"""Finite-range potentials on a shift space with exactly computed norms.

Only locally constant functions are representable: a range-r potential is
one value per admissible r-word, held as an array over the states of its
r-word ``StateGraph``.  That restriction is what makes every quantity
downstream (norms, transfer matrices, cylinder masses) exactly computable.
A word-keyed table is an input (``make_potential`` validates it) or an
output (``Potential.table``, a view built on read); every potential the
library derives is built from arrays on a graph it already holds.
A general Hoelder function must be truncated externally; conditioning it on
its first r coordinates moves values by at most ``|g|_theta * theta**(r-1)``,
which callers can use to size r.  The toolkit reports this tail bound but does
not propagate it into certificates.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BadTheta,
    CohomologousConstant,
    InadmissibleWord,
    MissingWord,
    NoConvergence,
    ValidationError,
    WordTooShort,
)
from .sft import (
    StateGraph,
    TransitionMatrix,
    Word,
    _frozen,
    enumerate_words,
    require_same_space,
    state_graph,
)

#: spread below which an observable is treated as cohomologous to a constant
TOL_COB = 1e-9
#: policy-iteration rounds after which a cycle-mean solve gives up
_HOWARD_MAX_ROUNDS = 500


@dataclass(frozen=True, eq=False)
class Potential:
    """Range-r potential: one value per admissible r-word.

    ``graph`` is the r-word ``StateGraph`` and ``values`` the values as an
    array over its states in order, which another state graph reads by one
    gather through ``StateGraph.prefix``; the array is the potential.  ``tm``
    and ``r`` are read off the graph, and ``table``, the values keyed by
    word, is a view built on first read for word-level callers.
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

    graph: StateGraph = field(repr=False)
    values: np.ndarray = field(repr=False)
    theta: float
    sup_norm: float
    hoelder_seminorm: float
    b: float
    _families: weakref.WeakKeyDictionary = field(
        default_factory=weakref.WeakKeyDictionary, init=False, repr=False
    )
    _solves: dict = field(default_factory=dict, init=False, repr=False)
    _spread: list = field(default_factory=list, init=False, repr=False)

    @property
    def tm(self) -> TransitionMatrix:
        return self.graph.tm

    @property
    def r(self) -> int:
        return self.graph.k

    @cached_property
    def table(self) -> dict:
        return dict(zip(enumerate_words(self.tm, self.r), self.values.tolist()))

    @property
    def norm(self) -> float:
        """Full Hoelder norm: seminorm plus sup norm."""
        return self.hoelder_seminorm + self.sup_norm

    def truncation_tail_bound(self) -> float:
        """Worst-case value shift if this table were the range-r conditioning
        of a Hoelder function with the same seminorm."""
        return self.hoelder_seminorm * self.theta ** (self.r - 1)

    def min_value(self) -> float:
        return float(self.values.min())


def variations(V: np.ndarray, runs) -> list:
    """var_j for each depth j of ``runs`` (``StateGraph.prefix_runs``): the
    largest value gap within one run, of a vector, or of each row of a block
    (then one list per row).  Exhaustive over prefix classes, hence exact;
    0.0 exactly when every run holds one value.

    The deepest runs' maxima and minima are taken over the values, and each
    shallower depth's over the next depth's, whose runs split its own.  A
    depth whose runs have at most m members takes m column gathers, member
    i of each run (its last when it has fewer), which beats a ``reduceat``
    over runs of a few members each."""
    hi = lo = np.atleast_2d(V)
    var = np.zeros((len(runs), len(hi)))
    for j in range(len(runs) - 1, -1, -1):
        # a depth's runs start at some of the next depth's run starts
        starts = runs[j] if j == len(runs) - 1 else np.searchsorted(runs[j + 1], runs[j])
        last = np.concatenate((starts[1:], [hi.shape[1]])) - 1
        run_hi, run_lo = hi.take(starts, axis=1), lo.take(starts, axis=1)
        for i in range(1, int((last - starts).max()) + 1):
            at = np.minimum(starts + i, last)
            np.maximum(run_hi, hi.take(at, axis=1), out=run_hi)
            np.minimum(run_lo, lo.take(at, axis=1), out=run_lo)
        hi, lo = run_hi, run_lo
        # +0.0, not -0.0, where a run holds both zeros
        var[j] = np.maximum(0.0, np.maximum.reduce(hi - lo, axis=1))
    return var[:, 0].tolist() if np.ndim(V) == 1 else var.T.tolist()


def hoelder_seminorm(var, theta: float) -> float:
    """Largest ``var_j / theta**j`` over the depths of ``var``."""
    return max((vj / theta**j for j, vj in enumerate(var)), default=0.0)


def _potential(graph: StateGraph, values: np.ndarray, theta: float) -> Potential:
    """The potential of ``values`` on the states of ``graph``, its norms
    computed exactly from the array."""
    semi = hoelder_seminorm(variations(values, graph.prefix_runs()), theta)
    return Potential(
        graph=graph,
        values=_frozen(values),
        theta=theta,
        sup_norm=float(np.abs(values).max()),
        hoelder_seminorm=semi,
        b=max(1.0, semi),
    )


def make_potential(tm: TransitionMatrix, r: int, table: dict, theta: float) -> Potential:
    """Build a Potential from a table keyed by words, validating it against
    the admissible r-words (every key one of them, each of them a key, every
    value finite) and computing its norms exactly.  The entry point for
    tables from outside the library."""
    if not 0.0 < theta < 1.0:
        raise BadTheta(f"theta must lie in (0, 1), got {theta}")
    if r < 1:
        raise InadmissibleWord(f"range must be >= 1, got {r}")
    words = enumerate_words(tm, r)
    index = dict(zip(words, range(len(words))))
    values = [None] * len(words)
    for key, val in table.items():
        word = tuple(key)
        at = index.get(word)
        if at is None:
            raise InadmissibleWord(f"word {word} is not an admissible {r}-word")
        values[at] = float(val)
        if not math.isfinite(values[at]):
            raise ValidationError(f"value {values[at]!r} on word {word} is not finite")
    if None in values:
        raise MissingWord(f"table is missing admissible word {words[values.index(None)]}")
    return _potential(state_graph(tm, r), np.array(values), theta)


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
    """The potential phi + q*psi on the words of the longer operand, each
    read on them by one gather through their prefix maps."""
    require_same_space(phi.tm, phi.theta, psi, "potentials")
    graph = state_graph(phi.tm, max(phi.r, psi.r))
    values = phi.values[graph.prefix(phi.r)] + q * psi.values[graph.prefix(psi.r)]
    return _potential(graph, values, phi.theta)


def shift_nonnegative(psi: Potential) -> tuple:
    """Add the constant making psi nonnegative; returns (shifted, c).

    The Hoelder seminorm is unchanged (constants cancel in every variation)
    and the sup norm at most doubles.
    """
    lo = psi.min_value()
    if lo >= 0.0:
        return psi, 0.0
    c = -lo
    return _potential(psi.graph, psi.values + c, psi.theta), c


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
    graph = state_graph(tm, r)
    digits = _digits(graph)
    # a target within the first pad shifts; r - len(t) >= pad, so it fits
    core = np.zeros(graph.size, dtype=bool)
    for t in cyl:
        for j in range(pad + 1):
            core |= (digits[:, j : j + len(t)] == t).all(axis=1)
    deficit = np.min(
        [len(t) - np.logical_and.accumulate(digits[:, : len(t)] == t, axis=1).sum(axis=1)
         for t in cyl],
        axis=0,
    )
    deficit[core] = 0
    return _potential(graph, np.maximum(0.0, 1.0 - deficit / (pad + 1)), theta)


def _digits(graph: StateGraph) -> np.ndarray:
    """The symbols of each state of ``graph``, one row per state: a state's
    row is its parent edge's source row plus the last symbol of its head."""
    if graph.parent is None:
        return np.arange(1, graph.size + 1, dtype=np.min_scalar_type(graph.size))[:, None]
    parent = graph.parent
    rows = _digits(parent)
    return np.column_stack((rows[parent.src], rows[parent.dst, -1]))
