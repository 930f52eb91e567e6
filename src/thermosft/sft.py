"""One-sided shift spaces over a finite alphabet with transition constraints.

Symbols are the 1-based integers ``1..s0``.  A word is a tuple of symbols
whose consecutive pairs are allowed by a 0/1 transition matrix.  Every layer
numbers the admissible words of one length by their lexicographic positions,
read off a ``StateGraph`` refined from the symbol graph symbol by symbol, so
every matrix and vector the toolkit emits is reproducible run to run.

This module owns every graph: ``state_graph(tm, k)`` returns the one graph
of (tm, k) while anything holds it, so potentials, tilted families and
equilibrium measures of one matrix share a single tower of graphs, and a
layer asks for the length it needs instead of building or finding one.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BadTheta, DeadSymbol, LengthMismatch, ModelMismatch, NotAperiodic, NotZeroOne

Word = tuple  # tuple of 1-based symbols


def wielandt_bound(size: int) -> int:
    """Largest exponent that ever needs checking for primitivity."""
    return size * size - 2 * size + 2


@dataclass(frozen=True)
class TransitionMatrix:
    """Aperiodic 0/1 transition matrix together with its alphabet size and
    the least exponent whose boolean power is entrywise positive."""

    entries: np.ndarray
    size: int
    aperiodicity_exponent: int

    def allows(self, a: int, b: int) -> bool:
        return self.entries[a - 1, b - 1] != 0

    @cached_property
    def _successors(self) -> tuple:
        return tuple(tuple(int(j) + 1 for j in np.nonzero(row)[0]) for row in self.entries)

    def successors(self, a: int) -> tuple:
        return self._successors[a - 1]

    @cached_property
    def symbol_graph(self) -> "StateGraph":
        """The graph of 1-words: the symbol graph of the nonzero entries,
        row-major, so its edges are the 2-words in order.  The root of every
        graph ``state_graph`` returns for this matrix."""
        src, dst = np.nonzero(self.entries)
        return StateGraph(self, 1, _frozen(src), _frozen(dst), None)

    def is_admissible(self, word: Word) -> bool:
        if len(word) == 0:
            return False
        for s in word:
            if not (1 <= s <= self.size):
                return False
        successors = self._successors
        for a, b in zip(word, word[1:]):
            if b not in successors[a - 1]:
                return False
        return True

    def same_space(self, other: "TransitionMatrix") -> bool:
        return self.size == other.size and np.array_equal(self.entries, other.entries)


def require_same_space(tm: TransitionMatrix, theta: float, g, what: str) -> None:
    """Raise ModelMismatch, naming ``what``, unless the potential g is on (tm, theta)."""
    if not tm.same_space(g.tm) or theta != g.theta:
        raise ModelMismatch(f"{what} live over different shift spaces")


def validate_transitions(raw) -> TransitionMatrix:
    """Validate a raw integer matrix and compute its least aperiodicity exponent.

    Raises NotZeroOne / DeadSymbol / NotAperiodic.  Aperiodicity is decided by
    boolean matrix powers up to the Wielandt bound, so the test is finite and
    certified rather than heuristic.
    """
    arr = np.asarray(raw)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotZeroOne(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise NotZeroOne("alphabet size must be at least 2")
    if not np.isin(arr, (0, 1)).all():
        raise NotZeroOne("transition matrix entries must all be 0 or 1")
    mat = arr.astype(np.int64)
    if (mat.sum(axis=1) == 0).any():
        rows = np.nonzero(mat.sum(axis=1) == 0)[0]
        raise DeadSymbol(f"symbol {rows[0] + 1} has no successor")
    if (mat.sum(axis=0) == 0).any():
        cols = np.nonzero(mat.sum(axis=0) == 0)[0]
        raise DeadSymbol(f"symbol {cols[0] + 1} has no predecessor")

    s0 = mat.shape[0]
    power = mat > 0
    step = mat > 0
    exponent = None
    for m in range(1, wielandt_bound(s0) + 1):
        if m > 1:
            power = (power.astype(np.int64) @ step.astype(np.int64)) > 0
        if power.all():
            exponent = m
            break
    if exponent is None:
        raise NotAperiodic(
            f"no power up to the Wielandt bound {wielandt_bound(s0)} is positive"
        )
    frozen = mat.copy()
    frozen.flags.writeable = False
    return TransitionMatrix(entries=frozen, size=s0, aperiodicity_exponent=exponent)


def enumerate_words(tm: TransitionMatrix, k: int) -> list:
    """All admissible k-words in lexicographic order.

    The position of a word in this list is its canonical state index; it is
    stable across runs because the enumeration order is fixed.
    """
    if k < 1:
        raise LengthMismatch(f"word length must be >= 1, got {k}")
    words = [(a,) for a in range(1, tm.size + 1)]
    for _ in range(k - 1):
        words = [w + (b,) for w in words for b in tm.successors(w[-1])]
    return words


def cylinder_distance(w: Word, v: Word, theta: float) -> float:
    """Metric distance between the cylinders of two equal-length words.

    0 for identical words, theta**k where k is the last index through which
    they agree, and 1 when they already differ at index 0 (the bounded-metric
    convention extending theta**k to k = -1).
    """
    if not 0.0 < theta < 1.0:
        raise BadTheta(f"theta must lie in (0, 1), got {theta}")
    if len(w) != len(v):
        raise LengthMismatch(f"words have lengths {len(w)} and {len(v)}")
    if w == v:
        return 0.0
    if w[0] != v[0]:
        return 1.0
    k = 0
    for i in range(1, len(w)):
        if w[i] != v[i]:
            break
        k = i
    return theta**k


@dataclass(frozen=True, eq=False)
class StateGraph:
    """The graph of admissible k-words, as index arrays.

    State i is the i-th admissible k-word in lexicographic order.  Edge j is
    the j-th admissible (k+1)-word, from state ``src[j]`` (its first k
    symbols) to state ``dst[j]`` (its last k).  ``parent`` is the graph of
    (k-1)-words whose edges are these states (None at k = 1), so a state's
    prefixes compose the parents' ``src``.  ``words`` and ``index`` are
    built on first read, where a word is an input or an output.
    """

    tm: TransitionMatrix
    k: int
    src: np.ndarray
    dst: np.ndarray
    parent: "StateGraph | None" = field(repr=False)
    _stacks: dict = field(default_factory=dict, init=False, repr=False)
    _child: "weakref.ref | None" = field(default=None, init=False, repr=False)

    @property
    def size(self) -> int:
        return self.tm.size if self.parent is None else len(self.parent.src)

    @cached_property
    def words(self) -> tuple:
        return tuple(enumerate_words(self.tm, self.k))

    @cached_property
    def index(self) -> dict:
        return {w: i for i, w in enumerate(self.words)}

    def refined(self) -> "StateGraph":
        """The graph of (k+1)-words: its states are this graph's edges, in
        order, and the edges out of e are the edges e' out of ``dst[e]``,
        which are contiguous since ``src`` is nondecreasing.  The child
        built before is returned while anything holds it; two threads may
        both build it, and the equal graph stored last is the one kept."""
        child = self._child and self._child()
        if child is not None:
            return child
        first = np.searchsorted(self.src, np.arange(self.size + 1))
        # ufunc forms of diff and cumsum, without their Python-level wrappers
        counts = (first[1:] - first[:-1])[self.dst]
        new_src = np.repeat(np.arange(len(self.src)), counts)
        # new edge i is edge i - start of e's run, start being e's first
        ends = np.add.accumulate(counts)
        new_dst = np.arange(ends[-1]) + np.repeat(first[self.dst] - (ends - counts), counts)
        child = StateGraph(self.tm, self.k + 1, _frozen(new_src), _frozen(new_dst), self)
        object.__setattr__(self, "_child", weakref.ref(child))
        return child

    def prefix(self, r: int) -> np.ndarray:
        """Index among the r-words of the first r symbols of each state,
        1 <= r <= k: the parents' ``src`` composed down to r symbols."""
        if r == self.k:
            return np.arange(self.size)
        return self.parent.prefix(r)[self.parent.src]

    def edge_prefix(self, r: int) -> np.ndarray:
        """``prefix`` of each edge's (k+1)-word, 1 <= r <= k + 1: through
        ``src``, but for the whole edge word, which is its own index."""
        return np.arange(len(self.src)) if r == self.k + 1 else self.prefix(r)[self.src]

    def prefix_runs(self) -> list:
        """Start indices of the runs of states sharing a (j+1)-prefix, for
        each depth j = 0..k-2 (at depth k-1 every state is its own run).
        States are ordered, so each prefix class is contiguous, and its run
        starts at the first state whose prefix index is the class's."""
        runs, at, graph = [], np.arange(self.size), self
        while graph.parent is not None:
            at, graph = graph.parent.src[at], graph.parent
            runs.append(np.searchsorted(at, np.arange(graph.size)))
        return runs[::-1]

    def stacked_edges(self, kinds: tuple) -> tuple:
        """(gather, scatter) index arrays of a block whose row i steps
        forward (kind 0: gather ``src``, scatter ``dst``) or backward (kind
        1: the reverse), each offset by ``i * size`` into the flattened
        block; built once per graph and tuple of kinds."""
        edges = self._stacks.get(kinds)
        if edges is None:
            pick = np.array(kinds)
            ends = np.array((self.src, self.dst))
            offsets = np.arange(0, len(kinds) * self.size, self.size)[:, None]
            gather = (ends[pick] + offsets).ravel()
            scatter = (ends[1 - pick] + offsets).ravel()
            edges = self._stacks[kinds] = (_frozen(gather), _frozen(scatter))
        return edges


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def state_graph(tm: TransitionMatrix, k: int) -> StateGraph:
    """The graph of admissible k-words of ``tm``: its ``symbol_graph``
    refined k - 1 times, so every caller holding the graph of (tm, k) holds
    the same object."""
    if k < 1:
        raise LengthMismatch(f"word length must be >= 1, got {k}")
    graph = tm.symbol_graph
    for _ in range(k - 1):
        graph = graph.refined()
    return graph
