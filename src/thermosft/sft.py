"""One-sided shift spaces over a finite alphabet with transition constraints.

Symbols are the 1-based integers ``1..s0``.  A word is a tuple of symbols
whose consecutive pairs are allowed by a 0/1 transition matrix.  All state
indices used downstream are positions in the lexicographic enumeration of
admissible words of a fixed length, so every matrix and vector the toolkit
emits is reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def state_graph(tm: TransitionMatrix, k: int):
    """State words of length k plus the overlap edges between them, as arrays.

    Returns (words, index, src, dst, overlaps).  Edge j is the admissible
    (k+1)-word ``overlaps[j]``; it runs from state ``src[j]`` (its first k
    symbols) to state ``dst[j]`` (its last k).  Edges are the (k+1)-words in
    lexicographic order, so ``src`` is nondecreasing and, within one source,
    ``dst`` increases.
    """
    words = enumerate_words(tm, k)
    index = {w: i for i, w in enumerate(words)}
    overlaps = [w + (b,) for w in words for b in tm.successors(w[-1])]
    src = np.repeat(np.arange(len(words)), [len(tm.successors(w[-1])) for w in words])
    dst = np.array([index[w[1:]] for w in overlaps], dtype=np.intp)
    return words, index, src, dst, overlaps
