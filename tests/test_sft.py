import itertools

import numpy as np
import pytest

from thermosft import (
    DeadSymbol,
    LengthMismatch,
    NotAperiodic,
    NotZeroOne,
    cylinder_distance,
    enumerate_words,
    validate_transitions,
)
from thermosft.errors import BadTheta
from thermosft.sft import state_graph

from conftest import random_aperiodic


def test_all_ones_has_exponent_one():
    tm = validate_transitions([[1, 1], [1, 1]])
    assert tm.size == 2
    assert tm.aperiodicity_exponent == 1


def test_golden_mean_exponent_two():
    # squaring by hand: [[0,1],[1,1]]^2 = [[1,1],[1,2]], all positive
    tm = validate_transitions([[0, 1], [1, 1]])
    assert tm.aperiodicity_exponent == 2
    sq = np.array([[0, 1], [1, 1]]) @ np.array([[0, 1], [1, 1]])
    assert (sq > 0).all()


def test_permutation_matrix_rejected():
    with pytest.raises(NotAperiodic):
        validate_transitions([[0, 1], [1, 0]])


def test_bad_entries_and_dead_symbols():
    with pytest.raises(NotZeroOne):
        validate_transitions([[1, 2], [1, 1]])
    with pytest.raises(DeadSymbol):
        validate_transitions([[0, 0], [1, 1]])
    with pytest.raises(DeadSymbol):
        validate_transitions([[1, 0, 1], [1, 0, 1], [1, 0, 1]])
    with pytest.raises(NotZeroOne):
        validate_transitions([[1, 1, 1], [1, 1, 1]])


def test_exponent_is_minimal_on_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(25):
        tm = random_aperiodic(rng, int(rng.integers(2, 5)))
        m = tm.aperiodicity_exponent
        if m > 1:
            power = np.linalg.matrix_power(tm.entries, m - 1)
            assert (power == 0).any()
        assert (np.linalg.matrix_power(tm.entries, m) > 0).all()


def test_enumerate_full_shift():
    tm = validate_transitions([[1, 1], [1, 1]])
    assert enumerate_words(tm, 2) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_enumerate_golden_mean():
    tm = validate_transitions([[0, 1], [1, 1]])
    assert enumerate_words(tm, 2) == [(1, 2), (2, 1), (2, 2)]
    assert enumerate_words(tm, 3) == [
        (1, 2, 1),
        (1, 2, 2),
        (2, 1, 2),
        (2, 2, 1),
        (2, 2, 2),
    ]


def test_word_counts_match_matrix_powers():
    rng = np.random.default_rng(11)
    for _ in range(6):
        tm = random_aperiodic(rng, int(rng.integers(2, 5)))
        for k in range(1, 11):
            count = len(enumerate_words(tm, k))
            expected = int(np.linalg.matrix_power(tm.entries, k - 1).sum())
            assert count == expected


def test_enumerated_words_are_admissible():
    rng = np.random.default_rng(13)
    for _ in range(5):
        tm = random_aperiodic(rng, int(rng.integers(2, 5)))
        for k in range(1, 7):
            for w in enumerate_words(tm, k):
                for a, b in zip(w, w[1:]):
                    assert tm.entries[a - 1, b - 1] == 1


def test_state_graph_edges_are_the_longer_words_in_order():
    rng = np.random.default_rng(11)
    for _ in range(6):
        tm = random_aperiodic(rng, int(rng.integers(2, 5)))
        for k in (1, 2, 3):
            words, index, src, dst, overlaps = state_graph(tm, k)
            assert words == enumerate_words(tm, k)
            assert overlaps == enumerate_words(tm, k + 1)
            assert [words[u] for u in src] == [w[:k] for w in overlaps]
            assert [words[v] for v in dst] == [w[1:] for w in overlaps]
            assert all(index[w] == i for i, w in enumerate(words))


def test_cylinder_distance_examples():
    assert cylinder_distance((1, 2, 1), (1, 2, 1), 0.5) == 0.0
    assert cylinder_distance((1, 2, 1), (1, 2, 2), 0.5) == 0.5
    assert cylinder_distance((1, 2, 2), (2, 2, 2), 0.5) == 1.0


def test_cylinder_distance_errors():
    with pytest.raises(LengthMismatch):
        cylinder_distance((1, 2), (1, 2, 1), 0.5)
    with pytest.raises(BadTheta):
        cylinder_distance((1,), (2,), 1.5)


@pytest.mark.parametrize("fixture", ["bernoulli_model", "golden_model", "random_model"])
def test_admissibility_from_successors_matches_the_matrix(fixture, request):
    """``is_admissible`` answers from the cached successor lists what the
    matrix entries (``allows``) answer, on every symbol pair and every word
    up to length 6 of each fixture, and refuses any word with a symbol
    outside 1..s0."""
    tm = request.getfixturevalue(fixture).f.tm
    s0 = tm.size
    for a, b in itertools.product(range(1, s0 + 1), repeat=2):
        assert tm.is_admissible((a, b)) == tm.allows(a, b)
    for length in range(1, 7):
        for word in itertools.product(range(1, s0 + 1), repeat=length):
            expected = all(tm.allows(a, b) for a, b in zip(word, word[1:]))
            assert tm.is_admissible(word) == expected, word
    for word in [(), (0,), (s0 + 1,), (-1, 1), (1, 0), (0, 1), (1, s0 + 1), (s0 + 1, 1),
                 (1, 1, s0 + 2), (1, 1, -1)]:
        assert not tm.is_admissible(word), word


@pytest.mark.parametrize("call, error, message", [
    (lambda: enumerate_words(validate_transitions([[1, 1], [1, 1]]), 0), LengthMismatch,
     "word length must be >= 1"),
    (lambda: validate_transitions([[1]]), NotZeroOne, "alphabet size must be at least 2"),
])
def test_shift_helpers_refuse_bad_arguments(call, error, message):
    with pytest.raises(error, match=message):
        call()
