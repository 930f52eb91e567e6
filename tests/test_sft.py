import itertools
import sys
import threading
import weakref

import numpy as np
import pytest

from thermosft import (
    DeadSymbol,
    LengthMismatch,
    NotAperiodic,
    NotZeroOne,
    cylinder_distance,
    enumerate_words,
    equilibrium_measure,
    make_potential,
    normalize_potential,
    refine_measure,
    tilted_family,
    validate_transitions,
)
from thermosft.cli import load_model
from thermosft.errors import BadTheta
from thermosft.sft import state_graph

from conftest import (
    FIXTURES,
    random_aperiodic,
    random_potential,
    reference_prefix_runs,
    reference_state_graph,
)


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
            graph = state_graph(tm, k)
            words, index = graph.words, graph.index
            overlaps = enumerate_words(tm, k + 1)
            assert words == tuple(enumerate_words(tm, k)) and graph.size == len(words)
            assert [words[u] for u in graph.src] == [w[:k] for w in overlaps]
            assert [words[v] for v in graph.dst] == [w[1:] for w in overlaps]
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
    (lambda: state_graph(validate_transitions([[1, 1], [1, 1]]), 0), LengthMismatch,
     "word length must be >= 1, got 0"),
    (lambda: validate_transitions([[1]]), NotZeroOne, "alphabet size must be at least 2"),
])
def test_shift_helpers_refuse_bad_arguments(call, error, message):
    with pytest.raises(error, match=message):
        call()


def _reference_matrices():
    """The fixture matrices and 20 seeded aperiodic matrices of 2-5 symbols."""
    tms = [load_model(str(FIXTURES / f"{stem}.json")).f.tm
           for stem in ("bernoulli", "golden_mean", "random_range3")]
    rng = np.random.default_rng(83)
    return tms + [random_aperiodic(rng, 2 + i % 4) for i in range(20)]


def test_state_graphs_and_refinement_chains_match_the_enumerated_reference():
    """``state_graph`` at k = 1-6, and the refinement chain of an
    equilibrium measure on k-word states to k + 4, give the ``src`` and
    ``dst`` of the graph built by enumerating words and looking each edge's
    last k symbols up by word."""
    for tm in _reference_matrices():
        ref = {k: reference_state_graph(tm, k) for k in range(1, 11)}
        phi = make_potential(tm, 1, {(a,): 0.0 for a in range(1, tm.size + 1)}, 0.5)
        for k in range(1, 7):
            graph = state_graph(tm, k)
            assert (graph.k, graph.size) == (k, len(ref[k][0]))
            assert np.array_equal(graph.src, ref[k][2]) and np.array_equal(graph.dst, ref[k][3])
            mu = equilibrium_measure(phi, k=k)
            for k_new in range(k + 1, k + 5):
                fine = refine_measure(mu, k_new).chain.graph
                assert fine.k == k_new
                assert np.array_equal(fine.src, ref[k_new][2])
                assert np.array_equal(fine.dst, ref[k_new][3])


def test_prefix_reads_and_runs_match_word_reads():
    """A potential gathered through a graph's prefix map, on states (r <= k)
    and on edges (r <= k + 1), equals the table read by each word's prefix
    bit for bit, and the graph's prefix runs are those of its word list."""
    rng = np.random.default_rng(89)
    for _ in range(10):
        tm = random_aperiodic(rng, int(rng.integers(2, 5)))
        gs = {r: random_potential(rng, tm, r) for r in (1, 2, 3)}
        for k in range(1, 7):
            graph = state_graph(tm, k)
            words, edge_words = graph.words, enumerate_words(tm, k + 1)
            runs = graph.prefix_runs()
            assert len(runs) == k - 1
            for got, want in zip(runs, reference_prefix_runs(list(words)), strict=True):
                assert np.array_equal(got, want)
            for r, g in gs.items():
                if r <= k:
                    want = np.array([g.table[w[:r]] for w in words])
                    assert g.values[graph.prefix(r)].tobytes() == want.tobytes()
                if r <= k + 1:
                    want = np.array([g.table[w[:r]] for w in edge_words])
                    assert g.values[graph.edge_prefix(r)].tobytes() == want.tobytes()


def test_state_graph_is_one_object_per_matrix_and_length():
    """``state_graph(tm, k)`` is the same object on every call, and every
    layer that holds a k-word graph of tm holds that one: a range-k
    potential, a tilted family on k-word states, the refinement of an
    equilibrium measure to k-word states and the potential
    ``normalize_potential`` returns on k-words."""
    rng = np.random.default_rng(97)
    tm = random_aperiodic(rng, 3)
    assert state_graph(tm, 3) is state_graph(tm, 3)
    assert state_graph(tm, 1) is tm.symbol_graph
    f = random_potential(rng, tm, 2)
    psi = random_potential(rng, tm, 1)
    phi = normalize_potential(f)
    assert phi.r == 2
    graph = state_graph(tm, 2)
    assert f.graph is graph and phi.graph is graph
    assert tilted_family(phi, psi, k_min=2).base.graph is graph
    assert refine_measure(equilibrium_measure(phi, k=1), 2).chain.graph is graph
    assert state_graph(tm, 4).parent.parent is graph


def test_a_graph_nobody_holds_is_freed():
    """The symbol graph lives on its matrix, and a longer graph as long as
    something holds it or a refinement of it: once nothing does, it is
    freed, and the next call builds an equal graph."""
    tm = validate_transitions([[0, 1, 1], [1, 1, 0], [1, 1, 1]])
    graph = state_graph(tm, 4)
    parent = weakref.ref(graph.parent)
    arrays = graph.src.copy(), graph.dst.copy()
    gone = weakref.ref(graph)
    del graph
    assert gone() is None and parent() is None
    again = state_graph(tm, 4)
    assert np.array_equal(again.src, arrays[0]) and np.array_equal(again.dst, arrays[1])
    assert state_graph(tm, 1) is again.parent.parent.parent


def test_graphs_built_from_threads_at_once_are_equal():
    """Eight threads ask for the 8-word graph of one fresh matrix at once,
    with a short switch interval, so several may build the same refinement:
    every graph they get equals the serial one, and the graph kept for later
    calls is one of theirs."""
    rows = [[1, 1, 0], [1, 1, 1], [1, 0, 1]]
    want = state_graph(validate_transitions(rows), 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            tm = validate_transitions(rows)
            got = []
            barrier = threading.Barrier(8)

            def build(tm=tm, got=got, barrier=barrier):
                barrier.wait(timeout=30.0)
                got.append(state_graph(tm, 8))

            workers = [threading.Thread(target=build) for _ in range(8)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30.0)
            assert not any(w.is_alive() for w in workers) and len(got) == 8
            for graph in got:
                assert np.array_equal(graph.src, want.src) and np.array_equal(graph.dst, want.dst)
            assert any(state_graph(tm, 8) is graph for graph in got)
    finally:
        sys.setswitchinterval(interval)
