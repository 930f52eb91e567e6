import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from thermosft import (
    BadTheta,
    InadmissibleWord,
    MissingWord,
    ModelMismatch,
    NoConvergence,
    WordTooShort,
    affine_combine,
    birkhoff_sum,
    cohomology_spread,
    enumerate_words,
    equilibrium_measure,
    exact_window_mass,
    indicator_example,
    integrate,
    make_potential,
    normalize_potential,
    rate_function,
    shift_nonnegative,
    validate_transitions,
    verify_rpf_bounds,
)
from thermosft import potentials
from thermosft.potentials import variations
from thermosft.sft import state_graph

from conftest import (
    brute_cycle_means,
    brute_variations,
    make_pot,
    potential_graph,
    random_aperiodic,
    random_potential,
    reference_indicator_values,
    simple_cycles,
)


def test_zero_potential_norms(full2):
    g = make_pot(full2, 1, {"1": 0.0, "2": 0.0})
    assert g.sup_norm == 0.0 and g.hoelder_seminorm == 0.0 and g.b == 1.0


def test_range_one_has_no_variation(full2):
    g = make_pot(full2, 1, {"1": 1.0, "2": 0.0})
    assert g.sup_norm == 1.0
    assert g.hoelder_seminorm == 0.0
    assert g.b == 1.0


def test_range_two_seminorm(full2):
    g = make_pot(full2, 2, {"11": 1.0, "12": 0.0, "21": 0.0, "22": 0.0})
    # the only nonzero variation is at depth 0: words sharing x0=1 differ by 1
    assert g.hoelder_seminorm == 1.0
    assert g.sup_norm == 1.0


def test_truncation_tail_bound_on_a_fixture(random_model):
    """The tail bound of README's numerical conventions on the range-3
    fixture observable: its seminorm, recomputed from a brute-force scan of
    the variations, times ``theta**(r-1)``."""
    psi = random_model.psi
    var = brute_variations(psi.tm, psi.r, psi.table)
    semi = max(v / psi.theta**j for j, v in enumerate(var))
    assert psi.r == 3 and semi > 0.0
    assert psi.truncation_tail_bound() == semi * psi.theta ** (psi.r - 1)


def test_table_validation(full2, golden):
    with pytest.raises(MissingWord):
        make_pot(full2, 2, {"11": 1.0, "12": 0.0, "21": 0.0})
    with pytest.raises(InadmissibleWord):
        make_pot(golden, 2, {"11": 1.0, "12": 0.0, "21": 0.0, "22": 0.0})
    with pytest.raises(BadTheta):
        make_pot(full2, 1, {"1": 0.0, "2": 0.0}, theta=1.0)


def test_cached_norms_match_brute_force():
    rng = np.random.default_rng(23)
    cases = [(int(rng.integers(2, 4)), int(rng.integers(1, 5))) for _ in range(20)]
    cases.append((3, 5))  # deepest feasible pairwise scan
    for s0, r in cases:
        tm = random_aperiodic(rng, s0)
        g = random_potential(rng, tm, r)
        brute = brute_variations(tm, r, g.table)
        runs = state_graph(tm, r).prefix_runs()
        fast = variations(g.values, runs)
        assert brute == pytest.approx(fast, abs=0.0)
        # a block's rows are reduced together, each as on its own
        block = np.array([g.values, -g.values, np.zeros(len(g.values))])
        assert variations(block, runs) == [fast, fast, [0.0] * (r - 1)]
        semi = max((vk / g.theta**k for k, vk in enumerate(brute)), default=0.0)
        assert g.hoelder_seminorm == pytest.approx(semi, abs=0.0)
        assert g.sup_norm == max(abs(v) for v in g.table.values())


def test_birkhoff_examples(full2, golden):
    psi = make_pot(full2, 1, {"1": 1.0, "2": 0.0})
    assert birkhoff_sum(psi, (1, 2, 1), 3) == 2.0
    assert birkhoff_sum(psi, (1, 2, 1), 0) == 0.0
    gpsi = make_pot(golden, 1, {"1": 1.0, "2": 0.0})
    assert birkhoff_sum(gpsi, (2, 1, 2, 1, 2), 4) == 2.0
    with pytest.raises(WordTooShort):
        psi2 = make_pot(full2, 2, {"11": 1.0, "12": 0.0, "21": 0.0, "22": 0.0})
        birkhoff_sum(psi2, (1, 2, 1), 3)


def test_birkhoff_additivity(full2):
    rng = np.random.default_rng(5)
    g = random_potential(rng, full2, 2)
    from thermosft import enumerate_words

    for w in enumerate_words(full2, 8):
        for m in (0, 1, 3):
            n = 5 - m if m < 5 else 0
            total = birkhoff_sum(g, w, m + n)
            split = birkhoff_sum(g, w, m) + birkhoff_sum(g, w[m:], n)
            assert total == pytest.approx(split, abs=1e-12)


def test_affine_combine(full2):
    phi = make_pot(full2, 1, {"1": -math.log(2), "2": -math.log(2)})
    psi = make_pot(full2, 1, {"1": 1.0, "2": 0.0})
    both = affine_combine(phi, psi, 2.0)
    assert both.table[(1,)] == pytest.approx(2 - math.log(2), abs=0.0)
    assert both.table[(2,)] == pytest.approx(-math.log(2), abs=0.0)

    zero = make_pot(full2, 1, {"1": 0.0, "2": 0.0})
    assert affine_combine(zero, psi, 1.0).table == psi.table

    r2 = make_pot(full2, 2, {"11": 0.3, "12": 0.1, "21": 0.0, "22": -0.2})
    ext = affine_combine(r2, psi, 0.0)
    for w, v in ext.table.items():
        assert v == r2.table[w[:2]]

    with pytest.raises(ModelMismatch):
        affine_combine(phi, make_pot(full2, 1, {"1": 1.0, "2": 0.0}, theta=0.25), 1.0)


@pytest.mark.parametrize("route", ["rate_function", "integrate", "verify_rpf_bounds", "window"])
def test_operands_of_another_theta_are_refused(full2, route):
    """Each guard of a second operand: the tilted family (through
    ``rate_function``), ``integrate``, ``verify_rpf_bounds`` and the
    observed chain of the window masses, each given an operand over the
    same shift with theta 0.25 against 0.5."""
    phi = normalize_potential(make_pot(full2, 1, {"1": 0.2, "2": 0.0}))
    other = make_pot(full2, 2, {"11": 1.0, "12": 0.0, "21": 0.5, "22": 0.0}, theta=0.25)
    mu = equilibrium_measure(phi)
    calls = {
        "rate_function": lambda: rate_function(phi, other, 0.5),
        "integrate": lambda: integrate(mu, other),
        "verify_rpf_bounds": lambda: verify_rpf_bounds(phi, 3, other),
        "window": lambda: exact_window_mass(mu, other, 4, 0.5, 0.1),
    }
    with pytest.raises(ModelMismatch, match="different shift spaces"):
        calls[route]()


def test_affine_combine_linearity(full2):
    rng = np.random.default_rng(17)
    phi = random_potential(rng, full2, 2)
    psi = random_potential(rng, full2, 1)
    combo = affine_combine(phi, psi, 1.7)
    from thermosft import enumerate_words

    for w in enumerate_words(full2, 7):
        lhs = birkhoff_sum(combo, w, 6)
        rhs = birkhoff_sum(phi, w, 6) + 1.7 * birkhoff_sum(psi, w, 6)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_spread_examples(full2, golden):
    psi = make_pot(full2, 1, {"1": 1.0, "2": 0.0})
    sp = cohomology_spread(psi)
    assert (sp.min_mean, sp.max_mean) == (0.0, 1.0)
    assert not sp.is_constant

    const = make_pot(full2, 1, {"1": 0.7, "2": 0.7})
    spc = cohomology_spread(const)
    assert (spc.min_mean, spc.max_mean) == (0.7, 0.7)
    assert spc.is_constant

    gpsi = make_pot(golden, 1, {"1": 1.0, "2": 0.0})
    spg = cohomology_spread(gpsi)
    assert (spg.min_mean, spg.max_mean) == (0.0, 0.5)


def _cycle_mean(psi, cycle):
    reps = cycle * (2 + psi.r // len(cycle))
    return sum(psi.table[tuple(reps[i : i + psi.r])] for i in range(len(cycle))) / len(cycle)


def test_spread_witnesses_attain_endpoints(full2, golden):
    rng = np.random.default_rng(3)
    for tm in (full2, golden):
        for r in (1, 2, 3):
            psi = random_potential(rng, tm, r)
            sp = cohomology_spread(psi)
            assert _cycle_mean(psi, sp.witness_min) == pytest.approx(sp.min_mean, abs=1e-12)
            assert _cycle_mean(psi, sp.witness_max) == pytest.approx(sp.max_mean, abs=1e-12)


def test_spread_matches_simple_cycle_enumeration():
    rng = np.random.default_rng(29)
    for _ in range(15):
        s0 = int(rng.integers(2, 5))
        r = int(rng.integers(1, 3)) if s0 == 4 else int(rng.integers(1, 4))
        tm = random_aperiodic(rng, s0)
        psi = random_potential(rng, tm, r)
        lo, hi = brute_cycle_means(psi)
        sp = cohomology_spread(psi)
        assert sp.min_mean == pytest.approx(lo, abs=1e-12)
        assert sp.max_mean == pytest.approx(hi, abs=1e-12)


def test_spread_shift_invariance(golden):
    rng = np.random.default_rng(31)
    psi = random_potential(rng, golden, 2)
    shifted = affine_combine(psi, make_pot(golden, 1, {"1": 1.0, "2": 1.0}), 0.35)
    sp = cohomology_spread(psi)
    sps = cohomology_spread(shifted)
    assert sps.min_mean == pytest.approx(sp.min_mean + 0.35, abs=1e-12)
    assert sps.max_mean == pytest.approx(sp.max_mean + 0.35, abs=1e-12)


def _check_min_cycle_mean(psi):
    """Both signs of psi's word graph: the mean is within 1e-12 of the
    simple-cycle oracle, and the witness is a simple cycle from its least
    state whose plain left-to-right mean is the reported mean bit for bit."""
    _, _, edges = potential_graph(psi)
    weight = {(u, v): x for u, v, x in edges}
    _, heads, weights = potentials._out_edges(psi)
    lo, hi = brute_cycle_means(psi)
    for sign, want in ((1.0, lo), (-1.0, -hi)):
        mean, states = potentials._min_cycle_mean(heads, sign * weights)
        assert abs(mean - want) <= 1e-12
        assert len(set(states)) == len(states) and states[0] == min(states)
        cycle = [sign * weight[u, v] for u, v in zip(states, states[1:] + states[:1])]
        assert (sum(cycle) / len(cycle)).hex() == mean.hex()


def test_min_cycle_mean_matches_oracle_with_simple_witnesses():
    rng = np.random.default_rng(41)
    for case in range(40):
        s0 = int(rng.integers(2, 5))
        r = int(rng.integers(1, 3)) if s0 == 4 else int(rng.integers(1, 4))
        tm = random_aperiodic(rng, s0)
        _check_min_cycle_mean(random_potential(rng, tm, r, lattice=4 if case % 2 else None))


def test_min_cycle_mean_on_lattice_ties():
    """Lattice values make ties between cycles and between out-edges common;
    the witness must still be simple and carry the reported mean."""
    rng = np.random.default_rng(43)
    for case in range(16):
        s0 = int(rng.integers(2, 5))
        tm = random_aperiodic(rng, s0)
        psi = random_potential(rng, tm, 2 if s0 == 4 else 3, lattice=4 if case % 2 else None)
        _check_min_cycle_mean(psi)


def test_spread_repair_path_on_large_coboundary(full2):
    """psi = g(bc) - g(ab) + u(abc) with g near 1e8: the coboundary cancels
    around every cycle exactly, but not in floating point, so the biases are
    near 1e8 while the means lie in [0, 1].  Both endpoints must still be
    within 1e-7 of the exact means.  (Karp's witness check failed on this
    input and sent it to a repair path.)"""
    rng = np.random.default_rng(0)
    g = {w: rng.uniform(-1e8, 1e8) for w in enumerate_words(full2, 2)}
    table = {w: g[w[1:]] - g[w[:2]] + rng.uniform(0.0, 1.0) for w in enumerate_words(full2, 3)}
    psi = make_potential(full2, 3, table, 0.5)
    sp = cohomology_spread(psi)
    words, _, edges = potential_graph(psi)
    exact = [(u, v, Fraction(w)) for u, v, w in edges]
    means = [total / length for total, length in simple_cycles(len(words), exact)]
    assert abs(sp.min_mean - float(min(means))) <= 1e-7
    assert abs(sp.max_mean - float(max(means))) <= 1e-7


@pytest.mark.parametrize("pad", range(4, 11))
def test_spread_of_indicator_at_depth(full2, pad):
    """The ramped indicator of the cylinder 111 (PAPER.md's chi_K) on the
    full 2-shift, 2**(pad + 2) word states: its least cycle mean is the fixed
    point 2 at 1 - 3/(pad + 1) and its greatest is 1.  Memory stays linear
    in the graph: under 50 MB traced at 4096 states."""
    psi = indicator_example(full2, [(1, 1, 1)], pad=pad, theta=0.5)
    tracemalloc.start()
    start = time.perf_counter()
    sp = cohomology_spread(psi)
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert sp.min_mean == 1.0 - 3.0 / (pad + 1)
    assert sp.witness_min == (2,)
    assert sp.max_mean == 1.0
    assert peak < 50 * 2**20, f"peak {peak / 2**20:.1f} MB at pad {pad}"
    assert elapsed < 1.5, f"cohomology_spread took {elapsed:.2f}s at pad {pad}"


def test_min_cycle_mean_round_budget(full2, monkeypatch):
    """A cap of one round refuses a graph whose first policy is not optimal."""
    psi = make_pot(full2, 1, {"1": 1.0, "2": 0.0})
    monkeypatch.setattr(potentials, "_HOWARD_MAX_ROUNDS", 1)
    with pytest.raises(NoConvergence, match="did not settle in 1 rounds"):
        cohomology_spread(psi)


def test_min_cycle_mean_certificate_failure_raises(full2, monkeypatch):
    """A cycle mean the biases do not certify is refused: here every policy
    cycle reports its mean raised by 1."""
    evaluate = potentials._evaluate_policy

    def raised(succ, cost):
        eta, x, cycles = evaluate(succ, cost)
        return eta, x, [(mean + 1.0, states) for mean, states in cycles]

    monkeypatch.setattr(potentials, "_evaluate_policy", raised)
    with pytest.raises(NoConvergence, match="optimality certificate"):
        cohomology_spread(make_pot(full2, 1, {"1": 1.0, "2": 0.0}))


def test_spread_729_states_within_budget():
    """Full 3-shift, range-7 psi: 0 on the orbit 123, 1 on the orbit 1122,
    in [0.25, 0.75] elsewhere, so the spread is exactly [0, 1]."""
    tm = validate_transitions(np.ones((3, 3), dtype=int))
    rng = np.random.default_rng(0)
    table = {w: rng.uniform(0.25, 0.75) for w in enumerate_words(tm, 7)}
    table.update({((1, 2, 3) * 3)[j : j + 7]: 0.0 for j in range(3)})
    table.update({((1, 1, 2, 2) * 3)[j : j + 7]: 1.0 for j in range(4)})
    psi = make_potential(tm, 7, table, 0.5)
    start = time.perf_counter()
    sp = cohomology_spread(psi)
    elapsed = time.perf_counter() - start
    assert (sp.min_mean, sp.max_mean) == (0.0, 1.0)
    assert (sp.witness_min, sp.witness_max) == ((1, 2, 3), (1, 1, 2, 2))
    assert elapsed < 1.5, f"cohomology_spread took {elapsed:.2f}s on 729 states"


def test_shift_nonnegative(full2):
    psi = make_pot(full2, 1, {"1": -0.3, "2": 0.7})
    shifted, c = shift_nonnegative(psi)
    assert c == 0.3
    assert shifted.table[(1,)] == 0.0
    assert shifted.table[(2,)] == 1.0
    assert shifted.hoelder_seminorm == psi.hoelder_seminorm

    nonneg = make_pot(full2, 1, {"1": 0.2, "2": 0.0})
    same, c0 = shift_nonnegative(nonneg)
    assert c0 == 0.0 and same.table == nonneg.table

    rng = np.random.default_rng(37)
    g = random_potential(rng, full2, 3)
    g1, c1 = shift_nonnegative(g)
    assert g1.min_value() == pytest.approx(0.0, abs=1e-15)
    assert g1.hoelder_seminorm == pytest.approx(g.hoelder_seminorm, abs=1e-12)
    assert g1.sup_norm <= 2 * g.sup_norm + 1e-12


def test_indicator_all_one_cylinders(full2):
    psi = indicator_example(full2, [(1,), (2,)], pad=2, theta=0.5)
    assert set(psi.table.values()) == {1.0}
    assert psi.hoelder_seminorm == 0.0


def test_indicator_single_symbol(full2):
    psi = indicator_example(full2, [(1,)], pad=0, theta=0.5)
    assert psi.r == 1
    assert psi.table == {(1,): 1.0, (2,): 0.0}


def test_indicator_padded_cylinder(full2):
    psi = indicator_example(full2, [(1, 1)], pad=1, theta=0.5)
    assert psi.r == 3
    assert all(0.0 <= v <= 1.0 for v in psi.table.values())
    # value 1 on the target cylinder
    assert psi.table[(1, 1, 1)] == 1.0 and psi.table[(1, 1, 2)] == 1.0
    assert psi.hoelder_seminorm >= 2.0


def test_indicator_seminorm_grows_with_depth(full2):
    semis = []
    for depth in (3, 4, 5):
        psi = indicator_example(full2, [tuple([1] * depth)], pad=0, theta=0.5)
        semis.append(psi.hoelder_seminorm)
        assert psi.hoelder_seminorm == pytest.approx(0.5 ** (2 - depth), abs=1e-12)
    assert semis == sorted(semis)


@pytest.mark.parametrize("rows", [
    [[1, 1], [1, 1]],
    [[0, 1], [1, 1]],
    [[1, 1, 0], [0, 1, 1], [1, 1, 1]],
])
@pytest.mark.parametrize("targets", [
    [(1, 2), (2, 2, 2)],  # two targets of different lengths
    [(1, 2), (1, 2, 2)],  # one a prefix of the other
    [(2,)],  # one symbol
])
def test_indicator_values_match_the_word_loop_reference(rows, targets):
    """On the full 2-shift, the golden mean and a 3-symbol shift, at pads
    0-8, the indicator's values equal the word loop's bit for bit, and its
    norms those of a ``make_potential`` of that loop's table."""
    tm = validate_transitions(rows)
    for pad in range(9):
        psi = indicator_example(tm, targets, pad=pad, theta=0.5)
        want = reference_indicator_values(tm, targets, pad)
        assert psi.values.tobytes() == np.array(want).tobytes()
        built = make_potential(tm, psi.r, dict(zip(enumerate_words(tm, psi.r), want)), 0.5)
        assert (psi.sup_norm.hex(), psi.hoelder_seminorm.hex()) == (
            built.sup_norm.hex(), built.hoelder_seminorm.hex())


def test_derived_potentials_equal_their_make_potential_rebuilds(
    bernoulli_model, golden_model, random_model, full2
):
    """``affine_combine``, ``shift_nonnegative`` and ``normalize_potential``
    build their results from arrays on a graph they hold; a
    ``make_potential`` of each result's ``table`` view has the same value
    bits and the same norms."""
    derived = []
    for model in (bernoulli_model, golden_model, random_model):
        f, psi = model.f, model.psi
        for q in (-0.7, 0.7):
            # on the graph of the longer operand, the first on a tie
            derived.append(affine_combine(f, psi, q))
            assert derived[-1].graph is (psi if psi.r > f.r else f).graph
            derived.append(affine_combine(psi, f, q))
            assert derived[-1].graph is (f if f.r > psi.r else psi).graph
        combined = derived[-1]
        derived.append(shift_nonnegative(combined)[0])
        assert derived[-1].graph is combined.graph and derived[-1].min_value() == 0.0
        derived.append(shift_nonnegative(model.psi)[0])
        derived.append(normalize_potential(model.f))
    psi = indicator_example(full2, [(1, 1, 1)], pad=4, theta=0.5)
    derived.append(shift_nonnegative(affine_combine(psi, psi, -3.0))[0])
    for g in derived:
        again = make_potential(g.tm, g.r, g.table, g.theta)
        assert again.values.tobytes() == g.values.tobytes()
        assert (again.sup_norm.hex(), again.hoelder_seminorm.hex(), again.b.hex()) == (
            g.sup_norm.hex(), g.hoelder_seminorm.hex(), g.b.hex())


def test_indicator_rejects_inadmissible(golden):
    with pytest.raises(InadmissibleWord):
        indicator_example(golden, [(1, 1)], pad=0, theta=0.5)


@pytest.mark.parametrize("build, message", [
    (lambda tm: indicator_example(tm, [(1, 1)], pad=-1, theta=0.5), "pad must be >= 0"),
    (lambda tm: indicator_example(tm, [], pad=2, theta=0.5), "need at least one target"),
    (lambda tm: make_potential(tm, 0, {}, 0.5), "range must be >= 1"),
])
def test_potential_builders_refuse_bad_arguments(full2, build, message):
    with pytest.raises(InadmissibleWord, match=message):
        build(full2)
