import math
import time
from fractions import Fraction

import numpy as np
import pytest

from thermosft import (
    BadTheta,
    InadmissibleWord,
    MissingWord,
    ModelMismatch,
    WordTooShort,
    affine_combine,
    birkhoff_sum,
    cohomology_spread,
    enumerate_words,
    indicator_example,
    make_potential,
    shift_nonnegative,
    validate_transitions,
)
from thermosft import potentials
from thermosft.potentials import potential_graph, variations

from conftest import (
    brute_cycle_means,
    brute_variations,
    make_pot,
    random_aperiodic,
    random_potential,
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
        assert brute == pytest.approx(variations(tm, r, g.table), abs=0.0)
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


def _loop_karp(n, edges):
    """Karp's method as plain loops over (u, v, w) edges from state 0: the
    reference the walk table must match bit for bit.  Returns (cycle mean,
    Karp's value, cycle edge indices)."""
    d = [[math.inf] * n for _ in range(n + 1)]
    parent = [[-1] * n for _ in range(n + 1)]
    d[0][0] = 0.0
    for k in range(1, n + 1):
        for e, (u, v, w) in enumerate(edges):
            if d[k - 1][u] + w < d[k][v]:
                d[k][v] = d[k - 1][u] + w
                parent[k][v] = e
    value, end = math.inf, -1
    for v in range(n):
        if d[n][v] < math.inf:
            worst = max((d[n][v] - d[k][v]) / (n - k) for k in range(n) if d[k][v] < math.inf)
            if worst < value:
                value, end = worst, v
    walk = []
    for k in range(n, 0, -1):
        walk.append(parent[k][end])
        end = edges[walk[-1]][0]
    walk.reverse()
    states = [edges[e][0] for e in walk] + [edges[walk[-1]][1]]
    mean, cycle = math.inf, None
    for j in range(n + 1):
        for i in range(j):
            if states[i] == states[j]:
                m = sum(edges[e][2] for e in walk[i:j]) / (j - i)
                if m < mean:
                    mean, cycle = m, walk[i:j]
    return mean, value, cycle


def test_karp_walk_table_matches_loop_reference():
    rng = np.random.default_rng(41)
    for case in range(40):
        s0 = int(rng.integers(2, 5))
        r = int(rng.integers(1, 3)) if s0 == 4 else int(rng.integers(1, 4))
        tm = random_aperiodic(rng, s0)
        psi = random_potential(rng, tm, r, lattice=4 if case % 2 else None)
        words, _, edges = potential_graph(psi)
        src, dst, w = (np.array(col) for col in zip(*edges))
        for sign in (1.0, -1.0):
            mean, value, cycle = _loop_karp(len(words), [(u, v, sign * x) for u, v, x in edges])
            assert abs(mean - value) <= 1e-9 * (1.0 + abs(value))
            got_mean, got_cycle = potentials._karp_min_mean(len(words), src, dst, sign * w)
            assert got_mean.hex() == mean.hex()
            assert got_cycle.tolist() == cycle


def test_walk_back_over_in_edges_matches_all_edge_scan():
    """The walk back scans only the current state's in-edges and must take
    the same first attaining edge as a scan over every edge; lattice values
    make ties between attaining edges common."""
    rng = np.random.default_rng(43)
    for case in range(16):
        s0 = int(rng.integers(2, 5))
        tm = random_aperiodic(rng, s0)
        psi = random_potential(rng, tm, 2 if s0 == 4 else 3, lattice=4 if case % 2 else None)
        words, _, edges = potential_graph(psi)
        src, dst, w = (np.array(col) for col in zip(*edges))
        n = len(words)
        for source in (0, n - 1):
            d = potentials._walk_table(n, src, dst, w, source, n)
            for end in np.flatnonzero(np.isfinite(d[n])).tolist():
                want, v = [], end
                for k in range(n, 0, -1):
                    e = int(np.argmax((dst == v) & (d[k - 1, src] + w == d[k, v])))
                    want.append(e)
                    v = src[e]
                assert potentials._walk_back(d, src, dst, w, end).tolist() == want[::-1]


def test_spread_repair_path_on_large_coboundary(full2, monkeypatch):
    """psi = g(bc) - g(ab) + u(abc) with g near 1e8: the coboundary cancels
    around every cycle exactly, but not in floating point, so Karp's witness
    check fails and the closed-walk repair decides both endpoints."""
    rng = np.random.default_rng(0)
    g = {w: rng.uniform(-1e8, 1e8) for w in enumerate_words(full2, 2)}
    table = {w: g[w[1:]] - g[w[:2]] + rng.uniform(0.0, 1.0) for w in enumerate_words(full2, 3)}
    psi = make_potential(full2, 3, table, 0.5)
    repairs = []
    repair = potentials._closed_walk_min_mean

    def spy(*args):
        repairs.append(args)
        return repair(*args)

    monkeypatch.setattr(potentials, "_closed_walk_min_mean", spy)
    sp = cohomology_spread(psi)
    assert repairs
    words, _, edges = potential_graph(psi)
    exact = [(u, v, Fraction(w)) for u, v, w in edges]
    means = [total / length for total, length in simple_cycles(len(words), exact)]
    assert abs(sp.min_mean - float(min(means))) <= 1e-7
    assert abs(sp.max_mean - float(max(means))) <= 1e-7


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


def test_indicator_rejects_inadmissible(golden):
    with pytest.raises(InadmissibleWord):
        indicator_example(golden, [(1, 1)], pad=0, theta=0.5)
