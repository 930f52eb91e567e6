import math
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from thermosft import deviations
from thermosft.sft import StateGraph
from thermosft import (
    Infeasible,
    ValidationError,
    enumerate_words,
    equilibrium_measure,
    exact_window_mass,
    integrate,
    ldp_scan,
    make_potential,
    normalize_potential,
    rate_function,
    sample_paths,
    validate_transitions,
)

from conftest import (
    binomial_window_mass,
    brute_window_mass,
    dense,
    make_pot,
    random_aperiodic,
    random_potential,
)

JITTER = 1e-3 * math.sqrt(2)  # keeps window edges away from every small lattice


@pytest.fixture(scope="module")
def coin(full2):
    phi = normalize_potential(make_pot(full2, 1, {"1": 0.0, "2": 0.0}))
    psi = make_pot(full2, 1, {"1": 1.0, "2": 0.0})
    mu = equilibrium_measure(phi, k=1)
    return phi, psi, mu


def test_binomial_example(coin):
    _, psi, mu = coin
    wm = exact_window_mass(mu, psi, 10, 0.8, 0.1)
    assert wm.mass == 45 / 1024
    assert wm.method == "exact_dp" and wm.slack == 0.0
    assert wm.log_rate == pytest.approx(math.log(45 / 1024) / 10, abs=1e-14)
    assert wm.log_rate == pytest.approx(-0.3124809, abs=1e-6)


def test_full_and_empty_windows(coin):
    _, psi, mu = coin
    full = exact_window_mass(mu, psi, 7, 0.5, 0.7)
    assert full.mass == pytest.approx(1.0, abs=1e-12) and full.log_rate == 0.0
    empty = exact_window_mass(mu, psi, 1, 3.0, 0.5)
    assert empty.mass == 0.0 and empty.log_rate == -math.inf


def test_window_partition_sums_to_one(coin):
    _, psi, mu = coin
    n = 9
    edges = [-0.1 + JITTER + 0.2 * i for i in range(7)]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        center, half = (a + b) / 2, (b - a) / 2
        total += exact_window_mass(mu, psi, n, center, half).mass
    assert total == pytest.approx(1.0, abs=1e-9)


def test_delta_shrink_monotone(coin):
    _, psi, mu = coin
    masses = [
        exact_window_mass(mu, psi, 16, 0.8 + JITTER, d).mass for d in (0.2, 0.1, 0.05)
    ]
    assert masses[0] >= masses[1] >= masses[2]


def test_dp_matches_enumeration_on_seeded_models():
    rng = np.random.default_rng(61)
    for case in range(8):
        s0 = int(rng.integers(2, 4))
        tm = random_aperiodic(rng, s0)
        r = int(rng.integers(1, 4))
        psi = random_potential(rng, tm, r, lo=0.0, hi=1.0, lattice=64)
        f = random_potential(rng, tm, 1, lo=-0.5, hi=0.5)
        mu = equilibrium_measure(f, k=max(1, r - 1))
        n = int(rng.integers(6, 11 if s0 == 3 else 13))
        p = float(rng.uniform(0.2, 0.8)) + JITTER
        delta = float(rng.uniform(0.05, 0.2))
        wm = exact_window_mass(mu, psi, n, p, delta)
        assert wm.method == "exact_dp"
        brute = brute_window_mass(mu, psi, n, p, delta)
        assert wm.mass == pytest.approx(brute, abs=1e-12)


def test_dp_matches_enumeration_at_depth_fourteen(coin, full2):
    _, _, mu = coin
    rng = np.random.default_rng(73)
    psi = random_potential(rng, full2, 2, lo=0.0, hi=1.0, lattice=64)
    p = 0.6 + JITTER
    wm = exact_window_mass(mu, psi, 14, p, 0.1)
    assert wm.method == "exact_dp"
    assert wm.mass == pytest.approx(brute_window_mass(mu, psi, 14, p, 0.1), abs=1e-12)


def test_binned_fallback_brackets_truth(coin, full2):
    rng = np.random.default_rng(67)
    # irrational-looking values defeat the lattice reconstruction
    table = {w: float(rng.uniform(0, 1)) for w in
             [(1, 1), (1, 2), (2, 1), (2, 2)]}
    psi = make_potential(full2, 2, table, 0.5)
    _, _, mu = coin
    n, p, delta = 9, 0.5 + JITTER, 0.15
    wm = exact_window_mass(mu, psi, n, p, delta)
    assert wm.method == "binned_dp"
    truth = brute_window_mass(mu, psi, n, p, delta)
    assert wm.mass - 1e-12 <= truth <= wm.mass + wm.slack + 1e-12


def test_memory_budget_is_enforced(coin, full2):
    _, _, mu = coin
    rng = np.random.default_rng(71)
    table = {w: float(rng.uniform(0, 1)) for w in [(1,), (2,)]}
    psi = make_potential(full2, 1, table, 0.5)
    with pytest.raises(Infeasible):
        exact_window_mass(mu, psi, 40, 0.5, 1e-9)


def test_scan_reference_and_trend(coin):
    phi, psi, mu = coin

    def rate_fn(level):
        return rate_function(phi, psi, level)

    scan = ldp_scan(mu, psi, rate_fn, [8, 12, 16, 20, 24], 0.8, 0.05)
    ref_expected = -(math.log(2) + 0.75 * math.log(0.75) + 0.25 * math.log(0.25))
    assert scan.reference == pytest.approx(ref_expected, abs=1e-8)
    assert scan.increasing_from(12)
    assert abs(scan.entries[-1].log_rate - scan.reference) < 0.12


def test_scan_at_typical_mean(coin):
    phi, psi, mu = coin

    def rate_fn(level):
        return rate_function(phi, psi, level)

    scan = ldp_scan(mu, psi, rate_fn, [24], 0.5, 0.1)
    assert scan.reference == 0.0 and math.copysign(1.0, scan.reference) == 1.0
    assert scan.entries[0].log_rate > -0.05


def test_monte_carlo_is_deterministic(coin):
    _, psi, mu = coin
    a = sample_paths(mu, psi, 10, 50000, 42, 0.8, 0.1)
    b = sample_paths(mu, psi, 10, 50000, 42, 0.8, 0.1)
    assert a.mass == b.mass and a.slack == b.slack
    assert a.method == "monte_carlo"


def test_monte_carlo_single_trial(coin):
    _, psi, mu = coin
    wm = sample_paths(mu, psi, 5, 1, 7, 0.5, 0.3)
    assert wm.mass in (0.0, 1.0)


def test_monte_carlo_tracks_exact_mass(coin):
    _, psi, mu = coin
    exact = binomial_window_mass(10, 0.7, 0.9)
    assert exact == 45 / 1024
    failures = 0
    for seed in range(100):
        wm = sample_paths(mu, psi, 10, 20000, seed, 0.8, 0.1)
        if abs(wm.mass - exact) > 4 * wm.slack:
            failures += 1
    assert failures <= 1


def test_monte_carlo_off_lattice_tracks_exact_mass(coin, full2):
    # values with no common lattice: the window is decided on float averages
    _, _, mu = coin
    psi = make_pot(full2, 2, {"11": 0.0, "12": 1 / math.pi, "21": math.sqrt(2) / 3, "22": 1.0})
    exact = brute_window_mass(mu, psi, 8, 0.45, 0.1)
    trials = 20000
    wm = sample_paths(mu, psi, 8, trials, 3, 0.45, 0.1)
    assert abs(wm.mass - exact) <= 5 * math.sqrt(exact * (1 - exact) / trials)
    assert sample_paths(mu, psi, 8, trials, 3, 0.45, 0.1) == wm


def test_monte_carlo_respects_golden_structure(golden):
    phi = normalize_potential(make_pot(golden, 1, {"1": 0.0, "2": 0.0}))
    psi = make_pot(golden, 1, {"1": 1.0, "2": 0.0})
    mu = equilibrium_measure(phi, k=1)
    # averages can never exceed 1/2 on this graph (no adjacent 1s)
    wm = sample_paths(mu, psi, 12, 20000, 3, 0.75, 0.2)
    assert wm.mass == 0.0
    dp = exact_window_mass(mu, psi, 12, 0.75, 0.2)
    assert dp.mass == 0.0


def test_monte_carlo_decides_lattice_window_exactly(bernoulli_model):
    phi = normalize_potential(bernoulli_model.f)
    psi = bernoulli_model.psi
    mu = equilibrium_measure(phi, k=1)
    # 0.3 - 0.1 is 0.19999999999999998 in floats: a float test would admit
    # the atom 2/10 that the open window (1/5, 2/5) excludes
    exact = exact_window_mass(mu, psi, 10, 0.3, 0.1).mass
    assert exact == pytest.approx(120 / 1024, abs=1e-15)
    trials = 20000
    wm = sample_paths(mu, psi, 10, trials, 5, 0.3, 0.1)
    assert abs(wm.mass - exact) <= 5 * math.sqrt(exact * (1 - exact) / trials)


def test_monte_carlo_zero_hits_keep_positive_slack(bernoulli_model):
    phi = normalize_potential(bernoulli_model.f)
    psi = bernoulli_model.psi
    mu = equilibrium_measure(phi, k=1)
    trials = 50000
    wm = sample_paths(mu, psi, 200, trials, 11, 0.95, 0.02)
    assert wm.mass == 0.0 and wm.log_rate == -math.inf
    # at zero hits the Wilson interval is [0, z^2 / (trials + z^2)]
    assert wm.slack > 0.0
    assert wm.slack == pytest.approx(0.5 * 1.96**2 / (trials + 1.96**2), rel=1e-12)


def test_monte_carlo_never_leaves_the_graph(monkeypatch):
    # golden mean without 2 -> 2: power iteration leaves the only edge out of
    # symbol 2 with probability 0.9999999999999304, below the largest draw
    tm = validate_transitions([[1, 1], [1, 0]])
    f = make_pot(tm, 1, {"1": 0.21327155153435973, "2": 0.4589931219679968})
    psi = make_pot(tm, 1, {"1": 1.0, "2": 0.0})
    mu = equilibrium_measure(f, k=1)
    top = 1.0 - 2.0**-53
    assert dense(mu.chain)[1, 0] < top

    class TopDraws:
        def random(self, size):
            return np.full(size, top)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: TopDraws())
    # every path alternates 2, 1, 2, ...: half of its steps read symbol 1
    wm = sample_paths(mu, psi, 10, 4, 0, 0.5, 0.05)
    assert wm.mass == 1.0


def test_window_masses_build_no_dense_chain(coin, full2):
    """An observable of range 12 on a chain of 10-word states forces a
    refinement to 11-word states.  Refining on the edge
    arrays keeps the traced peak well below one dense view of the coarse
    chain (8 MB at 1024 states)."""
    phi, _, _ = coin
    mu = equilibrium_measure(phi, k=10)
    words = enumerate_words(full2, 12)
    psi = make_potential(full2, 12, {w: float(w.count(1) % 3 == 0) for w in words}, 0.5)
    tracemalloc.start()
    try:
        exact_window_mass(mu, psi, 12, 0.5, 0.1)
        sample_paths(mu, psi, 12, 100, 0, 0.5, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(mu._refined) == [11]
    assert peak < mu.chain.size**2 * 8 / 2
    for chain in (mu.chain, mu._refined[11].chain):
        assert not hasattr(chain, "weights")


def test_binned_read_out_past_int64(coin, full2):
    """Bins of delta/100 = 4e-12 on values near 1e6*pi put the integer totals
    n*offset + key past int64 at n = 15.  Each key's average must still be
    its own total rounded once, as a Python int gives it; the window at the
    mean then holds mass.  At n = 8 the totals fit and the bits are those of
    the int64 read-out."""
    _, _, mu = coin
    base = 1e6 * math.pi
    values = [base + u * math.ulp(base) for u in (0, 3, 7, 10)]
    psi = make_potential(full2, 2, dict(zip(enumerate_words(full2, 2), values)), 0.5)
    p, delta = integrate(mu, psi), 4e-10
    fine, edge_values, _ = deviations._edge_data(mu, psi)
    width = delta / deviations.BINS_PER_DELTA
    quant = [round(v / width) for v in edge_values]
    offset = min(quant)
    steps = [q - offset for q in quant]
    top = max(steps)
    assert 15 * offset > np.iinfo(np.int64).max > 8 * (offset + top)
    left, right, half = p - delta, p + delta, width / 2
    found = {}
    for n in (8, 15):
        wm = exact_window_mass(mu, psi, n, p, delta)
        assert wm.method == "binned_dp"
        _, row = next(deviations._dp_masses(fine, steps, {n: (0, n * top + 1)}))
        mass = slack = 0.0
        for key, m in enumerate(row.tolist()):
            avg = float(n * offset + key) * width / n
            if left + half < avg < right - half:
                mass += m
            elif left - half <= avg <= left + half or right - half <= avg <= right + half:
                slack += m
        assert (wm.mass, wm.slack) == (mass, slack)
        found[n] = wm
    assert (found[8].mass, found[8].slack) == (0.21484375, 0.45703125)
    assert found[15].mass == pytest.approx(0.286, abs=1e-3)
    assert found[15].slack == pytest.approx(0.521, abs=1e-3)


def test_scan_splits_horizons_at_the_memory_budget(random_model, monkeypatch):
    phi = normalize_potential(random_model.f)
    psi = random_model.psi
    mu = equilibrium_measure(phi, k=max(1, phi.r - 1))
    n_list, p, delta = [16, 8, 24, 12, 8], 0.55, 0.05
    # the lattice table fits up to n=8; bins of delta/100 are coarser than
    # the 1e-4 value lattice, so every binned table up to n=24 fits
    fine, _, lattice = deviations._edge_data(mu, psi)
    top = max(lattice[0])
    monkeypatch.setattr(deviations, "DP_BUDGET_BYTES", fine.chain.size * 8 * (8 * top + 1))
    singles = [exact_window_mass(mu, psi, n, p, delta) for n in n_list]
    assert [wm.method for wm in singles] == [
        "binned_dp", "exact_dp", "binned_dp", "binned_dp", "exact_dp"
    ]

    passes = []
    dp_masses = deviations._dp_masses

    def spy(mu, steps, horizons):
        passes.append(sorted(horizons))
        return dp_masses(mu, steps, horizons)

    monkeypatch.setattr(deviations, "_dp_masses", spy)
    scan = ldp_scan(mu, psi, lambda level: rate_function(phi, psi, level), n_list, p, delta)
    assert passes == [[8], [12, 16, 24]]
    assert [(e.n, e.method, e.mass.hex(), e.slack.hex()) for e in scan.entries] == [
        (wm.n, wm.method, wm.mass.hex(), wm.slack.hex()) for wm in singles
    ]

    passes.clear()
    monkeypatch.undo()
    monkeypatch.setattr(deviations, "_dp_masses", spy)
    ldp_scan(mu, psi, lambda level: rate_function(phi, psi, level), n_list, p, delta)
    assert passes == [[8, 12, 16, 24]]


def _full_width_dp(mu, steps, horizons):
    """Reference: the window-mass DP updating every key at every step."""
    chain = mu.chain
    n_keys = max(horizons) * max(steps) + 1
    graph = chain.graph
    edges = list(zip(graph.src.tolist(), graph.dst.tolist(), steps, chain.edge_weights.tolist()))
    cur = np.zeros((chain.size, n_keys))
    cur[:, 0] = mu.pi
    out = {}
    for t in range(1, max(horizons) + 1):
        nxt = np.zeros((chain.size, n_keys))
        for u, v, step, p_uv in edges:
            nxt[v, step:] += p_uv * cur[u, : n_keys - step]
        cur = nxt
        if t in horizons:
            out[t] = cur.sum(axis=0)[: t * max(steps) + 1]
    return out


def _whole_rows(horizons, steps):
    """Read-out windows covering every key a horizon can reach."""
    return {n: (0, n * max(steps) + 1) for n in horizons}


def _edge_by_edge_lattice(values):
    """Reference: the value lattice with one fit per edge value."""
    fracs = []
    for v in values:
        fr = Fraction(v).limit_denominator(deviations.LATTICE_MAX_DEN)
        if abs(v - float(fr)) > 1e-12 * max(1.0, abs(v)):
            return None
        fracs.append(fr)
    den = math.lcm(*(fr.denominator for fr in fracs))
    if den > 10**9:
        return None
    ints = [fr.numerator * (den // fr.denominator) for fr in fracs]
    offset = min(ints)
    g = math.gcd(*(i - offset for i in ints)) or 1
    return [(i - offset) // g for i in ints], g, offset, den


def test_lattice_fit_per_distinct_value_matches_fit_per_edge():
    rng = np.random.default_rng(109)
    cases = [[0.0, -0.0, 0.25, 0.25, 1.0], [0.3] * 7, [1 / 3, 2 / 3, -1.5, 1 / 3],
             [0.1, 0.1 + 1e-7], [1e-7, 3e-7], [0.5, math.pi]]
    for lattice in (4, 10, 64, 1000):
        cases.append([round(v * lattice) / lattice for v in rng.uniform(-2, 2, 40)])
    cases.append(list(rng.uniform(0, 1, 40)))
    fits = [deviations._lattice_steps(values) for values in cases]
    assert fits == [_edge_by_edge_lattice(values) for values in cases]
    assert None in fits and fits.count(None) < len(fits)


def test_dp_on_reachable_keys_matches_full_width_update():
    rng = np.random.default_rng(61)
    for lattice in (4, 10, 4, 10, 64, 64):
        tm = random_aperiodic(rng, int(rng.integers(2, 4)))
        phi = normalize_potential(random_potential(rng, tm, int(rng.integers(1, 3))))
        psi = random_potential(rng, tm, int(rng.integers(1, 4)), lo=0.0, hi=1.0, lattice=lattice)
        mu, _, lattice = deviations._edge_data(equilibrium_measure(phi, k=max(1, phi.r - 1)), psi)
        steps = lattice[0]
        horizons = {1, 3, 7, 12}
        want = _full_width_dp(mu, steps, horizons)
        for n, masses in deviations._dp_masses(mu, steps, _whole_rows(horizons, steps)):
            assert [m.hex() for m in masses.tolist()] == [m.hex() for m in want[n].tolist()]


def _binned_steps(values, delta):
    """Bin steps and offset as the quantised fallback derives them."""
    width = delta / deviations.BINS_PER_DELTA
    quant = [round(v / width) for v in values]
    return [q - min(quant) for q in quant], min(quant), width


@pytest.mark.parametrize("block_bytes", [None, 40, 400], ids=["default", "one-key", "few-keys"])
def test_rank_layer_dp_matches_edge_loop(golden, monkeypatch, block_bytes):
    if block_bytes is not None:
        # blocks of 1 to 25 keys split every row, the first at the left padding
        monkeypatch.setattr(deviations, "_GATHER_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(83)
    full3 = validate_transitions(np.ones((3, 3), dtype=int))
    fillers = 0
    # the golden mean and seeded aperiodic graphs have unequal in-degrees;
    # psi of range 4 refines the full 3-shift to 27 word states
    for tm, lattice in [(golden, 4), (golden, None), (full3, 4)] + [
        (random_aperiodic(rng, int(rng.integers(2, 4))), lat) for lat in (4, 10, 64, None, None)
    ]:
        phi = normalize_potential(random_potential(rng, tm, int(rng.integers(1, 3))))
        r = 4 if tm is full3 else int(rng.integers(2, 4))
        psi = random_potential(rng, tm, r, lo=0.0, hi=1.0, lattice=lattice)
        mu, values, on_lattice = deviations._edge_data(
            equilibrium_measure(phi, k=max(1, phi.r - 1)), psi
        )
        assert (on_lattice is not None) == bool(lattice)
        steps = on_lattice[0] if lattice else _binned_steps(values, 0.2)[0]
        fillers += int((deviations._rank_layers(mu.chain, steps)[2] == 0.0).sum())
        horizons = {1, 2, 5, 9}
        want = _full_width_dp(mu, steps, horizons)
        # each row is read before the generator resumes
        for n, masses in deviations._dp_masses(mu, steps, _whole_rows(horizons, steps)):
            assert [m.hex() for m in masses.tolist()] == [m.hex() for m in want[n].tolist()]
    assert fillers > 0


def _loop_window_masses(mu, psi, n, p, delta):
    """Reference read-outs: Python loops over the keys of the per-edge DP."""
    fine, values, lattice = deviations._edge_data(mu, psi)
    if lattice is not None:
        masses = _full_width_dp(fine, lattice[0], {n})[n]
        lo, hi = deviations._window_keys(n, p, delta, lattice)
        mass = 0.0
        for key in range(lo + 1, hi):
            mass += float(masses[key])
        return mass, 0.0
    steps, offset, width = _binned_steps(values, delta)
    masses = _full_width_dp(fine, steps, {n})[n]
    left, right, half = p - delta, p + delta, width / 2.0
    mass = slack = 0.0
    for key in range(len(masses)):
        m = float(masses[key])
        if m == 0.0:
            continue
        avg = (key + n * offset) * width / n
        if left + half < avg < right - half:
            mass += m
        elif left - half <= avg <= left + half or right - half <= avg <= right + half:
            slack += m
    return mass, slack


def test_window_readouts_match_python_loops():
    rng = np.random.default_rng(89)
    methods = set()
    for lattice in (4, 10, 64, None, None):
        tm = random_aperiodic(rng, int(rng.integers(2, 4)))
        phi = normalize_potential(random_potential(rng, tm, int(rng.integers(1, 3))))
        psi = random_potential(rng, tm, int(rng.integers(1, 4)), lo=0.0, hi=1.0, lattice=lattice)
        mu = equilibrium_measure(phi, k=max(1, phi.r - 1))
        # windows inside, across either end, and wholly outside the values
        for p, delta in [(0.5 + JITTER, 0.1), (0.1, 0.15), (0.95, 0.2), (3.0, 0.5), (-0.3, 0.2)]:
            for n in (1, 6, 11):
                wm = exact_window_mass(mu, psi, n, p, delta)
                methods.add(wm.method)
                mass, slack = _loop_window_masses(mu, psi, n, p, delta)
                assert (wm.mass.hex(), wm.slack.hex()) == (mass.hex(), slack.hex())
    assert methods == {"exact_dp", "binned_dp"}


#: windows inside the values, across either end, over the whole support,
#: above and below it, and (on the 1/4 lattice at n = 1) between two atoms
BAND_WINDOWS = [(0.5 + JITTER, 0.1), (0.1, 0.15), (0.95, 0.2), (0.5, 2.0), (3.0, 0.5),
                (-0.3, 0.2), (0.125, 0.1)]


def _band_models(rng):
    """Seeded models for the band tests: aperiodic graphs on the 1/4, 1/10
    and 1/64 lattices and off any lattice, plus the full 3-shift with psi of
    range 4 (27 word states, 3 in-edges each)."""
    full3 = validate_transitions(np.ones((3, 3), dtype=int))
    shapes = [(random_aperiodic(rng, int(rng.integers(2, 4))), lat) for lat in (4, 10, 64, None, None)]
    for tm, lattice in shapes + [(full3, 4)]:
        phi = normalize_potential(random_potential(rng, tm, int(rng.integers(1, 3))))
        r = 4 if tm is full3 else int(rng.integers(1, 4))
        psi = random_potential(rng, tm, r, lo=0.0, hi=1.0, lattice=lattice)
        yield equilibrium_measure(phi, k=max(1, phi.r - 1)), psi


@pytest.mark.parametrize("block_bytes", [None, 400], ids=["default", "few-keys"])
def test_window_band_matches_full_width_dp(monkeypatch, block_bytes):
    if block_bytes is not None:
        # blocks of one to six keys, so most start inside a band
        monkeypatch.setattr(deviations, "_GATHER_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(101)
    methods, empty, slack = set(), 0, 0
    for mu, psi in _band_models(rng):
        lattice = deviations._edge_data(mu, psi)[2]
        for p, delta in BAND_WINDOWS:
            for n in (1, 2, 6, 11):
                wm = exact_window_mass(mu, psi, n, p, delta)
                mass, want_slack = _loop_window_masses(mu, psi, n, p, delta)
                assert (wm.mass.hex(), wm.slack.hex()) == (mass.hex(), want_slack.hex())
                methods.add(wm.method)
                slack += wm.slack > 0.0
                if lattice is not None:
                    lo, hi = deviations._window_keys(n, p, delta, lattice)
                    empty += hi <= lo + 1
    assert methods == {"exact_dp", "binned_dp"}
    assert empty > 0 and slack > 0


def test_scan_band_over_unsorted_repeated_horizons(monkeypatch):
    # blocks of one to six keys as well as the default, on both methods
    rng = np.random.default_rng(103)
    n_list = [11, 3, 7, 3, 1, 11, 6]
    for block_bytes in (None, 400):
        if block_bytes is not None:
            monkeypatch.setattr(deviations, "_GATHER_BLOCK_BYTES", block_bytes)
        for mu, psi in _band_models(rng):
            for p, delta in BAND_WINDOWS[:4]:
                # the entries do not depend on the reference rate
                scan = ldp_scan(mu, psi, lambda level: SimpleNamespace(value=0.0), n_list, p, delta)
                assert [e.n for e in scan.entries] == n_list
                for e in scan.entries:
                    mass, slack = _loop_window_masses(mu, psi, e.n, p, delta)
                    assert (e.mass.hex(), e.slack.hex()) == (mass.hex(), slack.hex())


def _scan_shaped_model(seed):
    """The shape of the benchmark's deviation-scan model: full 3-shift, f of
    range 3 in [-0.5, 0.5], psi of range 4 on the 1/4 lattice of [0, 1] with
    0, 1/4 and 1 present; the window is (mean + 0.1) +- 0.05."""
    rng = np.random.default_rng(seed)
    full3 = validate_transitions(np.ones((3, 3), dtype=int))
    f = random_potential(rng, full3, 3, lo=-0.5, hi=0.5)
    table = {w: int(rng.integers(0, 5)) / 4.0 for w in enumerate_words(full3, 4)}
    for w, v in zip(sorted(table)[:3], (0.0, 0.25, 1.0)):
        table[w] = v
    psi = make_potential(full3, 4, table, 0.5)
    mu = equilibrium_measure(normalize_potential(f), k=2)
    return mu, psi, round(integrate(mu, psi) + 0.1, 2), 0.05


def test_dp_updates_only_the_band(monkeypatch):
    """At n = 300 on the deviation-scan shape the DP updates at most 60% of
    the (state, key) cells of the reachable triangle, which a full-width
    pass updates; a window above the support updates none."""
    mu, psi, p, delta = _scan_shaped_model(107)
    size = deviations._edge_data(mu, psi)[0].chain.size
    cells = []
    key_bands = deviations._key_bands

    def spy(windows, top):
        bands = key_bands(windows, top)
        cells.append((size * sum(max(0, hi - lo + 1) for lo, hi in bands),
                      size * sum(t * top + 1 for t in range(1, len(bands) + 1))))
        return bands

    monkeypatch.setattr(deviations, "_key_bands", spy)
    n = 300
    wm = exact_window_mass(mu, psi, n, p, delta)
    assert wm.method == "exact_dp" and wm.mass > 0.0
    assert wm.mass.hex() == _loop_window_masses(mu, psi, n, p, delta)[0].hex()
    (band, triangle), = cells
    assert band <= 0.6 * triangle

    cells.clear()
    assert exact_window_mass(mu, psi, n, 1.5, delta).mass == 0.0
    assert cells[0][0] == 0


@pytest.mark.parametrize("block_bytes", [None, 1500], ids=["default", "few-keys"])
def test_every_block_of_a_pass_has_one_width(monkeypatch, block_bytes):
    """The block schedule of each pass: one width, split evenly from the
    widest band into the fewest blocks within the gather budget, except for
    a band narrower than that; the blocks cover every band and no key
    outside it; only a step's last block overlaps the one before."""
    if block_bytes is not None:
        monkeypatch.setattr(deviations, "_GATHER_BLOCK_BYTES", block_bytes)
    mu, psi, p, delta = _scan_shaped_model(107)
    fine = deviations._edge_data(mu, psi)[0]
    keys = deviations._GATHER_BLOCK_BYTES // (8 * fine.chain.size * 3)
    passes = []
    key_blocks = deviations._key_blocks

    def spy(bands, cap):
        block, blocks = key_blocks(bands, cap)
        passes.append((bands, cap, block, blocks))
        return block, blocks

    monkeypatch.setattr(deviations, "_key_blocks", spy)
    # a lone banded pass, resumed full-width passes, and a scan
    for n in (300, 310, 320, 400):
        exact_window_mass(mu, psi, n, p, delta)
    ldp_scan(mu, psi, lambda level: SimpleNamespace(value=0.0), [150, 50], p, delta)
    assert len(passes) == 5
    overlaps = 0
    for bands, cap, block, blocks in passes:
        assert cap == keys and len(blocks) == len(bands)
        widest = max(hi - lo + 1 for lo, hi in bands)
        assert block <= keys and -(-widest // block) == -(-widest // keys)
        for (lo, hi), step in zip(bands, blocks):
            if lo > hi:
                assert step == []
                continue
            if hi - lo + 1 <= block:
                assert step == [(lo, hi + 1)]
                continue
            assert all(k1 - k0 == block for k0, k1 in step)
            assert step[0][0] == lo and step[-1][1] == hi + 1
            # each block starts where the one before ends, but the last
            assert all(a[1] == b[0] for a, b in zip(step[:-2], step[1:-1]))
            assert step[-2][0] < step[-1][0] <= step[-2][1]
            overlaps += step[-1][0] < step[-2][1]
    assert overlaps > 0
    if block_bytes is None:
        # the benchmark's shape: the resumed passes to n = 310 and 320 split
        # 1,241 and 1,281 keys into 4 blocks of at most 404
        assert [block for *_, block, _ in passes[1:3]] == [311, 321]


def _wm_bits(wm):
    return wm.n, wm.method, wm.mass.hex(), wm.slack.hex(), wm.log_rate.hex()


def _kept_dp(mu, psi):
    """The window DP kept on the refined measure that mu's calls on psi run on."""
    return deviations._edge_data(mu, psi)[0]._observed[deviations._KEPT_DP]


def _kept_models():
    """(phi, psi on the 1/4 lattice, psi's twin: the same values in another
    object, an observable on the 1/10 lattice, one off every lattice) on the
    full 3-shift; every observable has range 3, so all run on one refined
    measure of 9 word states."""
    rng = np.random.default_rng(113)
    full3 = validate_transitions(np.ones((3, 3), dtype=int))
    phi = normalize_potential(random_potential(rng, full3, 2, lo=-0.5, hi=0.5))
    table = {w: int(rng.integers(0, 5)) / 4.0 for w in enumerate_words(full3, 3)}
    psi = make_potential(full3, 3, table, 0.5)
    twin = make_potential(full3, 3, dict(table), 0.5)
    other = random_potential(rng, full3, 3, lo=0.0, hi=1.0, lattice=10)
    off = random_potential(rng, full3, 3, lo=0.0, hi=1.0)
    return phi, psi, twin, other, off


@pytest.mark.parametrize("block_bytes", [None, 1500], ids=["default", "few-keys"])
def test_kept_dp_matches_lone_calls_in_any_order(monkeypatch, block_bytes):
    if block_bytes is not None:
        # blocks of at most six keys on the 9 states and 3 layers: a resumed
        # pass takes several per step, and most steps slide the last left
        monkeypatch.setattr(deviations, "_GATHER_BLOCK_BYTES", block_bytes)
    phi, psi, twin, other, off = _kept_models()
    p, d = 0.5 + JITTER, 0.1
    up = (1, 3, 6, 11, 20)
    orders = {
        "ascending": [(psi, n, p, d) for n in up],
        "descending": [(psi, n, p, d) for n in reversed(up)],
        "repeated": [(psi, n, p, d) for n in (6, 6, 11, 11, 3, 3, 20, 20)],
        # (3.0, 0.5) lies above every value, so it holds no key
        "windows": [(psi, n, q, dq) for n, q, dq in zip(up, (0.3, 3.0, 0.9, 0.5, 0.5),
                                                         (0.1, 0.5, 0.05, 0.1, 0.2))],
        # the twin continues psi's DP; the other observable replaces it
        "observables": [(obs, n, p, d) for obs, n in zip((psi, twin, other, psi, twin, psi),
                                                          (1, 3, 3, 6, 11, 20))],
        "deltas": [(off, n, p, 0.1) for n in up[:3]] + [(off, 8, p, 0.15)]
        + [(off, n, p, 0.1) for n in up[3:]] + [(off, 25, p, 0.15)],
        "scan": [(psi, n, p, d) for n in up[:3]] + ["scan"] + [(psi, n, p, d) for n in up[3:]],
    }
    methods = set()
    for name, calls in orders.items():
        mu = equilibrium_measure(phi, k=2)
        for call in calls:
            if call == "scan":
                # an ldp_scan on both methods, then on psi's lattice alone
                ldp_scan(mu, off, lambda level: SimpleNamespace(value=0.0), [4, 9], p, d)
                ldp_scan(mu, psi, lambda level: SimpleNamespace(value=0.0), [9, 4], p, d)
                continue
            obs, n, q, dq = call
            wm = exact_window_mass(mu, obs, n, q, dq)
            lone = exact_window_mass(equilibrium_measure(phi, k=2), obs, n, q, dq)
            assert _wm_bits(wm) == _wm_bits(lone), (name, n)
            methods.add(wm.method)
        if name in ("ascending", "windows", "observables", "scan"):
            # each ended on a resumed full-width pass, which kept its table
            assert _kept_dp(mu, psi).start[0] == 20, name
    assert methods == {"exact_dp", "binned_dp"}


def test_lone_window_call_keeps_no_table(monkeypatch):
    phi, psi, *_ = _kept_models()
    passes = []
    dp_masses = deviations._dp_masses

    def spy(mu, steps, windows, kept=None):
        passes.append(kept is not None)
        return dp_masses(mu, steps, windows, kept)

    monkeypatch.setattr(deviations, "_dp_masses", spy)
    mu = equilibrium_measure(phi, k=2)
    exact_window_mass(mu, psi, 20, 0.5, 0.1)
    kept = _kept_dp(mu, psi)
    assert passes == [False] and (kept.h, kept.start, kept.layers) == (20, None, None)
    exact_window_mass(mu, psi, 30, 0.5, 0.1)
    t, table = kept.start
    top = max(deviations._edge_data(mu, psi)[2][0])
    assert passes == [False, True] and t == kept.h == 30
    assert table.shape == (9, top + 30 * top + 1)


def test_shorter_window_call_drops_the_kept_table():
    phi, psi, _, other, _ = _kept_models()
    mu = equilibrium_measure(phi, k=2)
    for n in (10, 20):
        exact_window_mass(mu, psi, n, 0.5, 0.1)
    kept = _kept_dp(mu, psi)
    assert kept.start[0] == 20
    exact_window_mass(mu, psi, 20, 0.5, 0.1)
    assert (kept.h, kept.start) == (20, None)
    # a scan drops it too, and keeps its longest horizon
    exact_window_mass(mu, psi, 30, 0.5, 0.1)
    assert kept.start[0] == 30
    ldp_scan(mu, psi, lambda level: SimpleNamespace(value=0.0), [40, 5], 0.5, 0.1)
    assert (kept.h, kept.start) == (40, None)
    # so does a longer call whose window holds no key, which runs banded
    exact_window_mass(mu, psi, 50, 0.5, 0.1)
    assert kept.start[0] == 50
    exact_window_mass(mu, psi, 55, 3.0, 0.5)
    assert (kept.h, kept.start) == (55, None)
    # a call on other steps replaces the kept DP
    exact_window_mass(mu, psi, 60, 0.5, 0.1)
    assert kept.start[0] == 60
    exact_window_mass(mu, other, 70, 0.5, 0.1)
    assert _kept_dp(mu, psi) is not kept and _kept_dp(mu, psi).start is None


def test_kept_table_stays_under_its_size_cap(monkeypatch):
    phi, psi, *_ = _kept_models()
    mu = equilibrium_measure(phi, k=2)
    fine, _, lattice = deviations._edge_data(mu, psi)
    top = max(lattice[0])
    # a table of horizon 11 fits exactly; 12 is one key column over
    monkeypatch.setattr(deviations, "KEPT_TABLE_BYTES", 8 * fine.chain.size * (top + 11 * top + 1))
    kept_at = []
    for n in (1, 3, 11, 12, 20):
        wm = exact_window_mass(mu, psi, n, 0.5 + JITTER, 0.1)
        lone = exact_window_mass(equilibrium_measure(phi, k=2), psi, n, 0.5 + JITTER, 0.1)
        assert _wm_bits(wm) == _wm_bits(lone)
        kept = _kept_dp(mu, psi)
        assert kept.h == n
        kept_at.append(None if kept.start is None else kept.start[1].nbytes)
    cap = deviations.KEPT_TABLE_BYTES
    assert kept_at[0] is None and kept_at[2] == cap and kept_at[3:] == [None, None]
    assert all(b is None or b <= cap for b in kept_at)


def test_window_dp_holds_one_table_cut_at_its_last_key(random_model, monkeypatch):
    """A lone call on random_range3 at n = 24 (1e-4 lattice, 4 states) holds
    one (states x keys) table, its keys cut at the last key the window
    reads (131,880 of 182,473): the traced peak stays below 1.5 tables,
    where two full-width tables come to 2.9.  A resumed call runs at full
    width and keeps that table."""
    phi = normalize_potential(random_model.f)
    psi = random_model.psi
    mu = equilibrium_measure(phi, k=max(1, phi.r - 1))
    fine, _, lattice = deviations._edge_data(mu, psi)
    size, top, p, delta = fine.chain.size, max(lattice[0]), 0.55, 0.05
    rows = []
    dp_masses = deviations._dp_masses

    def spy(mu, steps, windows, kept=None):
        for n, row in dp_masses(mu, steps, windows, kept):
            rows.append((n, len(row)))
            yield n, row

    monkeypatch.setattr(deviations, "_dp_masses", spy)
    lo, hi = deviations._window_keys(24, p, delta, lattice)
    assert hi < 24 * top
    tracemalloc.start()
    try:
        lone = exact_window_mass(mu, psi, 24, p, delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lone.method == "exact_dp" and lone.mass > 0.0
    assert rows == [(24, hi)]
    assert peak < 1.5 * size * (top + hi) * 8
    exact_window_mass(mu, psi, 28, p, delta)
    assert rows[1:] == [(28, 28 * top + 1)]
    assert _kept_dp(mu, psi).start[1].shape == (size, top + 28 * top + 1)


def test_window_of_key_zero_alone_reads_out_as_at_full_width():
    """A window holding key 0 alone cuts the table at two keys, not one:
    numpy sums a one-key row over 8 or more states pairwise, not in state
    order as a wider row, and the bits would differ."""
    rng = np.random.default_rng(5)
    for s0, r in ((2, 4), (2, 5), (3, 3)):
        tm = validate_transitions(np.ones((s0, s0), dtype=int))
        words = enumerate_words(tm, r)
        # 0 on every word but one: most of the 8 to 16 states hold key 0
        psi = make_potential(tm, r, {w: float(w == words[-1]) for w in words}, 0.5)
        for _ in range(3):
            phi = normalize_potential(random_potential(rng, tm, 2))
            mu = equilibrium_measure(phi, k=max(1, phi.r - 1))
            for n in (3, 7, 12):
                wm = exact_window_mass(mu, psi, n, 0.0, 0.01)
                assert wm.method == "exact_dp" and wm.mass > 0.0
                mass, _ = _loop_window_masses(mu, psi, n, 0.0, 0.01)
                assert wm.mass.hex() == mass.hex()


def _two_d_walk(mu, steps, n, trials, seed):
    """Reference: the sampler comparing each draw with its state's whole
    row of cumulative probabilities in one (trials x width) array."""
    chain = mu.chain
    slot = np.arange(len(chain.graph.src)) - np.searchsorted(chain.graph.src, chain.graph.src)
    degree = np.bincount(chain.graph.src, minlength=chain.size)
    width = int(degree.max())
    cum_P = np.zeros((chain.size, width))
    cum_P[chain.graph.src, slot] = chain.edge_weights
    cum_P = np.cumsum(cum_P, axis=1)
    cum_P[np.arange(width) >= degree[:, None] - 1] = np.inf
    cell = chain.graph.src * width + slot
    succ = np.zeros(chain.size * width, dtype=np.intp)
    succ[cell] = chain.graph.dst
    step_of = np.zeros(chain.size * width, dtype=steps.dtype)
    step_of[cell] = steps
    rng = np.random.default_rng(seed)
    states = np.minimum(np.searchsorted(np.cumsum(mu.pi), rng.random(trials)), chain.size - 1)
    sums = np.zeros(trials, dtype=steps.dtype)
    for _ in range(n):
        draws = rng.random(trials)
        cells = states * width + (cum_P[states] <= draws[:, None]).sum(axis=1)
        sums += step_of[cells]
        states = succ[cells]
    return sums, states


def test_column_walk_matches_two_d_stepping(bernoulli_model, golden_model, random_model):
    rng = np.random.default_rng(97)
    full3 = validate_transitions(np.ones((3, 3), dtype=int))
    f = random_potential(rng, full3, 3, lo=-0.5, hi=0.5)
    lattice_psi = random_potential(rng, full3, 4, lo=0.0, hi=1.0, lattice=4)
    models = [(m.f, m.psi) for m in (bernoulli_model, golden_model, random_model)]
    sizes = []
    for j, (f, psi) in enumerate(models + [(f, lattice_psi)]):
        phi = normalize_potential(f)
        mu, values, lattice = deviations._edge_data(
            equilibrium_measure(phi, k=max(1, phi.r - 1)), psi
        )
        sizes.append(mu.chain.size)
        # float values, and integer lattice steps where psi has a lattice
        for steps in [np.array(values)] + ([np.array(lattice[0])] if lattice else []):
            sums, ends = deviations._walk_paths(mu, steps, 23, 3000, 100 + j)
            want_sums, want_ends = _two_d_walk(mu, steps, 23, 3000, 100 + j)
            assert sums.dtype == want_sums.dtype and sums.tobytes() == want_sums.tobytes()
            assert np.array_equal(ends, want_ends)
    assert sizes[-1] == 27


def test_chain_is_refined_once_per_measure(random_model, monkeypatch):
    # psi has range 3, so the 1-word chain is refined to 2-word states
    psi = random_model.psi
    phi = normalize_potential(make_pot(psi.tm, 1, {"1": 0.2, "2": -0.1}, psi.theta))
    mu = equilibrium_measure(phi, k=1)
    assert mu.chain.graph.k == 1 and psi.r == 3
    graphs = []
    refined = StateGraph.refined

    def counted(graph):
        graphs.append(graph.k)
        return refined(graph)

    monkeypatch.setattr(StateGraph, "refined", counted)
    # the edge values and their lattice fit are kept with the refinement
    fits = []
    lattice_steps = deviations._lattice_steps
    monkeypatch.setattr(deviations, "_lattice_steps", lambda v: fits.append(v) or lattice_steps(v))
    first = [exact_window_mass(mu, psi, n, 0.55, 0.05) for n in (8, 20)]
    first.append(sample_paths(mu, psi, 20, 200, 3, 0.55, 0.05))
    assert len(graphs) == 1 and len(fits) == 1
    again = [exact_window_mass(mu, psi, n, 0.55, 0.05) for n in (8, 20)]
    again.append(sample_paths(mu, psi, 20, 200, 3, 0.55, 0.05))
    assert len(graphs) == 1 and len(fits) == 1
    assert [wm.mass.hex() for wm in again] == [wm.mass.hex() for wm in first]
    assert [wm.slack.hex() for wm in again] == [wm.slack.hex() for wm in first]


@pytest.mark.parametrize("call, message", [
    (lambda mu, psi: exact_window_mass(mu, psi, 0, 0.5, 0.1), "n must be >= 1"),
    (lambda mu, psi: exact_window_mass(mu, psi, 10, 0.5, 0.0), "delta must be positive"),
    (lambda mu, psi: sample_paths(mu, psi, 10, 0, 1, 0.5, 0.1), "trials must be >= 1"),
    (lambda mu, psi: sample_paths(mu, psi, 0, 10, 1, 0.5, 0.1), "n must be >= 1, got 0"),
])
def test_window_masses_refuse_bad_arguments(coin, call, message):
    _, psi, mu = coin
    with pytest.raises(ValidationError, match=message):
        call(mu, psi)
