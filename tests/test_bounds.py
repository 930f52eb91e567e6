import dataclasses
import math
import time

import numpy as np
import pytest

from thermosft import (
    BadTheta,
    CohomologousConstant,
    Delta0OutOfRange,
    NoConvergence,
    ValidationError,
    constants_for,
    equilibrium_measure,
    exact_window_mass,
    family_c0,
    ldp_scan,
    indicator_example,
    integrate,
    make_potential,
    measured_rpf_constants,
    normalize_potential,
    paper_rpf_constants,
    rate_function,
    rate_levels,
    shift_nonnegative,
    certificate_constants,
    verify_bound,
)
from thermosft import bounds, potentials, transfer, validate_transitions
from thermosft.bounds import D_INFLATION, RHO_MARGIN, RpfConstants
from thermosft.cli import load_model
from thermosft.potentials import affine_combine
from thermosft.sft import StateGraph
from thermosft.transfer import _block_norms, _rpf_bound_reports, solve_potential

from conftest import FIXTURES, make_pot, random_potential, reference_prefix_runs


def injected(rho, D):
    return RpfConstants(
        mode="measured", rho=rho, log_rho=math.log(rho), log_D=math.log(D),
        log_h_norm_bound=0.0, log_h_min_bound=0.0, source_params={},
    )


@pytest.fixture(scope="module")
def bernoulli(full2):
    phi = normalize_potential(make_pot(full2, 1, {"1": 0.0, "2": 0.0}))
    psi = make_pot(full2, 1, {"1": 1.0, "2": 0.0})
    return phi, psi


def test_paper_rho_formula():
    consts = paper_rpf_constants(0.5, 2, 1, 1.0, 0.0)
    expected = (1 - 0.5 / (16 * math.exp(8))) ** 0.5
    assert consts.rho == pytest.approx(expected, abs=1e-12)
    assert consts.rho == pytest.approx(0.9999948, abs=1e-7)


def test_paper_log_d_formula():
    consts = paper_rpf_constants(0.5, 2, 1, 1.0, math.log(2))
    expected = (
        math.log(1e8) + 18 * math.log(2) + 17 * math.log(2) + 80 + 33 * math.log(2)
    )
    assert consts.log_D == pytest.approx(expected, abs=1e-10)
    assert consts.D == pytest.approx(1.6e63, rel=0.05)


def test_paper_constants_monotone_in_sup_norm():
    lo = paper_rpf_constants(0.5, 2, 1, 1.0, 0.1)
    hi = paper_rpf_constants(0.5, 2, 1, 1.0, 0.5)
    assert hi.log_D > lo.log_D
    assert hi.log_rho > lo.log_rho  # closer to 1: slower certified decay


def test_paper_gap_below_the_subnormal_range():
    # log_tiny is far below -745: the first-order gap underflows to 0, and
    # log_rho keeps the strict floor -1e-300 while rho displays as 1.0
    consts = paper_rpf_constants(0.5, 2, 1, 100, 100)
    assert consts.log_rho == -1e-300
    assert consts.rho == 1.0
    assert math.isfinite(consts.log_D)


def test_paper_constants_validation():
    with pytest.raises(BadTheta):
        paper_rpf_constants(1.2, 2, 1, 1.0, 0.0)
    with pytest.raises(ValidationError):
        paper_rpf_constants(0.5, 2, 1, 0.5, 0.0)


def test_paper_eigenfunction_bounds_hold(golden):
    f = make_pot(golden, 2, {"12": 0.0, "21": 0.0, "22": 0.2})
    consts = paper_rpf_constants(
        theta=0.5, s0=2, M=golden.aperiodicity_exponent,
        b_f=max(1.0, f.hoelder_seminorm), f_inf=f.sup_norm,
    )
    T, sol = solve_potential(f)
    ((sup, semi),) = _block_norms(sol.h[None], reference_prefix_runs(T.graph.words), (0.5,))
    assert math.log(sup + semi) <= consts.log_h_norm_bound
    assert math.log(float(np.min(sol.h))) >= consts.log_h_min_bound


def test_measured_constants_degenerate_family(bernoulli):
    phi, psi = bernoulli
    consts = measured_rpf_constants(phi, psi, q0_probe=1.0, n_max=12)
    # one-step convergence: no deviations, envelope floor, theta-floored rho
    assert consts.log_D == 0.0
    assert consts.rho == pytest.approx(0.55, abs=1e-12)
    assert consts.mode == "measured"


def _measured_by_tilt_potentials(phi, psi, q0_probe, n_max=24):
    """Reference: the measured constants with each probe tilt built as a
    Potential by ``affine_combine`` and solved on its own state graph, once
    per state length the battery needs."""
    theta = phi.theta
    gap_max, h_norm_max, h_min_min = 0.0, 0.0, math.inf
    tilts = []
    for q in (-q0_probe, 0.0, q0_probe):
        f_q = affine_combine(phi, psi, q)
        T, sol = solve_potential(f_q)
        gap_max = max(gap_max, sol.gap_ratio)
        ((sup, semi),) = _block_norms(sol.h[None], reference_prefix_runs(T.graph.words), (theta,))
        h_norm_max = max(h_norm_max, sup + semi)
        h_min_min = min(h_min_min, float(np.min(sol.h)))
        tilts.append((f_q, {T.graph.k: sol}))
    rho = min(max(gap_max, theta) + RHO_MARGIN, 1.0 - 1e-9)
    log_rho = math.log(rho)
    symbols = range(1, phi.tm.size + 1)
    battery = [
        psi,
        make_potential(phi.tm, 1, {(a,): float(a == 1) for a in symbols}, theta),
        make_potential(phi.tm, 1, {(a,): 1.0 for a in symbols}, theta),
    ]
    log_D_req = -math.inf
    for f_q, sols in tilts:
        for g in battery:
            k = max(1, f_q.r - 1, g.r)
            if k not in sols:
                sols[k] = solve_potential(f_q, k_min=k)[1]
            report = _rpf_bound_reports(((sols[k], g),), n_max)[0]
            if report.test_norm <= 0.0:
                continue
            for n, dev in zip(report.n_values, report.deviation_norm):
                if dev > 0.0:
                    log_D_req = max(
                        log_D_req, math.log(dev) - n * log_rho - math.log(report.test_norm)
                    )
    log_D = 0.0 if log_D_req == -math.inf else max(0.0, log_D_req + math.log(D_INFLATION))
    return (
        rho,
        log_rho,
        log_D,
        math.log(max(h_norm_max, 1e-300)),
        math.log(max(h_min_min, 1e-300)),
    )


def _probe_case(name):
    """(phi, psi) of a measured-constants case: a fixture prepared as the CLI
    prepares it, chi_K at a pad against Bernoulli(0.6, 0.4) normalised, or a
    seeded full shift (s0, phi.r, psi.r)."""
    if name in ("bernoulli", "golden_mean", "random_range3"):
        model = load_model(str(FIXTURES / f"{name}.json"))
        return normalize_potential(model.f), shift_nonnegative(model.psi)[0]
    full2 = validate_transitions([[1, 1], [1, 1]])
    if name.startswith("chi_k"):
        f = make_potential(full2, 1, {(1,): math.log(0.6), (2,): math.log(0.4)}, 0.5)
        pad = int(name[len("chi_k"):])
        return normalize_potential(f), indicator_example(full2, [(1, 1, 1)], pad=pad, theta=0.5)
    s0, r_phi, r_psi = (int(c) for c in name.split("-")[1:])
    rng = np.random.default_rng(s0 * 100 + r_phi * 10 + r_psi)
    tm = validate_transitions(np.ones((s0, s0), dtype=int))
    phi = normalize_potential(random_potential(rng, tm, r_phi))
    return phi, random_potential(rng, tm, r_psi, lo=0.0, hi=1.0)


@pytest.mark.parametrize("name, graphs", [
    ("bernoulli", 1), ("golden_mean", 1), ("random_range3", 2),
    ("chi_k6", 2), ("chi_k8", 2), ("chi_k10", 2),
    ("full-3-3-2", 1), ("full-3-2-4", 2), ("full-2-4-4", 2), ("full-4-1-3", 2),
])
def test_measured_constants_match_per_tilt_potentials(monkeypatch, name, graphs):
    """The probes solved on the tilted family give every measured constant
    bit for bit as tilts built as potentials did, from one state graph, or
    two when psi is longer than the family's states."""
    phi, psi = _probe_case(name)
    q0_probe = 1.0 / psi.b
    expected = _measured_by_tilt_potentials(phi, psi, q0_probe)
    builds = []
    state_graph = transfer.state_graph

    def spy(tm, k):
        builds.append(k)
        return state_graph(tm, k)

    monkeypatch.setattr(transfer, "state_graph", spy)
    consts = measured_rpf_constants(phi, psi, q0_probe)
    got = (consts.rho, consts.log_rho, consts.log_D, consts.log_h_norm_bound,
           consts.log_h_min_bound)
    assert got == expected
    assert len(builds) == graphs
    assert builds[-1] == (psi.r if graphs == 2 else max(1, phi.r - 1, psi.r - 1))


@pytest.mark.parametrize("name, blocks", [
    ("bernoulli", [(9, 3)]), ("random_range3", [(3, 3), (6, 3)]), ("chi_k6", [(3, 3), (6, 3)]),
])
def test_measured_constants_stack_gaps_and_reports(monkeypatch, name, blocks):
    """Measured constants estimate the three probes' gaps as one block,
    each equal to the solution's own ``gap_ratio`` by ``float.hex``, and
    iterate their (solution, test) pairs as one block per state graph, with
    one sandwich row per distinct solution, not one per test."""
    phi, psi = _probe_case(name)
    gaps, rows, inside = [], [], []
    gap_estimate, bound_reports, block_step = (
        bounds._gap_estimate, bounds._rpf_bound_reports, transfer._block_step
    )

    def gap_spy(sols):
        gaps.append((sols, gap_estimate(sols)))
        return gaps[-1][1]

    def reports_spy(pairs, n_max, consts=None):
        inside.append(pairs)
        try:
            return bound_reports(pairs, n_max, consts)
        finally:
            inside.pop()

    def step_spy(Ts, tilts, kinds):
        if inside:
            pairs = inside[-1]
            rows.append((len(pairs), len(tilts) - len(pairs)))
            assert len({id(sol) for sol, _ in pairs}) == len(tilts) - len(pairs)
        return block_step(Ts, tilts, kinds)

    monkeypatch.setattr(bounds, "_gap_estimate", gap_spy)
    monkeypatch.setattr(bounds, "_rpf_bound_reports", reports_spy)
    monkeypatch.setattr(transfer, "_block_step", step_spy)
    measured_rpf_constants(phi, psi, 1.0 / psi.b)
    ((sols, ratios),) = gaps
    assert len(sols) == 3
    assert [r.hex() for r in ratios] == [sol.gap_ratio.hex() for sol in sols]
    assert rows == blocks


def test_measured_never_worse_than_paper(bernoulli, golden_model):
    phi, psi = bernoulli
    measured = constants_for(phi, psi, "measured")
    paper = constants_for(phi, psi, "paper")
    assert measured.rho <= paper.rho
    rep_m = certificate_constants(phi, psi, 0.1, measured)
    rep_p = certificate_constants(phi, psi, 0.1, paper)
    assert rep_m.q0 >= rep_p.q0


def test_worked_example_constants(bernoulli):
    phi, psi = bernoulli
    rep = certificate_constants(phi, psi, 0.1, injected(rho=0.6, D=5.0))
    c0 = math.log(2) + 2
    assert rep.C0 == pytest.approx(c0, abs=1e-12)
    assert rep.alpha == pytest.approx(-math.log(0.6), abs=1e-12)
    assert rep.n0 == 16
    q0_expected = 0.1 / (100 * c0 * c0 * 16)
    assert rep.q0 == pytest.approx(q0_expected, rel=1e-12)
    assert rep.q0 == pytest.approx(8.62e-6, rel=1e-3)
    assert rep.bound == pytest.approx(0.1 * q0_expected / 2, rel=1e-12)


def test_paper_magnitudes_example(bernoulli):
    # injected closed-form constants at the loose instantiation
    phi, psi = bernoulli
    consts = paper_rpf_constants(0.5, 2, 1, 1.0, math.log(2))
    rep = certificate_constants(phi, psi, 0.1, consts)
    assert rep.alpha == pytest.approx(3.28e-7, rel=0.01)
    assert rep.n0 == pytest.approx(4.6e8, rel=0.02)
    assert rep.q0 == pytest.approx(3e-13, rel=0.02)
    assert rep.bound == pytest.approx(1.5e-14, rel=0.03)


def test_integer_sandwich(bernoulli):
    phi, psi = bernoulli
    for rho, D, delta0 in ((0.6, 5.0, 0.1), (0.3, 2.0, 0.05), (0.9, 100.0, 0.2)):
        rep = certificate_constants(phi, psi, delta0, injected(rho, D))
        log_ratio = math.log(delta0) - math.log(16 * rep.C0 * D)
        x = -log_ratio / rep.alpha
        assert rep.n0 - 1 <= x < rep.n0
        # exponential form of the same sandwich
        assert math.exp(-rep.n0 * rep.alpha) < delta0 / (16 * rep.C0 * D)
        assert delta0 / (16 * rep.C0 * D) <= math.exp(-(rep.n0 - 1) * rep.alpha)


def test_q0_monotonicity(bernoulli):
    phi, psi = bernoulli
    for delta0 in (0.05, 0.1, 0.2):
        q0s = [certificate_constants(phi, psi, delta0, injected(0.6, D)).q0 for D in (2.0, 5.0, 10.0)]
        assert q0s == sorted(q0s, reverse=True)
    for D in (2.0, 5.0, 10.0):
        q0s = [certificate_constants(phi, psi, d, injected(0.6, D)).q0 for d in (0.05, 0.1, 0.2)]
        assert q0s == sorted(q0s)


def test_delta0_gate(bernoulli):
    phi, psi = bernoulli
    with pytest.raises(Delta0OutOfRange):
        certificate_constants(phi, psi, 0.5, injected(0.6, 5.0))
    with pytest.raises(Delta0OutOfRange):
        certificate_constants(phi, psi, 0.0, injected(0.6, 5.0))


def test_negative_observable_rejected(bernoulli, full2):
    phi, _ = bernoulli
    bad = make_pot(full2, 1, {"1": -0.2, "2": 0.8})
    with pytest.raises(ValidationError):
        certificate_constants(phi, bad, 0.1, injected(0.6, 5.0))


def test_verify_bound_bernoulli_measured(bernoulli):
    phi, psi = bernoulli
    consts = constants_for(phi, psi, "measured")
    grid = [round(0.05 * i, 2) for i in range(1, 20)]
    report = verify_bound(phi, psi, 0.1, grid, consts)
    assert report.all_pass
    # points in the closed window are skipped
    evaluated = {v.p for v in report.verdicts}
    assert {0.4, 0.45, 0.5, 0.55, 0.6}.isdisjoint(evaluated)
    by_p = {v.p: v for v in report.verdicts}
    assert by_p[0.7].rate == pytest.approx(
        math.log(2) + 0.7 * math.log(0.7) + 0.3 * math.log(0.3), abs=1e-8
    )
    assert by_p[0.9].tilt_method == "direct"
    assert by_p[0.9].tilt_value >= report.bound


def test_verify_bound_computes_one_spread(bernoulli, full2, monkeypatch):
    # a fresh observable: once computed, its spread is kept on it
    phi, _ = bernoulli
    psi = make_pot(full2, 1, {"1": 1.0, "2": 0.0})
    consts = constants_for(phi, psi, "measured")
    spreads = []
    spread = potentials.cohomology_spread

    def spy(*args):
        spreads.append(spread(*args))
        return spreads[-1]

    monkeypatch.setattr(potentials, "cohomology_spread", spy)
    report = verify_bound(phi, psi, 0.1, [0.1, 0.9], consts)
    assert report.all_pass
    assert len(spreads) == 1 and report.spread is spreads[0]


def test_one_spread_per_observable_across_rates_bounds_and_scans(bernoulli, full2, monkeypatch):
    """The spread is kept on psi: ``rate_levels``, ``rate_function``,
    ``verify_bound`` and ``ldp_scan`` on a fresh observable run one
    ``cohomology_spread`` between them.  A constant observable is refused
    on every call from one run, and a run that raises keeps nothing."""
    phi, _ = bernoulli
    psi = make_pot(full2, 1, {"1": 1.0, "2": 0.0})
    consts = constants_for(phi, psi, "measured")
    spreads = []
    spread = potentials.cohomology_spread

    def spy(*args):
        spreads.append(spread(*args))
        return spreads[-1]

    monkeypatch.setattr(potentials, "cohomology_spread", spy)
    rate_levels(phi, psi, (0.2, 0.7))
    rate_function(phi, psi, 0.4)
    report = verify_bound(phi, psi, 0.1, [0.1, 0.9], consts)
    mu = equilibrium_measure(phi)
    ldp_scan(mu, psi, lambda p: rate_function(phi, psi, p), [8], 0.8, 0.05)
    assert len(spreads) == 1 and report.spread is spreads[0]
    constant = make_pot(full2, 1, {"1": 0.5, "2": 0.5})
    for _ in range(2):
        with pytest.raises(CohomologousConstant):
            rate_function(phi, constant, 0.5)
    assert len(spreads) == 2

    def failing(psi):
        raise NoConvergence("forced")

    fresh = make_pot(full2, 1, {"1": 2.0, "2": 0.0})
    with monkeypatch.context() as patch:
        patch.setattr(potentials, "cohomology_spread", failing)
        with pytest.raises(NoConvergence, match="forced"):
            rate_function(phi, fresh, 1.5)
    assert potentials.kept_spread(fresh) is None
    assert rate_function(phi, fresh, 1.5).status == "interior"
    assert len(spreads) == 3


def test_verify_bound_paper_mode_uses_bracket(bernoulli):
    phi, psi = bernoulli
    consts = constants_for(phi, psi, "paper")
    report = verify_bound(phi, psi, 0.1, [0.1, 0.25, 0.75, 0.9], consts)
    assert report.all_pass
    assert all(v.tilt_method == "first_order" for v in report.verdicts)
    assert report.q0 <= 1e-8


def test_indicator_regime_q0_is_reciprocal_seminorm(full2):
    theta = 0.05
    phi = normalize_potential(make_potential(full2, 1, {(1,): 0.0, (2,): 0.0}, theta))
    psi = indicator_example(full2, [(1, 1, 1, 1)], pad=2, theta=theta)
    psi1, shift = shift_nonnegative(psi)
    assert shift == 0.0
    assert psi.hoelder_seminorm == pytest.approx(theta**-4, rel=1e-12)
    consts = constants_for(phi, psi1, "measured", n_max=10)
    rep = certificate_constants(phi, psi1, 0.05, consts)
    assert rep.q0 == 1.0 / psi.b
    assert rep.bound == pytest.approx(0.05 / (2 * psi.hoelder_seminorm), rel=1e-14)


def test_measured_certificate_at_chi_k_depth(full2):
    """PAPER.md's chi_K at pad 10: the ramped indicator of the cylinder 111
    on 4096 word states, against Bernoulli(0.6, 0.4) normalised.  Measured
    constants plus the certificate run in under 3 s, with ``log_D``,
    ``rho``, ``n0`` and ``q0`` pinned by ``float.hex`` and ``psi_tilde`` (a
    sum over the measure refined to 13-word states) within 4 ulps of its
    value from cylinder masses summed in log space."""
    f = make_potential(full2, 1, {(1,): math.log(0.6), (2,): math.log(0.4)}, 0.5)
    phi = normalize_potential(f)
    psi = indicator_example(full2, [(1, 1, 1)], pad=10, theta=0.5)
    start = time.perf_counter()
    consts = constants_for(phi, psi, "measured")
    report = certificate_constants(phi, psi, 0.05, consts)
    elapsed = time.perf_counter() - start
    assert consts.log_D.hex() == "0x1.7ef338718ba6ep-2"
    assert consts.rho.hex() == "0x1.199999999999ap-1"
    assert report.n0 == 13
    assert report.q0.hex() == "0x1.2f7d88614d234p-18"
    before = float.fromhex("0x1.eba60f88294b9p-1")
    assert abs(report.psi_tilde - before) <= 4 * math.ulp(before)
    assert elapsed < 3.0


def test_chi_k_certificate_ladder(full2):
    """PAPER.md's chi_K from pad 4 to 10 (64 to 4096 word states) against
    Bernoulli(0.6, 0.4) normalised: the spread at its closed form
    [1 - 3/(pad+1), 1], both constants modes, ``verify_bound`` on
    0.1:0.9:0.2 and one exact window of ``ldp`` at n = 40, the whole
    ladder within a runtime budget."""
    f = make_potential(full2, 1, {(1,): math.log(0.6), (2,): math.log(0.4)}, 0.5)
    phi = normalize_potential(f)
    mu = equilibrium_measure(phi, k=1)
    grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    start = time.perf_counter()
    for pad in range(4, 11):
        psi = indicator_example(full2, [(1, 1, 1)], pad=pad, theta=0.5)
        measured = constants_for(phi, psi, "measured")
        paper = constants_for(phi, psi, "paper")
        assert measured.rho <= paper.rho
        report = verify_bound(phi, psi, 0.05, grid, measured)
        assert abs(report.spread.min_mean - (1.0 - 3.0 / (pad + 1))) <= 1e-12
        assert abs(report.spread.max_mean - 1.0) <= 1e-12
        outside = [p for p in grid if abs(p - report.psi_tilde) > 0.05]
        assert [v.p for v in report.verdicts] == outside and report.all_pass
        scan = ldp_scan(mu, psi, lambda p: rate_function(phi, psi, p), [40], 0.9, 0.05)
        (entry,) = scan.entries
        assert entry.method == "exact_dp" and 0.0 < entry.mass <= 1.0
        assert scan.reference <= 0.0
    assert time.perf_counter() - start < 6.0


def test_chi_k_layers_read_no_word_list_of_long_states(monkeypatch, full2):
    """At chi_K pad 8 (states of up to 11 symbols), the tilted family, the
    spread, rate levels, an exact window mass, the mean, measured constants
    and the certificate read their potentials through prefix maps: none of
    them builds the word list of a graph longer than two symbols."""
    f = make_potential(full2, 1, {(1,): math.log(0.6), (2,): math.log(0.4)}, 0.5)
    phi = normalize_potential(f)
    psi = indicator_example(full2, [(1, 1, 1)], pad=8, theta=0.5)
    built = []
    words = StateGraph.words.func
    monkeypatch.setattr(StateGraph, "words", property(lambda g: built.append(g.k) or words(g)))
    grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    family = transfer.tilted_family(phi, psi)
    spread = potentials.cohomology_spread(psi)
    levels = rate_levels(phi, psi, grid, spread)
    mu = equilibrium_measure(phi, k=1)
    mass = exact_window_mass(mu, psi, 40, 0.9, 0.05)
    mean = integrate(mu, psi)
    consts = constants_for(phi, psi, "measured")
    report = verify_bound(phi, psi, 0.05, grid, consts)
    assert family.base.graph.k == psi.r - 1 == 10
    assert all(rv.value >= 0.0 for rv in levels) and mass.method == "exact_dp"
    assert report.all_pass and report.psi_tilde == mean
    assert max(built, default=0) <= 2


def test_family_c0(bernoulli):
    phi, psi = bernoulli
    assert family_c0(phi, psi) == pytest.approx(math.log(2) + 2.0, abs=1e-12)
    assert family_c0(phi, psi) >= 1.0


def test_tilted_family_envelopes_on_fixtures(bernoulli, golden_model, random_model):
    from thermosft import verify_tilted_family

    for model in (None, golden_model, random_model):
        if model is None:
            phi, psi1 = bernoulli
        else:
            phi = normalize_potential(model.f)
            psi1, _ = shift_nonnegative(model.psi)
        consts = constants_for(phi, psi1, "measured")
        rep = certificate_constants(phi, psi1, 0.1, consts)
        out = verify_tilted_family(phi, psi1, rep.q0, rep.C0, consts, n_max=24)
        assert all(abs(v) <= rep.q0 * rep.C0 + 1e-12 for v in out.log_lambdas)


def _hexed(obj) -> tuple:
    """The fields of a dataclass instance, floats by ``float.hex``."""
    return tuple(
        v.hex() if isinstance(v, float) else v
        for v in (getattr(obj, f.name) for f in dataclasses.fields(obj))
    )


@pytest.mark.parametrize("stem, grid", [
    ("bernoulli", (0.1, 0.3, 0.8)), ("golden_mean", (0.05, 0.25, 0.45)),
    ("random_range3", (0.15, 0.35, 0.75)),
])
def test_second_calls_reuse_the_family_and_its_zero_solve(monkeypatch, stem, grid):
    """Once measured constants, ``rate_function``, ``rate_levels`` and
    ``verify_bound`` have run on a pair of potentials, running them again
    builds no tilted family (the rate calls, given the spread, no state
    graph at all) and solves no tilt at q = 0: each family and its ``zero``
    solve are kept on phi.  Every result equals, by ``float.hex``, that of
    fresh copies of the potentials."""
    model = load_model(FIXTURES / f"{stem}.json")
    phi = normalize_potential(model.f)
    psi, _ = shift_nonnegative(model.psi)
    spread = potentials.cohomology_spread(psi)

    def fresh(g):
        return make_potential(g.tm, g.r, g.table, g.theta)

    def run(phi, psi):
        consts = constants_for(phi, psi, "measured")
        return (
            _hexed(consts),
            _hexed(rate_function(phi, psi, grid[1], spread)),
            [_hexed(rv) for rv in rate_levels(phi, psi, grid, spread)],
            [_hexed(v) for v in verify_bound(phi, psi, 0.1, grid, consts).verdicts],
        )

    cold = run(fresh(phi), fresh(psi))
    assert run(phi, psi) == cold
    families = [transfer.tilted_family(phi, psi), transfer.tilted_family(phi, psi, psi.r)]
    graphs, edge_tables, zero_solves = [], [], []

    def spy(fn, log, entry):
        def wrapped(*args, **kwargs):
            log.append(entry(*args))
            return fn(*args, **kwargs)
        return wrapped

    for module in (transfer, potentials):
        monkeypatch.setattr(module, "state_graph", spy(module.state_graph, graphs, lambda *a: a))
    monkeypatch.setattr(transfer, "_edge_matrix",
                        spy(transfer._edge_matrix, edge_tables, lambda f, k, *obs: len(obs)))
    monkeypatch.setattr(transfer, "rpf_solve_block", spy(
        transfer.rpf_solve_block, zero_solves,
        lambda Ts, starts=None: [T for T in Ts if any(T is fam.base for fam in families)]))
    monkeypatch.setattr(transfer.TiltedFamily, "at", spy(
        transfer.TiltedFamily.at, zero_solves, lambda self, q: [q] if q == 0.0 else []))
    assert _hexed(rate_function(phi, psi, grid[1], spread)) == cold[1]
    assert [_hexed(rv) for rv in rate_levels(phi, psi, grid, spread)] == cold[2]
    assert graphs == []
    # verify_bound still builds the state graphs of its certificate
    # constants' equilibrium measure and spread, but no family
    assert run(phi, psi) == cold
    assert not any(edge_tables) and not any(zero_solves)


def test_a_failed_zero_solve_is_not_kept(monkeypatch, golden_model):
    """A q = 0 solve that fails raises on every call and keeps nothing: once
    the solve can succeed, the next call solves it and returns the value of
    fresh potentials."""
    phi = normalize_potential(golden_model.f)
    psi = golden_model.psi
    spread = potentials.cohomology_spread(psi)
    want = rate_function(
        make_potential(phi.tm, phi.r, phi.table, phi.theta), psi, 0.3, spread
    )
    monkeypatch.setattr(transfer, "MAX_ITERATIONS", 1)
    for _ in range(2):
        with pytest.raises(NoConvergence):
            rate_function(phi, psi, 0.3, spread)
    assert "zero" not in vars(transfer.tilted_family(phi, psi))
    monkeypatch.undo()
    assert _hexed(rate_function(phi, psi, 0.3, spread)) == _hexed(want)


@pytest.mark.parametrize("stem, grid, window", [
    ("bernoulli", (0.2, 0.5, 0.8), (0.8, 0.05, [10, 40])),
    ("golden_mean", (0.05, 0.25, 0.45), (0.4, 0.05, [10, 30])),
    ("random_range3", (0.15, 0.45, 0.75), (0.55, 0.05, [8, 16])),
])
def test_one_cold_solve_per_matrix_across_bound_and_ldp(stem, grid, window, monkeypatch):
    """The measured constants, ``verify_bound`` and an exact ``ldp_scan``
    on one phi solve no matrix twice from the all-ones start: the
    equilibrium measure and each tilted family's q = 0 solve share phi's
    one solve per state length, which once took two."""
    model = load_model(str(FIXTURES / f"{stem}.json"))
    phi = normalize_potential(model.f)
    psi1, _ = shift_nonnegative(model.psi)
    cold = {}
    solve_block = transfer.rpf_solve_block

    def spy(Ts, starts=None):
        for T, start in zip(Ts, starts or (None,) * len(Ts)):
            if start is None:
                key = (T.graph.k, T.edge_weights.tobytes())
                cold[key] = cold.get(key, 0) + 1
        return solve_block(Ts, starts)

    monkeypatch.setattr(transfer, "rpf_solve_block", spy)
    consts = constants_for(phi, psi1, "measured")
    assert verify_bound(phi, psi1, 0.1, grid, consts).all_pass
    mu = equilibrium_measure(phi, k=max(1, phi.r - 1))
    p, delta, n_list = window
    scan = ldp_scan(mu, model.psi, lambda level: rate_function(phi, model.psi, level),
                    n_list, p, delta)
    assert [e.method for e in scan.entries] == ["exact_dp"] * len(n_list)
    base = transfer.tilted_family(phi, psi1).base
    assert cold[(base.graph.k, base.edge_weights.tobytes())] == 1
    assert set(cold.values()) == {1}


def test_measured_constants_skip_a_test_function_of_norm_zero(bernoulli_model, full2):
    """An all-zero observable tests nothing (norm 0), so only the battery
    sets D; the constants are finite and its reports are skipped."""
    phi = normalize_potential(bernoulli_model.f)
    zero = make_pot(full2, 1, {"1": 0.0, "2": 0.0})
    consts = measured_rpf_constants(phi, zero, q0_probe=1.0)
    assert all(map(math.isfinite, (consts.log_rho, consts.log_D, consts.log_h_norm_bound,
                                   consts.log_h_min_bound)))
    assert consts.log_D >= 0.0 and consts.rho < 1.0


@pytest.mark.parametrize("build, message", [
    (lambda phi, psi: measured_rpf_constants(phi, psi, 1.0, n_max=7), "n_max must be >= 8"),
    (lambda phi, psi: constants_for(phi, psi, "guessed"), "unknown constants mode 'guessed'"),
])
def test_constants_refuse_bad_arguments(bernoulli, build, message):
    with pytest.raises(ValidationError, match=message):
        build(*bernoulli)
