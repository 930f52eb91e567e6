import math
import sys
import threading
import time
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from thermosft import (
    CohomologousConstant,
    ModelMismatch,
    NoConvergence,
    ValidationError,
    affine_combine,
    build_transfer_matrix,
    cohomology_spread,
    entropy,
    gamma,
    indicator_example,
    make_potential,
    normalize_potential,
    pressure,
    pressure_curve,
    rate_function,
    rate_levels,
    tilt_eval,
)
from thermosft import rate, sft, transfer
from thermosft.cli import load_model
from thermosft.transfer import tilted_family

from conftest import FIXTURES, dense, make_pot, random_aperiodic, random_potential


def binary_kl(p):
    """Rate of a fair coin's head frequency: the classical closed form."""
    return math.log(2) + p * math.log(p) + (1 - p) * math.log(1 - p)


def _fair_coin(full2):
    """A freshly normalised fair coin and its head indicator: potentials no
    earlier call has kept a family or a probe on."""
    phi = normalize_potential(make_pot(full2, 1, {"1": 0.0, "2": 0.0}))
    psi = make_pot(full2, 1, {"1": 1.0, "2": 0.0})
    return phi, psi


@pytest.fixture(scope="module")
def bernoulli(full2):
    return _fair_coin(full2)


def test_pressure_examples(full2, golden):
    assert pressure(make_pot(full2, 1, {"1": 0.0, "2": 0.0})) == pytest.approx(
        math.log(2), abs=1e-13
    )
    assert pressure(make_pot(golden, 1, {"1": 0.0, "2": 0.0})) == pytest.approx(
        math.log((1 + math.sqrt(5)) / 2), abs=1e-13
    )
    for q in (-3.0, -1.0, 0.5, 2.0):
        assert pressure(make_pot(full2, 1, {"1": q, "2": 0.0})) == pytest.approx(
            math.log(1 + math.exp(q)), abs=1e-12
        )


def test_pressure_translation():
    rng = np.random.default_rng(53)
    for _ in range(6):
        tm = random_aperiodic(rng, int(rng.integers(2, 4)))
        f = random_potential(rng, tm, int(rng.integers(1, 4)))
        c = float(rng.uniform(-2, 2))
        shifted = make_potential(tm, f.r, {w: v + c for w, v in f.table.items()}, f.theta)
        assert pressure(shifted) == pytest.approx(pressure(f) + c, abs=1e-12)


def test_pressure_curve_bernoulli(bernoulli):
    phi, psi = bernoulli
    curve = pressure_curve(phi, psi, [0.0, 1.0])
    assert curve.pressures[0] == pytest.approx(0.0, abs=1e-13)
    assert curve.derivatives[0] == pytest.approx(0.5, abs=1e-13)
    assert curve.pressures[1] == pytest.approx(math.log((1 + math.e) / 2), abs=1e-12)
    assert curve.derivatives[1] == pytest.approx(math.e / (1 + math.e), abs=1e-12)


def test_pressure_curve_shape(bernoulli):
    phi, psi = bernoulli
    grid = [round(-3 + 0.25 * i, 4) for i in range(25)]
    curve = pressure_curve(phi, psi, grid)
    assert curve.is_convex
    assert curve.derivatives_nondecreasing
    assert all(d >= 1e-12 for d in curve.second_differences())


def test_derivative_matches_finite_differences(bernoulli):
    phi, psi = bernoulli
    h = 1e-5
    for q in (-2.0, -0.5, 0.0, 1.0, 2.5):
        _, mean = tilt_eval(phi, psi, q)
        fd = (tilt_eval(phi, psi, q + h)[0] - tilt_eval(phi, psi, q - h)[0]) / (2 * h)
        assert abs(mean - fd) <= 1e-6


def test_gamma_at_zero_is_exact(bernoulli):
    phi, psi = bernoulli
    value, slope = gamma(phi, psi, 0.8, 0.0)
    assert value == 0.0
    assert slope == pytest.approx(0.8 - 0.5, abs=1e-12)
    value5, slope5 = gamma(phi, psi, 0.5, 0.0)
    assert value5 == 0.0 and abs(slope5) <= 1e-12


def test_gamma_closed_form(bernoulli):
    phi, psi = bernoulli
    value, slope = gamma(phi, psi, 0.8, 1.0)
    assert value == pytest.approx(0.8 - math.log((1 + math.e) / 2), abs=1e-12)
    assert slope == pytest.approx(0.8 - math.e / (1 + math.e), abs=1e-12)


def test_rate_function_bernoulli_closed_form(bernoulli):
    phi, psi = bernoulli
    rv = rate_function(phi, psi, 0.5)
    assert rv.status == "mean_zero" and rv.value == 0.0 and rv.q_star == 0.0

    rv8 = rate_function(phi, psi, 0.8)
    assert rv8.status == "interior"
    assert rv8.value == pytest.approx(binary_kl(0.8), abs=1e-10)
    assert rv8.q_star == pytest.approx(math.log(4), abs=1e-6)

    out = rate_function(phi, psi, 1.2)
    assert out.status == "outside" and math.isinf(out.value)


def test_rate_interior_when_psi_sits_far_from_zero(bernoulli, full2):
    # psi's spread is 1e-6 and its values sit near 1: the overflow cap on q
    # must follow the spread, or the bracket stops short of the maximiser
    phi, _ = bernoulli
    psi = make_pot(full2, 1, {"1": 1.0, "2": 0.999999})
    p = 0.9999999
    rv = rate_function(phi, psi, p)
    x = (p - 0.999999) / (1.0 - 0.999999)
    assert rv.status == "interior"
    assert rv.value == pytest.approx(
        x * math.log(2 * x) + (1 - x) * math.log(2 * (1 - x)), abs=1e-7
    )


def test_rate_local_maximality(bernoulli):
    phi, psi = bernoulli
    for p in (0.2, 0.35, 0.65, 0.9):
        rv = rate_function(phi, psi, p)
        for dq in (-0.1, 0.1):
            neighbor, _ = gamma(phi, psi, p, rv.q_star + dq)
            assert rv.value >= neighbor - 1e-12
        plus, _ = gamma(phi, psi, p, rv.q_star + 0.05)
        minus, _ = gamma(phi, psi, p, rv.q_star - 0.05)
        curvature = plus + minus - 2 * rv.value
        assert curvature <= 0.0


def test_rate_translation_invariance(bernoulli, full2):
    phi, psi = bernoulli
    c = 0.4
    shifted = affine_combine(psi, make_pot(full2, 1, {"1": 1.0, "2": 1.0}), c)
    for p in (0.2, 0.7, 0.9):
        base = rate_function(phi, psi, p).value
        moved = rate_function(phi, shifted, p + c).value
        assert moved == pytest.approx(base, abs=1e-9)


def test_rate_positive_scaling(bernoulli, full2):
    phi, psi = bernoulli
    c = 2.5
    scaled = make_pot(full2, 1, {"1": c, "2": 0.0})
    for p in (0.2, 0.7, 0.9):
        base = rate_function(phi, psi, p).value
        stretched = rate_function(phi, scaled, c * p).value
        assert stretched == pytest.approx(base, abs=1e-9)


def test_rate_zero_and_positivity(bernoulli):
    phi, psi = bernoulli
    assert rate_function(phi, psi, 0.5).value <= 1e-10
    for p in np.linspace(0.05, 0.95, 19):
        assert rate_function(phi, psi, float(p)).value >= -1e-12


def test_rate_boundary_status(bernoulli):
    phi, psi = bernoulli
    rv = rate_function(phi, psi, 1.0)
    assert rv.status == "boundary"
    assert rv.value >= 0.0 and not math.isinf(rv.value)


def test_rate_refuses_constant_observable(bernoulli, full2):
    phi, _ = bernoulli
    const = make_pot(full2, 1, {"1": 0.3, "2": 0.3})
    with pytest.raises(CohomologousConstant):
        rate_function(phi, const, 0.3)


def test_rate_matches_one_point_duality_oracle():
    # choose the tilt first and derive the level from it: the maximiser is
    # then known exactly and the rate value is a single direct evaluation,
    # independent of the bracketing/bisection path under test
    rng = np.random.default_rng(2024)
    for _ in range(8):
        tm = random_aperiodic(rng, int(rng.integers(2, 4)))
        f = random_potential(rng, tm, int(rng.integers(1, 3)), lo=-0.6, hi=0.6)
        psi = random_potential(rng, tm, int(rng.integers(1, 3)), lo=0.0, hi=1.0)
        phi = normalize_potential(f)
        from thermosft.potentials import cohomology_spread

        if cohomology_spread(psi).width < 0.05:
            continue
        base, _ = tilt_eval(phi, psi, 0.0)
        for q_t in (-6.0, -1.5, 2.0, 5.0):
            pr, p = tilt_eval(phi, psi, q_t)
            rv = rate_function(phi, psi, p)
            oracle = p * q_t - (pr - base)
            assert abs(rv.value - oracle) < 1e-9
            assert abs(rv.q_star - q_t) < 1e-4


def test_entropy(full2, golden):
    assert entropy(make_pot(full2, 1, {"1": 0.0, "2": 0.0})) == pytest.approx(
        math.log(2), abs=1e-12
    )
    assert entropy(make_pot(golden, 1, {"1": 0.0, "2": 0.0})) == pytest.approx(
        math.log((1 + math.sqrt(5)) / 2), abs=1e-12
    )
    # tilted coin: pressure minus mean energy, both in closed form
    f = make_pot(full2, 1, {"1": 1.0, "2": 0.0})
    expected = math.log(1 + math.e) - math.e / (1 + math.e)
    assert entropy(f) == pytest.approx(expected, abs=1e-10)
    assert entropy(f) >= -1e-10


def _dense_tilt(phi, psi, q):
    """Reference for tilt_eval built the long way: the tilted potential as a
    table, its transfer matrix on psi.r-word states (psi is then a function
    of the state), eigvals for the pressure and the dense left/right Perron
    vectors for the mean."""
    f_q = affine_combine(phi, psi, q)
    T = build_transfer_matrix(f_q, k_min=psi.r)
    W = dense(T)
    lam = max(np.linalg.eigvals(W).real)
    vals_h, vecs_h = np.linalg.eig(W.T)
    vals_nu, vecs_nu = np.linalg.eig(W)
    h = np.abs(vecs_h[:, np.argmax(vals_h.real)].real)
    nu = np.abs(vecs_nu[:, np.argmax(vals_nu.real)].real)
    pi = h * nu / float(h @ nu)
    psi_state = np.array([psi.table[w[: psi.r]] for w in T.state_words])
    return math.log(lam), float(pi @ psi_state)


@pytest.mark.parametrize("r_phi, r_psi", [(3, 1), (2, 2), (1, 3), (3, 2), (2, 3)])
def test_tilt_eval_matches_dense_reference(golden, r_phi, r_psi):
    rng = np.random.default_rng(100 * r_phi + r_psi)
    models = [golden] + [random_aperiodic(rng, int(rng.integers(2, 4))) for _ in range(3)]
    for tm in models:
        phi = random_potential(rng, tm, r_phi, lo=-0.5, hi=0.5)
        psi = random_potential(rng, tm, r_psi, lo=0.0, hi=1.0)
        for q in (-5.0, -0.3, 0.0, 0.7, 5.0):
            pr, mean = tilt_eval(phi, psi, q)
            ref_pr, ref_mean = _dense_tilt(phi, psi, q)
            assert abs(pr - ref_pr) <= 1e-12, (q, pr, ref_pr)
            assert abs(mean - ref_mean) <= 1e-12, (q, mean, ref_mean)


def test_rate_function_reuses_one_state_graph(monkeypatch, random_model):
    phi = normalize_potential(random_model.f)
    psi = random_model.psi
    spread = cohomology_spread(psi)
    calls = {"state_graph": 0, "affine_combine": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "thermosft"]
    for name, fn in (("state_graph", sft.state_graph), ("affine_combine", affine_combine)):
        wrapper = counted(name, fn)
        for module in modules:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, wrapper)
    rv = rate_function(phi, psi, 0.55, spread=spread)
    assert rv.status == "interior"
    assert calls["state_graph"] <= 1
    assert calls["affine_combine"] == 0


def test_gap_ratio_is_computed_only_when_read(monkeypatch, bernoulli):
    phi, psi = bernoulli
    calls = []
    original = transfer._gap_estimate

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(transfer, "_gap_estimate", counted)
    rate_function(phi, psi, 0.8)
    assert calls == []
    sol = tilted_family(phi, psi).solve(1.0)
    assert calls == []
    first = sol.gap_ratio
    assert sol.gap_ratio == first and len(calls) == 1


def _golden_legendre(p):
    """Rate of the golden-mean fixture by its own 2x2 algebra: the tilted
    matrix [[0, e^q], [1, e^0.2]] (f on 2-words, psi the first-symbol
    indicator), P(q) the log of its largest eigenvalue by numpy eigvals, the
    slope by central difference and the maximiser by bisection on it."""

    def P(q):
        M = np.array([[0.0, math.exp(q)], [1.0, math.exp(0.2)]])
        return math.log(max(abs(np.linalg.eigvals(M))))

    def slope(q, h=1e-5):
        return (P(q + h) - P(q - h)) / (2 * h)

    lo, hi = 0.0, 1.0
    while slope(hi) < p:
        lo, hi = hi, 2 * hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if slope(mid) < p:
            lo = mid
        else:
            hi = mid
    q = 0.5 * (lo + hi)
    return p * q - (P(q) - P(0.0))


@pytest.mark.parametrize("p", [0.4999, 0.499999])
def test_golden_mean_near_the_endpoint_matches_legendre_oracle(golden_model, p):
    # the tilts near q* ~ 16-25 are nearly period 2 (eigenvalues near +-lambda)
    phi = normalize_potential(golden_model.f)
    start = time.perf_counter()
    rv = rate_function(phi, golden_model.psi, p)
    assert time.perf_counter() - start < 1.0
    assert rv.status == "interior"
    assert abs(rv.value - _golden_legendre(p)) <= 1e-9


#: the benchmark's interior fixture grids
FIXTURE_LEVELS = {
    "bernoulli": (0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9),
    "golden_mean": (0.05, 0.15, 0.25, 0.35, 0.45),
    "random_range3": (0.15, 0.25, 0.35, 0.45, 0.55, 0.65),
}


def test_interior_fixture_levels_take_at_most_10_solves():
    for name, levels in FIXTURE_LEVELS.items():
        model = load_model(FIXTURES / f"{name}.json")
        phi = normalize_potential(model.f)
        for rv in rate_levels(phi, model.psi, levels):
            assert rv.status == "interior", (name, rv)
            assert rv.iterations <= 10, (name, rv)


def test_golden_mean_flat_slope_level_takes_at_most_16_solves(golden_model):
    # the slope flattens towards the endpoint 0.5; Illinois alone took 32
    phi = normalize_potential(golden_model.f)
    p = 0.49999999
    rv = rate_function(phi, golden_model.psi, p)
    assert rv.status == "interior"
    assert abs(rv.value - _golden_legendre(p)) <= 1e-9
    assert rv.iterations <= 16, rv


def test_step_falls_back_to_illinois_when_interpolation_leaves_the_bracket():
    # slope 1 at 0, 0.9 at 0.5 and -1 at 1: the inverse quadratic through
    # them overshoots the new bracket (0.5, 1)
    guess = rate._inverse_quadratic(0.0, 1.0, 1.0, -1.0, 0.5, 0.9)
    assert not 0.5 < guess < 1.0
    secant = rate._secant(0.5, 0.9, 1.0, -1.0)
    assert rate._next_tilt(guess, 0.5, 1.0, 0.5, 0.9, 1.0, -1.0) == secant
    # inside the bracket it is taken, unless it moves half the older step
    inside = 0.5 * (0.5 + secant)
    assert rate._next_tilt(inside, 0.5, 1.0, 0.5, 0.9, 1.0, -1.0) == inside
    assert rate._next_tilt(inside, 0.5, 0.01, 0.5, 0.9, 1.0, -1.0) == secant
    # two equal slope values leave nothing to interpolate
    assert rate._inverse_quadratic(0.0, 1.0, 1.0, -1.0, 0.5, 1.0) is None
    assert rate._next_tilt(None, 0.5, 1.0, 0.5, 1.0, 1.0, -1.0) == rate._secant(
        0.5, 1.0, 1.0, -1.0
    )


def test_rate_levels_equal_rate_function_bit_for_bit():
    grids = {
        "bernoulli": (-0.1, 0.0, 0.1, 0.5, 0.8, 0.95, 1.0, 1.2),
        "golden_mean": (0.0, 0.01, 0.2, 0.3819660112501051, 0.4999, 0.5, 0.7),
        "random_range3": (0.9, 0.15, 0.65, 0.3, 0.15),
    }
    for name, grid in grids.items():
        model = load_model(FIXTURES / f"{name}.json")
        phi = normalize_potential(model.f)
        swept = rate_levels(phi, model.psi, grid)
        assert [rv.p for rv in swept] == list(grid)
        for rv in swept:
            one = rate_function(phi, model.psi, rv.p)
            assert (rv.status, rv.iterations) == (one.status, one.iterations)
            assert rv.value.hex() == one.value.hex()
            assert (rv.q_star is None and one.q_star is None) or (
                rv.q_star.hex() == one.q_star.hex()
            )


def _centred_family(phi, psi):
    """The family ``rate_levels`` maximises on: centred on psi's spread."""
    spread = cohomology_spread(psi)
    return tilted_family(phi, psi).centred(0.5 * (spread.min_mean + spread.max_mean))


def _bits(rv):
    q_star = None if rv.q_star is None else rv.q_star.hex()
    return rv.p, rv.value.hex(), q_star, rv.status, rv.iterations


def test_rate_levels_solve_each_doubling_probe_once(monkeypatch):
    """On the bernoulli fixture's grid 0.05:0.95:0.05 the doubling probes are
    shared by the levels, so the sweep makes fewer Perron solves than one
    ``rate_function`` per level, fewer even than the levels' own tilts
    beside the base, and every value is the same.  The probes are then kept
    on the centred family, so the one-by-one calls after the sweep solve
    only their own tilts, none of them a probe: exactly the sweep's solves
    less its probes.  The base is the family's kept q = 0 solve, shared by
    the sweep and every later call, so no call solves it through
    ``tilts``."""
    model = load_model(FIXTURES / "bernoulli.json")
    phi = normalize_potential(model.f)
    grid = tuple(round(0.05 * i, 2) for i in range(1, 20))
    solves = []
    tilts = transfer.TiltedFamily.tilts

    def counted(self, qs, starts=None):
        solves.extend(qs)
        return tilts(self, qs, starts)

    monkeypatch.setattr(transfer.TiltedFamily, "tilts", counted)
    swept = rate_levels(phi, model.psi, grid)
    in_sweep = len(solves)
    kept = _centred_family(phi, model.psi).probes
    # the cap is 1400, so every probe is a signed power of two
    assert kept and all(abs(q) == 2.0 ** round(math.log2(abs(q))) for q in kept), kept
    assert set(kept) <= set(solves)
    one_by_one = [rate_function(phi, model.psi, p) for p in grid]
    assert [repr(rv) for rv in swept] == [repr(rv) for rv in one_by_one]
    own = solves[in_sweep:]
    assert not set(own) & set(kept)
    assert len(own) == in_sweep - len(kept)
    assert 0.0 not in own
    assert in_sweep < sum(rv.iterations - 1 for rv in swept), in_sweep


def test_rate_levels_solve_a_grid_in_lockstep(monkeypatch):
    """On the bernoulli fixture's grid 0.05:0.95:0.05 the base is one block
    solve and each further round one block for all levels still running, so
    the sweep makes at most ``1 + max(iterations - 1)`` block solves."""
    model = load_model(FIXTURES / "bernoulli.json")
    phi = normalize_potential(model.f)
    grid = tuple(round(0.05 * i, 2) for i in range(1, 20))
    blocks = []
    tilts = transfer.TiltedFamily.tilts

    def counted(self, qs, starts=None):
        blocks.append(len(qs))
        return tilts(self, qs, starts)

    monkeypatch.setattr(transfer.TiltedFamily, "tilts", counted)
    swept = rate_levels(phi, model.psi, grid)
    assert all(rv.status in ("interior", "mean_zero") for rv in swept)
    assert len(blocks) <= 1 + max(rv.iterations - 1 for rv in swept), blocks
    assert max(blocks) > 1


def test_rate_levels_keep_a_failed_boundary_probe_to_its_level(
    monkeypatch, bernoulli, full2
):
    """A grid of outside, boundary, interior and mean_zero levels, with the
    solve of q = 8 forced to fail: only the boundary sweep at p = 1 reaches
    that probe, so it stops there with the lower bound of the probes before
    it, as ``rate_function`` does under the same failure, and every other
    level equals its ``rate_function``.  The forced part runs on a freshly
    normalised phi, whose probes no earlier call has kept, so q = 8 is
    solved, and fails, rather than read back."""
    phi, psi = bernoulli
    grid = (-0.1, 0.0, 0.3, 0.5, 0.8, 1.0, 1.2)
    free = [rate_function(phi, psi, p) for p in grid]
    assert [rv.status for rv in free] == [
        "outside", "boundary", "interior", "mean_zero", "interior", "boundary", "outside"
    ]
    phi, psi = _fair_coin(full2)
    tilts = transfer.TiltedFamily.tilts

    def failing(self, qs, starts=None):
        solved = tilts(self, qs, starts)
        return [NoConvergence("forced") if q == 8.0 else t for q, t in zip(qs, solved)]

    monkeypatch.setattr(transfer.TiltedFamily, "tilts", failing)
    swept = rate_levels(phi, psi, grid)
    forced = rate_function(phi, psi, 1.0)
    assert forced.status == "boundary" and forced.iterations < free[5].iterations
    assert repr(swept[5]) == repr(forced)
    for i in (0, 1, 2, 3, 4, 6):
        assert repr(swept[i]) == repr(free[i]), grid[i]


def _asked_tilts(monkeypatch):
    """Every tilt asked of ``TiltedFamily.tilts`` from now on, in order."""
    asked = []
    tilts = transfer.TiltedFamily.tilts

    def counted(self, qs, starts=None):
        asked.extend(qs)
        return tilts(self, qs, starts)

    monkeypatch.setattr(transfer.TiltedFamily, "tilts", counted)
    return asked


def test_a_second_call_reads_the_kept_probes(monkeypatch, full2):
    """A second ``rate_levels`` on the same ``(phi, psi)`` asks ``tilts`` for
    no doubling probe, only its levels' own tilts, and equals a call on a
    fresh phi by ``float.hex`` at outside, boundary, interior and mean_zero
    levels."""
    grid = (-0.1, 0.0, 0.3, 0.5, 0.8, 1.0, 1.2)
    want = [_bits(rv) for rv in rate_levels(*_fair_coin(full2), grid)]
    assert [b[3] for b in want] == [
        "outside", "boundary", "interior", "mean_zero", "interior", "boundary", "outside"
    ]
    phi, psi = _fair_coin(full2)
    rate_levels(phi, psi, grid)
    kept = dict(_centred_family(phi, psi).probes)
    # the boundary levels sweep every probe, up to the cap 1400 on both sides
    assert {1400.0, -1400.0} <= set(kept)
    asked = _asked_tilts(monkeypatch)
    assert [_bits(rv) for rv in rate_levels(phi, psi, grid)] == want
    assert asked and not set(asked) & set(kept), asked
    # the kept solves are the ones the first call made: nothing is re-solved
    probes = _centred_family(phi, psi).probes
    assert probes.keys() == kept.keys()
    assert all(probes[q] is kept[q] for q in kept)


def test_a_failed_probe_is_not_kept(monkeypatch, full2):
    """A probe whose solve fails ends that call's endpoint sweep but is not
    kept: once the failure is lifted, the next call solves it and gives the
    free value."""
    free = rate_function(*_fair_coin(full2), 1.0)
    phi, psi = _fair_coin(full2)
    tilts = transfer.TiltedFamily.tilts

    def failing(self, qs, starts=None):
        solved = tilts(self, qs, starts)
        return [NoConvergence("forced") if q == 8.0 else t for q, t in zip(qs, solved)]

    with monkeypatch.context() as patch:
        patch.setattr(transfer.TiltedFamily, "tilts", failing)
        forced = rate_function(phi, psi, 1.0)
    assert forced.status == "boundary" and forced.iterations < free.iterations
    kept = _centred_family(phi, psi).probes
    assert 4.0 in kept and 8.0 not in kept
    assert _bits(rate_function(phi, psi, 1.0)) == _bits(free)
    assert 8.0 in kept


def test_another_centre_solves_probes_of_its_own(monkeypatch, full2):
    """The probes are kept per centre: a call with a wider spread (so another
    centre and cap) on a phi whose probes are kept for its own spread
    solves its own probes, and equals that call on a fresh phi."""
    phi, psi = _fair_coin(full2)
    wide = replace(cohomology_spread(psi), min_mean=-0.5)
    grid = (0.0, 0.3, 0.5, 0.8)
    want = [_bits(rv) for rv in rate_levels(*_fair_coin(full2), grid, spread=wide)]
    rate_levels(phi, psi, grid)
    own = dict(_centred_family(phi, psi).probes)
    asked = _asked_tilts(monkeypatch)
    assert [_bits(rv) for rv in rate_levels(phi, psi, grid, spread=wide)] == want
    other = tilted_family(phi, psi).centred(0.25).probes
    assert other and other is not _centred_family(phi, psi).probes
    assert set(other) <= set(asked)
    assert _centred_family(phi, psi).probes == own


def test_interpolated_start_falls_back_to_the_nearest_solution():
    """Strictly inside the solved tilts the start is the Lagrange
    interpolation through the three nearest; an interpolated entry <= 0, or
    a tilt outside their range, gives the nearest solution."""

    def solved(h2):
        sols = [SimpleNamespace(h=np.array(h), nu=np.array([0.5, 0.5]))
                for h in ([1.0, 1.0], [0.01, 1.0], h2)]
        return {q: (0.0, 0.0, sol) for q, sol in zip((0.0, 1.0, 2.0), sols)}

    # Lagrange weights at q = 0.4 through 0, 1 and 2: 0.48, 0.64 and -0.12
    positive = solved([1.0, 1.0])
    start = rate._start(positive, 0.4)
    assert np.allclose(start.h, [0.48 + 0.64 * 0.01 - 0.12, 1.0])
    assert np.allclose(start.nu, [0.5, 0.5])
    assert rate._start(positive, 3.0) is positive[2.0][2]
    # 0.48 + 0.0064 - 0.12 * 10 < 0
    negative = solved([10.0, 1.0])
    assert rate._start(negative, 0.4) is negative[0.0][2]


def test_interior_level_raises_when_a_tilt_fails(monkeypatch, bernoulli):
    # a solver failure inside the spread is an error, not a boundary value
    phi, psi = bernoulli
    tilts = transfer.TiltedFamily.tilts

    def failing(self, qs, starts=None):
        solved = tilts(self, qs, starts)
        return [t if q == 0.0 else NoConvergence("forced") for q, t in zip(qs, solved)]

    monkeypatch.setattr(transfer.TiltedFamily, "tilts", failing)
    with pytest.raises(NoConvergence):
        rate_function(phi, psi, 0.8)
    assert rate_function(phi, psi, 1.0).status == "boundary"


def test_tilt_eval_on_a_nearly_periodic_golden_mean_tilt(golden):
    # psi in [-1, 1] makes the tilt at q = 5 nearly period 2; plain power
    # iteration ran into its 10**6-step cap here
    rng = np.random.default_rng(202)
    phi = random_potential(rng, golden, 2, lo=-0.5, hi=0.5)
    psi = random_potential(rng, golden, 2, lo=-1.0, hi=1.0)
    start = time.perf_counter()
    pr, mean = tilt_eval(phi, psi, 5.0)
    assert time.perf_counter() - start < 1.0
    ref_pr, ref_mean = _dense_tilt(phi, psi, 5.0)
    assert abs(pr - ref_pr) <= 1e-12 and abs(mean - ref_mean) <= 1e-12


def test_level_beyond_the_overflow_cap_reports_boundary(bernoulli, full2):
    """psi spreads over [0, 1], but its two mixed words sit at 1e-4: a level
    just above 0 needs a tilt past the overflow cap 700 / max|psi - 1/2|, so
    it reports ``boundary`` with the objective at the cap, a lower bound
    above the rate at the reachable level 2e-4."""
    phi, _ = bernoulli
    psi = make_pot(full2, 2, {"11": 0.0, "12": 1e-4, "21": 1e-4, "22": 1.0})
    reachable = rate_function(phi, psi, 2e-4)
    assert reachable.status == "interior"
    capped = rate_function(phi, psi, 3e-5)
    assert capped.status == "boundary" and capped.q_star is None
    assert math.isfinite(capped.value)
    assert capped.value > reachable.value


def test_maximiser_between_the_last_doubling_probe_and_the_cap(bernoulli, full2):
    """With the psi above the cap is 1400, and at p = 5.05e-5 the maximiser
    lies near -1305, past the last doubling probe -1024: the slope changes
    sign at the probe -1400, so the level is interior, with its slope at
    q* within TOL_GRAD of 0 on a cold solve of the centred family."""
    phi, _ = bernoulli
    psi = make_pot(full2, 2, {"11": 0.0, "12": 1e-4, "21": 1e-4, "22": 1.0})
    p = 5.05e-5
    rv = rate_function(phi, psi, p)
    assert rv.status == "interior" and -1400.0 < rv.q_star < -1024.0
    family = tilted_family(phi, psi)
    _, mean, _ = replace(family, psi_e=family.psi_e - 0.5).tilt(rv.q_star)
    assert abs((p - 0.5) - mean) <= rate.TOL_GRAD


def test_probes_stay_inside_a_cap_below_one(bernoulli, full2):
    """psi = {1: 0, 2: 2000} puts the overflow cap at 0.7, inside the probe
    ±1: p = 1 brackets at the cap and equals the fair coin's rate at head
    frequency 1/2000, and the endpoint p = 0 stops at the cap with no
    overflow warning."""
    phi, _ = bernoulli
    psi = make_pot(full2, 1, {"1": 0.0, "2": 2000.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        inside, end = rate_levels(phi, psi, (1.0, 0.0))
    f = 1.0 / 2000.0
    assert inside.status == "interior"
    assert abs(inside.value - (f * math.log(2 * f) + (1 - f) * math.log(2 * (1 - f)))) <= 1e-12
    assert end.status == "boundary" and math.isfinite(end.value)


def test_endpoint_values_reach_the_endpoint_rate(bernoulli, full2):
    """An endpoint level sweeps its probes up to the overflow cap, so its
    lower bound reaches the rate of the extreme orbit: log 2 at both ends
    for the fair coin, and -log 0.4, the rate of the fixed point 2^inf, at
    the lower end of PAPER.md's chi_K against Bernoulli(0.6, 0.4)."""
    phi, psi = bernoulli
    for rv in rate_levels(phi, psi, (0.0, 1.0)):
        assert rv.status == "boundary" and abs(rv.value - math.log(2)) <= 1e-12, rv
    phi = normalize_potential(make_pot(full2, 1, {"1": math.log(0.6), "2": math.log(0.4)}))
    for pad in (4, 6, 8, 10):
        psi = indicator_example(full2, [(1, 1, 1)], pad=pad, theta=0.5)
        (rv,) = rate_levels(phi, psi, [1.0 - 3.0 / (pad + 1)])
        assert rv.status == "boundary" and abs(rv.value + math.log(0.4)) <= 1e-12, (pad, rv)


def test_overflowing_tilt_raises_no_convergence(bernoulli_model):
    """exp(phi + 800*psi) is infinite on the bernoulli fixture: the tilt is
    refused, naming q, before any step and without a numpy warning."""
    phi = normalize_potential(bernoulli_model.f)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NoConvergence, match="q = 800.0"):
            tilt_eval(phi, bernoulli_model.psi, 800.0)


@pytest.mark.parametrize("call, error", [
    (lambda f, psi: rate_function(f, psi, 0.5), ModelMismatch),
    (lambda f, psi: pressure_curve(normalize_potential(f), psi, (0.0, 1.0, 0.5)), ValidationError),
])
def test_rate_refuses_bad_arguments(bernoulli_model, call, error):
    # the fixture's f = 0 is not normalised; the grid is not sorted
    with pytest.raises(error):
        call(bernoulli_model.f, bernoulli_model.psi)


def test_lockstep_raises_a_failed_interpolated_tilt_and_stops_later_levels(
    monkeypatch, bernoulli
):
    """On the 3-level grid (0.3, 0.7, 0.9), the first interpolated tilt of
    the middle level is answered with a ``NoConvergence``: ``_maximise``
    raises it (a failed tilt that is not a doubling probe), ``rate_levels``
    raises that very error, and the last level, still running, is sent
    nothing from the round the middle level failed in."""
    phi, psi = bernoulli
    grid = (0.3, 0.7, 0.9)
    free = rate_levels(phi, psi, grid)
    assert [rv.status for rv in free] == ["interior"] * 3
    err = NoConvergence("forced")
    sends = {p: 0 for p in grid}
    finished, injected = set(), []
    maximise = rate._maximise

    def spied(base, probes, p, level, at_boundary, q_cap):
        gen = maximise(base, probes, p, level, at_boundary, q_cap)
        reply = None
        while True:
            sends[p] += 1
            try:
                ask = gen.send(reply)
            except StopIteration as stop:
                finished.add(p)
                return stop.value
            reply = yield ask
            if p == grid[1] and not injected and isinstance(ask[1], rate._Start):
                injected.append(ask)
                reply = err

    monkeypatch.setattr(rate, "_maximise", spied)
    with pytest.raises(NoConvergence) as raised:
        rate_levels(phi, psi, grid)
    assert raised.value is err
    ((q, _, shared),) = injected
    assert not shared and 0.0 < q
    # the middle level's last send raised it; the last level, unfinished,
    # was sent one fewer
    assert grid[2] not in finished
    assert sends[grid[2]] == sends[grid[1]] - 1


def test_levels_from_threads_on_one_cold_potential(random_model):
    """Four threads, each at its own level, call ``rate_function`` at once on
    one cold ``(phi, psi)``, with a short switch interval, so they build,
    solve and keep its family and probes concurrently: every result equals
    the serial one by ``float.hex``."""
    grid = (0.25, 0.45, 0.55, 0.65)
    psi = random_model.psi
    normalized = normalize_potential(random_model.f)

    def fresh():
        return make_potential(normalized.tm, normalized.r, normalized.table, normalized.theta)

    serial = fresh()
    want = {p: _bits(rate_function(serial, psi, p)) for p in grid}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            phi = fresh()
            got = {}
            barrier = threading.Barrier(len(grid))

            def level(p, phi=phi, got=got, barrier=barrier):
                barrier.wait(timeout=30.0)
                got[p] = _bits(rate_function(phi, psi, p))

            workers = [threading.Thread(target=level, args=(p,)) for p in grid]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30.0)
            assert not any(w.is_alive() for w in workers)
            assert got == want
    finally:
        sys.setswitchinterval(interval)


def test_levels_on_shared_potentials_from_threads(random_model):
    """Threads sweeping fresh potentials at once, with a short switch
    interval, may each build the kept family; every result still equals the
    serial one by ``float.hex``."""
    grid = (0.25, 0.45, 0.65)
    phi = normalize_potential(random_model.f)
    psi = random_model.psi

    def sweep(phi):
        return [(rv.value.hex(), rv.q_star.hex()) for rv in rate_levels(phi, psi, grid)]

    want = sweep(make_potential(phi.tm, phi.r, phi.table, phi.theta))
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: got.append(sweep(phi))) for _ in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert got == [want] * 4
