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

from conftest import (
    FIXTURES,
    dense,
    make_pot,
    planted_potentials,
    random_aperiodic,
    random_potential,
)


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


def test_interior_fixture_levels_take_at_most_8_solves():
    for name, levels in FIXTURE_LEVELS.items():
        model = load_model(FIXTURES / f"{name}.json")
        phi = normalize_potential(model.f)
        for rv in rate_levels(phi, model.psi, levels):
            assert rv.status == "interior", (name, rv)
            assert rv.iterations <= 8, (name, rv)


def test_golden_mean_flat_slope_level_takes_at_most_13_solves(golden_model):
    # the slope flattens towards the endpoint 0.5; Illinois alone took 32
    phi = normalize_potential(golden_model.f)
    p = 0.49999999
    rv = rate_function(phi, golden_model.psi, p)
    assert rv.status == "interior"
    assert abs(rv.value - _golden_legendre(p)) <= 1e-9
    assert rv.iterations <= 13, rv


def test_level_next_to_a_spread_endpoint_takes_at_most_12_solves(monkeypatch):
    """The large-model benchmark's 5^4 model at seed 0, p = 28/30, next to
    the spread endpoint 1 with its root bracketed in (4, 5), where a fit of
    the slopes alone guesses far outside the bracket.  The value matches the
    objective at q* built from dense ``eigvals``."""
    monkeypatch.syspath_prepend(str(FIXTURES.parent / "perfbench"))
    from workloads import LARGE_MODELS, planted_tables

    s0, r, _ = LARGE_MODELS[1]
    f, psi_table = planted_tables(np.random.default_rng([0, 1]), s0, r)
    tm = sft.validate_transitions(np.ones((s0, s0), dtype=int))
    phi = normalize_potential(make_pot(tm, r, f))
    psi = make_pot(tm, r, psi_table)
    p = 28 / 30
    rv = rate_function(phi, psi, p)
    assert rv.status == "interior", rv
    assert rv.iterations <= 12, rv

    def dense_pressure(q):
        W = dense(build_transfer_matrix(affine_combine(phi, psi, q), k_min=psi.r))
        return math.log(max(np.linalg.eigvals(W).real))

    oracle = p * rv.q_star - (dense_pressure(rv.q_star) - dense_pressure(0.0))
    assert abs(rv.value - oracle) <= 1e-9, (rv, oracle)


def test_step_falls_back_to_illinois_when_interpolation_leaves_the_bracket():
    # the fit of P(q) = q**3 / 3 has slope q**2, which never reaches -1:
    # Newton wanders and does not settle
    cube = [(q, q**3 / 3, q * q) for q in (0.5, 1.0, 0.0)]
    guess = rate._hermite_root(cube, -1.0)
    assert guess is None
    secant = rate._secant(0.5, 0.9, 1.0, -1.0)
    assert rate._next_tilt(guess, 0.5, 1.0, 0.5, 0.9, 1.0, -1.0) == secant
    # inside the bracket it is taken, unless it moves half the older step
    inside = 0.5 * (0.5 + secant)
    assert rate._next_tilt(inside, 0.5, 1.0, 0.5, 0.9, 1.0, -1.0) == inside
    assert rate._next_tilt(inside, 0.5, 0.01, 0.5, 0.9, 1.0, -1.0) == secant
    # equal slopes fit a line, whose second derivative 0 gives no step
    line = [(q, 0.25 * q, 0.25) for q in (0.0, 1.0, 0.5)]
    assert rate._hermite_root(line, 0.1) is None
    assert rate._next_tilt(None, 0.5, 1.0, 0.5, 1.0, 1.0, -1.0) == rate._secant(
        0.5, 1.0, 1.0, -1.0
    )


@pytest.mark.parametrize("coeffs", [
    (0.7, 0.3, 0.5),
    (-1.2, -0.5, 0.8, 0.1),
    (0.1, -1.0, 0.6, -0.05, 0.02),
    (0.4, 0.2, 0.45, 0.03, -0.02, 0.01, 0.004),
    (2.0, -0.8, 0.5, 0.07, -0.011, 0.003, 0.001, -0.0004, 0.0002, -0.0001),
])
def test_hermite_root_is_exact_on_pressures_of_degree_9(coeffs):
    """When the pressure is a convex polynomial of degree at most 9, the
    Hermite fit through five of its nodes is the pressure itself, and Newton
    from the first node returns a tilt whose slope is the level."""

    def slope(q):
        return sum(k * c * q ** (k - 1) for k, c in enumerate(coeffs) if k)

    nodes = [(q, sum(c * q**k for k, c in enumerate(coeffs)), slope(q))
             for q in (0.5, 0.0, 1.0, 0.25, 0.75)]
    for target in (0.05, 0.4, 0.6, 0.95):
        root = rate._hermite_root(nodes, slope(target))
        assert abs(slope(root) - slope(target)) <= 1e-12, (target, root)


def test_hermite_root_is_finite_or_none_on_degenerate_nodes():
    """Pressures near the overflow cap's 700, nodes 1e-12 apart, equal
    slopes and a fitted second derivative of exactly 0 give a finite tilt
    or None, with no exception and no numpy warning, as when the benchmark
    runs under ``-W error::RuntimeWarning``."""
    rng = np.random.default_rng(7)
    near = [1.0 + k * 1e-12 for k in range(5)]
    cases = [
        [(q, 700.0 + q, 1.0) for q in near],
        [(q, 700.0 * q, 700.0) for q in near],
        [(np.float64(q), np.float64(700.0 - 0.5 * k), np.float64(k))
         for k, q in enumerate(near)],
        [(q, float(rng.uniform(699.0, 701.0)), float(rng.uniform(-1.0, 1.0)))
         for q in near],
        [(float(k), 700.0 + 2.0 * k, 2.0) for k in range(5)],
        [(float(k), 700.0 + 3.0 * k + 0.5 * k * k, 3.0 + k) for k in range(5)],
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for nodes in cases:
            for level in (-1e300, -2.0, 0.0, 0.5, 2.0, 1e300):
                root = rate._hermite_root(nodes, level)
                assert root is None or (type(root) is float and math.isfinite(root)), (
                    nodes, level, root)


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


def _on_lattice(q, q_cap):
    """Whether q is a doubling probe ``±2**j`` or the cap ``±q_cap``, or a
    midpoint of depth at most ``BISECT_DEPTH`` between two consecutive
    points of that chain, 0 included."""
    side = [0.0] + [2.0**j for j in range(64) if 2.0**j < q_cap] + [q_cap]
    x = abs(q)
    for u, v in zip(side, side[1:]):
        if u < x <= v:
            return ((x - u) / (v - u) * 2**rate.BISECT_DEPTH).is_integer()
    return False


def test_rate_levels_solve_each_doubling_probe_once(monkeypatch):
    """On the bernoulli fixture's grid 0.05:0.95:0.05 the lattice probes
    (doubling probes and bracket midpoints) are shared by the levels, so
    the sweep makes fewer Perron solves than one ``rate_function`` per
    level, fewer even than the levels' own tilts beside the base, and every
    value is the same.  The probes are then kept on the centred family, so
    the one-by-one calls after the sweep solve only their own tilts, none
    of them a probe: exactly the sweep's solves less its probes.  The base
    is the family's kept q = 0 solve, shared by the sweep and every later
    call, so no call solves it through ``tilts``."""
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
    # the cap is 1400: every probe is a signed power of two, the cap, or a
    # midpoint between two consecutive ones
    assert kept and all(_on_lattice(q, 1400.0) for q in kept), sorted(kept)
    assert any(abs(q) != 2.0 ** round(math.log2(abs(q))) for q in kept), sorted(kept)
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


def _failing_at(monkeypatch, bad: float) -> None:
    """From now on the solve of tilt ``bad`` gives a ``NoConvergence``."""
    tilts = transfer.TiltedFamily.tilts

    def failing(self, qs, starts=None):
        solved = tilts(self, qs, starts)
        return [NoConvergence("forced") if q == bad else t for q, t in zip(qs, solved)]

    monkeypatch.setattr(transfer.TiltedFamily, "tilts", failing)


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
    _failing_at(monkeypatch, 8.0)
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
    with monkeypatch.context() as patch:
        _failing_at(patch, 8.0)
        forced = rate_function(phi, psi, 1.0)
    assert forced.status == "boundary" and forced.iterations < free.iterations
    kept = _centred_family(phi, psi).probes
    assert 4.0 in kept and 8.0 not in kept
    assert _bits(rate_function(phi, psi, 1.0)) == _bits(free)
    assert 8.0 in kept


def test_another_centre_solves_probes_of_its_own(monkeypatch, full2):
    """Probes are kept for the centre of psi's own spread only: a call with
    a wider spread (so another centre and cap) on a phi whose probes are
    kept for its own spread solves its own probes, equals that call on a
    fresh phi, and keeps none of them, so a repeat asks for the same tilts
    again and the kept probes are those of psi's own centre alone."""
    phi, psi = _fair_coin(full2)
    wide = replace(cohomology_spread(psi), min_mean=-0.5)
    grid = (0.0, 0.3, 0.5, 0.8)
    want = [_bits(rv) for rv in rate_levels(*_fair_coin(full2), grid, spread=wide)]
    rate_levels(phi, psi, grid)
    own = dict(_centred_family(phi, psi).probes)
    asked = _asked_tilts(monkeypatch)
    assert [_bits(rv) for rv in rate_levels(phi, psi, grid, spread=wide)] == want
    first = list(asked)
    assert first
    assert [_bits(rv) for rv in rate_levels(phi, psi, grid, spread=wide)] == want
    assert asked[len(first):] == first
    assert list(tilted_family(phi, psi)._centred) == [0.5]
    assert _centred_family(phi, psi).probes == own


def test_foreign_spreads_leave_no_kept_family(full2):
    """50 calls with spreads other than psi's own, each widened by another
    0.01, keep no centred family beside psi's own and leave its probes as
    they were.  On a psi whose spread is not yet known a passed spread is
    taken as its own, so its family keeps one centred family, which psi's
    own replaces once it is known."""
    phi, psi = _fair_coin(full2)
    own = cohomology_spread(psi)
    foreign = [replace(own, min_mean=own.min_mean - 0.01 * i) for i in range(1, 51)]
    rate_levels(phi, psi, (0.3, 0.8))
    family = tilted_family(phi, psi)
    kept, probes = dict(family._centred), dict(_centred_family(phi, psi).probes)
    for spread in foreign:
        rate_levels(phi, psi, (0.3, 0.8), spread=spread)
    assert family._centred == kept
    assert _centred_family(phi, psi).probes == probes
    phi, psi = _fair_coin(full2)
    for spread in foreign:
        rate_levels(phi, psi, (0.3,), spread=spread)
    assert len(tilted_family(phi, psi)._centred) == 1
    rate_levels(phi, psi, (0.3,))
    assert list(tilted_family(phi, psi)._centred) == [0.5]


#: random_range3 spreads over [0.0902, 0.7362] about its mean 0.4239
LATTICE_LEVEL = 0.37
LATTICE_OTHERS = tuple(round(0.11 + 0.03 * i, 2) for i in range(10)) + tuple(
    round(0.45 + 0.028 * i, 3) for i in range(10)
)


def test_a_level_does_not_depend_on_what_filled_the_lattice(monkeypatch):
    """One level's ``RateValue`` is the same by ``float.hex``, q* included,
    on a cold family, after the same call, and after 20 other levels on
    both sides of the mean have filled the lattice, where it reads every
    probe it needs and solves only its own tilts."""
    model = load_model(FIXTURES / "random_range3.json")
    phi = normalize_potential(model.f)
    cold = rate_function(phi, model.psi, LATTICE_LEVEL)
    assert cold.status == "interior"
    assert _bits(rate_function(phi, model.psi, LATTICE_LEVEL)) == _bits(cold)
    phi = normalize_potential(model.f)
    assert all(rv.status == "interior" for rv in rate_levels(phi, model.psi, LATTICE_OTHERS))
    asked = _asked_tilts(monkeypatch)
    assert _bits(rate_function(phi, model.psi, LATTICE_LEVEL)) == _bits(cold)
    assert not set(asked) & set(_centred_family(phi, model.psi).probes)
    # beside the base and its own tilts, at least a bracket end and the
    # midpoints were read
    assert len(asked) <= cold.iterations - 1 - (1 + rate.BISECT_DEPTH), (asked, cold)


def _counted_power_steps(monkeypatch) -> list:
    """The block size of every power step from now on, in order."""
    steps = []
    block_step = transfer._block_step

    def counted(Ts, tilts, kinds):
        step = block_step(Ts, tilts, kinds)

        def counting(X):
            steps.append(len(kinds))
            return step(X)

        return counting

    monkeypatch.setattr(transfer, "_block_step", counted)
    return steps


def test_a_fresh_level_on_a_warm_family_makes_fewer_power_steps(monkeypatch):
    """A level no call has asked for makes fewer power steps on a family
    whose lattice 20 other levels have filled than on a cold one (both with
    the q = 0 solve made), and gives the same value."""
    model = load_model(FIXTURES / "random_range3.json")
    steps = _counted_power_steps(monkeypatch)
    phi = normalize_potential(model.f)
    tilted_family(phi, model.psi).zero
    del steps[:]
    cold = rate_function(phi, model.psi, LATTICE_LEVEL)
    cold_steps = len(steps)
    phi = normalize_potential(model.f)
    rate_levels(phi, model.psi, LATTICE_OTHERS)
    del steps[:]
    warm = rate_function(phi, model.psi, LATTICE_LEVEL)
    assert _bits(warm) == _bits(cold)
    assert 0 < len(steps) < cold_steps, (len(steps), cold_steps)


def test_warm_interior_levels_make_at_most_two_solves(monkeypatch):
    """On the planted 4^4 family, once a grid call has kept the lattice,
    each interior level at the tilted means of q = -1.3, -1.1, -0.9, -0.7,
    -0.3, 0.3, 0.7 and 0.9 reads its probes and solves at most 2 tilts of
    its own: a five-node start and the Hermite fit of the pressure and its
    slope through the five nodes whose slopes lie nearest 0.  Each value
    equals the grid's."""
    phi, psi = planted_potentials(4)
    family = tilted_family(phi, psi)
    levels = [float(family.tilt(q)[1]) for q in (-1.3, -1.1, -0.9, -0.7, -0.3, 0.3, 0.7, 0.9)]
    swept = rate_levels(phi, psi, levels)
    assert all(rv.status == "interior" for rv in swept), swept
    asked = _asked_tilts(monkeypatch)
    for rv in swept:
        del asked[:]
        assert _bits(rate_function(phi, psi, rv.p)) == _bits(rv)
        assert len(asked) <= 2, (rv, asked)


def test_a_failed_midpoint_raises_at_an_interior_level_and_is_not_kept(monkeypatch, full2):
    """At p = 0.8 the fair coin brackets q* = log 4 between the probes 1 and
    2 and halves there at 1.5.  With that solve forced to fail the level
    raises, and the failed call keeps no probe, 1.5 included; once the
    failure is lifted, the next call gives the free value and keeps 1.5."""
    free = rate_function(*_fair_coin(full2), 0.8)
    phi, psi = _fair_coin(full2)
    with monkeypatch.context() as patch:
        _failing_at(patch, 1.5)
        with pytest.raises(NoConvergence, match="forced"):
            rate_function(phi, psi, 0.8)
    kept = _centred_family(phi, psi).probes
    assert 1.5 not in kept
    assert _bits(rate_function(phi, psi, 0.8)) == _bits(free)
    assert {1.0, 2.0, 1.5, 1.25} <= set(kept)


def test_a_failed_doubling_probe_raises_at_an_interior_level(monkeypatch, full2):
    """On a fair coin no call has kept probes on, the doubling probe 2 is
    forced to fail: the interior level 0.8, which brackets there, raises
    it, while the endpoint level 1, whose sweep reaches the same probe,
    stops there with the lower bound of the probes before it."""
    free = rate_function(*_fair_coin(full2), 1.0)
    phi, psi = _fair_coin(full2)
    _failing_at(monkeypatch, 2.0)
    with pytest.raises(NoConvergence, match="forced"):
        rate_function(phi, psi, 0.8)
    end = rate_function(phi, psi, 1.0)
    assert end.status == "boundary" and end.iterations == 2 < free.iterations


def test_interpolated_start_falls_back_to_the_nearest_solution():
    """Strictly inside the solved tilts the start is the Lagrange
    interpolation through the ``INTERP_NODES`` nearest (here all three); an
    interpolated entry <= 0, or a tilt outside their range, gives the
    nearest solution."""

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
