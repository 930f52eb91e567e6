import gc
import math
import time
import weakref
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from thermosft import (
    BoundViolated,
    NoConvergence,
    ValidationError,
    build_transfer_matrix,
    cohomology_spread,
    cylinder_mass,
    enumerate_words,
    equilibrium_measure,
    indicator_example,
    integrate,
    make_potential,
    normalize_potential,
    rate_levels,
    refine_measure,
    rpf_solve,
    rpf_solve_block,
    tilted_family,
    validate_transitions,
    verify_rpf_bounds,
    verify_tilted_family,
)
from thermosft import transfer
from thermosft.cli import load_model
from thermosft.bounds import RpfConstants
from thermosft.transfer import _block_norms, solve_potential

from conftest import (
    FIXTURES,
    dense,
    make_pot,
    planted_potentials,
    random_aperiodic,
    random_potential,
    reference_prefix_runs,
)


def test_weight_matrices(full2, golden):
    T = build_transfer_matrix(make_pot(full2, 1, {"1": 0.0, "2": 0.0}))
    assert np.array_equal(dense(T), [[1.0, 1.0], [1.0, 1.0]])

    Tg = build_transfer_matrix(make_pot(golden, 1, {"1": 0.0, "2": 0.0}))
    assert np.array_equal(dense(Tg), [[0.0, 1.0], [1.0, 1.0]])

    Th = build_transfer_matrix(make_pot(full2, 1, {"1": -math.log(2), "2": -math.log(2)}))
    assert np.allclose(dense(Th), 0.5)


def test_matrix_application_is_preimage_sum():
    rng = np.random.default_rng(41)
    for _ in range(10):
        tm = random_aperiodic(rng, int(rng.integers(2, 4)))
        f = random_potential(rng, tm, int(rng.integers(1, 4)))
        k = max(2, f.r - 1)
        T = build_transfer_matrix(f, k_min=k)
        g = rng.random(T.size)
        applied = T.apply(g)
        for wi, w in enumerate(T.graph.words):
            expected = 0.0
            for a in range(1, tm.size + 1):
                y = (a,) + w
                if not tm.is_admissible(y[:2]):
                    continue
                expected += math.exp(f.table[y[: f.r]]) * g[T.graph.index[y[:k]]]
            assert applied[wi] == pytest.approx(expected, abs=1e-12)


def test_rpf_full_shift(full2):
    _, sol = solve_potential(make_pot(full2, 1, {"1": 0.0, "2": 0.0}))
    assert sol.lam == pytest.approx(2.0, abs=1e-13)
    assert np.allclose(sol.h, 1.0, atol=1e-13)
    assert np.allclose(sol.nu, 0.5, atol=1e-13)


def test_rpf_golden_mean(golden):
    _, sol = solve_potential(make_pot(golden, 1, {"1": 0.0, "2": 0.0}))
    assert sol.lam == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)


def test_rpf_tilted_family(full2):
    for q in (-2.0, 0.5, 1.0, 3.0):
        f = make_pot(full2, 1, {"1": q, "2": 0.0})
        _, sol = solve_potential(f)
        assert sol.lam == pytest.approx(1 + math.exp(q), rel=1e-13)


def test_rpf_invariants():
    rng = np.random.default_rng(43)
    for _ in range(10):
        tm = random_aperiodic(rng, int(rng.integers(2, 4)))
        f = random_potential(rng, tm, int(rng.integers(1, 4)))
        T, sol = solve_potential(f)
        W = dense(T)
        res_h = np.max(np.abs(W.T @ sol.h - sol.lam * sol.h))
        res_nu = np.max(np.abs(W @ sol.nu - sol.lam * sol.nu))
        assert res_h <= 1e-12 * sol.lam * np.max(sol.h)
        assert res_nu <= 1e-12 * sol.lam * np.max(sol.nu)
        assert (sol.h > 0).all() and (sol.nu >= 0).all()
        assert sol.nu.sum() == pytest.approx(1.0, abs=1e-12)
        assert float(sol.h @ sol.nu) == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= sol.gap_ratio < 1.0


def test_gap_ratio_matches_dense_eigenvalues(golden):
    f = make_pot(golden, 2, {"12": 0.0, "21": 0.0, "22": 0.2})
    T, sol = solve_potential(f)
    eigs = sorted(abs(np.linalg.eigvals(dense(T))), reverse=True)
    assert sol.gap_ratio == pytest.approx(eigs[1] / eigs[0], abs=1e-6)


def test_normalize_zero_potential(full2):
    phi = normalize_potential(make_pot(full2, 1, {"1": 0.0, "2": 0.0}))
    assert phi.r == 1
    assert phi.table[(1,)] == pytest.approx(-math.log(2), abs=1e-14)
    assert phi.table[(2,)] == pytest.approx(-math.log(2), abs=1e-14)


def test_normalize_idempotent(full2):
    phi = normalize_potential(make_pot(full2, 1, {"1": 0.0, "2": 0.0}))
    again = normalize_potential(phi)
    for w, v in again.table.items():
        assert v == pytest.approx(phi.table[w[: phi.r]], abs=1e-12)


def test_normalize_indicator_tilt(full2):
    phi = normalize_potential(make_pot(full2, 1, {"1": 1.0, "2": 0.0}))
    assert phi.r == 1
    assert phi.table[(1,)] == pytest.approx(1 - math.log(1 + math.e), abs=1e-12)
    assert phi.table[(2,)] == pytest.approx(-math.log(1 + math.e), abs=1e-12)


def test_normalize_unit_action_and_eigenvalue(golden):
    f = make_pot(golden, 2, {"12": 0.0, "21": 0.0, "22": 0.2})
    phi = normalize_potential(f)
    T = build_transfer_matrix(phi)
    assert np.max(np.abs(T.apply(np.ones(T.size)) - 1.0)) <= 1e-10
    _, sol = solve_potential(phi)
    assert abs(sol.lam - 1.0) <= 1e-12


def test_normalize_preserves_equilibrium(golden):
    f = make_pot(golden, 2, {"12": 0.0, "21": 0.0, "22": 0.2})
    phi = normalize_potential(f)
    mu_f = equilibrium_measure(f, k=2)
    mu_phi = equilibrium_measure(phi, k=2)
    for w in enumerate_words(golden, 3):
        assert cylinder_mass(mu_f, w) == pytest.approx(cylinder_mass(mu_phi, w), abs=1e-10)


def test_equilibrium_uniform(full2):
    mu = equilibrium_measure(make_pot(full2, 1, {"1": -math.log(2), "2": -math.log(2)}))
    assert np.allclose(mu.pi, 0.5, atol=1e-13)
    assert np.allclose(dense(mu.chain), 0.5, atol=1e-13)


def test_equilibrium_tilted_bernoulli(full2):
    q = 1.3
    z = math.log(1 + math.exp(q))
    f = make_pot(full2, 1, {"1": q - z, "2": -z})
    mu = equilibrium_measure(f)
    p1 = math.exp(q) / (1 + math.exp(q))
    assert mu.pi[0] == pytest.approx(p1, abs=1e-12)
    assert mu.pi[1] == pytest.approx(1 - p1, abs=1e-12)
    assert np.allclose(dense(mu.chain), [[p1, 1 - p1], [p1, 1 - p1]], atol=1e-12)


def test_equilibrium_markov_invariants():
    rng = np.random.default_rng(47)
    for _ in range(8):
        tm = random_aperiodic(rng, int(rng.integers(2, 4)))
        f = random_potential(rng, tm, int(rng.integers(1, 4)))
        mu = equilibrium_measure(f, k=2)
        P = dense(mu.chain)
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(mu.pi @ P - mu.pi)) <= 1e-12
        assert (mu.pi > 0).all()


def test_cylinder_mass_examples(full2, golden):
    mu = equilibrium_measure(make_pot(full2, 1, {"1": -math.log(2), "2": -math.log(2)}))
    assert cylinder_mass(mu, (1, 1, 2, 1)) == pytest.approx(1 / 16, abs=1e-15)
    total = sum(cylinder_mass(mu, w) for w in enumerate_words(full2, 5))
    assert total == pytest.approx(1.0, abs=1e-10)

    mug = equilibrium_measure(make_pot(golden, 1, {"1": 0.0, "2": 0.0}))
    assert cylinder_mass(mug, (1, 1, 2)) == 0.0


def test_cylinder_mass_through_an_edge_of_probability_zero(full2):
    """A hand-built chain on the full 2-shift whose edge 1 -> 2 has
    probability 0: a word walking that edge is admissible in the shift but
    has mass 0.0, and the words around it keep their products."""
    mu = equilibrium_measure(make_pot(full2, 1, {"1": -math.log(2), "2": -math.log(2)}))
    chain = mu.chain
    probs = {(1, 1): 1.0, (1, 2): 0.0, (2, 1): 0.5, (2, 2): 0.5}
    weights = np.array([probs[chain.graph.words[u] + chain.graph.words[v]]
                        for u, v in zip(chain.graph.src.tolist(), chain.graph.dst.tolist())])
    pi = np.array([2.0 / 3.0, 1.0 / 3.0])
    cut = transfer.MarkovMeasure(
        theta=mu.theta, pi=pi, chain=replace(chain, edge_weights=weights)
    )
    assert cylinder_mass(cut, (1, 2)) == 0.0
    assert cylinder_mass(cut, (2, 1, 1, 2, 2)) == 0.0
    assert cylinder_mass(cut, (2, 1, 1)) == pytest.approx(1.0 / 6.0, rel=1e-15)


def test_cylinder_mass_consistency(golden):
    f = make_pot(golden, 2, {"12": 0.1, "21": -0.2, "22": 0.2})
    mu = equilibrium_measure(f, k=2)
    for w in enumerate_words(golden, 3):
        left = sum(cylinder_mass(mu, (a,) + w) for a in (1, 2))
        right = sum(cylinder_mass(mu, w + (a,)) for a in (1, 2))
        mass = cylinder_mass(mu, w)
        assert left == pytest.approx(mass, abs=1e-12)
        assert right == pytest.approx(mass, abs=1e-12)


def test_cylinder_mass_short_words_and_refinement(golden):
    f = make_pot(golden, 2, {"12": 0.1, "21": -0.2, "22": 0.2})
    mu = equilibrium_measure(f, k=2)
    fine = refine_measure(mu, 4)
    for w in enumerate_words(golden, 5):
        assert cylinder_mass(fine, w) == pytest.approx(cylinder_mass(mu, w), abs=1e-12)
    for w in enumerate_words(golden, 1):
        assert cylinder_mass(mu, w) == pytest.approx(
            sum(cylinder_mass(mu, v) for v in enumerate_words(golden, 2) if v[:1] == w),
            abs=1e-14,
        )


def _dense_cylinder_mass(mu, P, w):
    """The cylinder mass as first written: a log-space walk over the dense
    transition matrix P."""
    k = mu.chain.graph.k
    log_mass = math.log(mu.pi[mu.chain.graph.index[w[:k]]])
    for t in range(len(w) - k):
        p = P[mu.chain.graph.index[w[t : t + k]], mu.chain.graph.index[w[t + 1 : t + 1 + k]]]
        if p <= 0.0:
            return 0.0
        log_mass += math.log(p)
    return math.exp(log_mass)


def test_refinement_on_edges_matches_dense_gather():
    """Reference: the refinement as first written, on the dense coarse
    matrix P: each fine edge took the entry of P between the tails of its two
    states, and each fine state the cylinder mass of its word, a sum of logs.
    The edge arrays must agree exactly.  The masses are now products of
    m = k_new - k factors, m roundings, so each lies within m ulps of the
    exact rational product of the same floats; the sum of logs strays
    further (up to 11 ulps on this corpus).  The cylinder mass on the edge
    arrays is the dense walk bit for bit."""
    rng = np.random.default_rng(59)
    for _ in range(12):
        tm = random_aperiodic(rng, int(rng.integers(2, 4)))
        f = random_potential(rng, tm, int(rng.integers(1, 4)))
        mu = equilibrium_measure(f, k=max(1, f.r - 1))
        coarse, P = mu.chain, dense(mu.chain)
        k, m = coarse.graph.k, int(rng.integers(1, 4))
        fine = refine_measure(mu, k + m)
        words = enumerate_words(tm, k + m)
        tail = np.array([coarse.graph.index[w[-k:]] for w in words], dtype=np.intp)
        assert fine.chain.graph.words == tuple(words)
        gathered = P[tail[fine.chain.graph.src], tail[fine.chain.graph.dst]]
        assert np.array_equal(fine.chain.edge_weights, gathered)
        for w, mass in zip(words, fine.pi.tolist()):
            states = [coarse.graph.index[w[t : t + k]] for t in range(m + 1)]
            exact = Fraction(float(mu.pi[states[0]]))
            for u, v in zip(states, states[1:]):
                exact *= Fraction(float(P[u, v]))
            assert abs(Fraction(mass) - exact) <= m * math.ulp(float(exact))
            assert mass == pytest.approx(_dense_cylinder_mass(mu, P, w), rel=1e-14)
        for w in enumerate_words(tm, k + m + 2):
            assert cylinder_mass(mu, w) == _dense_cylinder_mass(mu, P, w)


def _normalize_with_dict_trim(f):
    """Reference: the normalised table as first written, trimmed by grouping
    the words on their prefix one level at a time; returns (range, table)."""
    T, sol = solve_potential(f)
    k = T.graph.k
    log_h = np.log(sol.h)
    r_out = max(f.r, k + 1)
    table = {}
    for w in enumerate_words(f.tm, r_out):
        head = T.graph.index[w[:k]]
        tail = T.graph.index[w[1 : k + 1]]
        table[w] = f.table[w[: f.r]] + float(log_h[head]) - float(log_h[tail]) - sol.log_lambda
    while r_out > 1:
        groups = {}
        for w, v in table.items():
            groups.setdefault(w[:-1], set()).add(v)
        if all(len(vals) == 1 for vals in groups.values()):
            table = {w: next(iter(vals)) for w, vals in groups.items()}
            r_out -= 1
        else:
            break
    return r_out, table


def test_normalize_trim_matches_dict_grouping(full2):
    """The trim on prefix runs keeps the range and the value bits of the
    dict grouping: on seeded potentials (no trim) and on potentials of the
    first symbol alone, held on 2 and 3 symbols, which trim by 1 and by 2
    levels on the full shift (h is constant there)."""
    rng = np.random.default_rng(61)
    cases = []
    for _ in range(10):
        tm = random_aperiodic(rng, int(rng.integers(2, 4)))
        cases.append((random_potential(rng, tm, int(rng.integers(1, 4))), None))
    first = {1: 0.3, 2: -0.45}
    for r in (2, 3):
        table = {w: first[w[0]] for w in enumerate_words(full2, r)}
        cases.append((make_potential(full2, r, table, 0.5), r - 1))
    for f, levels in cases:
        phi = normalize_potential(f)
        r_ref, table = _normalize_with_dict_trim(f)
        if levels is not None:
            assert phi.r == r_ref == max(2, f.r) - levels
        assert phi.r == r_ref
        assert {w: v.hex() for w, v in phi.table.items()} == {w: v.hex() for w, v in table.items()}


def test_integrate(full2):
    mu = equilibrium_measure(make_pot(full2, 1, {"1": -math.log(2), "2": -math.log(2)}))
    psi = make_pot(full2, 1, {"1": 1.0, "2": 0.0})
    assert integrate(mu, psi) == pytest.approx(0.5, abs=1e-13)

    q = 1.0
    z = math.log(1 + math.e)
    tilt = equilibrium_measure(make_pot(full2, 1, {"1": q - z, "2": -z}))
    assert integrate(tilt, psi) == pytest.approx(math.e / (1 + math.e), abs=1e-12)

    const = make_pot(full2, 1, {"1": 0.37, "2": 0.37})
    assert integrate(mu, const) == pytest.approx(0.37, abs=1e-14)

    wide = make_pot(full2, 3, {w: 1.0 if w == "111" else 0.0 for w in
                               ("111", "112", "121", "122", "211", "212", "221", "222")})
    assert integrate(mu, wide) == pytest.approx(1 / 8, abs=1e-13)


def _integrate_on_refined_states(mu, g):
    """Reference: the integral as first written, a sum over the states of
    the measure refined to ``g.r``-word states, each read by its word."""
    fine = refine_measure(mu, g.r)
    return float(sum(fine.pi[i] * g.table[sw[: g.r]] for i, sw in enumerate(fine.chain.graph.words)))


def _integrate_cases():
    """(phi, g): each fixture's normalised f against its psi, chi_K pads 0-10
    against Bernoulli(0.6, 0.4) and 30 seeded models with g of range 1-5."""
    for stem in ("bernoulli", "golden_mean", "random_range3"):
        model = load_model(str(FIXTURES / f"{stem}.json"))
        yield normalize_potential(model.f), model.psi
    full2 = validate_transitions([[1, 1], [1, 1]])
    coin = normalize_potential(make_pot(full2, 1, {"1": math.log(0.6), "2": math.log(0.4)}))
    for pad in range(11):
        yield coin, indicator_example(full2, [(1, 1, 1)], pad=pad, theta=0.5)
    rng = np.random.default_rng(71)
    for _ in range(30):
        tm = random_aperiodic(rng, int(rng.integers(2, 4)))
        phi = normalize_potential(random_potential(rng, tm, int(rng.integers(1, 4))))
        yield phi, random_potential(rng, tm, int(rng.integers(1, 6)))


def test_integrate_sums_the_edges_of_the_chain_one_symbol_short():
    """A potential longer than the states by two or more symbols is summed
    over the edges of the ``(g.r - 1)``-word chain the window DP uses, each
    edge weighted by ``pi[src] * p``: the measure gains no ``g.r`` level, and
    the value is that of the sum over the ``g.r``-word states bit for bit."""
    longer = 0
    for phi, g in _integrate_cases():
        mu = equilibrium_measure(phi, k=max(1, phi.r - 1))
        value = integrate(mu, g)
        assert g.r not in mu._refined
        assert set(mu._refined) == set(range(mu.chain.graph.k + 1, g.r))
        longer += g.r > mu.chain.graph.k + 1
        fresh = equilibrium_measure(phi, k=max(1, phi.r - 1))
        assert value.hex() == _integrate_on_refined_states(fresh, g).hex()
    assert longer >= 20


def test_bound_report_refuses_a_deviation_above_its_envelope(golden):
    """Constants too tight for the observed decay: the envelope check of
    the bound report raises at the first step."""
    f = make_pot(golden, 2, {"12": 0.0, "21": 0.0, "22": 0.2})
    g = make_pot(golden, 1, {"1": 1.0, "2": 0.0})
    tight = RpfConstants(
        mode="measured", rho=0.1, log_rho=math.log(0.1), log_D=-50.0,
        log_h_norm_bound=0.0, log_h_min_bound=0.0, source_params={},
    )
    with pytest.raises(BoundViolated, match="exceeds geometric envelope at n=1"):
        verify_rpf_bounds(f, 5, g, consts=tight)


def test_bound_report_refuses_a_sandwich_its_eigenfunction_misses(golden):
    """A solution whose h is flattened to a constant pins the iterates of 1
    to 1, which the matrix of a potential that is not normalised leaves at
    the first step: the sandwich check raises."""
    f = make_pot(golden, 2, {"12": 0.0, "21": 0.0, "22": 0.2})
    g = make_pot(golden, 1, {"1": 1.0, "2": 0.0})
    _, sol = solve_potential(f)
    flat = replace(sol, h=np.ones_like(sol.h))
    with pytest.raises(BoundViolated, match="eigenvalue sandwich for iterated 1 fails at n=1"):
        transfer._rpf_bound_reports(((flat, g),), 5)[0]


def test_tilted_family_refuses_a_pinch_tighter_than_the_tilt(full2):
    """With c0 = 0 the pinch allows no eigenvalue off 1, which the tilt at
    -q0 has: the pinch check raises there."""
    phi = normalize_potential(make_pot(full2, 1, {"1": 0.0, "2": 0.0}))
    psi = make_pot(full2, 1, {"1": 1.0, "2": 0.0})
    consts = RpfConstants(
        mode="measured", rho=0.55, log_rho=math.log(0.55), log_D=0.0,
        log_h_norm_bound=0.0, log_h_min_bound=0.0, source_params={},
    )
    with pytest.raises(BoundViolated, match="eigenvalue pinch fails at q=-0.5"):
        verify_tilted_family(phi, psi, q0=0.5, c0=0.0, consts=consts, n_max=3)


def test_tilted_family_refuses_an_eigenfunction_outside_its_envelope(golden_model):
    """A kept q = 0 solve whose h is tilted by 10% across the states: the
    eigenvalue still passes the pinch, and the envelope, which at q0 = 0 and
    a vanishing decay term pins h to 1, raises."""
    phi = normalize_potential(golden_model.f)
    psi = golden_model.psi
    family = tilted_family(phi, psi)
    sol = family.zero
    ramp = np.linspace(0.95, 1.05, sol.h.size)
    phi._solves[family.base.graph.k] = replace(sol, h=sol.h * ramp)
    consts = RpfConstants(
        mode="measured", rho=0.5, log_rho=math.log(0.5), log_D=-800.0,
        log_h_norm_bound=0.0, log_h_min_bound=0.0, source_params={},
    )
    with pytest.raises(BoundViolated, match="eigenfunction envelope fails at q=-0.0, n=1"):
        verify_tilted_family(phi, psi, q0=0.0, c0=1.0, consts=consts, n_max=3)


def test_normalize_refuses_a_table_without_unit_row_action(monkeypatch, random_model):
    """A Perron solve whose h is tilted across the states corrects the
    table by the wrong coboundary: the normalised matrix misses unit row
    action and ``normalize_potential`` raises instead of returning it."""
    solve = transfer.rpf_solve

    def tilted(T, start=None):
        sol = solve(T, start)
        return replace(sol, h=sol.h * np.linspace(0.9, 1.1, sol.h.size))

    monkeypatch.setattr(transfer, "rpf_solve", tilted)
    with pytest.raises(NoConvergence, match="violates unit row action"):
        normalize_potential(random_model.f)


def test_one_step_convergence_for_range_one(full2):
    f = make_pot(full2, 1, {"1": 0.4, "2": -0.1})
    g = make_pot(full2, 1, {"1": 1.0, "2": 0.0})
    report = verify_rpf_bounds(f, 10, g)
    assert max(report.deviation_sup) <= 1e-14


def test_deviation_decay_matches_gap(golden):
    f = make_pot(golden, 2, {"12": 0.0, "21": 0.0, "22": 0.2})
    g = make_pot(golden, 1, {"1": 1.0, "2": 0.0})
    report = verify_rpf_bounds(f, 30, g)
    assert report.fitted_ratio is not None
    assert abs(report.fitted_ratio - report.gap_ratio) <= 0.05


def test_envelope_check_accepts_loose_constants(golden):
    f = make_pot(golden, 2, {"12": 0.0, "21": 0.0, "22": 0.2})
    g = make_pot(golden, 1, {"1": 1.0, "2": 0.0})
    consts = RpfConstants(
        mode="measured", rho=0.9, log_rho=math.log(0.9), log_D=math.log(50.0),
        log_h_norm_bound=0.0, log_h_min_bound=0.0, source_params={},
    )
    report = verify_rpf_bounds(f, 30, g, consts=consts)
    assert report.paper_bound_checked


def test_theta_seminorm_of_state_vectors(full2):
    words = enumerate_words(full2, 3)
    vec = np.array([1.0 if w == (1, 1, 1) else 0.0 for w in words])
    ((sup, semi),) = _block_norms(vec[None], reference_prefix_runs(words), (0.5,))
    assert sup == 1.0
    # variation 1 persists at depth 1, scaled by 1/theta
    assert semi == 2.0


def test_tilted_family_envelope(full2):
    phi = normalize_potential(make_pot(full2, 1, {"1": 0.0, "2": 0.0}))
    psi = make_pot(full2, 1, {"1": 1.0, "2": 0.0})
    consts = RpfConstants(
        mode="measured", rho=0.55, log_rho=math.log(0.55), log_D=0.0,
        log_h_norm_bound=0.0, log_h_min_bound=0.0, source_params={},
    )
    c0 = math.log(2) + 2
    report = verify_tilted_family(phi, psi, q0=1e-5, c0=c0, consts=consts, n_max=20)
    assert all(abs(v) <= 1e-5 * c0 + 1e-12 for v in report.log_lambdas)


def _plain_power_steps(matvec, size):
    """Reference: unshifted power iteration from the all-ones start with the
    library's stopping rule; returns the step count."""
    x = np.full(size, 1.0 / size)
    for it in range(1, 10**6 + 1):
        y = matvec(x)
        total = y.sum()
        residual = np.max(np.abs(y - total * x)) / total
        x = y / total
        if residual <= transfer.RESIDUAL_TOL:
            return it
    raise AssertionError("reference power iteration did not converge")


def _planted_family():
    """The tilted family of ``planted_potentials``: 256 transfer states."""
    family = tilted_family(*planted_potentials())
    assert family.base.size == 256
    return family


def _one_row(matvec, start):
    """``_power_iterate`` on the one-row block of ``start``, a vector of
    unit sum: (eigenvector, step count)."""
    X, (steps,) = transfer._power_iterate(lambda rows: lambda X: matvec(X[0])[None], start[None])
    return X[0], steps


def test_shifted_power_iteration_on_planted_tilt():
    family = _planted_family()
    # the tilts of rate levels inside the spread, where the shift must not
    # engage at a cost, and q = -4, near the orbit 123, where it must.  At
    # q = -2 and 3 a positive eigenvalue sits just below the oscillating
    # ones, so the shift can measure slower than plain and switch back; it
    # re-arms, and at q = 3 it changes mode seven times in 103 steps.
    # From q = 5 on, near the orbit 1122, the spectrum is nearly of period
    # 4: plain steps of the left row number 17118 at q = 5 and 113389 at
    # q = 6, and pass the cap at q = 8 and 10, where the shift must engage.
    # At q = -32, -20, -16, 4, 20 and 32 some row's opening transient
    # engages the shift, which switches back within a few steps, so only a
    # shift that engages again converges there in under 200 steps
    for q in (-4.0, -2.0, -1.0, -0.8, 0.6, 1.0, 3.0, 5.0):
        T = family.at(q)
        for matvec in (T.apply, T.adjoint):
            shifted = _one_row(matvec, np.full(T.size, 1.0 / T.size))[1]
            plain = _plain_power_steps(matvec, T.size)
            assert shifted <= 1.1 * plain, (q, shifted, plain)
            if q == -4.0:
                assert 10 * shifted < plain, (shifted, plain)
    for q in (-32.0, -20.0, -16.0, 4.0, 5.0, 6.0, 8.0, 10.0, 16.0, 20.0, 32.0):
        T = family.at(q)
        for matvec in (T.apply, T.adjoint):
            steps = _one_row(matvec, np.full(T.size, 1.0 / T.size))[1]
            assert steps < 200, (q, steps)


def test_boundary_sweep_on_planted_tilts_reaches_the_cap():
    """At the top of the planted spread the sweep of ``rate_levels`` solves
    q = 0, 1, 2, 4, ..., 1024 and the overflow cap 700 / max|psi - 1/2| =
    1400, each probe started from the one before, and reports the best of
    them: the value of cold solves of the same tilts of the family centred
    on the spread (uncentred tilts past about 700 overflow)."""
    phi, psi = planted_potentials()
    spread = cohomology_spread(psi)
    p = spread.max_mean
    (rv,) = rate_levels(phi, psi, [p])
    assert rv.status == "boundary" and rv.iterations == 13
    centre = 0.5 * (spread.min_mean + spread.max_mean)
    family = tilted_family(phi, psi)
    centred = replace(family, psi_e=family.psi_e - centre)
    q_cap = 700.0 / float(np.max(np.abs(centred.psi_e)))
    assert q_cap == 1400.0
    p0 = centred.solve(0.0).log_lambda
    best = max(
        (p - centre) * q - (centred.solve(q).log_lambda - p0)
        for q in [2.0**j for j in range(11)] + [q_cap]
    )
    assert abs(rv.value - best) <= 1e-12, (rv.value, best)


def test_rpf_solve_equals_two_single_row_iterations(bernoulli_model, golden_model, random_model):
    """The block iteration of h and nu gives the vectors and step count of
    one single-row iteration per vector, bit for bit.  At the planted
    q = -4, h started from its own solution stops at step 1 and nu, started
    from uniform, runs on alone to step 103."""
    cases = [(build_transfer_matrix(normalize_potential(m.f)), None)
             for m in (bernoulli_model, golden_model, random_model)]
    family = _planted_family()
    cases += [(family.at(q), None) for q in (-4.0, -2.0, 3.0, 5.0)]
    cases.append((family.at(0.6), family.solve(0.5)))
    own = SimpleNamespace(h=family.solve(-4.0).h, nu=np.ones(family.base.size))
    cases.append((family.at(-4.0), own))
    steps = []
    for T, start in cases:
        sol = rpf_solve(T, start)
        if start is None:
            h0 = nu0 = np.full(T.size, 1.0 / T.size)
        else:
            h0, nu0 = start.h / start.h.sum(), start.nu / start.nu.sum()
        h_raw, it_h = _one_row(T.apply, h0)
        nu_raw, it_nu = _one_row(T.adjoint, nu0)
        nu = nu_raw / nu_raw.sum()
        h = h_raw / float(h_raw @ nu)
        assert sol.h.tobytes() == h.tobytes() and sol.nu.tobytes() == nu.tobytes()
        assert sol.iterations == max(it_h, it_nu)
        steps.append((it_h, it_nu))
    assert steps[6] == (86, 86)
    assert steps[8] == (1, 103)


def _assert_same_solve(got, want):
    assert got.h.tobytes() == want.h.tobytes() and got.nu.tobytes() == want.nu.tobytes()
    assert got.lam.hex() == want.lam.hex() and got.log_lambda.hex() == want.log_lambda.hex()
    assert got.iterations == want.iterations


def test_block_solve_equals_one_solve_per_tilt(bernoulli_model, golden_model, random_model, full2):
    """Several tilts of one family solved as one block give, tilt by tilt,
    what ``rpf_solve`` gives alone, bit for bit, cold or warm started: on
    the planted family, tilts whose shift stays on (q = -4, 5, 8) beside
    tilts whose shift switches back (q = -2, 3).  On
    the near-diagonal family q = 30, whose solve fails at step 512, gets
    its own error beside tilts that stop at steps 2 and 10, which are
    unchanged; so does a tilt that loses positivity."""
    qs = (-2.0, -0.5, 0.0, 0.7, 3.0)
    for model in (bernoulli_model, golden_model, random_model):
        family = tilted_family(normalize_potential(model.f), model.psi)
        near = family.solve(0.6)
        starts = (None, near, None, near, family.solve(2.5))
        block = rpf_solve_block([family.at(q) for q in qs], starts)
        for q, start, sol in zip(qs, starts, block):
            _assert_same_solve(sol, rpf_solve(family.at(q), start))
    family = _planted_family()
    qs = (-4.0, -2.0, 3.0, 5.0, 8.0)
    block = rpf_solve_block([family.at(q) for q in qs])
    for q, sol in zip(qs, block):
        _assert_same_solve(sol, family.solve(q))
    family = _near_diagonal_family(full2)
    qs = (0.0, 0.5, 30.0)
    block = rpf_solve_block([family.at(q) for q in qs])
    for q, sol in zip(qs[:-1], block):
        _assert_same_solve(sol, family.solve(q))
    assert [sol.iterations for sol in block[:-1]] == [2, 10]
    with pytest.raises(NoConvergence, match="cannot reach") as solo:
        family.solve(30.0)
    assert isinstance(block[2], NoConvergence) and str(block[2]) == str(solo.value)
    # a tilt whose weights overflow loses positivity at its first step
    family = tilted_family(normalize_potential(bernoulli_model.f), bernoulli_model.psi)
    with np.errstate(over="ignore"):
        kept, lost = rpf_solve_block([family.at(0.7), family.at(1e4)])
        with pytest.raises(NoConvergence, match="lost positivity") as solo:
            family.solve(1e4)
    _assert_same_solve(kept, family.solve(0.7))
    assert isinstance(lost, NoConvergence) and str(lost) == str(solo.value)


def test_block_tilt_whose_perron_quotient_fails(full2):
    """On a stress model a tilt's vectors can converge with no finite
    positive Perron quotient: at q = -512 h and nu have no common support,
    and at q = 256 lambda underflows until lambda - 1 rounds to -1.  Each
    gets in the block the ``NoConvergence`` its lone solve raises, and the
    tilts beside them are their lone solves bit for bit.  A mean of psi that
    overflows is refused by ``tilt_of`` and given in place by ``tilts``."""
    model = load_model(str(FIXTURES / "stress" / "b.json"))
    family = tilted_family(normalize_potential(model.f), model.psi)
    qs = (-512.0, -1.0, 256.0, 2.0)
    block = rpf_solve_block([family.at(q) for q in qs])
    for q, sol, cause in zip(qs, block, ("h @ nu = 0.0", None, "log lambda is not finite", None)):
        if cause is None:
            _assert_same_solve(sol, family.solve(q))
            continue
        with pytest.raises(NoConvergence, match=cause) as solo:
            family.solve(q)
        assert isinstance(sol, NoConvergence) and str(sol) == str(solo.value)
    # psi of 1e300 on symbol 2: at q = 1e-298 lambda is about e^100, and
    # the flow's weighted sum overflows
    phi = make_pot(full2, 1, {"1": 0.0, "2": 0.0})
    family = tilted_family(phi, make_pot(full2, 1, {"1": 0.0, "2": 1e300}))
    kept, lost = family.tilts((0.0, 1e-298))
    assert kept[:2] == family.tilt_of(family.zero)[:2]
    with pytest.raises(NoConvergence, match="mean of psi .* is inf") as solo:
        family.tilt(1e-298)
    assert isinstance(lost, NoConvergence) and str(lost) == str(solo.value)


def test_families_go_with_their_observable(bernoulli_model):
    """phi keeps a family, its q = 0 solve, its centred family and the
    doubling probes kept on it for as long as their observable lives, and
    no longer."""
    phi = normalize_potential(bernoulli_model.f)
    psi = make_potential(phi.tm, 1, dict(bernoulli_model.psi.table), 0.5)
    family = weakref.ref(tilted_family(phi, psi))
    rate_levels(phi, psi, [0.3, 0.8])
    assert tilted_family(phi, psi) is family()
    centred = family().centred(0.5)
    assert centred.probes
    kept = [weakref.ref(sol) for _, _, sol in centred.probes.values()]
    centred = weakref.ref(centred)
    del psi
    gc.collect()
    assert family() is None and centred() is None
    assert all(sol() is None for sol in kept)


@pytest.mark.parametrize("n_max", [0, 5])
def test_rpf_bound_report_at_short_horizons(bernoulli_model, n_max):
    """n_max < 1 is refused; below 6 steps the fit has fewer than two
    points (it reads n >= 5), so there is no fitted ratio."""
    phi = normalize_potential(bernoulli_model.f)
    if n_max < 1:
        with pytest.raises(ValidationError, match="n_max must be >= 1"):
            verify_rpf_bounds(phi, n_max, bernoulli_model.psi)
    else:
        assert verify_rpf_bounds(phi, n_max, bernoulli_model.psi).fitted_ratio is None


def _near_diagonal_family(full2):
    """At q = 30 the tilted matrix is nearly diagonal with diagonal entries
    1e-7 apart: |lambda2/lambda1| is about 1 - 1e-7, so 10**6 steps shrink
    the residual by about e^-0.1 and the cap cannot be met."""
    phi = make_pot(full2, 2, {"11": 0.0, "12": 0.0, "21": 0.0, "22": 1e-7})
    psi = make_pot(full2, 2, {"11": 1.0, "12": 0.0, "21": 0.0, "22": 1.0})
    return tilted_family(phi, psi)


def test_power_iteration_fails_fast_when_the_cap_is_out_of_reach(full2):
    family = _near_diagonal_family(full2)
    start = time.perf_counter()
    with pytest.raises(NoConvergence, match="cannot reach"):
        family.tilt(30.0)
    assert time.perf_counter() - start < 1.0


def _residual(matvec, x):
    """The power iteration's residual of the direction of x."""
    x = x / x.sum()
    y = matvec(x)
    return float(np.max(np.abs(y - y.sum() * x)) / y.sum())


def _assert_same_solution(warm, cold):
    T = warm.transfer
    assert abs(warm.log_lambda - cold.log_lambda) <= 1e-12
    assert np.max(np.abs(warm.h - cold.h)) <= 1e-12
    assert np.max(np.abs(warm.nu - cold.nu)) <= 1e-12
    assert _residual(T.apply, warm.h) <= transfer.RESIDUAL_TOL
    assert _residual(T.adjoint, warm.nu) <= transfer.RESIDUAL_TOL


def test_warm_started_rpf_solve_matches_cold(random_model, golden):
    # a neighbouring tilt: the same Perron data in fewer steps
    phi = normalize_potential(random_model.f)
    family = tilted_family(phi, random_model.psi)
    near = family.solve(1.5)
    cold = family.solve(1.5001)
    warm = rpf_solve(family.at(1.5001), start=near)
    _assert_same_solution(warm, cold)
    assert warm.iterations < cold.iterations, (warm.iterations, cold.iterations)
    # a far, nearly periodic one: q = +5 started from q = -5
    rng = np.random.default_rng(202)
    phi = random_potential(rng, golden, 2, lo=-0.5, hi=0.5)
    psi = random_potential(rng, golden, 2, lo=-1.0, hi=1.0)
    family = tilted_family(phi, psi)
    warm = family.solve(5.0, start=family.solve(-5.0))
    _assert_same_solution(warm, family.solve(5.0))
