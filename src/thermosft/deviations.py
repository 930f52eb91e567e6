"""Empirical deviation probabilities of running averages.

``exact_window_mass`` sums the measure of every n-cylinder whose running
average of the observable lands in an open window, by dynamic programming
over word states with a value-indexed mass table.  When the observable's
values sit on a common rational lattice the sums are binned exactly and the
window test is decided in exact rational arithmetic, so the result carries
zero slack; otherwise values are quantised to bins of width delta/100 and the
mass near the window edges is reported as slack (the true open-window mass
lies in [mass, mass + slack]).  ``ldp_scan`` reads all its horizons off one
DP pass per method, each horizon taking the method a single call would.

``sample_paths`` estimates the same probability by seeded Monte Carlo and is
bit-reproducible: the generator is numpy's default PCG64 and each step draws
the next edge by inverse CDF against the cumulative probabilities of the
current state's out-edges (at most s0 of them), so a fixed seed fixes the
entire draw sequence.  On a value lattice it sums integer lattice steps and
decides the window with the same exact edges as the DP, so both methods
agree on which atoms the open window holds.

Both methods run on the edge arrays of the measure's ``chain``, refined so
that every edge carries one value of the observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import Infeasible, ModelMismatch, ValidationError
from .potentials import Potential
from .transfer import MarkovMeasure, integrate, refine_measure

#: memory budget for the DP mass table
DP_BUDGET_BYTES = 2 * 1024**3
#: largest denominator attempted when reconstructing a value lattice
LATTICE_MAX_DEN = 10**6
#: bins per window half-width in the quantised fallback
BINS_PER_DELTA = 100
#: normal quantile of the 95% Wilson score interval behind Monte Carlo slack
WILSON_Z = 1.96


@dataclass(frozen=True)
class WindowMass:
    """Mass of {running average in (p - delta, p + delta)} at horizon n.

    ``log_rate`` is log(mass)/n (-inf for zero mass).  ``slack`` is 0 for the
    exact lattice method; for the binned method it is the mass that may fall
    either side of the window edges, and for Monte Carlo the half-width of
    the 95% Wilson score interval for the hit fraction, which stays positive
    when no trial hits the window.
    """

    n: int
    p: float
    delta: float
    mass: float
    log_rate: float
    method: str
    slack: float


def _log_rate(mass: float, n: int) -> float:
    return math.log(mass) / n if mass > 0.0 else -math.inf


def _edge_data(mu: MarkovMeasure, psi: Potential):
    """Markov chain refined so every edge determines one observable value;
    returns (measure, value of psi on each edge of its chain)."""
    if not mu.chain.tm.same_space(psi.tm) or mu.theta != psi.theta:
        raise ModelMismatch("measure and observable live over different shift spaces")
    mu = refine_measure(mu, psi.r - 1)
    words = mu.chain.state_words
    values = [
        psi.table[(words[u] + words[v][-1:])[: psi.r]]
        for u, v in zip(mu.chain.src.tolist(), mu.chain.dst.tolist())
    ]
    return mu, values


def _lattice_steps(values):
    """(steps, g, offset, den) with every value ``(g*step + offset)/den`` for
    an integer step >= 0, or None off a common rational lattice (value
    denominators up to LATTICE_MAX_DEN, their lcm up to 10**9)."""
    fracs = []
    for v in values:
        fr = Fraction(v).limit_denominator(LATTICE_MAX_DEN)
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


def _window_keys(n: int, p: float, delta: float, lattice) -> tuple:
    """(lo, hi) with -1 <= lo and hi <= n*max(steps) + 1 such that n lattice
    values totalling ``key`` steps average inside the open window
    (p - delta, p + delta) exactly when lo < key < hi.

    Window edges are reconstructed like the values: an edge within float
    noise of a simple rational is treated as exactly on it, so the open
    window excludes that lattice atom.  The total is (g*key + n*offset)/den.
    """
    steps, g, offset, den = lattice
    lo = (Fraction(p) - Fraction(delta)).limit_denominator(LATTICE_MAX_DEN) * n
    hi = (Fraction(p) + Fraction(delta)).limit_denominator(LATTICE_MAX_DEN) * n
    key_lo = math.floor((lo * den - n * offset) / g)
    key_hi = math.ceil((hi * den - n * offset) / g)
    return max(key_lo, -1), min(key_hi, n * max(steps) + 1)


def _dp_masses(mu: MarkovMeasure, steps, horizons):
    """Yields (n, mass per final aggregate key, summed over end states) at
    each horizon n in increasing order; the key is the integer running total
    of the chain's edge ``steps``.  One pass to the longest horizon serves
    all, as keys t steps cannot reach stay exactly 0; for the same reason
    step t updates only the keys up to t*max(steps).  Callers drop each row
    before resuming, so it does not add to the peak of the two tables."""
    chain = mu.chain
    size = chain.size
    top = max(steps)
    n_keys = max(horizons) * top + 1
    if size * n_keys * 8 > DP_BUDGET_BYTES:
        raise Infeasible(
            f"DP table of {size} states x {n_keys} keys exceeds the 2 GiB budget; "
            "use the Monte Carlo estimator"
        )
    edges = list(zip(chain.src.tolist(), chain.dst.tolist(), steps, chain.edge_weights.tolist()))
    cur = np.zeros((size, n_keys))
    cur[:, 0] = mu.pi
    for t in range(1, max(horizons) + 1):
        w = min(n_keys, t * top + 1)
        nxt = np.zeros((size, n_keys))
        for u, v, step, p_uv in edges:
            nxt[v, step:w] += p_uv * cur[u, : w - step]
        cur = nxt
        if t in horizons:
            yield t, cur.sum(axis=0)[: t * top + 1]


def _window_masses(mu: MarkovMeasure, psi: Potential, horizons, p: float, delta: float) -> tuple:
    """Window mass per horizon, in input order, from at most one DP pass per
    method: lattice keys for each horizon whose table fits ``DP_BUDGET_BYTES``,
    bins of width delta/BINS_PER_DELTA (the same at every n) for the rest."""
    horizons = [int(n) for n in horizons]
    if any(n < 1 for n in horizons):
        raise ValidationError(f"n must be >= 1, got {min(horizons)}")
    if delta <= 0.0:
        raise ValidationError(f"delta must be positive, got {delta}")
    mu, values = _edge_data(mu, psi)

    found = {}
    lattice = _lattice_steps(values)
    exact = set()
    if lattice is not None:
        top = max(lattice[0])
        exact = {n for n in horizons if mu.chain.size * (n * top + 1) * 8 <= DP_BUDGET_BYTES}
    if exact:
        for n, masses in _dp_masses(mu, lattice[0], exact):
            lo, hi = _window_keys(n, p, delta, lattice)
            mass = 0.0
            for key in range(lo + 1, hi):
                mass += float(masses[key])
            del masses
            found[n] = WindowMass(
                n=n, p=p, delta=delta, mass=mass, log_rate=_log_rate(mass, n),
                method="exact_dp", slack=0.0,
            )

    # quantised fallback: per-step rounding drifts the average by at most
    # half a bin, so edge bands of that width are reported as slack
    binned = set(horizons) - exact
    if binned:
        width = delta / BINS_PER_DELTA
        quant = [round(v / width) for v in values]
        offset = min(quant)
        left, right, half = p - delta, p + delta, width / 2.0
        for n, masses in _dp_masses(mu, [qv - offset for qv in quant], binned):
            mass = 0.0
            slack = 0.0
            for key in range(len(masses)):
                m = float(masses[key])
                if m == 0.0:
                    continue
                avg = (key + n * offset) * width / n
                if left + half < avg < right - half:
                    mass += m
                elif left - half <= avg <= left + half or right - half <= avg <= right + half:
                    slack += m
            del masses
            found[n] = WindowMass(
                n=n, p=p, delta=delta, mass=mass, log_rate=_log_rate(mass, n),
                method="binned_dp", slack=slack,
            )
    return tuple(found[n] for n in horizons)


def exact_window_mass(
    mu: MarkovMeasure, psi: Potential, n: int, p: float, delta: float
) -> WindowMass:
    """Measure of the set of points whose n-step running average of psi lies
    in the open window (p - delta, p + delta)."""
    return _window_masses(mu, psi, (n,), p, delta)[0]


@dataclass(frozen=True, eq=False)
class LdpScan:
    """Fixed-window decay scan with its theoretical reference level.

    ``reference`` is minus the smallest rate-function value over the closed
    window: the limit the per-n log rates approach from below as the horizon
    grows.  Only fixed-window trends are reported; the iterated
    shrinking-window limit is out of reach at finite n.
    """

    entries: tuple
    reference: float
    psi_mean: float

    @property
    def log_rates(self) -> tuple:
        return tuple(e.log_rate for e in self.entries)

    def increasing_from(self, n_from: int) -> bool:
        rates = [e.log_rate for e in self.entries if e.n >= n_from]
        return all(b > a for a, b in zip(rates, rates[1:]))


def window_reference(mu: MarkovMeasure, psi: Potential, rate_fn, p: float, delta: float):
    """(-min rate over the closed window, mean of psi).  The rate function is
    convex with its zero at the mean, so the window minimum sits at the mean
    when covered and at the nearer window edge otherwise."""
    psi_mean = integrate(mu, psi)
    if p - delta <= psi_mean <= p + delta:
        min_rate = 0.0
    else:
        endpoint = p + delta if psi_mean > p + delta else p - delta
        min_rate = rate_fn(endpoint).value
    return -min_rate, psi_mean


def ldp_scan(
    mu: MarkovMeasure, psi: Potential, rate_fn, n_list, p: float, delta: float
) -> LdpScan:
    """Exact window masses over a horizon list against -min(rate) on the
    window.  ``rate_fn`` maps a level to a rate-function evaluation.  One DP
    pass per method serves every horizon."""
    reference, psi_mean = window_reference(mu, psi, rate_fn, p, delta)
    entries = _window_masses(mu, psi, n_list, p, delta)
    return LdpScan(entries=entries, reference=reference, psi_mean=psi_mean)


def sample_paths(
    mu: MarkovMeasure,
    psi: Potential,
    n: int,
    trials: int,
    seed: int,
    p: float,
    delta: float,
) -> WindowMass:
    """Monte Carlo estimate of the window mass.

    Paths start from the stationary vector and step along the chain's
    out-edges; all draws are uniform doubles from ``numpy.random.default_rng``
    (PCG64) consumed in a fixed order, so identical seeds give bit-identical
    results.  When psi has a value lattice each path sums integer lattice
    steps and the window is decided exactly, as in ``exact_window_mass``.
    ``slack`` is the half-width of the 95% Wilson score interval.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    mu, values = _edge_data(mu, psi)
    chain = mu.chain
    lattice = _lattice_steps(values)
    # on a lattice each path sums integer steps, so the window test is exact
    steps = np.array(values if lattice is None else lattice[0])

    # successor tables, states x largest out-degree: cell (u, j) holds the
    # j-th edge out of u.  Cumulative probabilities read +inf from each row's
    # last edge on, so a draw at or above a row's float total (rows miss 1 by
    # rounding) takes the last edge and paths never leave the graph
    slot = np.arange(len(chain.src)) - np.searchsorted(chain.src, chain.src)
    degree = np.bincount(chain.src, minlength=chain.size)
    width = int(degree.max())
    cum_P = np.zeros((chain.size, width))
    cum_P[chain.src, slot] = chain.edge_weights
    cum_P = np.cumsum(cum_P, axis=1)
    cum_P[np.arange(width) >= degree[:, None] - 1] = np.inf
    cell = chain.src * width + slot
    succ = np.zeros(chain.size * width, dtype=np.intp)
    succ[cell] = chain.dst
    step_of = np.zeros(chain.size * width, dtype=steps.dtype)
    step_of[cell] = steps

    rng = np.random.default_rng(seed)
    cum_pi = np.cumsum(mu.pi)
    states = np.minimum(np.searchsorted(cum_pi, rng.random(trials)), chain.size - 1)
    sums = np.zeros(trials, dtype=steps.dtype)
    for _ in range(n):
        draws = rng.random(trials)
        cells = states * width + (cum_P[states] <= draws[:, None]).sum(axis=1)
        sums += step_of[cells]
        states = succ[cells]
    if lattice is None:
        avgs = sums / n
        inside = (avgs > p - delta) & (avgs < p + delta)
    else:
        lo, hi = _window_keys(n, p, delta, lattice)
        inside = (sums > lo) & (sums < hi)
    hits = int(np.count_nonzero(inside))
    mass = hits / trials
    z2 = WILSON_Z**2 / trials
    slack = WILSON_Z / (1.0 + z2) * math.sqrt(mass * (1.0 - mass) / trials + z2 / (4.0 * trials))
    return WindowMass(
        n=n, p=p, delta=delta, mass=mass, log_rate=_log_rate(mass, n),
        method="monte_carlo", slack=slack,
    )
