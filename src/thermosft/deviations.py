"""Empirical deviation probabilities of running averages.

``exact_window_mass`` sums the measure of every n-cylinder whose running
average of the observable lands in an open window, by dynamic programming
over word states with a value-indexed mass table.  When the observable's
values sit on a common rational lattice the sums are binned exactly and the
window test is decided in exact rational arithmetic, so the result carries
zero slack; otherwise values are quantised to bins of width delta/100 and the
mass near the window edges is reported as slack (the true open-window mass
lies in [mass, mass + slack]).  ``ldp_scan`` reads all its horizons off one
DP pass per method, each horizon taking the method a single call would.  A
DP step updates only the keys from which a window can still be reached,
with one stacked gather per key block over the in-edge ranks (3 on a full
3-shift), not one update per edge, and adds every term in edge-list order,
so the masses are those of a plain loop over the edges and every key, bit
for bit; each block's sum is built contiguous and written to the table
once.  Its memory peak is the two (states x keys) tables plus about two key
blocks: the gather and the probabilities laid out at its shape.

``sample_paths`` estimates the same probability by seeded Monte Carlo and is
bit-reproducible: the generator is numpy's default PCG64 and each step draws
the next edge by inverse CDF against the cumulative probabilities of the
current state's out-edges (at most s0 of them, compared one column at a time
for all paths, in buffers reused by every step), so a fixed seed fixes the
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

from .errors import Infeasible, ValidationError
from .potentials import Potential
from .sft import require_same_space
from .transfer import MarkovMeasure, integrate, refine_measure

#: memory budget for the DP mass table
DP_BUDGET_BYTES = 2 * 1024**3
#: largest denominator attempted when reconstructing a value lattice
LATTICE_MAX_DEN = 10**6
#: bins per window half-width in the quantised fallback
BINS_PER_DELTA = 100
#: normal quantile of the 95% Wilson score interval behind Monte Carlo slack
WILSON_Z = 1.96
#: largest stacked gather temporary of one DP update, in bytes
_GATHER_BLOCK_BYTES = 256 * 1024


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
    """(Markov chain refined so every edge determines one observable value,
    the value of psi on each edge of its chain, their ``_lattice_steps``).
    The values and their lattice are kept on the refined measure per
    observable, so repeated calls on one measure build them once."""
    require_same_space(mu.chain.tm, mu.theta, psi, "measure and observable")
    mu = refine_measure(mu, psi.r - 1)
    if psi not in mu._observed:
        words = mu.chain.state_words
        values = tuple(
            psi.table[(words[u] + words[v][-1:])[: psi.r]]
            for u, v in zip(mu.chain.src.tolist(), mu.chain.dst.tolist())
        )
        mu._observed[psi] = (values, _lattice_steps(values))
    return (mu, *mu._observed[psi])


def _lattice_steps(values):
    """(steps, g, offset, den) with every value ``(g*step + offset)/den`` for
    an integer step >= 0, or None off a common rational lattice (value
    denominators up to LATTICE_MAX_DEN, their lcm up to 10**9).  Each
    distinct value is fitted once."""
    fracs = {}
    for v in set(values):
        fr = Fraction(v).limit_denominator(LATTICE_MAX_DEN)
        if abs(v - float(fr)) > 1e-12 * max(1.0, abs(v)):
            return None
        fracs[v] = fr
    den = math.lcm(*(fr.denominator for fr in fracs.values()))
    if den > 10**9:
        return None
    ints = {v: fr.numerator * (den // fr.denominator) for v, fr in fracs.items()}
    offset = min(ints.values())
    g = math.gcd(*(i - offset for i in ints.values())) or 1
    return [(ints[v] - offset) // g for v in values], g, offset, den


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


def _rank_layers(chain, steps) -> tuple:
    """The chain's edges in layers by rank among the in-edges of their
    destination, in edge-list order: (src, step, prob), each of shape
    (layers, states), where row j holds, for every state v, the source, step
    and probability of v's j-th in-edge, or a filler edge of probability 0
    (source 0, step 0) when v has fewer than j + 1."""
    dst = chain.dst
    order = np.argsort(dst, kind="stable")
    first = np.searchsorted(dst[order], np.arange(chain.size))
    rank = np.empty(len(dst), dtype=np.intp)
    rank[order] = np.arange(len(dst)) - first[dst[order]]
    n_layers = int(rank.max()) + 1
    src = np.zeros((n_layers, chain.size), dtype=np.intp)
    step = np.zeros((n_layers, chain.size), dtype=np.intp)
    prob = np.zeros((n_layers, chain.size))
    src[rank, dst] = chain.src
    step[rank, dst] = steps
    prob[rank, dst] = chain.edge_weights
    return src, step, prob


def _key_bands(windows, top) -> list:
    """(lo, hi) for each DP step t = 1..max(windows): the keys from which a
    horizon n >= t can still reach the keys [k0, k1) = windows[n] it reads
    out, as the key rises by 0..top per step.  The band is empty (lo > hi)
    past the last horizon with a nonempty window."""
    last = max(windows)
    # per horizon n: its window's first key less n*top, and its last key
    low = np.full(last + 1, np.iinfo(np.int64).max // 2)
    high = np.full(last + 1, -1)
    for n, (k0, k1) in windows.items():
        if k0 < k1:
            low[n], high[n] = k0 - top * n, k1 - 1
    # the least and the greatest over the horizons n >= t
    low = np.minimum.accumulate(low[::-1])[::-1]
    high = np.maximum.accumulate(high[::-1])[::-1]
    t = np.arange(last + 1)
    lo = np.maximum(low + top * t, 0)
    hi = np.minimum(high, top * t)
    return list(zip(lo[1:].tolist(), hi[1:].tolist()))


def _dp_masses(mu: MarkovMeasure, steps, windows):
    """Yields (n, mass per final aggregate key, summed over end states) at
    each horizon n of ``windows`` in increasing order; the key is the integer
    running total of the chain's edge ``steps``.  A row is exact at the keys
    [k0, k1) = windows[n] that horizon n reads out and unspecified elsewhere.
    One pass to the longest horizon serves all.

    Step t updates only its band (``_key_bands``): the keys from which some
    window can still be reached, none once every window is behind it.  A
    band key reads the keys 0..top below it one step earlier.  Those lie in
    the previous band, or above (t - 1)*top, where the table holding step
    t - 1 was never written and is still 0.  Keys outside a band go stale,
    but no later band reads them: band starts rise by at least top per step,
    and a band end cut below t*top never rises again.  So every band key
    sums the same terms, in the same order, as a full-width update.

    A step is one stacked gather per key block, not one update per edge:
    ``_rank_layers`` stacks the in-edges by rank, and layer j gathers
    ``p * cur[u, key - step]`` for every state v and its j-th in-edge
    (u, step, p), from a sliding-window view of a table whose ``max(steps)``
    zero columns on the left stand for the keys below 0.  The layers are
    added as (layer 0 + layer 1) + layer 2 ..., so every (state, key) sums
    its in-edges in edge-list order from 0.0, exactly as a loop over the
    edges does; the zero terms from the padding and the filler edges leave
    every bit unchanged.  The probabilities are laid out once per call at
    the block's shape, and each block's sum is built in a contiguous array
    and copied into the table once.  Blocks keep the stacked gather within
    ``_GATHER_BLOCK_BYTES``, so the peak memory is the two tables plus about
    two blocks.

    Each row sums the states over all keys 0..n*top, as the full-width
    update did (numpy's reduction order depends on that width), into the
    spare table, so callers read it before resuming."""
    chain = mu.chain
    size = chain.size
    top = max(steps)
    src, step, prob = _rank_layers(chain, steps)
    start = top - step
    width = top + max(windows) * top + 1
    # no band is wider than the table
    block = max(1, min(width, _GATHER_BLOCK_BYTES // (8 * size * len(src))))
    prob = np.ascontiguousarray(np.broadcast_to(prob[:, :, None], prob.shape + (block,)))
    # two tables in turn: step t writes its band into the one that holds
    # step t - 2
    cur = np.zeros((size, width))
    nxt = np.zeros((size, width))
    cur[:, top] = mu.pi
    for t, (lo, hi) in enumerate(_key_bands(windows, top), 1):
        for k0 in range(lo, hi + 1, block):
            k1 = min(hi + 1, k0 + block)
            # shifted[u, s] is cur[u, s : s + k1 - k0], a view only read
            shifted = np.ndarray(
                (size, width - (k1 - k0) + 1, k1 - k0), cur.dtype, cur, 0,
                cur.strides + cur.strides[1:],
            )
            terms = shifted[src, start + k0]
            terms *= prob[:, :, : k1 - k0]
            # an aperiodic graph has a state with two in-edges, so two layers;
            # the sum is built contiguous and written to the table once
            total = terms[0] + terms[1]
            for term in terms[2:]:
                total += term
            nxt[:, top + k0 : top + k1] = total
        cur, nxt = nxt, cur
        if t in windows:
            w = t * top + 1
            # the row goes to the spare table at keys up to t*top, which
            # step t + 1 overwrites or leaves stale outside its band
            yield t, cur[:, top : top + w].sum(axis=0, out=nxt[0, top : top + w])


def _sum_in_order(masses: np.ndarray) -> float:
    """Left-to-right sum from 0.0, bit for bit the sum of a Python loop
    (numpy's ``sum`` adds pairwise)."""
    return float(np.cumsum(masses)[-1]) if len(masses) else 0.0


def _window_masses(mu: MarkovMeasure, psi: Potential, horizons, p: float, delta: float) -> tuple:
    """Window mass per horizon, in input order, from at most one DP pass per
    method: lattice keys for each horizon whose table fits ``DP_BUDGET_BYTES``,
    bins of width delta/BINS_PER_DELTA (the same at every n) for the rest."""
    horizons = [int(n) for n in horizons]
    if any(n < 1 for n in horizons):
        raise ValidationError(f"n must be >= 1, got {min(horizons)}")
    if delta <= 0.0:
        raise ValidationError(f"delta must be positive, got {delta}")
    mu, values, lattice = _edge_data(mu, psi)

    def fits(n, top):
        return mu.chain.size * (n * top + 1) * 8 <= DP_BUDGET_BYTES

    found = {}
    exact = set()
    if lattice is not None:
        top = max(lattice[0])
        exact = {n for n in horizons if fits(n, top)}
    if exact:
        windows = {}
        for n in exact:
            lo, hi = _window_keys(n, p, delta, lattice)
            windows[n] = (lo + 1, max(lo + 1, hi))
        for n, masses in _dp_masses(mu, lattice[0], windows):
            k0, k1 = windows[n]
            mass = _sum_in_order(masses[k0:k1])
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
        steps = [qv - offset for qv in quant]
        top = max(steps)
        left, right, half = p - delta, p + delta, width / 2.0
        last = max(binned)
        if not fits(last, top):
            raise Infeasible(
                f"DP table of {mu.chain.size} states x {last * top + 1} keys exceeds the "
                "2 GiB budget; use the Monte Carlo estimator"
            )

        def averages(n):
            # (key + n*offset) * width / n for keys 0..n*top, each integer
            # total rounded to float once, also past int64: the float head
            # of n*offset plus the exact small integers key + (n*offset -
            # head), one rounding in the addition
            base = n * offset
            head = float(base)
            avg = (head + (np.arange(n * top + 1) + (base - int(head)))) * width
            avg /= n
            return avg

        # the inside bins and both edge bands: the keys whose average lies
        # in [left - half, right + half]
        windows = {}
        for n in binned:
            avg = averages(n)
            near = np.flatnonzero((left - half <= avg) & (avg <= right + half))
            windows[n] = (int(near[0]), int(near[-1]) + 1) if len(near) else (0, 0)
            del avg, near
        for n, masses in _dp_masses(mu, steps, windows):
            k0, k1 = windows[n]
            avg = averages(n)[k0:k1]
            masses = masses[k0:k1]
            inside = (left + half < avg) & (avg < right - half)
            edge = ((left - half <= avg) & (avg <= left + half)) | (
                (right - half <= avg) & (avg <= right + half)
            )
            mass = _sum_in_order(masses[inside])
            slack = _sum_in_order(masses[edge & ~inside])
            del avg, inside, edge
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


def _walk_paths(mu: MarkovMeasure, steps: np.ndarray, n: int, trials: int, seed: int) -> tuple:
    """(sum of the edge ``steps`` along each path, end state of each path)
    for ``trials`` paths of n edges.  Each path starts from the stationary
    vector and takes the edge out of its state whose cumulative probability
    is the first above a uniform draw; all draws come from
    ``numpy.random.default_rng(seed)`` in a fixed order."""
    chain = mu.chain
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
    cum_flat = cum_P.ravel()
    cell = chain.src * width + slot
    # a state is held as the first cell of its row
    succ = np.zeros(chain.size * width, dtype=np.intp)
    succ[cell] = chain.dst * width
    step_of = np.zeros(chain.size * width, dtype=steps.dtype)
    step_of[cell] = steps

    rng = np.random.default_rng(seed)
    cum_pi = np.cumsum(mu.pi)
    base = np.minimum(np.searchsorted(cum_pi, rng.random(trials)), chain.size - 1) * width
    sums = np.zeros(trials, dtype=steps.dtype)
    # every step but the draws reuses these buffers.  Every index is in
    # range, so mode="clip" changes none; it spares the copy of ``out`` that
    # mode="raise" makes
    cells = np.empty_like(base)
    cum = np.empty(trials)
    below = np.empty(trials, dtype=bool)
    taken = np.empty_like(sums)
    for _ in range(n):
        draws = rng.random(trials)
        # the edge taken is the number of cumulative probabilities <= the
        # draw, counted one column at a time; the last column is +inf
        np.copyto(cells, base)
        for j in range(width - 1):
            np.take(cum_flat[j:], base, out=cum, mode="clip")
            np.less_equal(cum, draws, out=below)
            cells += below
        np.take(step_of, cells, out=taken, mode="clip")
        sums += taken
        np.take(succ, cells, out=base, mode="clip")
    return sums, base // width


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
    out-edges (``_walk_paths``); all draws are uniform doubles from
    ``numpy.random.default_rng`` (PCG64) consumed in a fixed order, so
    identical seeds give bit-identical results.  A step costs one vectorised
    comparison per out-edge column, at most s0 - 1 of them.  When psi has a
    value lattice each path sums integer lattice steps and the window is
    decided exactly, as in ``exact_window_mass``.  ``slack`` is the
    half-width of the 95% Wilson score interval.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    mu, values, lattice = _edge_data(mu, psi)
    # on a lattice each path sums integer steps, so the window test is exact
    steps = np.array(values if lattice is None else lattice[0])
    sums, _ = _walk_paths(mu, steps, n, trials, seed)
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
