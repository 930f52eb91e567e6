"""Empirical deviation probabilities of running averages.

``exact_window_mass`` sums the measure of every n-cylinder whose running
average of the observable lands in an open window, by dynamic programming
over word states with a value-indexed mass table.  When the observable's
values sit on a common rational lattice the sums are binned exactly and the
window test is decided in exact rational arithmetic, so the result carries
zero slack; otherwise values are quantised to bins of width delta/100 and the
mass near the window edges is reported as slack (the true open-window mass
lies in [mass, mass + slack]).  ``ldp_scan`` reads all its horizons off one
DP pass per method, each horizon taking the method a single call would; it
is the one-pass route to many horizons.  Single calls at rising horizons on
one measure continue one DP that the measure keeps (``_WindowDP``): a call
past the last call's horizon on the same edge steps runs at full key width
from the table the last call kept (or from step 0), and keeps its own, so
an ascending run
of calls costs about one pass to its last horizon.  Any other pass updates
only the keys from which a window can still be reached, and holds keys only
up to the last one a window reads.  A DP step is one stacked gather per key
block over the in-edge ranks (3 on a full 3-shift), not one update per
edge, and adds every term in edge-list order,
so the masses are those of a plain loop over the edges and every key, bit
for bit; each block's sum is built contiguous and written once into the
pass's one (states x keys) table, which the blocks of a step update in
place from right to left.  Every block of a pass has one width: the widest
band split evenly into the fewest blocks within ``_GATHER_BLOCK_BYTES``, a
band's last block slid left onto keys its neighbour covers, and only a band
narrower than one block taken at its own width.  So the gather, product and
sum allocate one shape step after step.  A pass's memory peak is its one
table, a row for the read-out, and about two key blocks: the gather, and
the probabilities laid out at its shape once per pass (a kept DP keeps them
at (layers, states)).  So ``DP_BUDGET_BYTES`` bounds the table memory, but
for the table's ``max(steps)`` columns of left padding.

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

#: memory budget for the one (states x keys) DP mass table a pass holds
DP_BUDGET_BYTES = 2 * 1024**3
#: largest table a measure keeps between ``exact_window_mass`` calls
KEPT_TABLE_BYTES = 64 * 1024**2
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
    """(Markov measure refined so every edge determines one observable value,
    psi on each edge of its chain by one prefix-map gather, their
    ``_lattice_steps``).  The values and their lattice are kept on the
    refined measure per observable, so repeated calls build them once."""
    require_same_space(mu.chain.graph.tm, mu.theta, psi, "measure and observable")
    mu = refine_measure(mu, psi.r - 1)
    if psi not in mu._observed:
        values = tuple(psi.values[mu.chain.graph.edge_prefix(psi.r)].tolist())
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
    destination, in edge-list order: (src, first, prob), each of shape
    (layers, states), where row j holds, for every state v, the source,
    ``max(steps) - step`` (the table column at which the edge gathers key 0)
    and probability of v's j-th in-edge, or a filler edge of probability 0
    (source 0, step 0) when v has fewer than j + 1."""
    dst = chain.graph.dst
    order = np.argsort(dst, kind="stable")
    first = np.searchsorted(dst[order], np.arange(chain.size))
    rank = np.empty(len(dst), dtype=np.intp)
    rank[order] = np.arange(len(dst)) - first[dst[order]]
    n_layers = int(rank.max()) + 1
    src = np.zeros((n_layers, chain.size), dtype=np.intp)
    step = np.zeros((n_layers, chain.size), dtype=np.intp)
    prob = np.zeros((n_layers, chain.size))
    src[rank, dst] = chain.graph.src
    step[rank, dst] = steps
    prob[rank, dst] = chain.edge_weights
    return src, max(steps) - step, prob


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


def _key_blocks(bands, keys: int) -> tuple:
    """(block, blocks): the key blocks (k0, k1) of each step's band, one list
    per band.  ``block`` splits the widest band evenly into the fewest
    blocks of at most ``keys`` keys, and every block is ``block`` keys wide
    but the one of a band narrower than that, which is the band itself.  A
    wider band is covered left to right, and its last block slides left onto
    keys the one before covers, so only the last block of a step overlaps
    another.  An empty band (lo > hi) has no block."""
    widest = max((hi - lo + 1 for lo, hi in bands), default=0)
    count = -(-widest // keys)
    block = -(-widest // count) if count > 0 else 0
    blocks = []
    for lo, hi in bands:
        if hi - lo + 1 <= block:
            blocks.append([(lo, hi + 1)] if lo <= hi else [])
        else:
            starts = [*range(lo, hi + 1 - block, block), hi + 1 - block]
            blocks.append([(k0, k0 + block) for k0 in starts])
    return block, blocks


@dataclass(eq=False)
class _WindowDP:
    """The window DP a refined measure keeps between ``exact_window_mass``
    calls, on one list of edge ``steps``: the lattice steps, or the bin steps
    of one delta.  ``h`` is the longest horizon of the last pass on them.
    ``start`` is (h, the pass's table, at step h) when that pass was a single
    call run at full key width, keys 0..h*top, else None.  ``layers`` are
    the ``_rank_layers`` of the full-width passes, built by the first of
    them."""

    steps: list
    h: int | None = None
    start: tuple | None = None
    layers: tuple | None = None


#: the key of the kept ``_WindowDP`` in a refined measure's ``_observed``
_KEPT_DP = "window_dp"


def _dp_masses(mu: MarkovMeasure, steps, windows, kept: _WindowDP | None = None):
    """Yields (n, mass per final aggregate key, summed over end states) at
    each horizon n of ``windows`` in increasing order; the key is the integer
    running total of the chain's edge ``steps``.  A row is exact at the keys
    [k0, k1) = windows[n] that horizon n reads out and unspecified elsewhere.
    One pass to the longest horizon serves all.

    Step t updates only its band (``_key_bands``): the keys from which some
    window can still be reached, none once every window is behind it.  A
    band key reads the keys 0..top below it one step earlier.  Those lie in
    the previous band, or above (t - 1)*top, where no step has yet written
    and the table is still 0.  Keys outside a band go stale, but no later
    band reads them: band starts rise by at least top per step, and a band
    end cut below t*top never rises again.  So every band key sums the same
    terms, in the same order, as a full-width update.  No band reaches past
    the last key a window reads, so the table ends there (at two keys at
    least, see below).

    With ``kept`` the pass updates every key 0..t*top at each step instead,
    so its table holds the full-width DP, keys 0..last*top: it starts from
    the kept ``start`` (t, table), copied into a zeroed table of this pass's
    width, or from step 0 when none is kept, and leaves its table at the
    last horizon there.  Its rows are exact at every key.

    A step is one stacked gather per key block, not one update per edge:
    ``_rank_layers`` stacks the in-edges by rank, and layer j gathers
    ``p * cur[u, key - step]`` for every state v and its j-th in-edge
    (u, step, p), from a sliding-window view of the table whose ``max(steps)``
    zero columns on the left stand for the keys below 0.  The layers are
    added as (layer 0 + layer 1) + layer 2 ..., so every (state, key) sums
    its in-edges in edge-list order from 0.0, exactly as a loop over the
    edges does; the zero terms from the padding and the filler edges leave
    every bit unchanged.  Each block's sum is built in a contiguous array
    and copied into the table once.

    One table holds step t - 1 and then step t: the blocks of a step run
    right to left, and each is gathered whole before it is written.  A block
    reads only keys below its own end, and the blocks to its right write
    only keys at or above that end, so no block reads a key of step t.

    Every block of a pass has one width (``_key_blocks``): the widest band
    split evenly into the fewest blocks whose stacked gather fits
    ``_GATHER_BLOCK_BYTES``; only a band narrower than that is one block of
    its own width.  So step after step the gather, the product and the sum
    allocate arrays of one shape, and the allocator reuses the memory just
    freed; temporaries whose size changed within each step had it returned
    to the system and faulted back in, about 5x the minor page faults of a
    deviation-scan round.  A band's last block slides left onto keys its
    left neighbour covers.  It runs first and writes only the keys past the
    neighbour's end; the neighbour, which reads none of those, writes the
    overlap with the same bits.  The probabilities are laid out at the
    block's shape once per pass, so the peak memory is the table, the
    read-out row and about two blocks.

    Each row sums the states at every key of the table up to n*top into one
    row buffer, so callers read it before resuming.  numpy adds two or more
    keys each in state order, whatever their number, but one key alone
    pairwise; so a table cut at its last key keeps two keys at least, and
    every row is that of the full-width update bit for bit."""
    chain = mu.chain
    size = chain.size
    top = max(steps)
    last = max(windows)
    t0, table = (0, None) if kept is None or kept.start is None else kept.start
    if kept is None:
        src, first, prob = _rank_layers(chain, steps)
        bands = _key_bands(windows, top)
        # the last key a window reads, and two keys at least
        keys = min(last * top, max(1, *(hi for _, hi in bands))) + 1
    else:
        src, first, prob = kept.layers
        kept.start = None
        bands = [(0, t * top) for t in range(t0 + 1, last + 1)]
        keys = last * top + 1
    width = top + keys
    block, blocks = _key_blocks(bands, max(1, _GATHER_BLOCK_BYTES // (8 * size * len(src))))
    prob = np.ascontiguousarray(np.broadcast_to(prob[:, :, None], prob.shape + (block,)))
    # a kept table is dropped once copied, so no more than two are held
    cur = np.zeros((size, width))
    if table is None:
        cur[:, top] = mu.pi
    else:
        cur[:, : table.shape[1]] = table
    del table
    row = np.empty(keys)
    for t, step_blocks in enumerate(blocks, t0 + 1):
        # right to left; the slid-left last block writes only the keys past
        # its left neighbour's end
        for i in range(len(step_blocks) - 1, -1, -1):
            k0, k1 = step_blocks[i]
            # shifted[u, s] is cur[u, s : s + k1 - k0], a view only read
            shifted = np.ndarray(
                (size, width - (k1 - k0) + 1, k1 - k0), cur.dtype, cur, 0,
                cur.strides + cur.strides[1:],
            )
            terms = shifted[src, first + k0]
            terms *= prob[:, :, : k1 - k0]
            # an aperiodic graph has a state with two in-edges, so two layers;
            # the sum is built contiguous and written to the table once
            total = terms[0] + terms[1]
            for term in terms[2:]:
                total += term
            k = step_blocks[i - 1][1] if i else k0
            cur[:, top + k : top + k1] = total[:, k - k0 :]
        if t in windows:
            w = min(t * top + 1, keys)
            yield t, cur[:, top : top + w].sum(axis=0, out=row[:w])
    if kept is not None:
        kept.start = (last, cur)


def _dp_pass(mu: MarkovMeasure, steps, windows, resume: bool):
    """``_dp_masses`` over ``windows`` on the refined measure mu, through the
    DP it keeps (``_WindowDP``).  With ``resume`` (a single call) past the
    kept horizon on the same steps, the pass continues the kept DP at full
    key width and keeps its table, unless that table would exceed
    ``KEPT_TABLE_BYTES`` or the window is empty.  Every other pass (the
    first on these steps, a horizon not past the kept one, a scan) runs
    banded, as cheap as a lone call can be, and drops the kept table.  Every
    pass keeps its longest horizon."""
    kept = mu._observed.get(_KEPT_DP)
    if kept is None or kept.steps != steps:
        kept = mu._observed[_KEPT_DP] = _WindowDP(steps)
    size, top, n = mu.chain.size, max(steps), max(windows)
    # an empty window reads no key, so its banded pass updates none
    full = (
        resume and kept.h is not None and n > kept.h and windows[n][0] < windows[n][1]
        and 8 * size * (top + n * top + 1) <= KEPT_TABLE_BYTES
    )
    kept.h = n
    if not full:
        kept.start = None
        return _dp_masses(mu, steps, windows)
    if kept.layers is None:
        kept.layers = _rank_layers(mu.chain, steps)
    return _dp_masses(mu, steps, windows, kept)


def _sum_in_order(masses: np.ndarray) -> float:
    """Left-to-right sum from 0.0, bit for bit the sum of a Python loop
    (numpy's ``sum`` adds pairwise)."""
    return float(np.cumsum(masses)[-1]) if len(masses) else 0.0


def _window_masses(
    mu: MarkovMeasure, psi: Potential, horizons, p: float, delta: float, resume: bool = False
) -> tuple:
    """Window mass per horizon, in input order, from at most one DP pass per
    method: lattice keys for each horizon whose table fits ``DP_BUDGET_BYTES``,
    bins of width delta/BINS_PER_DELTA (the same at every n) for the rest.
    ``resume`` lets a single horizon continue the measure's kept DP
    (``_dp_pass``)."""
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
        for n, masses in _dp_pass(mu, lattice[0], windows, resume):
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
        for n, masses in _dp_pass(mu, steps, windows, resume):
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
    in the open window (p - delta, p + delta).

    A call continues the DP its measure keeps when the last call on the
    measure ran on the same edge steps (the lattice, or the bins of the same
    delta) to a shorter horizon: it updates every key, from the table that
    call kept or else from step 0, and keeps its own table for the next (at
    most ``KEPT_TABLE_BYTES``).  So calls at rising n cost about one pass to
    the last n.  The first call on a measure, a call at an n no longer than
    the last one's, a call on other steps, a window that holds no key of the
    DP and a table over that size run the banded pass of a lone call and
    keep none.  ``ldp_scan`` is the
    one-pass route to many horizons.  The masses are the same bits either
    way."""
    return _window_masses(mu, psi, (n,), p, delta, resume=True)[0]


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
    # 0.0 - x is x negated, except that it maps +0.0 to +0.0, not -0.0
    return 0.0 - min_rate, psi_mean


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
    src, dst = chain.graph.src, chain.graph.dst
    # successor tables, states x largest out-degree: cell (u, j) holds the
    # j-th edge out of u.  Cumulative probabilities read +inf from each row's
    # last edge on, so a draw at or above a row's float total (rows miss 1 by
    # rounding) takes the last edge and paths never leave the graph
    slot = np.arange(len(src)) - np.searchsorted(src, src)
    degree = np.bincount(src, minlength=chain.size)
    width = int(degree.max())
    cum_P = np.zeros((chain.size, width))
    cum_P[src, slot] = chain.edge_weights
    cum_P = np.cumsum(cum_P, axis=1)
    cum_P[np.arange(width) >= degree[:, None] - 1] = np.inf
    cum_flat = cum_P.ravel()
    cell = src * width + slot
    # a state is held as the first cell of its row
    succ = np.zeros(chain.size * width, dtype=np.intp)
    succ[cell] = dst * width
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
