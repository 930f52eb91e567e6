"""Exact finite-matrix realisation of the weighted transfer operator.

For a range-r potential f the operator acts on functions of k coordinates
(k >= r-1) as a nonnegative matrix over admissible k-words, so its Perron
data (leading eigenvalue, eigenfunction, eigenmeasure) is computed exactly up
to solver tolerance rather than by discretising anything.  The Perron triple
feeds pressure, equilibrium Markov measures, potential normalisation and the
numerical verification of the spectral convergence bounds.

A matrix is a ``StateGraph`` plus one weight per edge, at most s0 per row,
so a mat-vec is a single ``np.bincount``, and a potential is read on the
edges by one gather of its values.  The graph is the one ``sft`` keeps for
the transition matrix and state length, so a potential, its tilted
families, its equilibrium measures and their refinements share it.  The
tilted family ``phi + q*psi`` behind pressure curves, rate functions and
the certificate is one ``TiltedFamily``, kept on phi: both edge tables are
made once per (phi, psi) and state length, the q = 0 solve once per phi and
state length (``solve_potential``, which equilibrium measures read too), and
each tilt only re-exponentiates ``phi_e + q*psi_e``.  Independent tilts on
one graph are solved as one block (``rpf_solve_block``, of which
``rpf_solve`` is the one-matrix case): a power step is one gather, product and bincount for every
row of every tilt still running, and the gap estimates and bound reports of
several solutions stack the same way.  An equilibrium Markov chain is a
``TransferMatrix`` too, its edge weights the transition probabilities, so
the deviation DP and the sampler walk the same edge arrays.  Measures work
on edges as well: the (k+1)-word states of a refinement are the k-word
chain's edges, so refining by one symbol multiplies ``pi`` by the edge
probabilities, and an integral of a longer potential sums those products
without the last refinement.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import BoundViolated, NoConvergence, ValidationError
from .potentials import Potential, _potential, hoelder_seminorm, variations
from .sft import StateGraph, Word, _frozen, enumerate_words, require_same_space, state_graph

#: relative residual at which the power iteration declares convergence
RESIDUAL_TOL = 1e-13
#: hard cap on power-iteration steps
MAX_ITERATIONS = 10**6
#: steps of the residual window over which a power-iteration row measures
#: its contraction: too slow a plain one switches the row to the shifted
#: operator, and a shifted one slower than that switches it back
_SHIFT_AFTER = 4
#: step of the first contraction check of the fail-fast rule; the checks
#: double from there, so a transient rise in the residual is outlived
_FIRST_CHECK = 256
#: deflated-iteration schedule for the contraction estimate
GAP_WARMUP = 100
GAP_MEASURE = 100
#: additive slack absorbing float rounding in certified comparisons
CHECK_SLACK = 1e-10


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Weight matrix over the k-word states of ``graph``, held on its edges.

    Edge j, the (k+1)-word w, carries ``exp(f(w))`` for the transfer
    operator of f, or the transition probability for an equilibrium chain.
    Applying the operator to a state vector g sums over preimages,
    ``apply(g)[v] = sum of edge_weights[j] * g[src[j]]`` over the edges into
    v; ``adjoint`` is the transposed action.  Every matrix on the k-word
    states of one transition matrix holds the one graph ``state_graph``
    returns.
    """

    graph: StateGraph
    edge_weights: np.ndarray

    @property
    def size(self) -> int:
        return self.graph.size

    def apply(self, g: np.ndarray) -> np.ndarray:
        graph = self.graph
        return np.bincount(graph.dst, weights=self.edge_weights * g[graph.src], minlength=self.size)

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        graph = self.graph
        return np.bincount(graph.src, weights=self.edge_weights * x[graph.dst], minlength=self.size)


def _block_step(Ts, tilts, kinds):
    """The map of a block X, on the state graph of the matrices ``Ts``, to
    its images: row i under ``Ts[tilts[i]]``, by ``apply`` or ``adjoint`` as
    ``kinds[i]`` says.  Row i gathers from the edge end its kind reads
    (``src`` for 0, ``dst`` for 1) and scatters to the other, both offset by
    ``i * size`` into the flattened block; the index arrays live as long as
    the step.  One gather, one product and one bincount; each bin adds its
    terms in edge order, so every row is that of its own one-row step bit
    for bit."""
    graph = Ts[0].graph
    size = graph.size

    def stacked(ends):
        # row 0 reads the graph's own array, so a one-row block adds nothing
        return np.concatenate([ends[k] + i * size if i else ends[k] for i, k in enumerate(kinds)])

    gather, scatter = stacked((graph.src, graph.dst)), stacked((graph.dst, graph.src))
    weights = np.concatenate([Ts[j].edge_weights for j in tilts])
    length, shape = len(kinds) * size, (len(kinds), -1)
    return lambda X: np.bincount(
        scatter, weights=weights * X.ravel()[gather], minlength=length
    ).reshape(shape)


def _row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dot product of each row of A with the same row of B, as one batched
    matmul; each equals the row pair's own ``@`` bit for bit."""
    return (A[:, None, :] @ B[:, :, None])[:, 0, 0]


def _edge_matrix(f: Potential, k: int, *observables) -> tuple:
    """(transfer matrix of f on k-word states, f on its edges, [each
    observable on its edges]); a potential is read on the edge's word, by
    one gather of its values.  A value whose exp is 0 or infinite is
    refused: the Perron solve needs every edge weight positive and finite."""
    graph = state_graph(f.tm, k)
    f_e, *obs_e = (_frozen(g.values[graph.edge_prefix(g.r)]) for g in (f, *observables))
    with np.errstate(over="ignore"):
        weights = np.exp(f_e)
    bad = np.flatnonzero((weights == 0.0) | ~np.isfinite(weights))
    if bad.size:
        j = int(bad[0])
        raise ValidationError(
            f"exp of potential value {float(f_e[j])!r} on word "
            f"{enumerate_words(f.tm, k + 1)[j]} is "
            f"{float(weights[j])!r}: outside the float range"
        )
    return TransferMatrix(graph=graph, edge_weights=_frozen(weights)), f_e, obs_e


def build_transfer_matrix(f: Potential, k_min: int = 1) -> TransferMatrix:
    """Matrix realisation of the transfer operator of f on k-word states,
    k = max(k_min, r-1, 1)."""
    return _edge_matrix(f, max(k_min, f.r - 1, 1))[0]


@dataclass(frozen=True, eq=False)
class RpfSolution:
    """Perron triple of a transfer matrix.

    ``nu`` is the probability left eigenvector (eigenmeasure on state
    cylinders), ``h`` the positive right eigenvector scaled so that
    ``sum(h * nu) = 1``; ``log_lambda`` is computed through a two-sided
    Rayleigh quotient and log1p, which keeps pressure differences meaningful
    even when the eigenvalue is within 1e-13 of 1.  ``gap_ratio`` is the
    measured per-step contraction of the non-dominant component relative to
    the eigenvalue -- an estimate, not a certificate.  It costs 200 extra
    mat-vecs, so it is computed on first read only.
    """

    lam: float
    log_lambda: float
    h: np.ndarray
    nu: np.ndarray
    iterations: int
    transfer: TransferMatrix = field(repr=False)

    @cached_property
    def gap_ratio(self) -> float:
        return _gap_estimate((self,))[0]


class _Row:
    """What ``_power_iterate`` keeps per row between steps."""

    __slots__ = ("shifted", "recent", "plain_rate", "peak", "last_peak")

    def __init__(self):
        # plain or shifted steps, as the window rules say; each mode change
        # restarts ``recent``, the residual window (the latest residual
        # last), and leaves the fail-fast ``peak`` and ``last_peak`` alone
        self.shifted = False
        self.recent = deque(maxlen=_SHIFT_AFTER + 1)
        self.plain_rate = 0.0
        self.peak = 0.0
        self.last_peak = None


def _power_iterate(build, X: np.ndarray) -> tuple:
    """Deterministic power iteration of each row of the block X (positive
    start vectors of unit sum) under its own operator; returns the
    l1-normalised positive eigenvectors as the rows of one array and each
    row's step count.  ``build(rows)`` returns the step of the rows still
    iterating, whose indices are ``rows``: the map of their block to its
    images.  It is called at the start and again whenever rows stop.  A
    single vector is a one-row block.

    Rows 2j and 2j+1 belong to one tilt j (a lone row is a tilt of its
    own).  A row that fails stops its tilt: both rows' counts are replaced
    by the ``NoConvergence`` the tilt's own iteration raises, which is its
    first failure (lost positivity before the per-row rules within a step,
    row 2j before row 2j+1).  The other tilts go on.

    Each row follows these rules on its own and stops, frozen, at the step
    its residual reaches ``RESIDUAL_TOL``; the others go on without it.
    Plain steps ``x -> Tx / sum(Tx)`` contract the error by |lambda2/lambda1|
    per step, which tends to 1 on nearly periodic matrices (lambda2 near
    -lambda1).  Once the residual has shrunk by less than half per step
    over the last ``_SHIFT_AFTER`` steps, or grown, and the latest step
    points against the one before, the row iterates ``T + s*I`` with s the
    running Perron estimate ``sum(Tx)`` (Wilkinson's origin shift): same
    Perron vector, and the components at -lambda1, and at any eigenvalue
    of modulus near lambda1 off the positive axis, are damped.  The shift
    also slows a positive eigenvalue just below lambda1, so the plain
    contraction over that window is kept, and once the shifted residual
    shrinks more slowly over ``_SHIFT_AFTER`` steps the row returns to
    plain steps, where the same test may shift it again: either mode
    change restarts the window.  The residual is that of T in every mode.

    Besides the hard cap ``MAX_ITERATIONS``, the solve fails fast: at steps
    ``_FIRST_CHECK``, twice that, and so on, the largest residual of the
    row's window since the last check is compared with that of the window
    before, and when that contraction, kept up for every step left under the
    cap, cannot bring the residual to ``RESIDUAL_TOL``, the row fails at once.
    Window peaks, not single residuals, keep an oscillating residual from
    reading as stagnation; mode changes leave these windows alone.
    """
    count = len(X)
    rows = list(range(count))
    state = [_Row() for _ in rows]
    out = np.empty_like(X)
    iterations = [0] * count
    failed = {}
    X_prev = None
    check_at = _FIRST_CHECK
    start_at, last_start = 1, 0
    step = build(rows)
    for it in range(1, MAX_ITERATIONS + 1):
        Y = step(X)
        # ufunc reductions: the sums and maxima of ndarray.sum/max, without
        # their Python-level wrappers
        totals = np.add.reduce(Y, axis=1)
        if not all(0.0 < total < math.inf for total in totals.tolist()):
            for i, total in enumerate(totals.tolist()):
                if not 0.0 < total < math.inf:
                    lost = NoConvergence("power iteration lost positivity")
                    failed.setdefault(rows[i] // 2, lost)
                    totals[i] = 1.0  # the row is dropped below; this keeps its arithmetic quiet
        column = totals[:, None]
        residuals = (np.maximum.reduce(np.abs(Y - column * X), axis=1) / totals).tolist()
        X_new = Y / column
        done = []
        for i, row in enumerate(rows):
            if failed and row // 2 in failed:
                continue
            st, residual = state[row], residuals[i]
            st.recent.append(residual)
            if st.shifted:
                y = Y[i] + totals[i] * X[i]
                X_new[i] = y / y.sum()
                switch = len(st.recent) > _SHIFT_AFTER and residual > st.plain_rate * st.recent[0]
            else:
                switch = (
                    len(st.recent) > _SHIFT_AFTER
                    and residual > 0.5**_SHIFT_AFTER * st.recent[0]
                    and float((X_new[i] - X[i]) @ (X[i] - X_prev[i])) < 0.0
                )
            if switch:
                # residual ratio over the window, per _SHIFT_AFTER steps: the
                # shifted steps must beat it, so only an engagement's is read
                st.plain_rate = residual / st.recent[0]
                st.shifted = not st.shifted
                st.recent.clear()
                st.recent.append(residual)
            if residual <= RESIDUAL_TOL:
                out[row] = X_new[i]
                iterations[row] = it
                done.append(i)
                continue
            if residual > st.peak:
                st.peak = residual
            if it == check_at:
                if st.last_peak is not None:
                    # log contraction per step between the two windows'
                    # peaks; a decaying residual peaks where its window starts
                    rate = math.log(st.peak / st.last_peak) / (start_at - last_start)
                    if math.log(st.peak / RESIDUAL_TOL) + (MAX_ITERATIONS - it) * rate > 0.0:
                        failed[row // 2] = NoConvergence(
                            f"power iteration residual {residual:.3e} after {it} steps cannot "
                            f"reach {RESIDUAL_TOL} within {MAX_ITERATIONS} steps at its "
                            f"measured contraction {math.exp(rate):.12g} per step"
                        )
                        continue
                st.last_peak, st.peak = st.peak, 0.0
        if it == check_at:
            last_start, start_at = start_at, it + 1
            check_at *= 2
        if done or failed:
            keep = [i for i, row in enumerate(rows) if i not in done and row // 2 not in failed]
            if not keep:
                break
            if len(keep) < len(rows):
                rows = [rows[i] for i in keep]
                X, X_new = X[keep], X_new[keep]
                step = build(rows)
        X_prev, X = X, X_new
    else:
        for row in rows:
            failed.setdefault(row // 2, NoConvergence(
                f"power iteration residual above {RESIDUAL_TOL} after {MAX_ITERATIONS} steps"
            ))
    return out, tuple(failed.get(row // 2, iterations[row]) for row in range(count))


def _gap_estimate(sols) -> list:
    """Deflated power iteration of each solution, all on one state graph,
    as the rows of one block: the average log growth of the component
    complementary to the Perron direction, divided by the eigenvalue.  Row
    dots and norms are batched matmuls (``_row_dots``), so each row is its
    own one-row iteration bit for bit."""
    H = np.array([sol.h for sol in sols])
    NU = np.array([sol.nu for sol in sols])
    LH = np.array([sol.lam for sol in sols])[:, None] * H
    start = np.ones(H.shape[1])
    start[1::2] = -1.0
    # h > 0, so one parity class of w has entries of size >= 1: w is never 0
    W = start - H * _row_dots(NU, np.tile(start, (len(sols), 1)))[:, None]
    W = W / np.sqrt(_row_dots(W, W))[:, None]
    step = _block_step([sol.transfer for sol in sols], range(len(sols)), (0,) * len(sols))
    logs = [[] for _ in sols]
    vanished = set()
    for it in range(GAP_WARMUP + GAP_MEASURE):
        Y = step(W) - LH * _row_dots(NU, W)[:, None]
        norms = np.sqrt(_row_dots(Y, Y))
        for row, norm in enumerate(norms.tolist()):
            if row in vanished or norm < 1e-280:
                # no complementary component: ratio 0; the row runs on, unread
                vanished.add(row)
                norms[row] = 1.0
            elif it >= GAP_WARMUP:
                logs[row].append(math.log(norm))
        if len(vanished) == len(sols):
            break
        W = Y / norms[:, None]
    ratios = []
    for row, sol in enumerate(sols):
        ratio = 0.0 if row in vanished else math.exp(sum(logs[row]) / len(logs[row])) / sol.lam
        ratios.append(0.0 if ratio < 1e-12 else min(ratio, 1.0 - 1e-12))
    return ratios


def rpf_solve_block(Ts, starts=None) -> list:
    """Perron data of several transfer matrices on one state graph (tilts of
    one family, say) from one block iteration.

    Rows 2j and 2j+1 of the block are the right vector h (under ``apply``)
    and the left vector nu (under ``adjoint``) of ``Ts[j]``, each with its
    own stopping rule, and a step is one ``_block_step`` of every row still
    running.  ``starts[j]``, any object with positive ``h`` and ``nu`` on the
    same state graph (an earlier solution at a nearby tilt, or an
    interpolation of several), gives the rows of ``Ts[j]`` their start
    vectors; without it (``None``) both start from the all-ones vector.  The
    stopping rule is the same either way, so only the step count depends on
    it.  Each row iterates as it would alone, so every matrix gets the
    solution of its own solve bit for bit, or, where that solve fails, the
    ``NoConvergence`` it raises in place of the solution; a failure stops
    only its own matrix's rows.  A failure is one of the iteration or one of
    the Perron quotient of the converged vectors (``_solution``)."""
    n = Ts[0].size
    X = np.empty((2 * len(Ts), n))
    for j, start in enumerate(starts or (None,) * len(Ts)):
        if start is None:
            X[2 * j : 2 * j + 2] = 1.0 / n
        else:
            pair = np.array((start.h, start.nu))
            X[2 * j : 2 * j + 2] = pair / np.add.reduce(pair, axis=1, keepdims=True)
    out, steps = _power_iterate(
        lambda rows: _block_step(Ts, [r // 2 for r in rows], [r % 2 for r in rows]), X
    )
    return [
        steps[2 * j] if isinstance(steps[2 * j], NoConvergence)
        else _solution(T, out[2 * j], out[2 * j + 1], max(steps[2 * j], steps[2 * j + 1]))
        for j, T in enumerate(Ts)
    ]


def _solution(T: TransferMatrix, h_raw: np.ndarray, nu_raw: np.ndarray, iterations: int):
    """The ``RpfSolution`` of T's converged vectors, or the ``NoConvergence``
    of a Perron quotient that is not finite and positive: h and nu without
    common support, an image of h or a lambda that overflows, or rounding
    that puts lambda - 1 at or below -1."""
    nu = nu_raw / nu_raw.sum()
    scale = float(h_raw @ nu)
    if not 0.0 < scale < math.inf:
        return NoConvergence(f"converged vectors have h @ nu = {scale!r}: no Perron quotient")
    with np.errstate(over="ignore", invalid="ignore"):
        h = h_raw / scale
        z = T.apply(h)
        denom = float(nu @ h)
        lam = float(nu @ z) / denom
        delta = float(nu @ (z - h)) / denom
    if not (0.0 < lam < math.inf and -1.0 < delta < math.inf):
        return NoConvergence(
            f"Perron quotient lambda = {lam!r}, lambda - 1 = {delta!r}: log lambda is not finite"
        )
    return RpfSolution(
        lam=lam,
        log_lambda=math.log1p(delta),
        h=_frozen(h),
        nu=_frozen(nu),
        iterations=iterations,
        transfer=T,
    )


def _all_solved(results) -> list:
    """The results of block solves, once none of them is a failure; the
    first failure in their order is raised."""
    for result in results:
        if isinstance(result, NoConvergence):
            raise result
    return results


def rpf_solve(T: TransferMatrix, start=None) -> RpfSolution:
    """Perron data of a transfer matrix with deterministic iteration: the
    one-matrix case of ``rpf_solve_block``, its failure raised."""
    return _all_solved(rpf_solve_block((T,), (start,)))[0]


def _cold_solve(solves: dict, k: int, build) -> RpfSolution:
    """The solve from the all-ones start of the matrix ``build()`` makes, on
    k-word states, kept in ``solves`` (a potential's ``_solves``) by k: each
    is made once, and a failing one keeps nothing."""
    sol = solves.get(k)
    if sol is None:
        sol = solves[k] = rpf_solve(build())
    return sol


def solve_potential(f: Potential, k_min: int = 1):
    """(transfer matrix, Perron solution) of a potential on k-word states,
    k = max(k_min, r-1, 1).  The solve is kept on f, where its tilted
    families read their q = 0 solve, so it is made once per (f, k)."""
    k = max(k_min, f.r - 1, 1)
    sol = _cold_solve(f._solves, k, lambda: build_transfer_matrix(f, k))
    return sol.transfer, sol


# ---------------------------------------------------------------------------
# the tilted family phi + q*psi
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TiltedFamily:
    """The potentials ``phi + q*psi`` on one graph of k-word states.

    Both potentials are read on the (k+1)-word edges (``phi_e``, ``psi_e``),
    so psi need not be a function of the state.  ``base`` is the transfer
    matrix of phi; ``at(q)`` shares its graph and only re-exponentiates the
    edge log-weights, so no potential, state graph or dense matrix is built
    per tilt.  ``zero`` is the solve of ``base`` from the all-ones start,
    kept with phi's other such solves in ``solves`` (phi's ``_solves``,
    which ``solve_potential`` and so ``equilibrium_measure`` read too), and
    ``unit_row_error`` is computed on first read and kept; ``at(0.0)``
    carries the bits of ``base``'s weights, so ``zero`` is the q = 0 solve of
    ``tilts`` bit for bit.  A failing solve keeps nothing and raises again on
    the next read.

    ``centred(c)`` is the family along ``psi - c``; one centred family is
    kept, the last asked for with ``keep``.  ``probes`` holds the lattice
    probes ``rate_levels`` has solved on a family, by tilt: the doubling
    probes and the midpoints of its bracket halvings, successful solves
    only.  Each starts from solves that every level reaching it has made
    (its ancestors in the lattice), so a kept probe is bit for bit what a
    later call would solve.
    """

    base: TransferMatrix
    phi_e: np.ndarray
    psi_e: np.ndarray
    solves: dict = field(repr=False)
    probes: dict = field(default_factory=dict, init=False, repr=False)
    _centred: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def zero(self) -> RpfSolution:
        return _cold_solve(self.solves, self.base.graph.k, lambda: self.base)

    @cached_property
    def unit_row_error(self) -> float:
        """Largest deviation of ``base``'s row action from 1: 0 up to
        rounding exactly when phi is normalised."""
        return float(np.max(np.abs(self.base.apply(np.ones(self.base.size)) - 1.0)))

    def centred(self, centre: float, keep: bool = False) -> TiltedFamily:
        """The family along ``psi - centre``: the same matrix at every tilt,
        its means shifted by -centre.  The kept one is returned when its
        centre matches; otherwise a new one, which, with ``keep``, replaces
        the kept one, its ``probes`` included."""
        family = self._centred.get(centre)
        if family is None:
            family = replace(self, psi_e=self.psi_e - centre)
            if keep:
                self._centred.clear()
                self._centred[centre] = family
        return family

    def at(self, q: float) -> TransferMatrix:
        # an overflowing weight is inf, which ``tilt`` and ``tilts`` refuse
        # and a solve meets as lost positivity at its first step
        with np.errstate(over="ignore"):
            weights = np.exp(self.phi_e + q * self.psi_e)
        return replace(self.base, edge_weights=_frozen(weights))

    def _finite_at(self, q: float) -> TransferMatrix:
        T = self.at(q)
        if not T.edge_weights.max() < math.inf:
            raise NoConvergence(f"tilt q = {q!r} overflows: exp(phi + q*psi) is infinite")
        return T

    def solve(self, q: float, start=None) -> RpfSolution:
        """Perron solve at tilt q, started from ``start`` (see ``rpf_solve``)."""
        return rpf_solve(self.at(q), start)

    def tilt(self, q: float, start=None) -> tuple:
        """(log pressure, mean of psi under the tilted equilibrium state,
        the solution), the solve started from ``start``.  A tilt with an
        infinite edge weight raises ``NoConvergence`` before any step."""
        return self.tilt_of(rpf_solve(self._finite_at(q), start))

    def tilts(self, qs, starts=None) -> list:
        """``tilt`` at each q of qs, from one ``rpf_solve_block`` of them all;
        a tilt whose solve fails gives its ``NoConvergence`` in place of the
        tuple."""
        return [
            sol if isinstance(sol, NoConvergence) else self._tilt_of(sol)
            for sol in rpf_solve_block([self._finite_at(q) for q in qs], starts)
        ]

    def tilt_of(self, sol: RpfSolution) -> tuple:
        """``tilt`` of a solution of one of this family's matrices.  The
        equilibrium mass of edge u -> v is ``h[u] * w * nu[v]`` normalised,
        so the mean is one weighted sum over the edges; a mean that is not
        finite raises ``NoConvergence``."""
        return _all_solved((self._tilt_of(sol),))[0]

    def _tilt_of(self, sol: RpfSolution):
        """``tilt_of``, its failure returned in place of the tuple."""
        T = sol.transfer
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            flow = sol.h[T.graph.src] * T.edge_weights * sol.nu[T.graph.dst]
            mean = float((flow @ self.psi_e) / flow.sum())
        if not math.isfinite(mean):
            return NoConvergence(f"mean of psi under the tilted equilibrium state is {mean!r}")
        return sol.log_lambda, mean, sol


def tilted_family(phi: Potential, psi: Potential, k_min: int = 1) -> TiltedFamily:
    """The tilted family of phi along the observable psi on k-word states,
    k = max(k_min, phi.r - 1, psi.r - 1, 1).  It is built on the first call
    and kept on phi, by psi and k, so every later call for the same pair and
    state length returns the same family, its ``zero`` solve, its kept
    centred family and that family's lattice probes included.  psi is a weak key:
    its families, and all they keep, go when psi does."""
    require_same_space(phi.tm, phi.theta, psi, "potentials")
    k = max(k_min, phi.r - 1, psi.r - 1, 1)
    families = phi._families.setdefault(psi, {})
    family = families.get(k)
    if family is None:
        base, phi_e, (psi_e,) = _edge_matrix(phi, k, psi)
        family = families[k] = TiltedFamily(
            base=base, phi_e=phi_e, psi_e=psi_e, solves=phi._solves
        )
    return family


# ---------------------------------------------------------------------------
# normalisation
# ---------------------------------------------------------------------------


def normalize_potential(f: Potential) -> Potential:
    """Cohomologous potential with unit row action: the transfer operator of
    the result fixes the constant 1, its eigenvalue is 1 and the equilibrium
    state is unchanged.  The result lives on the minimal sufficient range
    (the eigenfunction correction cancels where it is constant)."""
    T, f_e, _ = _edge_matrix(f, max(1, f.r - 1))
    sol = rpf_solve(T)
    log_h = np.log(sol.h)
    graph = T.graph
    values = f_e + log_h[graph.src] - log_h[graph.dst] - sol.log_lambda
    # T's edges are the states of the refined graph, in order.  Trim to the
    # least range whose deeper coordinates do not matter: the variations
    # fall with depth and reach 0.0 at the whole words, each its own run
    runs = graph.refined().prefix_runs() + [np.arange(len(values))]
    r_out = 1 + variations(values, runs).index(0.0)
    # every r_out-word extends to an edge, so the runs at that depth start
    # at the r_out-words, in order
    phi = _potential(state_graph(f.tm, r_out), values[runs[r_out - 1]], f.theta)
    Tphi = build_transfer_matrix(phi)
    ones = np.ones(Tphi.size)
    err = np.max(np.abs(Tphi.apply(ones) - 1.0))
    if err > 1e-10:
        raise NoConvergence(f"normalised potential violates unit row action by {err:.3e}")
    return phi


# ---------------------------------------------------------------------------
# equilibrium Markov measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MarkovMeasure:
    """Stationary Markov measure on k-word states.

    ``chain`` holds the transition probabilities on the edges of the state
    graph: edge u -> v of weight w gets ``w * nu[v] / (lam * nu[u])``, which
    sums to 1 over each row because nu is the right eigenvector of the
    forward weight matrix.  ``pi`` is the stationary vector proportional to
    h * nu.  ``_refined`` holds the refinements ``refine_measure`` has built,
    by state length, so a measure is refined once per length; ``_observed``
    holds, per observable, what ``deviations`` reads off the chain's edges,
    so that is built once too, and the window DP ``deviations`` keeps
    between calls.
    """

    theta: float
    pi: np.ndarray
    chain: TransferMatrix
    _refined: dict = field(default_factory=dict, init=False, repr=False)
    _observed: dict = field(default_factory=dict, init=False, repr=False)


def equilibrium_measure(f: Potential, k: int = 1) -> MarkovMeasure:
    """Equilibrium state of f as a Markov measure on k-word states."""
    T, sol = solve_potential(f, k_min=k)
    pi = sol.h * sol.nu
    probs = T.edge_weights * sol.nu[T.graph.dst] / (sol.lam * sol.nu[T.graph.src])
    return MarkovMeasure(
        theta=f.theta,
        pi=_frozen(pi / pi.sum()),
        chain=replace(T, edge_weights=_frozen(probs)),
    )


def refine_measure(mu: MarkovMeasure, k_new: int) -> MarkovMeasure:
    """Exact refinement to longer word states, one symbol at a time.  The
    (k+1)-word states are the k-word chain's edges (``StateGraph.refined``):
    state e gets the mass ``pi[src[e]] * p[e]`` of its coarse edge, and the
    fine edge into e moves with the probability ``p[e]`` of that coarse
    edge.  Every length on the way is kept on ``mu`` and returned again by
    later calls."""
    if k_new <= mu.chain.graph.k:
        return mu
    if k_new not in mu._refined:
        prev = refine_measure(mu, k_new - 1)
        coarse = prev.chain
        graph = coarse.graph.refined()
        chain = TransferMatrix(graph=graph, edge_weights=_frozen(coarse.edge_weights[graph.dst]))
        pi = prev.pi[coarse.graph.src] * coarse.edge_weights
        mu._refined[k_new] = MarkovMeasure(theta=mu.theta, pi=_frozen(pi), chain=chain)
    return mu._refined[k_new]


def cylinder_mass(mu: MarkovMeasure, w: Word) -> float:
    """Measure of the cylinder of w; 0 for inadmissible words by convention
    (that keeps window sums free of special cases).  Long products are summed
    in log space to survive hundreds of factors.  Step t multiplies by the
    probability of the edge out of the state of ``w[t : t + k]`` at the
    rank of ``w[t + k]`` among the successors of its last symbol."""
    w = tuple(w)
    graph = mu.chain.graph
    k = graph.k
    if not graph.tm.is_admissible(w):
        return 0.0
    if len(w) < k:
        return float(sum(mu.pi[i] for i, sw in enumerate(graph.words) if sw[: len(w)] == w))
    u = graph.index[w[:k]]
    log_mass = math.log(mu.pi[u])
    for t in range(len(w) - k):
        e = np.searchsorted(graph.src, u) + graph.tm.successors(w[t + k - 1]).index(w[t + k])
        p = mu.chain.edge_weights[e]
        if p <= 0.0:
            return 0.0
        log_mass += math.log(p)
        u = graph.dst[e]
    return math.exp(log_mass)


def integrate(mu: MarkovMeasure, g: Potential) -> float:
    """Exact integral of a finite-range potential against the measure, summed
    in order over the states, or, for a longer g, over the edges of the
    measure refined to ``(g.r - 1)``-word states, weighted by ``pi[src] * p``."""
    require_same_space(mu.chain.graph.tm, mu.theta, g, "measure and potential")
    if g.r <= mu.chain.graph.k:
        mass, at = mu.pi, mu.chain.graph.prefix(g.r)
    else:
        mu = refine_measure(mu, g.r - 1)
        graph = mu.chain.graph
        mass, at = mu.pi[graph.src] * mu.chain.edge_weights, graph.edge_prefix(g.r)
    return float(sum((mass * g.values[at]).tolist()))


# ---------------------------------------------------------------------------
# numerical verification of the spectral convergence bounds
# ---------------------------------------------------------------------------


def _block_norms(V: np.ndarray, runs, thetas) -> list:
    """(sup, theta-seminorm) of each row of the block V, a function on
    k-word states, row i with ``thetas[i]``; the seminorm scans the
    variation within the prefix ``runs`` of the states
    (``StateGraph.prefix_runs``) by ``potentials.variations`` on the whole
    block, so each row's norms are those of the row alone."""
    sups = np.maximum.reduce(np.abs(V), axis=1).tolist()
    return [
        (sup, hoelder_seminorm(var, theta))
        for sup, var, theta in zip(sups, variations(V, runs), thetas)
    ]


@dataclass(frozen=True, eq=False)
class RpfBoundReport:
    """Per-step deviation norms of the normalised iterates against their
    limit, with the geometric-decay fit and the checks performed.
    ``gap_ratio`` is the solution's contraction estimate, computed when read."""

    n_values: tuple
    deviation_sup: tuple
    deviation_semi: tuple
    deviation_norm: tuple
    test_norm: float
    paper_bound_checked: bool
    sandwich_checked: bool
    solution: RpfSolution = field(repr=False)

    @property
    def gap_ratio(self) -> float:
        return self.solution.gap_ratio

    @cached_property
    def fitted_ratio(self) -> float | None:
        return _fit_ratio(self.n_values, self.deviation_norm)


def _fit_ratio(n_values, norms):
    pts = [(n, math.log(d)) for n, d in zip(n_values, norms) if n >= 5 and d > 1e-300]
    if len(pts) < 2:
        return None
    ns = np.array([p[0] for p in pts])
    ls = np.array([p[1] for p in pts])
    slope = np.polyfit(ns, ls, 1)[0]
    return float(math.exp(slope))


def verify_rpf_bounds(f: Potential, n_max: int, test_g: Potential, consts=None) -> RpfBoundReport:
    """Check, for n = 1..n_max, that the exact deviation of the normalised
    n-th iterate of test_g from its spectral limit (a) stays below the
    certified geometric envelope when constants are supplied and (b) obeys
    the eigenvalue sandwich for the iterates of the constant 1.  Violations
    raise BoundViolated: these are proven inequalities, so a failure always
    means an implementation bug.
    """
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    require_same_space(f.tm, f.theta, test_g, "potential and test function")
    _, sol = solve_potential(f, k_min=max(1, f.r - 1, test_g.r))
    return _rpf_bound_reports(((sol, test_g),), n_max, consts)[0]


def _rpf_bound_reports(pairs, n_max: int, consts=None) -> list:
    """The report of each (solution, test function) pair, the solutions on
    one state graph whose states are at least as long as every test's range,
    from one block iteration.  Row i iterates the test function of pair i
    under its solution's matrix; one more row per distinct solution iterates
    the constant 1 for the eigenvalue sandwich.  At each n the pairs'
    envelopes are checked in order, then the sandwiches."""
    T = pairs[0][0].transfer
    runs = T.graph.prefix_runs()
    sols = list({id(sol): sol for sol, _ in pairs}.values())
    slot = {id(sol): j for j, sol in enumerate(sols)}
    tilts = [slot[id(sol)] for sol, _ in pairs] + list(range(len(sols)))
    step = _block_step([sol.transfer for sol in sols], tilts, (0,) * len(tilts))
    lams = np.array([sols[j].lam for j in tilts])[:, None]

    G = np.array([g.values[T.graph.prefix(g.r)] for _, g in pairs])
    thetas = [g.theta for _, g in pairs]
    test_norms = [sup + semi for sup, semi in _block_norms(G, runs, thetas)]
    log_test_norms = [math.log(max(norm, 1e-300)) for norm in test_norms]
    targets = np.array([sol.h * float(sol.nu @ g_vec) for (sol, _), g_vec in zip(pairs, G)])
    ratio_lo = [float(np.min(sol.h) / np.max(sol.h)) for sol in sols]
    ratio_hi = [float(np.max(sol.h) / np.min(sol.h)) for sol in sols]
    series = [([], [], []) for _ in pairs]
    V = np.concatenate((G, np.ones((len(sols), T.size))))
    n_values = tuple(range(1, n_max + 1))
    for n in n_values:
        V = step(V) / lams
        deviations = _block_norms(V[: len(pairs)] - targets, runs, thetas)
        for i, ((sup, semi), (sup_list, semi_list, norm_list)) in enumerate(
            zip(deviations, series)
        ):
            norm = sup + semi
            sup_list.append(sup)
            semi_list.append(semi)
            norm_list.append(norm)
            if consts is not None and norm > 0.0:
                envelope = consts.log_D + n * consts.log_rho + log_test_norms[i]
                if math.log(norm) > envelope + CHECK_SLACK:
                    raise BoundViolated(
                        f"deviation norm {norm:.3e} exceeds geometric envelope at n={n}"
                    )
        U = V[len(pairs) :]
        lows = np.minimum.reduce(U, axis=1).tolist()
        highs = np.maximum.reduce(U, axis=1).tolist()
        for lo, hi, low, high in zip(ratio_lo, ratio_hi, lows, highs):
            if low < lo * (1.0 - CHECK_SLACK) or high > hi * (1.0 + CHECK_SLACK):
                raise BoundViolated(f"eigenvalue sandwich for iterated 1 fails at n={n}")

    return [
        RpfBoundReport(
            n_values=n_values,
            deviation_sup=tuple(sup_list),
            deviation_semi=tuple(semi_list),
            deviation_norm=tuple(norm_list),
            test_norm=test_norm,
            paper_bound_checked=consts is not None,
            sandwich_checked=True,
            solution=sol,
        )
        for (sol, _), test_norm, (sup_list, semi_list, norm_list) in zip(pairs, test_norms, series)
    ]


@dataclass(frozen=True, eq=False)
class TiltedFamilyReport:
    q_values: tuple
    log_lambdas: tuple
    h_min: tuple
    h_max: tuple
    checked_n: int


def verify_tilted_family(
    phi: Potential, psi: Potential, q0: float, c0: float, consts, n_max: int
) -> TiltedFamilyReport:
    """For q in {-q0, 0, q0} check the eigenvalue pinch |log lambda_q| <= q0*c0
    and the two-sided eigenfunction envelope built from the supplied geometric
    constants.  Raises BoundViolated on failure (implementation bug signal)."""
    family = tilted_family(phi, psi)
    qs = (-q0, 0.0, q0)
    log_lams, mins, maxs = [], [], []
    for q in qs:
        sol = family.solve(q) if q else family.zero
        log_lams.append(sol.log_lambda)
        mins.append(float(np.min(sol.h)))
        maxs.append(float(np.max(sol.h)))
        if abs(sol.log_lambda) > q0 * c0 + 1e-12:
            raise BoundViolated(
                f"eigenvalue pinch fails at q={q}: |log lambda|={abs(sol.log_lambda):.3e}"
            )
        for n in range(1, n_max + 1):
            log_decay = consts.log_D + n * consts.log_rho
            decay = math.exp(log_decay) if log_decay < 700.0 else math.inf
            lower = max(0.0, math.exp(-2.0 * q0 * c0 * n) - decay)
            upper = math.exp(min(2.0 * q0 * c0 * n, 700.0)) + decay
            if mins[-1] < lower - 1e-12 or maxs[-1] > upper + 1e-12:
                raise BoundViolated(f"eigenfunction envelope fails at q={q}, n={n}")
    return TiltedFamilyReport(
        q_values=qs,
        log_lambdas=tuple(log_lams),
        h_min=tuple(mins),
        h_max=tuple(maxs),
        checked_n=n_max,
    )
