"""Pressure, tilted pressure curves and the deviation rate function.

The rate function at p is the supremum over q of
``p*q - (pressure(phi + q*psi) - pressure(phi))``.  Working with the pressure
difference rather than assuming the base pressure is exactly zero makes the
objective vanish identically at q = 0 and keeps the maximisation immune to
the ~1e-13 residual a normalised potential carries in floats.  The objective
is concave with monotone derivative, so a sign-change bracket is sound; it
is halved ``BISECT_DEPTH`` times, and its root is then found by steps to
where the slope of a Hermite fit equals the level: the polynomial matching
the pressure and its slope at the ``INTERP_NODES`` solved tilts whose
slopes lie nearest 0 (degree 9, in Newton form on the doubled nodes;
Stoer & Bulirsch, Introduction to Numerical Analysis, section 2.1.5),
solved by Newton's method from the node whose slope lies nearest 0.  A
step is taken under Brent's progress guard (Brent, Algorithms for
Minimization without Derivatives, 1973, ch. 4), with Illinois regula falsi
(Dowell & Jarratt, BIT 11, 1971) as the fallback step; neither leaves the
bracket.  The maximisation runs on psi centred on its cycle-mean spread
(and p shifted alike), which leaves the rate unchanged and keeps the tilts
that overflow far from the ones a level needs.

Every tilt is one Perron solve of the shared ``TiltedFamily`` operator, built
once per ``(phi, psi)`` and kept on phi with its q = 0 solve, which every
call of ``rate_levels`` (``rate_function`` is its one-level form) shares;
within a level each tilt is solved once and reused for both the objective
and its derivative.  A tilt strictly inside the range of the level's solved
tilts starts from the Lagrange interpolation of h and nu through the
``INTERP_NODES`` solved tilts nearest it; any other tilt, or one whose
interpolated start is not positive, starts from the nearest solved tilt.
The doubling probes ``±min(1, q_cap) * 2**j``, ending at the overflow cap
``±q_cap``, and the midpoints an interior level halves its bracket on,
``BISECT_DEPTH`` times, form a dyadic lattice: a lattice tilt is reached
only through its ancestors (the doubling probes up to its bracket and the
midpoints above it), so it is the same solve, from the same start, at every
level of every call that reaches it.  Each is solved once and kept on the centred family,
and every later call reads it from there.  A level at a spread endpoint
sweeps the doubling probes and reports their best objective, a lower bound
near the endpoint rate.  The levels of a grid run in lockstep: each level
is a generator that yields the tilt it needs next, and each round solves
the tilts of every running level as one block (``TiltedFamily.tilts``), so
a step of the power iteration serves them all.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ModelMismatch, NoConvergence, ValidationError
from .potentials import Potential, kept_spread, require_not_constant
from .transfer import (
    TiltedFamily,
    equilibrium_measure,
    integrate,
    solve_potential,
    tilted_family,
)

#: |dGamma/dq| at which the maximiser is accepted
TOL_GRAD = 1e-10
#: distance to a domain endpoint treated as "at the boundary"
TOL_END = 1e-9
#: root-finding step cap (each step is one eigen-solve)
MAX_BISECTIONS = 300
#: halvings of an interior level's doubling bracket on shared midpoint
#: solves before the interpolated search; each one more doubles the
#: midpoints kept per bracket
BISECT_DEPTH = 2
#: solved tilts an interpolated start, or the Hermite fit of a root step,
#: is drawn through: the nearest ones, by tilt or by slope
INTERP_NODES = 5

#: start vectors of a Perron solve interpolated between solved tilts
_Start = namedtuple("_Start", "h nu")


def tilt_eval(phi: Potential, psi: Potential, q: float) -> tuple:
    """(log pressure, mean of psi under the tilted equilibrium state) for the
    potential phi + q*psi."""
    return tilted_family(phi, psi).tilt(q)[:2]


def _check_normalized(family: TiltedFamily) -> None:
    err = family.unit_row_error
    if err > 1e-6:
        raise ModelMismatch(
            f"potential is not normalised (unit row action violated by {err:.3e})"
        )


def pressure(f: Potential) -> float:
    """Log of the Perron eigenvalue of the exact transfer matrix."""
    _, sol = solve_potential(f)
    return sol.log_lambda


@dataclass(frozen=True)
class PressureCurve:
    """Tilted pressures and their exact derivatives along a q-grid."""

    q_grid: tuple
    pressures: tuple
    derivatives: tuple

    def second_differences(self) -> list:
        out = []
        for i in range(1, len(self.q_grid) - 1):
            h1 = self.q_grid[i] - self.q_grid[i - 1]
            h2 = self.q_grid[i + 1] - self.q_grid[i]
            out.append(
                (self.pressures[i + 1] - self.pressures[i]) / h2
                - (self.pressures[i] - self.pressures[i - 1]) / h1
            )
        return out

    @property
    def is_convex(self) -> bool:
        return all(d >= -1e-9 for d in self.second_differences())

    @property
    def derivatives_nondecreasing(self) -> bool:
        return all(b >= a - 1e-9 for a, b in zip(self.derivatives, self.derivatives[1:]))


def pressure_curve(phi: Potential, psi: Potential, q_grid) -> PressureCurve:
    """Pressure of phi + q*psi along a sorted grid together with the exact
    derivative (the mean of psi under the tilted equilibrium state)."""
    family = tilted_family(phi, psi)
    _check_normalized(family)
    grid = tuple(float(q) for q in q_grid)
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValidationError("q grid must be sorted ascending")
    # each grid point starts its solve from the previous one
    tilts = []
    sol = None
    for q in grid:
        pr, mean, sol = family.tilt(q, sol)
        tilts.append((pr, mean))
    return PressureCurve(
        q_grid=grid,
        pressures=tuple(pr for pr, _ in tilts),
        derivatives=tuple(mean for _, mean in tilts),
    )


def gamma(phi: Potential, psi: Potential, p: float, q: float) -> tuple:
    """(objective, derivative) of the rate maximisation at tilt q.

    The objective is p*q minus the pressure increment from q = 0, so it is 0
    at q = 0 by construction; the derivative is p minus the tilted mean.
    """
    family = tilted_family(phi, psi)
    base, mean, _ = family.tilt_of(family.zero)
    if q == 0.0:
        return 0.0, p - mean
    pr, mean, _ = family.tilt(q)
    return p * q - (pr - base), p - mean


@dataclass(frozen=True)
class RateValue:
    """Rate-function evaluation.

    status: interior (finite value, vanishing derivative at q_star),
    mean_zero (p is the typical mean, value 0), boundary (p at a domain
    endpoint within tolerance, or inside the domain with its maximiser
    beyond the overflow cap ``q_cap = 700 / max|psi - centre|``; either way
    the value is the best objective over the doubling probes up to
    ``±q_cap``, a lower bound), outside (p outside the domain; value +inf).
    ``iterations`` counts the distinct tilts solved, q = 0 included.
    The root search stops once the slope ``p - P'(q)`` is within TOL_GRAD of
    0, so q_star is fixed only to about ``2*TOL_GRAD / P''(q_star)``: where
    the pressure P is nearly flat it can move far between two step
    sequences while the value moves by about TOL_GRAD**2 / P''.
    """

    p: float
    value: float
    q_star: float | None
    status: str
    iterations: int


def rate_levels(phi: Potential, psi: Potential, p_grid, spread=None) -> tuple:
    """Deviation rate at each level of p_grid, in input order.

    Refuses observables whose cycle-mean spread is below tolerance; a level
    outside the open spread interval reports +inf, a level at an endpoint
    the best objective over the doubling probes up to the overflow cap, a
    lower bound.  Inside, the slope of the objective is bracketed by those
    probes and its root found to TOL_GRAD from the Hermite fit of the
    pressure and its slope at the ``INTERP_NODES`` solved tilts whose slopes
    lie nearest 0, Illinois regula falsi where a step is refused.
    psi's spread is computed once per psi and kept on it
    (``require_not_constant``), the centring is done once for the whole
    grid, and the tilted family, its normalisation check and its base solve
    once per ``(phi, psi)``: they are kept on phi and shared by every later
    call.
    The levels then run in lockstep: each round solves the next tilt of
    every level still running as one block (``TiltedFamily.tilts``), and a
    lattice probe (a doubling probe or a bracket midpoint), the same solve
    at every level that reaches it, is solved once, and kept on the centred
    family (``TiltedFamily.centred``) for every later call with that
    centre; a failed probe is kept to this call only.  Only the centre of
    psi's own spread keeps its family (a ``spread`` passed while psi's is
    not yet known is taken as psi's); a call with another spread solves its
    probes on a family that is not kept.  Nothing that depends on a
    level is kept: no level's own interior tilts, no ``RateValue``.  Each
    level keeps its own tilt memo, the probes it used copied in, so every
    result equals ``rate_function`` at that level, whatever ran before.
    When a level inside the spread fails, the error of the first failing
    level in grid order is raised.
    """
    family = tilted_family(phi, psi)
    _check_normalized(family)
    if spread is None:
        spread = own = require_not_constant(psi)
    else:
        own = kept_spread(psi)
    # the rate is unchanged when psi and p shift by one constant; centring
    # psi on its spread makes the overflow cap on q scale with the spread,
    # not with psi's distance from 0
    centre = 0.5 * (spread.min_mean + spread.max_mean)
    # the family keeps the centred family, with its probes, of psi's own
    # spread; a spread passed before psi's is known is taken as psi's, as
    # checking it would cost the run it is passed to save
    centred = family.centred(
        centre, keep=own is None or centre == 0.5 * (own.min_mean + own.max_mean)
    )
    q_cap = 700.0 / max(float(np.max(np.abs(centred.psi_e))), 1e-12)
    base = None
    # the probes kept on the centred family, then those this call solves; a
    # failure stays here, so the next call solves that probe again
    probes = dict(centred.probes)
    results = []
    levels = {}
    for i, p in enumerate(p_grid):
        if p < spread.min_mean - TOL_END or p > spread.max_mean + TOL_END:
            results.append(
                RateValue(p=p, value=math.inf, q_star=None, status="outside", iterations=0)
            )
            continue
        if base is None:
            base = centred.tilt_of(family.zero)
        at_boundary = (
            abs(p - spread.min_mean) <= TOL_END or abs(p - spread.max_mean) <= TOL_END
        )
        results.append(None)
        levels[i] = _maximise(base, probes, p, p - centre, at_boundary, q_cap)
    _lockstep(centred, levels, results)
    centred.probes.update(
        {q: t for q, t in probes.items() if not isinstance(t, NoConvergence)}
    )
    return tuple(results)


def rate_function(phi: Potential, psi: Potential, p: float, spread=None) -> RateValue:
    """Deviation rate at p: ``rate_levels`` on the one-level grid ``[p]``."""
    return rate_levels(phi, psi, (p,), spread)[0]


def _lockstep(family, levels: dict, results: list) -> None:
    """Run the ``_maximise`` generators of ``levels`` (by grid position) to
    their ``RateValue``s in ``results``.  A round sends every running level
    the result of the tilt it asked for, collects the tilts they ask for
    next and solves them as one block; a lattice probe asked for by
    several levels is solved once, from the start they share."""
    replies = dict.fromkeys(levels)
    errors = {}
    while replies:
        asks = {}
        for i, reply in replies.items():
            if errors and i > min(errors):
                continue  # a level before it fails, so its result is not needed
            try:
                asks[i] = levels[i].send(reply)
            except StopIteration as stop:
                results[i] = stop.value
            except NoConvergence as err:  # raised below, in grid order
                errors[i] = err
        if not asks:
            break
        block = {}
        for i, (q, start, shared) in asks.items():
            block.setdefault((q, None if shared else i), start)
        solved = dict(zip(block, family.tilts([q for q, _ in block], list(block.values()))))
        replies = {i: solved[q, None if shared else i] for i, (q, _, shared) in asks.items()}
    if errors:
        raise errors[min(errors)]


def _maximise(base: tuple, probes: dict, p: float, level: float, at_boundary: bool, q_cap: float):
    """sup over q of ``level*q - (P(q) - P(0))`` on the centred family, whose
    tilt at q = 0 is ``base``; ``probes`` holds the lattice probes solved
    so far, by tilt, those kept from earlier calls included, a failed one as
    its ``NoConvergence``.  A probe found there is not asked for.

    An interior level brackets its root at the first doubling probe where
    the slope changes sign, halves that bracket ``BISECT_DEPTH`` times on
    midpoint probes, and then searches the last half, every step taken
    where the slope of the Hermite fit of the pressure through the
    ``INTERP_NODES`` solved tilts whose slopes lie nearest 0 (at first the
    bracket ends and the ends the halvings dropped) equals the level.  A
    failed probe raises there.  An endpoint level never brackets, and a
    failed probe ends its sweep.  A sweep without a bracket
    reports its probes' best objective.

    A generator: it yields each tilt it needs solved as ``(q, start,
    shared)``, ``shared`` for a lattice probe, is sent the solved
    ``(pressure, mean, solution)`` or the ``NoConvergence`` of the solve,
    and returns the ``RateValue``."""
    solved = {0.0: base}

    def tilt(q: float, shared: bool = False):
        # (objective, slope) at q.  The level has solved a probe's ancestors
        # in the lattice and nothing else, so its start is the same at every
        # level that reaches it
        if q not in solved:
            if shared:
                if q not in probes:
                    probes[q] = yield q, _start(solved, q), True
                result = probes[q]
            else:
                result = yield q, _start(solved, q), False
            if isinstance(result, NoConvergence):
                raise result
            solved[q] = result
        pr, mean, _ = solved[q]
        return level * q - (pr - base[0]), level - mean

    def rate_value(value: float, q_star, status: str) -> RateValue:
        return RateValue(p=p, value=value, q_star=q_star, status=status, iterations=len(solved))

    _, d0 = yield from tilt(0.0)
    if abs(d0) <= TOL_GRAD:
        return rate_value(0.0, 0.0, "mean_zero")

    q_lo, d_lo, best = 0.0, d0, 0.0
    q_hi = math.copysign(min(1.0, q_cap), d0)
    while True:
        try:
            g_hi, d_hi = yield from tilt(q_hi, shared=True)
        except NoConvergence:
            if not at_boundary:
                raise
            # the supremum runs away along q; the probes so far give a
            # certified lower bound
            return rate_value(best, None, "boundary")
        if not at_boundary and ((d0 > 0.0 and d_hi < 0.0) or (d0 < 0.0 and d_hi > 0.0)):
            break
        best = max(best, g_hi)
        if abs(q_hi) == q_cap:
            # no sign change inside the overflow-safe window: numerically p
            # sits at the edge of the reachable means
            return rate_value(best, None, "boundary")
        q_lo, d_lo = q_hi, d_hi
        q_hi = math.copysign(min(2.0 * abs(q_hi), q_cap), d0)

    # halve the bracket on the dyadic lattice between the probes: each
    # midpoint is reached only through the same ancestors, so it too is a
    # shared solve
    for _ in range(BISECT_DEPTH):
        mid = 0.5 * (q_lo + q_hi)
        g_mid, d_mid = yield from tilt(mid, shared=True)
        if abs(d_mid) <= TOL_GRAD:
            return rate_value(g_mid, mid, "interior")
        if (d_mid > 0.0) == (d0 > 0.0):
            q_lo, d_lo = mid, d_mid
        else:
            q_hi, d_hi = mid, d_mid

    def root_guess():
        # the Hermite fit of the pressure and its slope through the solved
        # tilts whose slopes lie nearest 0: the bracket ends, the ends the
        # halvings dropped and the newest steps
        near = sorted(solved, key=lambda s: abs(level - solved[s][1]))[:INTERP_NODES]
        return _hermite_root([(s, *solved[s][:2]) for s in near], level)

    # root of the monotone (decreasing) slope, positive at a and negative at
    # b.  Each step tries the Hermite fit's root (Stoer & Bulirsch); it is
    # kept when it lands strictly inside the bracket and moves less than half
    # the step before last (Brent's guard).  Otherwise the step is Illinois
    # regula falsi (Dowell & Jarratt): the end kept twice in a row has its
    # slope value halved, which pulls the next secant point across the root
    (a, fa), (b, fb) = sorted(((q_lo, d_lo), (q_hi, d_hi)))
    kept = None
    # the halvings stepped 2(b - a), then b - a, so Brent's guard admits
    # any guess inside the bracket
    q_star = _next_tilt(root_guess(), mid, 2.0 * (b - a), a, fa, b, fb)
    g_star, d_star = yield from tilt(q_star)
    last_step = older_step = b - a
    for _ in range(MAX_BISECTIONS):
        if abs(d_star) <= TOL_GRAD or (b - a) <= 1e-14 * max(1.0, abs(b)):
            break
        if d_star > 0.0:
            a, fa = q_star, d_star
            if kept == "b":
                fb *= 0.5
            kept = "b"
        else:
            b, fb = q_star, d_star
            if kept == "a":
                fa *= 0.5
            kept = "a"
        q_next = _next_tilt(root_guess(), q_star, older_step, a, fa, b, fb)
        older_step, last_step = last_step, abs(q_next - q_star)
        q_star = q_next
        g_star, d_star = yield from tilt(q_star)
    return rate_value(g_star, q_star, "interior")


def _start(solved: dict, q: float):
    """Start vectors of the solve at q from a level's solved tilts (each
    ``(pressure, mean, solution)``): strictly inside their range, the
    Lagrange interpolation of h and nu through the ``INTERP_NODES`` nearest
    (all of them when fewer are solved); otherwise, or when an interpolated
    entry is not positive, the nearest solution."""
    near = sorted(solved, key=lambda s: abs(s - q))
    nearest = solved[near[0]][2]
    if not min(solved) < q < max(solved):
        return nearest
    nodes = near[:INTERP_NODES]
    h = nu = 0.0
    for s in nodes:
        weight = math.prod((q - t) / (s - t) for t in nodes if t != s)
        h = h + weight * solved[s][2].h
        nu = nu + weight * solved[s][2].nu
    if h.min() <= 0.0 or nu.min() <= 0.0:
        return nearest
    return _Start(h, nu)


def _hermite_root(nodes, level: float) -> float | None:
    """q at which the slope of the Hermite interpolant through ``nodes``,
    each ``(q, pressure, slope of the pressure)``, equals ``level``: the
    polynomial of degree ``2*len(nodes) - 1`` matching both at every node,
    in Newton form on the doubled nodes.  Newton's method from the first
    node, in plain floats; None when it does not settle."""
    level = float(level)
    z = [float(s) for s, _, _ in nodes for _ in (0, 1)]
    # divided differences in place, each order from the bottom up, so that
    # coeffs[i] ends as the one of z[0..i]; a doubled node's first divided
    # difference is its slope
    coeffs = [float(pr) for _, pr, _ in nodes for _ in (0, 1)]
    for k in range(1, len(z)):
        for i in range(len(z) - 1, k - 1, -1):
            coeffs[i] = (float(nodes[i // 2][2]) if k == 1 and i % 2
                         else (coeffs[i] - coeffs[i - 1]) / (z[i] - z[i - k]))
    q = z[0]
    for _ in range(20):
        # the fit's first and second derivatives at q, by Horner's scheme
        value = d1 = d2 = 0.0
        for c, t in zip(reversed(coeffs), reversed(z)):
            d2 = d2 * (q - t) + 2.0 * d1
            d1 = d1 * (q - t) + value
            value = value * (q - t) + c
        if not d2:
            return None
        step = (level - d1) / d2
        q += step
        if not math.isfinite(q):
            return None
        # Newton converges quadratically: after a step this small, q is
        # within about its square of the fit's root
        if abs(step) <= 1e-9 * max(1.0, abs(q)):
            return q
    return None


def _next_tilt(guess, newest: float, older_step: float, a, fa, b, fb) -> float:
    """The interpolated ``guess`` when it lies strictly inside (a, b) and
    less than ``older_step / 2`` from the newest point; otherwise the
    Illinois secant point of (a, fa) and (b, fb)."""
    if guess is not None and a < guess < b and abs(guess - newest) < 0.5 * older_step:
        return guess
    return _secant(a, fa, b, fb)


def _secant(a: float, fa: float, b: float, fb: float) -> float:
    """Root of the line through (a, fa) and (b, fb), where fa >= 0 > fb; the
    midpoint when rounding puts it outside the open bracket."""
    q = a + fa * (b - a) / (fa - fb)
    return q if a < q < b else 0.5 * (a + b)


def entropy(f: Potential) -> float:
    """Entropy of the equilibrium state: pressure minus the mean of f."""
    pr = pressure(f)
    mu = equilibrium_measure(f, k=max(1, f.r - 1))
    return pr - integrate(mu, f)
