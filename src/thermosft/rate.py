"""Pressure, tilted pressure curves and the deviation rate function.

The rate function at p is the supremum over q of
``p*q - (pressure(phi + q*psi) - pressure(phi))``.  Working with the pressure
difference rather than assuming the base pressure is exactly zero makes the
objective vanish identically at q = 0 and keeps the maximisation immune to
the ~1e-13 residual a normalised potential carries in floats.  The objective
is concave with monotone derivative, so a sign-change bracket is sound, and
its root is found by inverse quadratic interpolation on the derivative under
Brent's progress guard (Brent, Algorithms for Minimization without
Derivatives, 1973, ch. 4), with Illinois regula falsi (Dowell & Jarratt,
BIT 11, 1971) as the fallback step; neither leaves the bracket.  The
maximisation runs on psi centred on its cycle-mean spread (and p shifted
alike), which leaves the rate unchanged and keeps the tilts that overflow far
from the ones a level needs.

Every tilt is one Perron solve of the shared ``TiltedFamily`` operator, built
once per ``(phi, psi)`` and kept on phi with its q = 0 solve, which every
call of ``rate_levels`` (``rate_function`` is its one-level form) shares;
within a level each tilt is solved once and reused for both the objective
and its derivative.  A tilt strictly inside the range of the level's solved
tilts starts from the quadratic (Lagrange) interpolation of h and nu through
the three solved tilts nearest it; any other tilt, or one whose interpolated
start is not positive, starts from the nearest solved tilt.  The doubling
probes ``±min(1, q_cap) * 2**j``, ending at the overflow cap ``±q_cap``,
each start from the one before, so they form one chain that depends on
``(phi, psi)`` and the centre alone, never on p: each is solved once and
kept on the centred family, and every later call reads it from there; a
level at a spread endpoint sweeps them all and reports their best
objective, a lower bound near the endpoint rate.  The
levels of a grid run in lockstep: each level is a generator that yields the
tilt it needs next, and each round solves the tilts of every running level
as one block (``TiltedFamily.tilts``), so a step of the power iteration
serves them all.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ModelMismatch, NoConvergence, ValidationError
from .potentials import Potential, require_not_constant
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
    probes and its root found to TOL_GRAD by inverse quadratic steps,
    Illinois regula falsi where they are refused.
    The spread and the centring are done once for the whole grid, and the
    tilted family, its normalisation check and its base solve once per
    ``(phi, psi)``: they are kept on phi and shared by every later call.
    The levels then run in lockstep: each round solves the next tilt of
    every level still running as one block (``TiltedFamily.tilts``), and a
    doubling probe, the same solve at every level that reaches it, is
    solved once, and kept on the centred family
    (``TiltedFamily.centred``) for every later call with that centre; a
    failed probe is kept to this call only.  Nothing else is kept: no
    level's own tilts, no ``RateValue``.  Each level keeps its own tilt
    memo, the probes it used copied in, so every result equals
    ``rate_function`` at that level.
    When a level inside the spread fails, the error of the first failing
    level in grid order is raised.
    """
    family = tilted_family(phi, psi)
    _check_normalized(family)
    if spread is None:
        spread = require_not_constant(psi)
    # the rate is unchanged when psi and p shift by one constant; centring
    # psi on its spread makes the overflow cap on q scale with the spread,
    # not with psi's distance from 0
    centre = 0.5 * (spread.min_mean + spread.max_mean)
    centred = family.centred(centre)
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
    next and solves them as one block; a doubling probe asked for by
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
    tilt at q = 0 is ``base``; ``probes`` holds the doubling probes solved
    so far, by tilt, those kept from earlier calls included, a failed one as
    its ``NoConvergence``.  A probe found there is not asked for.

    An interior level brackets its root at the first probe where the slope
    changes sign; an endpoint level never does, and a failed probe ends its
    sweep.  A sweep without a bracket reports its probes' best objective.

    A generator: it yields each tilt it needs solved as ``(q, start,
    shared)``, ``shared`` for a doubling probe, is sent the solved
    ``(pressure, mean, solution)`` or the ``NoConvergence`` of the solve,
    and returns the ``RateValue``."""
    solved = {0.0: base}

    def tilt(q: float, shared: bool = False):
        # (objective, slope) at q.  A probe lies beyond every tilt the level
        # has solved, so its solve starts from the probe before it at every
        # level of the grid
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

    # root of the monotone (decreasing) slope, positive at a and negative at
    # b.  Each step tries inverse quadratic interpolation through the
    # bracket ends and the newest point, on their true slope values; it is
    # kept when it lands strictly inside the new bracket and moves less than
    # half the step before last (Brent's guard).  Otherwise the step is
    # Illinois regula falsi: the end kept twice in a row has its slope value
    # halved, which pulls the next secant point across the root
    (a, ta), (b, tb) = sorted(((q_lo, d_lo), (q_hi, d_hi)))
    fa, fb = ta, tb
    kept = None
    q_star = _secant(a, fa, b, fb)
    g_star, d_star = yield from tilt(q_star)
    last_step = older_step = b - a
    for _ in range(MAX_BISECTIONS):
        if abs(d_star) <= TOL_GRAD or (b - a) <= 1e-14 * max(1.0, abs(b)):
            break
        guess = _inverse_quadratic(a, ta, b, tb, q_star, d_star)
        if d_star > 0.0:
            a, ta, fa = q_star, d_star, d_star
            if kept == "b":
                fb *= 0.5
            kept = "b"
        else:
            b, tb, fb = q_star, d_star, d_star
            if kept == "a":
                fa *= 0.5
            kept = "a"
        q_next = _next_tilt(guess, q_star, older_step, a, fa, b, fb)
        older_step, last_step = last_step, abs(q_next - q_star)
        q_star = q_next
        g_star, d_star = yield from tilt(q_star)
    return rate_value(g_star, q_star, "interior")


def _start(solved: dict, q: float):
    """Start vectors of the solve at q from a level's solved tilts (each
    ``(pressure, mean, solution)``): strictly inside their range, the
    Lagrange interpolation of h and nu through the three nearest (two when
    only two are solved); otherwise, or when an interpolated entry is not
    positive, the nearest solution."""
    near = sorted(solved, key=lambda s: abs(s - q))
    nearest = solved[near[0]][2]
    if not min(solved) < q < max(solved):
        return nearest
    nodes = near[:3]
    h = nu = 0.0
    for s in nodes:
        weight = math.prod((q - t) / (s - t) for t in nodes if t != s)
        h = h + weight * solved[s][2].h
        nu = nu + weight * solved[s][2].nu
    if h.min() <= 0.0 or nu.min() <= 0.0:
        return nearest
    return _Start(h, nu)


def _inverse_quadratic(a: float, fa: float, b: float, fb: float, c: float, fc: float):
    """q at which the quadratic in the slope value through (fa, a), (fb, b)
    and (fc, c) reaches slope 0; None when two slope values coincide."""
    if fa == fb or fa == fc or fb == fc:
        return None
    return (
        a * fb * fc / ((fa - fb) * (fa - fc))
        + b * fa * fc / ((fb - fa) * (fb - fc))
        + c * fa * fb / ((fc - fa) * (fc - fb))
    )


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
