"""Explicit spectral-gap constants and the certified rate-function bound.

Everything here is evaluated in natural-log space: the closed-form constants
behind the spectral convergence envelope overflow double precision for even
modest potentials (log D routinely exceeds 300), so D is never materialised
as a linear float unless it is safe to do so.

Two constant modes exist.  ``paper`` evaluates the closed-form expressions,
instantiated for the whole tilted family by plugging the family bound C0 in
for both the Hoelder constant and the sup norm; the result is fully certified
but astronomically conservative.  ``measured`` replaces the geometric decay
data with observed spectral quantities (inflated by fixed safety margins) and
is clearly labelled as empirical, not a certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import BadTheta, BoundViolated, Delta0OutOfRange, ValidationError
from .potentials import (
    CohomologySpread,
    Potential,
    _potential,
    require_not_constant,
)
from .rate import rate_levels
from .sft import state_graph
from .transfer import (
    _all_solved,
    _block_norms,
    _gap_estimate,
    _rpf_bound_reports,
    equilibrium_measure,
    integrate,
    rpf_solve_block,
    tilted_family,
)

#: safety margin added to a measured contraction ratio
RHO_MARGIN = 0.05
#: measured envelope constants are inflated by this factor
D_INFLATION = 2.0
#: below this q0 the direct float evaluation of the tilted objective is
#: dominated by rounding; a convexity bracket is used instead
Q0_DIRECT_MIN = 1e-8
#: tilt at which the derivative is sampled for the convexity bracket
Q_BRACKET_EVAL = 1e-6


@dataclass(frozen=True, eq=False)
class RpfConstants:
    """Geometric convergence envelope (rho, D) plus eigenfunction bounds.

    ``log_rho`` and ``log_D`` are authoritative; ``rho`` is display-grade
    (it can round to 1.0 when the true value is within an ulp of 1).
    """

    mode: str
    rho: float
    log_rho: float
    log_D: float
    log_h_norm_bound: float
    log_h_min_bound: float
    source_params: dict

    @property
    def D(self) -> float:
        return math.exp(self.log_D) if self.log_D < 700.0 else math.inf


def paper_rpf_constants(
    theta: float, s0: int, M: int, b_f: float, f_inf: float
) -> RpfConstants:
    """Closed-form convergence constants for a potential with Hoelder
    constant b_f >= 1 and sup norm f_inf over an alphabet of size s0 whose
    transition matrix has aperiodicity exponent M.

    rho is evaluated through log1p of a log-space inner term, so a gap of
    1e-300 survives; D and the eigenfunction bounds live purely in logs.
    """
    if not 0.0 < theta < 1.0:
        raise BadTheta(f"theta must lie in (0, 1), got {theta}")
    if s0 < 2 or M < 1 or b_f < 1.0 or f_inf < 0.0:
        raise ValidationError(
            f"need s0 >= 2, M >= 1, b_f >= 1, f_inf >= 0; got {(s0, M, b_f, f_inf)}"
        )
    log_tiny = (
        math.log(1.0 - theta)
        - math.log(4.0)
        - 2.0 * M * math.log(s0)
        - 8.0 * theta * b_f / (1.0 - theta)
        - 4.0 * M * f_inf
    )
    if log_tiny > -700.0:
        log_rho = math.log1p(-math.exp(log_tiny)) / (2.0 * M)
    else:
        # gap below the subnormal range: keep the first-order value
        log_rho = -math.exp(max(log_tiny, -745.0)) / (2.0 * M)
    log_rho = min(log_rho, -1e-300)
    log_D = (
        math.log(1e8)
        + 7.0 * math.log(b_f)
        - 10.0 * math.log(theta)
        - 8.0 * math.log(1.0 - theta)
        + 17.0 * M * math.log(s0)
        + 40.0 * b_f / (1.0 - theta)
        + 33.0 * M * f_inf
    )
    log_h_norm = (
        math.log(6.0)
        + M * math.log(s0)
        + math.log(b_f)
        - 2.0 * math.log(theta)
        - math.log(1.0 - theta)
        + 4.0 * b_f / (1.0 - theta)
        + 2.0 * M * f_inf
    )
    # the eigenfunction floor reads as one over the product of three factors
    log_h_min = -(2.0 * b_f / (1.0 - theta) + M * math.log(s0) + 2.0 * M * f_inf)
    return RpfConstants(
        mode="paper",
        rho=math.exp(log_rho),
        log_rho=log_rho,
        log_D=log_D,
        log_h_norm_bound=log_h_norm,
        log_h_min_bound=log_h_min,
        source_params={"theta": theta, "s0": s0, "M": M, "b_f": b_f, "f_inf": f_inf},
    )


def measured_rpf_constants(
    phi: Potential, psi: Potential, q0_probe: float, n_max: int = 24
) -> RpfConstants:
    """Empirical envelope for the tilted family, probed at q in
    {-q0_probe, 0, q0_probe}.

    Every probe is a Perron solve of the ``TiltedFamily`` of (phi, psi),
    and of a second family on ``psi.r``-word states when psi, tested on its
    own states, is longer than the first family's; the probe at 0 is each
    family's kept ``zero`` solve.

    rho is the largest measured contraction ratio, floored at theta (the
    operator on Hoelder functions never contracts the non-constant part
    faster than theta per step, which a finite matrix cannot see) and
    inflated by a fixed margin; D is the smallest envelope constant covering
    the observed deviations of a small test battery, inflated twofold.
    Not a certificate; labelled as empirical.
    """
    if n_max < 8:
        raise ValidationError(f"n_max must be >= 8 for a meaningful fit, got {n_max}")
    theta = phi.theta
    family = tilted_family(phi, psi)
    # the same family, unless psi is longer than its states
    psi_family = tilted_family(phi, psi, k_min=psi.r)
    runs = family.base.graph.prefix_runs()
    symbols = state_graph(phi.tm, 1)
    battery = (
        _potential(symbols, (np.arange(symbols.size) == 0).astype(float), theta),
        _potential(symbols, np.ones(symbols.size), theta),
    )
    # the probes ±q0 are one block solve per family, their gap estimates
    # one block, and the reports one block per state graph; of failed
    # probes, the first in the order -q0, 0, q0 (each before its psi-family
    # twin) is raised
    qs = (-q0_probe, q0_probe)
    minus, plus = rpf_solve_block([family.at(q) for q in qs])
    psi_minus, psi_plus = (
        (minus, plus) if psi_family is family
        else rpf_solve_block([psi_family.at(q) for q in qs])
    )
    _all_solved((minus, psi_minus))
    sols = (minus, family.zero, plus)
    psi_sols = (psi_minus, psi_family.zero, psi_plus)
    _all_solved((plus, psi_plus))
    gap_max = max(0.0, *_gap_estimate(sols))
    H = np.array([sol.h for sol in sols])
    norms = _block_norms(H, runs, (theta,) * len(sols))
    h_norm_max = max(0.0, *(sup + semi for sup, semi in norms))
    h_min_min = float(np.min(H))
    # (solution, test function); the range-1 entries share the probe's solve
    battery_pairs = [(sol, g) for sol in sols for g in battery]
    psi_pairs = [(sol, psi) for sol in psi_sols]
    if psi_family is family:
        reports = _rpf_bound_reports(psi_pairs + battery_pairs, n_max)
    else:
        reports = _rpf_bound_reports(psi_pairs, n_max) + _rpf_bound_reports(battery_pairs, n_max)

    rho = min(max(gap_max, theta) + RHO_MARGIN, 1.0 - 1e-9)
    log_rho = math.log(rho)

    log_D_req = -math.inf
    for report in reports:
        for n, dev in zip(report.n_values, report.deviation_norm):
            # a test function of norm 0 deviates by exactly 0 at every n
            if dev <= 0.0:
                continue
            log_D_req = max(
                log_D_req, math.log(dev) - n * log_rho - math.log(report.test_norm)
            )
    if log_D_req == -math.inf:
        log_D = 0.0  # deviations vanish identically; floor at D = 1
    else:
        log_D = max(0.0, log_D_req + math.log(D_INFLATION))
    return RpfConstants(
        mode="measured",
        rho=rho,
        log_rho=log_rho,
        log_D=log_D,
        log_h_norm_bound=math.log(max(h_norm_max, 1e-300)),
        log_h_min_bound=math.log(max(h_min_min, 1e-300)),
        source_params={"theta": theta, "q0_probe": q0_probe, "n_max": n_max},
    )


def family_c0(phi: Potential, psi: Potential) -> float:
    """Uniform Hoelder-norm bound for the tilted family phi + q*psi over the
    admissible tilt range."""
    return phi.norm + 2.0 * max(psi.sup_norm, 1.0)


def constants_for(phi: Potential, psi: Potential, mode: str, n_max: int = 24) -> RpfConstants:
    """Build envelope constants for the tilted family in the requested mode.

    Paper mode plugs the family bound C0 in for both the Hoelder constant and
    the sup norm (C0 dominates both uniformly over the admissible tilts).
    """
    if mode == "paper":
        c0 = family_c0(phi, psi)
        return paper_rpf_constants(
            theta=phi.theta,
            s0=phi.tm.size,
            M=phi.tm.aperiodicity_exponent,
            b_f=max(1.0, c0),
            f_inf=c0,
        )
    if mode == "measured":
        return measured_rpf_constants(phi, psi, q0_probe=1.0 / psi.b, n_max=n_max)
    raise ValidationError(f"unknown constants mode {mode!r} (expected paper or measured)")


# ---------------------------------------------------------------------------
# the certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    p: float
    rate: float
    bound: float
    rate_ok: bool
    tilt_value: float
    tilt_ok: bool
    tilt_method: str

    @property
    def passed(self) -> bool:
        return self.rate_ok and self.tilt_ok


@dataclass(frozen=True, eq=False)
class BoundReport:
    """All certificate constants, the observable's cycle-mean spread (which
    ``verify_bound`` reuses) and, optionally, per-p verdicts."""

    constants_mode: str
    theta: float
    C0: float
    B_psi: float
    b: float
    psi_tilde: float
    delta0: float
    alpha: float
    n0: int
    q0: float
    bound: float
    rho: float
    log_rho: float
    log_D: float
    spread: CohomologySpread
    verdicts: tuple = ()

    @property
    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts)


def certificate_constants(
    phi: Potential, psi: Potential, delta0: float, consts: RpfConstants
) -> BoundReport:
    """Evaluate the certificate constants for a normalised base potential and
    a nonnegative observable.

    n0 is the unique integer with n0 - 1 <= |log(delta0/(16*C0*D))|/alpha < n0
    (floor(x) + 1, which also resolves the degenerate integer case to the
    strict side); q0 = min(delta0/(100*C0^2*n0), 1/b); the certified lower
    bound on the rate function outside the delta0 window is delta0*q0/2.
    """
    if psi.min_value() < -1e-12:
        raise ValidationError(
            "observable must be nonnegative here; apply shift_nonnegative first"
        )
    spread = require_not_constant(psi)
    mu = equilibrium_measure(phi, k=max(1, phi.r - 1))
    psi_tilde = integrate(mu, psi)
    b_psi = psi_tilde - min(0.0, psi.min_value())
    if not 0.0 < delta0 < b_psi:
        raise Delta0OutOfRange(
            f"delta0 must lie in (0, {b_psi:.6g}), got {delta0}"
        )
    c0 = family_c0(phi, psi)
    alpha = -max(consts.log_rho, math.log(phi.theta))
    log_ratio = math.log(delta0) - (math.log(16.0) + math.log(c0) + consts.log_D)
    x = -log_ratio / alpha
    if not math.isfinite(x):  # the quotient leaves the float range: take it exactly
        x = Fraction(-log_ratio) / Fraction(alpha)
    n0 = math.floor(x) + 1
    if not (n0 - 1 <= x < n0):  # exact int/float comparison
        raise BoundViolated(f"integer sandwich failed: x={x!r}, n0={n0}")
    if n0 <= 10**15:
        q0_formula = delta0 / (100.0 * c0 * c0 * n0)
    else:
        q0_formula = math.exp(
            math.log(delta0) - math.log(100.0) - 2.0 * math.log(c0) - math.log(n0)
        )
    q0 = min(q0_formula, 1.0 / psi.b)
    return BoundReport(
        constants_mode=consts.mode,
        theta=phi.theta,
        C0=c0,
        B_psi=b_psi,
        b=psi.b,
        psi_tilde=psi_tilde,
        delta0=delta0,
        alpha=alpha,
        n0=n0,
        q0=q0,
        bound=delta0 * q0 / 2.0,
        rho=consts.rho,
        log_rho=consts.log_rho,
        log_D=consts.log_D,
        spread=spread,
    )


def verify_bound(
    phi: Potential, psi: Potential, delta0: float, p_grid, consts: RpfConstants
) -> BoundReport:
    """Certify the uniform lower bound on the rate function over a p-grid.

    For each grid point outside the closed delta0 window around the typical
    mean, checks (a) rate(p) >= delta0*q0/2 and (b) the tilted objective at
    the appropriate end of [-q0, q0] clears the same bound.  When q0 is too
    small for a meaningful float evaluation of (b), a rigorous convexity
    bracket replaces it: the pressure increment over [0, q0] is pinned
    between q0 times the monotone derivative sampled at 0 and at a
    representable tilt above q0.  Grid points inside the window are skipped
    (the bound does not cover them).  Any failed verdict raises
    BoundViolated: the inequality is proven, so failure always means a bug.
    """
    report = certificate_constants(phi, psi, delta0, consts)
    q0, bound, psi_tilde = report.q0, report.bound, report.psi_tilde
    lo, hi = psi_tilde - delta0, psi_tilde + delta0

    family = tilted_family(phi, psi)
    direct = q0 >= Q0_DIRECT_MIN
    if direct:
        base = family.zero.log_lambda
        plus, minus = _all_solved(family.tilts((q0, -q0)))
        dpr_plus = plus[0] - base
        dpr_minus = minus[0] - base
    else:
        q_eval = max(q0, Q_BRACKET_EVAL)
        plus, minus = _all_solved(family.tilts((q_eval, -q_eval)))
        mean_plus, mean_minus = plus[1], minus[1]

    levels = [p for p in map(float, p_grid) if not lo <= p <= hi]
    verdicts = []
    for p, rv in zip(levels, rate_levels(phi, psi, levels, spread=report.spread)):
        rate_ok = rv.value >= bound
        if direct:
            gam = (p * q0 - dpr_plus) if p > hi else (-p * q0 - dpr_minus)
            tilt_ok = gam >= bound
            method = "direct"
        else:
            if p > hi:
                gam = q0 * (p - mean_plus)
                tilt_ok = (p - mean_plus) >= delta0 / 2.0
            else:
                gam = q0 * (mean_minus - p)
                tilt_ok = (mean_minus - p) >= delta0 / 2.0
            method = "first_order"
        verdicts.append(
            Verdict(
                p=p,
                rate=rv.value,
                bound=bound,
                rate_ok=rate_ok,
                tilt_value=gam,
                tilt_ok=tilt_ok,
                tilt_method=method,
            )
        )
    full = replace(report, verdicts=tuple(verdicts))
    if not full.all_pass:
        bad = next(v for v in verdicts if not v.passed)
        raise BoundViolated(
            f"certificate violated at p={bad.p}: rate={bad.rate:.6g}, "
            f"tilt objective={bad.tilt_value:.6g}, bound={bad.bound:.6g}",
            report=full,
        )
    return full
