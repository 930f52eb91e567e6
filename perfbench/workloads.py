"""The three workloads: inputs made from a seed, the operation list, and the
checks of each operation's output against ``oracle``.

A workload function returns a ``Prepared``: its operations in the order one
round runs them, plus checks of what set-up computed.  ``Op.run`` is the
timed call; ``Op.read`` turns its return value into the output that is
checked and compared across rounds (a CLI exit code other than 0 raises
``OpFailed``); ``Op.check`` lists the problems found in that output.

Library functions are called through their modules (``transfer.x``, not a
name imported here), so that the wrappers of ``tracer`` see the calls.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from pathlib import Path
from typing import Callable

import numpy as np
from thermosft import cli, deviations, potentials, rate, sft, transfer

import oracle

THETA = 0.5


class OpFailed(Exception):
    """An operation returned an error instead of an output."""


@dataclass(frozen=True, eq=False)
class Op:
    name: str
    run: Callable[[], object]
    read: Callable[[object], object] = lambda value: value
    check: Callable[[object], list] = lambda out: []


@dataclass(frozen=True, eq=False)
class Prepared:
    ops: list
    setup_checks: Callable[[], list] = field(default=lambda: [])


def _off(label, got, want, tol) -> list:
    """One problem line when |got - want| > tol (or either is not finite and
    they differ)."""
    if got == want or abs(got - want) <= tol:
        return []
    return [f"{label}: got {got!r}, expected {want!r} (tolerance {tol:g})"]


def _csv(data: bytes) -> list:
    return [line.split(",") for line in data.decode("utf-8").splitlines()[1:]]


# ---------------------------------------------------------------------------
# fixtures-cli
# ---------------------------------------------------------------------------

#: per fixture: rate grid, bound grid, exact ldp (p, delta, horizons) and
#: Monte Carlo ldp (p, delta, horizons).  Grids stay inside the open
#: interval of reachable means: at the golden-mean endpoint 0.5 one level
#: costs more than the rest of the workload.  Monte Carlo windows are
#: chosen so that no lattice atom of the horizons used sits on an edge,
#: where the float test of the sampler and the exact test of the DP differ.
FIXTURES = {
    "bernoulli": ("0.1:0.9:0.1", "0.05:0.95:0.05",
                  ("0.8", "0.05", "10:80:10"), ("0.6", "0.13", "10:30:10")),
    "golden_mean": ("0.05:0.45:0.1", "0.05:0.45:0.1",
                    ("0.4", "0.05", "10:60:10"), ("0.3", "0.13", "10:30:10")),
    "random_range3": ("0.15:0.65:0.1", "0.15:0.75:0.1",
                      ("0.55", "0.05", "8:24:4"), ("0.45", "0.13", "10:30:10")),
}
Q_RANGE = ("-2", "2", "0.25")
DELTA0 = "0.1"
CLI_TRIALS = 20000


class _Fixture:
    """Reference data of one fixture, computed on first use."""

    def __init__(self, path: Path, bernoulli: bool):
        self.path = path
        self.bernoulli = bernoulli

    @cached_property
    def tables(self):
        return oracle.load_tables(self.path)

    @cached_property
    def pressure(self):
        return oracle.Pressure(self.tables)

    @cached_property
    def chain(self):
        return oracle.chain(self.tables)

    @cached_property
    def spread(self):
        t = self.tables
        return oracle.simple_cycle_means(*oracle.cycle_graph(t.A, t.psi, t.rpsi))

    def rate(self, p: float) -> float:
        if self.bernoulli:
            return p * math.log(2.0 * p) + (1.0 - p) * math.log(2.0 * (1.0 - p))
        return self.pressure.rate(p)

    def mass(self, n: int, p: float, delta: float) -> float:
        if self.bernoulli:
            return oracle.binomial_mass(n, p, delta)
        return oracle.window_mass(self.chain, n, p, delta)


def _check_pressure(fx: _Fixture, rows) -> list:
    out = []
    for q, pr, dpr in ((float(a), float(b), float(c)) for a, b, c in rows):
        if fx.bernoulli:
            out += _off(f"pressure({q})", pr, math.log((1.0 + math.exp(q)) / 2.0), 1e-10)
        out += _off(f"pressure({q})", pr, fx.pressure.increment(q), 1e-10)
        out += _off(f"dpressure({q})", dpr, fx.pressure.slope(q), 1e-6)
    return out


def _check_rate(fx: _Fixture, rows) -> list:
    out = []
    lo, hi = fx.spread
    for p, value, q_star, status in rows:
        p, value, q_star = float(p), float(value), float(q_star)
        P = fx.pressure
        if status == "interior":
            out += _off(f"I({p}) duality", value, p * q_star - P.increment(q_star), 1e-9)
            out += _off(f"P'(q*) at p={p}", P.slope(q_star), p, 1e-6)
        elif status == "mean_zero":
            out += _off(f"I({p}) at the mean", value, 0.0, 0.0)
            out += _off(f"P'(0) at p={p}", P.slope(0.0), p, 1e-6)
        elif status == "outside":
            if lo <= p <= hi or value != math.inf:
                out.append(f"I({p}) = {value} reported outside [{lo}, {hi}]")
        else:
            out.append(f"I({p}): unexpected status {status}")
        if fx.bernoulli and status in ("interior", "mean_zero"):
            out += _off(f"I({p}) closed form", value, fx.rate(p), 1e-8)
    return out


def _check_bound(mode: str, rows) -> list:
    out = [] if rows else ["bound: no rows"]
    for p, value, bound, passed, row_mode in rows:
        if passed != "true" or not float(value) >= float(bound) or row_mode != mode:
            out.append(f"bound row p={p}: I={value} bound={bound} pass={passed} mode={row_mode}")
    return out


def _check_constants(mode: str, rows) -> list:
    c = dict(rows)
    out = [] if c.get("mode") == mode else [f"constants: mode {c.get('mode')}"]
    delta0, c0, log_d = float(c["delta0"]), float(c["C0"]), float(c["log_D"])
    alpha, q0, n0 = float(c["alpha"]), float(c["q0"]), int(c["n0"])
    x = -(math.log(delta0) - (math.log(16.0) + math.log(c0) + log_d)) / alpha
    if not n0 - 1 <= x < n0:
        out.append(f"constants: n0={n0} does not sandwich {x!r}")
    q0_ref = min(math.exp(math.log(delta0) - math.log(100.0) - 2.0 * math.log(c0)
                          - math.log(n0)), 1.0 / float(c["b"]))
    out += _off("constants q0", q0, q0_ref, 1e-12 * q0_ref)
    out += _off("constants bound", float(c["bound"]), delta0 * q0 / 2.0, 1e-15 * q0)
    return out


def _check_ldp(fx: _Fixture, p: float, delta: float, monte_carlo: bool, rows) -> list:
    out = [] if rows else ["ldp: no rows"]
    lo, hi = p - delta, p + delta
    mean = fx.pressure.slope(0.0)
    edge = None if lo <= mean <= hi else (hi if mean > hi else lo)
    ref_want = 0.0 if edge is None else -fx.rate(edge)
    for n, log_rate, ref, slack, method in rows:
        n, log_rate = int(n), float(log_rate)
        mass = math.exp(n * log_rate) if log_rate > -math.inf else 0.0
        want = fx.mass(n, p, delta)
        out += _off(f"ldp ref n={n}", float(ref), ref_want, 1e-8)
        if monte_carlo:
            if method != "monte_carlo":
                out.append(f"ldp n={n}: method {method}")
            se = math.sqrt(want * (1.0 - want) / CLI_TRIALS)
            out += _off(f"Monte Carlo mass n={n}", mass, want, 5.0 * se)
        else:
            if method != "exact_dp" or float(slack) != 0.0:
                out.append(f"ldp n={n}: method {method} slack {slack}")
            out += _off(f"exact mass n={n}", mass, want, 1e-12 + 1e-9 * want)
    return out


def _check_spread(fx: _Fixture, rows) -> list:
    t = fx.tables
    (lo, hi, wit_lo, wit_hi, flag), = rows
    lo, hi = float(lo), float(hi)
    out = _off("min cycle mean", lo, fx.spread[0], 1e-12)
    out += _off("max cycle mean", hi, fx.spread[1], 1e-12)
    for mean, wit in ((lo, wit_lo), (hi, wit_hi)):
        orbit = tuple(int(s) for s in wit.split("-"))
        out += _off(f"mean along witness {wit}", oracle.orbit_mean(t.psi, t.rpsi, orbit), mean, 1e-12)
    if flag != "false":
        out.append(f"spread flagged cohomologous to a constant: {flag}")
    return out


def _check_normalize(fx: _Fixture, data: bytes) -> list:
    raw = json.loads(data)
    A = np.array(raw["transitions"])
    r = raw["potential_f"]["range"]
    phi = {oracle.parse_word(k): v for k, v in raw["potential_f"]["values"].items()}
    out = [] if np.array_equal(A, fx.tables.A) else ["normalize changed the transitions"]
    psi = {oracle.parse_word(k): v for k, v in raw["observable_psi"]["values"].items()}
    if psi != fx.tables.psi:
        out.append("normalize changed the observable")
    for v in oracle.words(A, max(1, r - 1)):
        action = sum(math.exp(phi[((a,) + v)[:r]]) for a in range(1, A.shape[0] + 1)
                     if A[a - 1, v[0] - 1])
        out += _off(f"row action at {v}", action, 1.0, 1e-10)
    return out


def _cli_op(name: str, argv: list, out_path: Path, check) -> Op:
    def read(code):
        if code != 0:
            raise OpFailed(f"exit code {code}")
        return out_path.read_bytes()

    return Op(name, lambda: cli.run_command(argv), read, check)


def fixtures_cli(seed: int, root: Path, scratch: Path) -> Prepared:
    """Every subcommand on each shipped fixture, in-process."""
    ops = []
    for fi, (stem, (rate_grid, bound_grid, ldp, mc)) in enumerate(FIXTURES.items()):
        path = root / "fixtures" / f"{stem}.json"
        if not path.is_file():
            raise FileNotFoundError(path)
        fx = _Fixture(path, bernoulli=stem == "bernoulli")
        cfg = ["--config", str(path)]

        def op(sub, extra, check, tag=""):
            out = scratch / f"{stem}-{sub}{tag}.out"
            ops.append(_cli_op(f"{stem} {sub}{tag}", [sub] + cfg + ["--out", str(out)] + extra,
                               out, check))

        q_min, q_max, q_step = Q_RANGE
        op("pressure", ["--q-min", q_min, "--q-max", q_max, "--q-step", q_step],
           lambda d, fx=fx: _check_pressure(fx, _csv(d)))
        op("rate", ["--p-grid", rate_grid], lambda d, fx=fx: _check_rate(fx, _csv(d)))
        for mode in ("measured", "paper"):
            op("bound", ["--delta0", DELTA0, "--constants", mode, "--p-grid", bound_grid],
               lambda d, m=mode: _check_bound(m, _csv(d)), f"-{mode}")
            op("constants", ["--delta0", DELTA0, "--constants", mode],
               lambda d, m=mode: _check_constants(m, _csv(d)), f"-{mode}")
        p, delta, horizons = ldp
        op("ldp", ["--p", p, "--delta", delta, "--n", horizons],
           lambda d, fx=fx, p=float(p), dl=float(delta): _check_ldp(fx, p, dl, False, _csv(d)),
           "-exact")
        p, delta, horizons = mc
        op("ldp", ["--p", p, "--delta", delta, "--n", horizons, "--method", "monte_carlo",
                   "--trials", str(CLI_TRIALS), "--seed", str(seed * 100 + fi)],
           lambda d, fx=fx, p=float(p), dl=float(delta): _check_ldp(fx, p, dl, True, _csv(d)),
           "-mc")
        op("spread", [], lambda d, fx=fx: _check_spread(fx, _csv(d)))
        op("normalize", [], lambda d, fx=fx: _check_normalize(fx, d))
    return Prepared(ops)


# ---------------------------------------------------------------------------
# seeded full-shift models
# ---------------------------------------------------------------------------


def _orbit_words(orbit: list, r: int) -> list:
    ext = orbit * (r // len(orbit) + 2)
    return [tuple(ext[j : j + r]) for j in range(len(orbit))]


def planted_tables(rng, s0: int, r: int) -> tuple:
    """Range-r tables on the full s0-shift: f uniform in [-0.5, 0.5];
    psi uniform in [0.25, 0.75] except 0 along a planted orbit of period 3
    and 1 along one of period 4.  Those orbits are then the extreme cycles,
    so the spread is exactly [0, 1] and the shape of Karp's search does not
    depend on the seed."""
    while True:
        lo = [int(s) for s in rng.integers(1, s0 + 1, 3)]
        hi = [int(s) for s in rng.integers(1, s0 + 1, 4)]
        w_lo, w_hi = _orbit_words(lo, r), _orbit_words(hi, r)
        states = {w[:-1] for w in w_lo} | {w[:-1] for w in w_hi}
        if len(set(w_lo) | set(w_hi)) == 7 and len(states) == 7:
            break
    alphabet = range(1, s0 + 1)
    f = {w: float(rng.uniform(-0.5, 0.5)) for w in itertools.product(alphabet, repeat=r)}
    psi = {w: float(rng.uniform(0.25, 0.75)) for w in itertools.product(alphabet, repeat=r)}
    psi.update({w: 0.0 for w in w_lo})
    psi.update({w: 1.0 for w in w_hi})
    return f, psi


def _full_shift(s0: int):
    return sft.validate_transitions(np.ones((s0, s0), dtype=int))


def _check_planted_spread(spread, t: oracle.Tables) -> list:
    """Library spread against the planted endpoints, a numpy Karp on the
    word graph, and the mean recomputed along each witness orbit."""
    n, src, dst, w = oracle.cycle_graph(t.A, t.psi, t.rpsi)
    out = _off("planted min", spread.min_mean, 0.0, 1e-12)
    out += _off("planted max", spread.max_mean, 1.0, 1e-12)
    out += _off("Karp min", spread.min_mean, oracle.karp_min_mean(n, src, dst, w), 1e-12)
    out += _off("Karp max", spread.max_mean, -oracle.karp_min_mean(n, src, dst, -w), 1e-12)
    for mean, wit in ((spread.min_mean, spread.witness_min), (spread.max_mean, spread.witness_max)):
        out += _off(f"mean along witness {wit}", oracle.orbit_mean(t.psi, t.rpsi, wit), mean, 1e-12)
    return out


#: (alphabet size, range of f and psi, tilts whose tilted means are the
#: levels).  Levels are set by tilt, not by position in the spread, so every
#: seed asks for the same depth of tilt; no tilt is dyadic, which would let
#: bisection land on the maximiser exactly.
LARGE_MODELS = (
    (4, 4, (-1.3, 1.1)),
    (5, 4, (-0.6, 0.9)),
    (4, 5, (-0.8, 0.6)),
)


def _check_level(P: oracle.Pressure, p: float, rv) -> list:
    if rv.status != "interior":
        return [f"I({p}): status {rv.status}"]
    out = _off(f"I({p}) duality", rv.value, p * rv.q_star - P.increment(rv.q_star), 1e-9)
    return out + _off(f"P'(q*) at p={p}", P.slope(rv.q_star), p, 1e-6)


def large_model(seed: int, root: Path, scratch: Path) -> Prepared:
    """rate_function at interior levels of seeded full-shift models with
    256, 625 and 1024 transfer states; spreads computed in set-up."""
    ops, checks = [], []
    for i, (s0, r, tilts) in enumerate(LARGE_MODELS):
        f_tab, psi_tab = planted_tables(np.random.default_rng([seed, i]), s0, r)
        tm = _full_shift(s0)
        psi = potentials.make_potential(tm, r, psi_tab, THETA)
        phi = transfer.normalize_potential(potentials.make_potential(tm, r, f_tab, THETA))
        spread = potentials.cohomology_spread(psi)
        t = oracle.Tables(A=np.ones((s0, s0), dtype=np.int64), f=f_tab, rf=r, psi=psi_tab, rpsi=r)
        P = oracle.Pressure(t)
        checks.append(lambda spread=spread, t=t: _check_planted_spread(spread, t))
        for q in tilts:
            p = P.slope(q)
            ops.append(Op(
                f"rate_function {s0}^{r} states q={q}",
                lambda phi=phi, psi=psi, p=p, spread=spread:
                    rate.rate_function(phi, psi, p, spread=spread),
                check=lambda rv, P=P, p=p: _check_level(P, p, rv),
            ))
    return Prepared(ops, lambda: [line for c in checks for line in c()])


# ---------------------------------------------------------------------------
# deviation-scan
# ---------------------------------------------------------------------------

#: exact-DP horizons; the first two are short enough for path enumeration
DP_HORIZONS = (4, 8) + tuple(range(20, 301, 20))
BRUTE_MAX_N = 8
DP_DELTA = 0.05
#: Monte Carlo horizons are not multiples of 5, so no lattice atom k/(4n)
#: sits on a window edge ending in the digit 3
MC_HORIZONS = (21, 43, 87)
MC_TRIALS = 20000
MC_DELTA = 0.13
#: (alphabet size, range) of the planted observables for cohomology_spread
SPREAD_SHAPES = ((3, 6), (2, 9), (4, 5))


def _lattice_tables(rng) -> tuple:
    """Full 3-shift: f of range 3 uniform in [-0.5, 0.5]; psi of range 4 on
    the 1/4 lattice of [0, 1], with 0, 1/4 and 1 all present so the DP key
    range is the same for every seed."""
    f = {w: float(rng.uniform(-0.5, 0.5)) for w in itertools.product((1, 2, 3), repeat=3)}
    psi = {w: int(rng.integers(0, 5)) / 4.0 for w in itertools.product((1, 2, 3), repeat=4)}
    for w, v in zip(sorted(psi)[:3], (0.0, 0.25, 1.0)):
        psi[w] = v
    return f, psi


def deviation_scan(seed: int, root: Path, scratch: Path) -> Prepared:
    """Window masses by exact DP and Monte Carlo on one model with 27 word
    states, plus cycle means of observables with 243 and 256 graph states."""
    rng = np.random.default_rng([seed, 100])
    f_tab, psi_tab = _lattice_tables(rng)
    tm = _full_shift(3)
    psi = potentials.make_potential(tm, 4, psi_tab, THETA)
    phi = transfer.normalize_potential(potentials.make_potential(tm, 3, f_tab, THETA))
    mu = transfer.equilibrium_measure(phi, k=max(1, phi.r - 1))
    mean = transfer.integrate(mu, psi)
    p_dp = round(mean + 0.1, 2)
    p_mc = round(mean, 2) + 0.003
    t = oracle.Tables(A=np.ones((3, 3), dtype=np.int64), f=f_tab, rf=3, psi=psi_tab, rpsi=4)
    chain = cache(lambda: oracle.chain(t))

    def check_exact(wm, n):
        want = oracle.window_mass(chain(), n, p_dp, DP_DELTA)
        out = [] if wm.method == "exact_dp" and wm.slack == 0.0 else [f"n={n}: {wm.method}"]
        out += _off(f"exact mass n={n}", wm.mass, want, 1e-8 * want)
        if n <= BRUTE_MAX_N:
            brute = oracle.window_mass_brute(chain(), n, p_dp, DP_DELTA)
            out += _off(f"exact mass n={n} by enumeration", wm.mass, brute, 1e-12 + 1e-9 * brute)
        return out

    def check_mc(wm, n):
        want = oracle.window_mass(chain(), n, p_mc, MC_DELTA)
        se = math.sqrt(want * (1.0 - want) / MC_TRIALS)
        return _off(f"Monte Carlo mass n={n}", wm.mass, want, 5.0 * se)

    ops = [
        Op(f"exact_window_mass n={n}",
           lambda n=n: deviations.exact_window_mass(mu, psi, n, p_dp, DP_DELTA),
           check=lambda wm, n=n: check_exact(wm, n))
        for n in DP_HORIZONS
    ]
    ops += [
        Op(f"sample_paths n={n}",
           lambda n=n, j=j: deviations.sample_paths(mu, psi, n, MC_TRIALS, seed * 100 + j,
                                                    p_mc, MC_DELTA),
           check=lambda wm, n=n: check_mc(wm, n))
        for j, n in enumerate(MC_HORIZONS)
    ]
    for j, (s0, r) in enumerate(SPREAD_SHAPES):
        _, obs_tab = planted_tables(np.random.default_rng([seed, 200 + j]), s0, r)
        obs = potentials.make_potential(_full_shift(s0), r, obs_tab, THETA)
        t_obs = oracle.Tables(A=np.ones((s0, s0), dtype=np.int64), f={}, rf=1, psi=obs_tab, rpsi=r)
        ops.append(Op(
            f"cohomology_spread {s0}^{r - 1} states",
            lambda obs=obs: potentials.cohomology_spread(obs),
            check=lambda spread, t_obs=t_obs: _check_planted_spread(spread, t_obs),
        ))
    return Prepared(ops)


WORKLOADS = {
    "fixtures-cli": fixtures_cli,
    "large-model": large_model,
    "deviation-scan": deviation_scan,
}
