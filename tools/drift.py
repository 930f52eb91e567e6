"""Drift of rate-function outputs and window masses between two trees.

    python3 tools/drift.py --dump OUT
    python3 tools/drift.py --compare A B

``--dump`` runs a fixed corpus through the public API of the checkout this
file sits in (its ``src/``) and writes one JSON line per record.  A rate
level stores ``value`` and ``q_star`` as ``float.hex``, ``status`` and
``iterations`` (the tilts the level solved); a window mass stores ``mass``,
``slack`` and ``log_rate`` as ``float.hex`` and its ``method``.  To measure
a change, copy this file into a checkout of its parent, dump there and in
the change, and compare the two dumps.

``--compare`` prints, per numeric field, the number of records that differ
and the largest absolute and relative drift, the total iterations of each
dump and of each group of rate levels (each fixture, the large models cold
and warm, chi_K, the flat tail, the steep step), every level whose
iterations rose, and every change of status or method and every record
found in one dump only.  Each record is compared on its own fields.  It
exits 1 when anything differs, so two dumps of one tree check that the
outputs, kept probes and kept window DPs included, do not depend on the
process.

The corpus of rate levels:

- each fixture's 41 levels from one step below its spread to one step above,
  endpoints included;
- the ``LARGE_MODELS`` of ``perfbench/workloads.py`` at seeds 0-4: 33 levels
  from -1/30 to 31/30 on their spread [0, 1], one grid call on a fresh phi
  (cold), then the same call again (warm, on the kept probes);
- chi_K pads 4-8 (``indicator_example`` of the target 111 on the full
  2-shift, theta 0.5) against Bernoulli(0.6, 0.4) normalised: the grid
  0.1:0.9:0.2, then both endpoints of the spread;
- slopes that are hard for the root finder, each on a fresh phi: the golden
  mean fixture at 0.4999, 0.499999 and 0.49999999 (a flat tail), and the
  fair coin with psi {1: 0, 2: 2000} at p = 1 (a steep step).

The corpus of window masses:

- the deviation-scan model of ``perfbench/workloads.py`` at seeds 1-3, on
  one measure per seed: its ``DP_HORIZONS`` as separate
  ``exact_window_mass`` calls in ascending order (which continue the
  measure's kept DP), then in descending order, then as one ``ldp_scan``;
  and ``sample_paths`` at its Monte Carlo horizons and seeds;
- each fixture's exact ``ldp`` scan and Monte Carlo ``ldp`` horizons of the
  fixtures-cli workload, and random_range3's scan again with the DP budget
  cut so that only n = 8 takes the lattice and the rest the binned method;
- chi_K pads 4-10 against Bernoulli(0.6, 0.4) normalised, as in the
  rate corpus: the exact ``ldp_scan`` window p = 0.9, delta = 0.05 at
  n = 40 on one measure; and pad 5 at n = 10, 20 and 40 with the lattice
  search cut below its denominator 6, so that the scan takes bins;
- 40 seeded models (``_window_models``), ten each off any lattice and on the
  1/4, 1/10 and 1/64 lattices: ``MODEL_HORIZONS`` as ascending calls, as
  descending calls and as one ``ldp_scan``, each on a fresh measure, once at
  the default gather budget and once at ``FEW_KEY_GATHER_BYTES``, where a
  band takes several key blocks per step and its last block slides left.

The corpus of other outputs, each float as ``float.hex``:

- ``cohomology_spread`` endpoints and witnesses on each fixture's psi and
  on the deviation-scan ``SPREAD_SHAPES`` observables at seeds 1-3;
- ``normalize_potential`` tables, one record per word, of each fixture's
  f, the deviation-scan phi at seeds 1-3 and the seeded models' phi;
- ``integrate`` means of psi against the equilibrium measure of each of
  those phi, and of chi_K pads 4-10 against Bernoulli(0.6, 0.4);
- the potentials the library derives, each as the SHA-256 of its value
  array with its ``sup_norm`` and ``hoelder_seminorm``: chi_K pads 0-12,
  the ``INDICATOR_CASES`` at pads 0-6, and on each fixture
  ``affine_combine`` of f and psi at q = -0.7 and 0.7 and the
  ``shift_nonnegative`` of each (with its shift; every fixture's psi is
  nonnegative already);
- chi_K pads 4-10: the constants of both modes (``constants_for``) and the
  certificate of ``verify_bound`` with delta0 0.05 on the grid 0.1:0.9:0.2,
  its constants and each verdict;
- the SHA-256 of the CSV of every CLI subcommand the fixtures-cli workload
  runs, at its seed 1;
- the rate levels of the stress models of ``fixtures/stress`` (``PINNED``),
  each level a ``rate_function`` call on the normalised f: its ``value``
  as ``float.hex`` and ``status``, or the class of the exception it raised
  (``error``), so a tree whose solver crashes on them still dumps.  Models
  a-d are those of the Perron quotient test; on e, ``rate`` reports
  I(2/3) = 175.2 where the exact value is 0.3937;
- forced budget splits: the 40 seeded window models and 16 more on a 1e-4
  lattice, with ``DP_BUDGET_BYTES`` cut to the table of n = 6, as
  ascending ``exact_window_mass`` calls and as one ``ldp_scan``: each mass
  (lattice or binned) or the error class (``Infeasible``);
- ``cohomology_spread`` of seeded spread graphs: 60 random observables on
  2-5 symbols, half on a 1/4 lattice, and 36 coboundary inputs
  ``g(w[1:]) - g(w[:-1]) + u(w)`` on full shifts, g of scale 1 or 1e8, u
  uniform or constant.
"""

import argparse
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
from thermosft import (  # noqa: E402
    ValidationError,
    affine_combine,
    cohomology_spread,
    constants_for,
    deviations,
    enumerate_words,
    equilibrium_measure,
    exact_window_mass,
    indicator_example,
    integrate,
    ldp_scan,
    make_potential,
    normalize_potential,
    rate_function,
    rate_levels,
    sample_paths,
    shift_nonnegative,
    validate_transitions,
    verify_bound,
)
from thermosft.cli import _parse_range, load_model, run_command  # noqa: E402

import workloads  # noqa: E402  (perfbench/workloads.py)

#: fields compared as labels; every other field but the key is a number
LABELS = ("status", "method", "witness_min", "witness_max", "rate_ok", "tilt_ok", "sha256",
          "error")
#: the stress models of ``fixtures/stress``, each its file's JSON (copied
#: here, so a checkout without those files dumps them too), and its grid
PINNED = (
    ("a", "187.5:437.5:62.5",
     '{"schema_version":1,"theta":0.5,"transitions":[[1,1,0],[1,0,1],[1,1,0]],'
     '"potential_f":{"range":3,"values":{"111":0.0028,"112":0.1052,"121":-0.0183,'
     '"123":-0.0762,"211":-0.097,"212":-0.0222,"231":-0.075,"232":0.1881,"311":-0.1179,'
     '"312":-0.1082,"321":-0.0306,"323":0.065}},"observable_psi":{"range":1,'
     '"values":{"1":0.0,"2":0.0,"3":1000.0}}}'),
    ("b", "0.002457678126788043:0.002457678126788043:1",
     '{"schema_version":1,"theta":0.5,"transitions":[[0,1,0],[1,0,1],[1,0,0]],'
     '"potential_f":{"range":3,"values":{"121":-7.5886,"123":-3.1006,"212":-5.7343,'
     '"231":7.2185,"312":1.6114}},"observable_psi":{"range":2,'
     '"values":{"12":-0.7082746784670266,"21":0.7131900347206027,"23":1.9445045519534288,'
     '"31":-0.9627354962136402}}}'),
    ("c", "333.3333333333333:1000.0:83.33333333333334",
     '{"schema_version":1,"theta":0.5,"transitions":[[1,1,1],[1,0,0],[1,1,1]],'
     '"potential_f":{"range":3,"values":{"111":-5.8122,"112":8.5571,"113":-4.024,'
     '"121":-2.8718,"131":1.766,"132":11.7035,"133":-0.3274,"211":1.0796,"212":-11.2071,'
     '"213":4.5826,"311":-1.5468,"312":3.4345,"313":8.6988,"321":-8.3118,"331":-1.6857,'
     '"332":6.0809,"333":7.0064}},"observable_psi":{"range":3,"values":{"111":1000.0,'
     '"112":0.0,"113":1000.0,"121":1000.0,"131":1000.0,"132":1000.0,"133":0.0,'
     '"211":1000.0,"212":0.0,"213":1000.0,"311":0.0,"312":0.0,"313":0.0,"321":1000.0,'
     '"331":1000.0,"332":0.0,"333":1000.0}}}'),
    ("d", "-1.5520498876493318:1.5524665679968663:0.3880645569557748",
     '{"schema_version":1,"theta":0.5,"transitions":[[1,1,1,1],[1,1,1,1],[1,1,1,1],[1,1,1,'
     '1]],"potential_f":{"range":1,"values":{"1":0.3623,"2":0.2581,"3":-1.6394,'
     '"4":0.3602}},"observable_psi":{"range":2,"values":{"11":-0.11849769951697288,'
     '"12":-0.23974784920156203,"13":-0.15530166200229314,"14":0.21897170507821917,'
     '"21":-1.8163956614546406,"22":1.5524665679968663,"23":-0.8614416732885682,'
     '"24":-2.2413678581872873,"31":-0.08197449383484104,"32":1.4574804175244145,'
     '"33":-0.5186009711032398,"34":1.5512756209056682,"41":1.5569420010285768,'
     '"42":-0.8627319171113763,"43":-2.4651208152773547,"44":-1.2351827568078488}}}'),
    ("e", "0.6666666666666666:2.0:0.6666666666666667",
     '{"schema_version":1,"theta":0.5,"transitions":[[0,0,1],[1,0,0],[1,1,1]],'
     '"potential_f":{"range":1,"values":{"1":0.5492,"2":0.9281,"3":-0.0366}},'
     '"observable_psi":{"range":3,"values":{"131":2,"132":0,"133":1,"213":0,"313":1,'
     '"321":2,"331":2,"332":0,"333":2}}}'),
)
#: indicator targets beyond chi_K's 111: (transitions, targets) of two
#: targets of different lengths, a target that is a prefix of another and
#: one-symbol targets, on the full 2-shift, the golden mean and 3 symbols
INDICATOR_CASES = (
    ([[1, 1], [1, 1]], [(1, 2), (2, 2, 1)]),
    ([[1, 1], [1, 1]], [(1, 2), (1, 2, 2)]),
    ([[0, 1], [1, 1]], [(2,)]),
    ([[0, 1], [1, 1]], [(2, 1, 2), (1, 2)]),
    ([[1, 1, 0], [0, 1, 1], [1, 1, 1]], [(1, 2), (3,), (2, 3, 3)]),
    ([[1, 1, 0], [0, 1, 1], [1, 1, 1]], [(3, 1), (3, 1, 1, 2)]),
)
#: horizons of the seeded window-mass models
MODEL_HORIZONS = (1, 3, 6, 10, 15)
#: the models' second gather budget: blocks of 1 to 32 keys
FEW_KEY_GATHER_BYTES = 1024


def _levels(lo: float, hi: float, inside: int) -> list:
    """``inside`` levels evenly from lo to hi, both exact, and one step
    beyond each end."""
    steps = inside - 1
    return [lo if k == 0 else hi if k == steps else lo + (hi - lo) * k / steps
            for k in range(-1, inside + 1)]


def _corpus():
    """(case, RateValue) for every level of the corpus, in a fixed order."""
    for stem in ("bernoulli", "golden_mean", "random_range3"):
        model = load_model(str(ROOT / "fixtures" / f"{stem}.json"))
        spread = cohomology_spread(model.psi)
        grid = _levels(spread.min_mean, spread.max_mean, 39)
        for rv in rate_levels(normalize_potential(model.f), model.psi, grid):
            yield f"fixture {stem}", rv

    for seed in range(5):
        for i, (s0, r, _) in enumerate(workloads.LARGE_MODELS):
            f_tab, psi_tab = workloads.planted_tables(np.random.default_rng([seed, i]), s0, r)
            tm = validate_transitions(np.ones((s0, s0), dtype=int))
            phi = normalize_potential(make_potential(tm, r, f_tab, 0.5))
            psi = make_potential(tm, r, psi_tab, 0.5)
            grid = [k / 30 for k in range(-1, 32)]
            for run in ("cold", "warm"):
                for rv in rate_levels(phi, psi, grid):
                    yield f"large seed {seed} {s0}^{r} {run}", rv

    full2 = validate_transitions([[1, 1], [1, 1]])
    coin = {(1,): math.log(0.6), (2,): math.log(0.4)}
    phi = normalize_potential(make_potential(full2, 1, coin, 0.5))
    for pad in range(4, 9):
        psi = indicator_example(full2, [(1, 1, 1)], pad=pad, theta=0.5)
        for rv in rate_levels(phi, psi, (0.1, 0.3, 0.5, 0.7, 0.9)):
            yield f"chi_K pad {pad}", rv
        spread = cohomology_spread(psi)
        for rv in rate_levels(phi, psi, (spread.min_mean, spread.max_mean)):
            yield f"chi_K pad {pad} endpoint", rv

    golden = load_model(str(ROOT / "fixtures" / "golden_mean.json"))
    for p in (0.4999, 0.499999, 0.49999999):
        yield "golden_mean flat tail", rate_function(normalize_potential(golden.f), golden.psi, p)
    fair = make_potential(full2, 1, {(1,): 0.0, (2,): 0.0}, 0.5)
    steep = make_potential(full2, 1, {(1,): 0.0, (2,): 2000.0}, 0.5)
    yield "steep step", rate_function(normalize_potential(fair), steep, 1.0)


def _aperiodic(rng, s0: int):
    """Seeded aperiodic transition matrix: entries 1 with probability 0.6,
    then one more 1 at a time until the matrix is valid."""
    mat = (rng.random((s0, s0)) < 0.6).astype(int)
    while True:
        try:
            return validate_transitions(mat)
        except ValidationError:
            mat[int(rng.integers(s0)), int(rng.integers(s0))] = 1


def _seeded_potential(rng, tm, r: int, lo: float, hi: float, lattice=None):
    """Uniform values in [lo, hi] on every admissible r-word, rounded to
    the 1/lattice grid when lattice is given."""
    table = {}
    for w in enumerate_words(tm, r):
        v = float(rng.uniform(lo, hi))
        table[w] = v if lattice is None else round(v * lattice) / lattice
    return make_potential(tm, r, table, 0.5)


def _window_models(count: int = 40, stream: int = 300, lattices=(None, 4, 10, 64)):
    """(case, phi, psi, p, delta) of the seeded window-mass models: on 2 or
    3 symbols, phi of range 1-2 in [-1, 1], psi of range 1-3 in [0, 1] on
    the lattices in turn, and a window about the mean of psi; model i is
    drawn from the seed [i, stream]."""
    for i in range(count):
        lattice = lattices[i % len(lattices)]
        rng = np.random.default_rng([i, stream])
        tm = _aperiodic(rng, int(rng.integers(2, 4)))
        phi = normalize_potential(_seeded_potential(rng, tm, int(rng.integers(1, 3)), -1.0, 1.0))
        psi = _seeded_potential(rng, tm, int(rng.integers(1, 4)), 0.0, 1.0, lattice)
        mean = integrate(equilibrium_measure(phi, k=max(1, phi.r - 1)), psi)
        p = round(mean + float(rng.uniform(-0.25, 0.25)), 3)
        delta = (0.1, 0.15, 0.2)[i % 3]
        yield f"model {i} lattice {lattice}", phi, psi, p, delta


def _model_masses(blocks: str):
    """(case, WindowMass) of the seeded models at the gather budget set now:
    ``MODEL_HORIZONS`` as ascending calls and as descending calls, each on a
    fresh measure, then as one ``ldp_scan``."""
    for case, phi, psi, p, delta in _window_models():
        for order, horizons in (("ascending", MODEL_HORIZONS),
                                ("descending", MODEL_HORIZONS[::-1])):
            mu = equilibrium_measure(phi, k=max(1, phi.r - 1))
            for n in horizons:
                yield f"{case} {order} {blocks}", exact_window_mass(mu, psi, n, p, delta)
        # the entries do not read the reference rate, and a psi may be
        # cohomologous to a constant, which has no rate function
        mu = equilibrium_measure(phi, k=max(1, phi.r - 1))
        scan = ldp_scan(mu, psi, lambda level: SimpleNamespace(value=0.0), MODEL_HORIZONS, p, delta)
        for wm in scan.entries:
            yield f"{case} ldp_scan {blocks}", wm


def _window_corpus():
    """(case, WindowMass) for every window mass of the corpus, in a fixed
    order."""
    for seed in (1, 2, 3):
        f_tab, psi_tab = workloads._lattice_tables(np.random.default_rng([seed, 100]))
        tm = workloads._full_shift(3)
        psi = make_potential(tm, 4, psi_tab, workloads.THETA)
        phi = normalize_potential(make_potential(tm, 3, f_tab, workloads.THETA))
        mu = equilibrium_measure(phi, k=max(1, phi.r - 1))
        mean = integrate(mu, psi)
        p, delta = round(mean + 0.1, 2), workloads.DP_DELTA
        case = f"deviation-scan seed {seed}"
        for order, horizons in (("ascending", workloads.DP_HORIZONS),
                                ("descending", workloads.DP_HORIZONS[::-1])):
            for n in horizons:
                yield f"{case} {order}", exact_window_mass(mu, psi, n, p, delta)
        scan = ldp_scan(mu, psi, lambda level: rate_function(phi, psi, level),
                        workloads.DP_HORIZONS, p, delta)
        for wm in scan.entries:
            yield f"{case} ldp_scan", wm
        p_mc = round(mean, 2) + 0.003
        for j, n in enumerate(workloads.MC_HORIZONS):
            yield f"{case} sample_paths", sample_paths(
                mu, psi, n, workloads.MC_TRIALS, seed * 100 + j, p_mc, workloads.MC_DELTA)

    for stem, (_, _, exact, mc) in workloads.FIXTURES.items():
        model = load_model(str(ROOT / "fixtures" / f"{stem}.json"))
        phi = normalize_potential(model.f)
        mu = equilibrium_measure(phi, k=max(1, phi.r - 1))

        def rate_fn(level, phi=phi, psi=model.psi):
            return rate_function(phi, psi, level)

        p, delta, horizons = exact
        n_list = _parse_range(horizons, integer=True)
        for wm in ldp_scan(mu, model.psi, rate_fn, n_list, float(p), float(delta)).entries:
            yield f"ldp {stem}", wm
        if stem == "random_range3":
            # the budget of one lattice table at n = 8 sends n >= 12 to bins
            fine, _, lattice = deviations._edge_data(mu, model.psi)
            budget = deviations.DP_BUDGET_BYTES
            deviations.DP_BUDGET_BYTES = fine.chain.size * 8 * (8 * max(lattice[0]) + 1)
            try:
                scan = ldp_scan(mu, model.psi, rate_fn, n_list, float(p), float(delta))
            finally:
                deviations.DP_BUDGET_BYTES = budget
            for wm in scan.entries:
                yield f"ldp {stem} budget split", wm
        p, delta, horizons = mc
        for i, n in enumerate(_parse_range(horizons, integer=True)):
            yield f"ldp {stem} monte_carlo", sample_paths(
                mu, model.psi, n, workloads.CLI_TRIALS, 42 + i, float(p), float(delta))

    full2 = validate_transitions([[1, 1], [1, 1]])
    coin = {(1,): math.log(0.6), (2,): math.log(0.4)}
    mu = equilibrium_measure(normalize_potential(make_potential(full2, 1, coin, 0.5)), k=1)
    # the entries do not read the reference rate
    for pad in range(4, 11):
        psi = indicator_example(full2, [(1, 1, 1)], pad=pad, theta=0.5)
        scan = ldp_scan(mu, psi, lambda level: SimpleNamespace(value=0.0), [40], 0.9, 0.05)
        for wm in scan.entries:
            yield f"chi_K pad {pad} ldp", wm
    # the values k/6 fit no lattice of denominator at most 5
    psi = indicator_example(full2, [(1, 1, 1)], pad=5, theta=0.5)
    max_den = deviations.LATTICE_MAX_DEN
    deviations.LATTICE_MAX_DEN = 5
    try:
        scan = ldp_scan(mu, psi, lambda level: SimpleNamespace(value=0.0), [10, 20, 40], 0.9, 0.05)
    finally:
        deviations.LATTICE_MAX_DEN = max_den
    for wm in scan.entries:
        yield "chi_K pad 5 ldp binned", wm

    gather = deviations._GATHER_BLOCK_BYTES
    for budget, blocks in ((gather, "default blocks"), (FEW_KEY_GATHER_BYTES, "few-key blocks")):
        deviations._GATHER_BLOCK_BYTES = budget
        try:
            found = list(_model_masses(blocks))
        finally:
            deviations._GATHER_BLOCK_BYTES = gather
        yield from found


def _budget_split_records():
    """The seeded window models, and 16 more on a 1e-4 lattice (finer than
    the bins), with ``DP_BUDGET_BYTES`` cut to the table of n = 6: the
    lattice table on a lattice, else the binned one.  ``MODEL_HORIZONS`` as
    ascending calls on one measure, then as one ``ldp_scan`` on a fresh
    one; each mass, or the class of the error a call raised (``Infeasible``
    where a horizon's table fits no method)."""
    budget = deviations.DP_BUDGET_BYTES
    models = [*_window_models(), *_window_models(16, 400, (10**4,))]
    try:
        for case, phi, psi, p, delta in models:
            mu = equilibrium_measure(phi, k=max(1, phi.r - 1))
            fine, values, lattice = deviations._edge_data(mu, psi)
            if lattice is None:
                quant = [round(v / (delta / deviations.BINS_PER_DELTA)) for v in values]
                top = max(quant) - min(quant)
            else:
                top = max(lattice[0])
            deviations.DP_BUDGET_BYTES = fine.chain.size * 8 * (6 * top + 1)
            window = f"p={p!r} delta={delta!r}"
            for n in MODEL_HORIZONS:
                try:
                    wm = exact_window_mass(mu, psi, n, p, delta)
                except ValidationError as err:
                    yield {"key": f"{case} budget split n={n} {window}",
                           "error": type(err).__name__}
                else:
                    yield _mass_record(f"{case} budget split", wm)
            mu = equilibrium_measure(phi, k=max(1, phi.r - 1))
            try:
                scan = ldp_scan(mu, psi, lambda level: SimpleNamespace(value=0.0),
                                MODEL_HORIZONS, p, delta)
            except ValidationError as err:
                yield {"key": f"{case} budget split ldp_scan {window}",
                       "error": type(err).__name__}
            else:
                for wm in scan.entries:
                    yield _mass_record(f"{case} budget split ldp_scan", wm)
    finally:
        deviations.DP_BUDGET_BYTES = budget


def _coboundary(rng, s0: int, r: int, scale: float, constant: bool):
    """g(w[1:]) - g(w[:-1]) + u(w) on the r-words of the full s0-shift, g
    uniform in [-scale, scale] on (r-1)-words and u uniform in [0, 1], or
    0.5 everywhere (cohomologous to that constant) when ``constant``."""
    tm = validate_transitions(np.ones((s0, s0), dtype=int))
    g = {w: float(rng.uniform(-scale, scale)) for w in enumerate_words(tm, r - 1)}
    table = {w: g[w[1:]] - g[w[:-1]] + (0.5 if constant else float(rng.uniform(0.0, 1.0)))
             for w in enumerate_words(tm, r)}
    return make_potential(tm, r, table, 0.5)


def _spread_graph_records():
    """``cohomology_spread`` of 60 seeded observables on 2-5 symbols with
    ranges 1-3, every other one on a 1/4 lattice (ties), and of coboundary
    inputs on the full shifts of 2^2-2^4, 3^2, 3^3 and 4^2 word states at
    two seeds each: g of scale 1 and of scale 1e8 (whose biases dwarf the
    means) plus uniform u, and g of scale 1 plus a constant.  A spread that
    raises is recorded by its error class."""
    cases = []
    for i in range(60):
        rng = np.random.default_rng([i, 500])
        s0 = int(rng.integers(2, 6))
        tm = _aperiodic(rng, s0)
        r = int(rng.integers(1, 3 if s0 >= 4 else 4))
        cases.append((f"seeded graph {i}",
                      _seeded_potential(rng, tm, r, -1.0, 1.0, 4 if i % 2 else None)))
    for s0, r in ((2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (4, 3)):
        for seed in (1, 2):
            for scale, constant in ((1.0, False), (1e8, False), (1.0, True)):
                rng = np.random.default_rng([seed, s0, r, 600])
                cases.append((f"coboundary {s0}^{r - 1} seed {seed} scale {scale!r}"
                              f"{' constant' if constant else ''}",
                              _coboundary(rng, s0, r, scale, constant)))
    for case, psi in cases:
        try:
            yield _spread_record(case, psi)
        except Exception as err:  # an older solver may fail with any error here
            yield {"key": f"spread {case}", "error": type(err).__name__}


def _mass_record(case: str, wm) -> dict:
    return {"key": f"{case} n={wm.n} p={wm.p!r} delta={wm.delta!r}",
            **_hexed(mass=wm.mass, slack=wm.slack, log_rate=wm.log_rate), "method": wm.method}


def _hexed(**fields) -> dict:
    """The fields, each float as ``float.hex``."""
    return {name: v.hex() if isinstance(v, float) else v for name, v in fields.items()}


def _spread_record(case: str, psi) -> dict:
    spread = cohomology_spread(psi)
    return {"key": f"spread {case}", **_hexed(
        min_mean=spread.min_mean, max_mean=spread.max_mean,
        witness_min=str(spread.witness_min), witness_max=str(spread.witness_max))}


def _potential_record(case: str, g, **fields) -> dict:
    """The SHA-256 of g's value array, its norms and any other fields."""
    return {"key": f"potential {case}", "sha256": hashlib.sha256(g.values.tobytes()).hexdigest(),
            **_hexed(sup_norm=g.sup_norm, hoelder_seminorm=g.hoelder_seminorm, **fields)}


def _model_records(case: str, f, psi, normalize: bool = True):
    """The normalised table of f, one record per word (f as it is when
    ``normalize`` is off), then the mean of psi under its equilibrium
    measure."""
    phi = normalize_potential(f) if normalize else f
    for w, v in phi.table.items():
        yield {"key": f"normalize {case} {w}", **_hexed(entry=v)}
    mu = equilibrium_measure(phi, k=max(1, phi.r - 1))
    yield {"key": f"integrate {case}", **_hexed(mean=integrate(mu, psi))}


def _cli_records():
    """The SHA-256 of each CSV the fixtures-cli workload writes, at seed 1."""
    seed = 1
    with tempfile.TemporaryDirectory() as scratch:
        for fi, (stem, (rate_grid, bound_grid, ldp, mc)) in enumerate(workloads.FIXTURES.items()):
            cfg = ["--config", str(ROOT / "fixtures" / f"{stem}.json")]
            q_min, q_max, q_step = workloads.Q_RANGE
            runs = [("pressure", ["--q-min", q_min, "--q-max", q_max, "--q-step", q_step]),
                    ("rate", ["--p-grid", rate_grid])]
            for mode in ("measured", "paper"):
                runs.append(("bound", ["--delta0", workloads.DELTA0, "--constants", mode,
                                       "--p-grid", bound_grid]))
                runs.append(("constants", ["--delta0", workloads.DELTA0, "--constants", mode]))
            p, delta, horizons = ldp
            runs.append(("ldp", ["--p", p, "--delta", delta, "--n", horizons]))
            p, delta, horizons = mc
            runs.append(("ldp", ["--p", p, "--delta", delta, "--n", horizons,
                                 "--method", "monte_carlo", "--trials", str(workloads.CLI_TRIALS),
                                 "--seed", str(seed * 100 + fi)]))
            runs += [("spread", []), ("normalize", [])]
            for sub, extra in runs:
                out = Path(scratch) / "out.csv"
                code = run_command([sub] + cfg + ["--out", str(out)] + extra)
                digest = hashlib.sha256(out.read_bytes()).hexdigest() if code == 0 else None
                yield {"key": f"cli {stem} {sub} {' '.join(extra)}", "exit": code,
                       "sha256": digest}


def _pinned_records():
    """Each stress model's levels, one ``rate_function`` call per level;
    any exception is recorded by its class."""
    for stem, grid, text in PINNED:
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / f"{stem}.json"
            path.write_text(text, encoding="utf-8")
            model = load_model(str(path))
        for p in _parse_range(grid):
            key = f"pinned {stem} p={p!r}"
            try:
                rv = rate_function(normalize_potential(model.f), model.psi, p)
            except Exception as err:  # an older solver may crash with any error here
                yield {"key": key, "error": type(err).__name__}
            else:
                yield {"key": key, "status": rv.status, **_hexed(value=rv.value)}


def _other_corpus():
    """Every record of the other outputs, in a fixed order."""
    for stem in ("bernoulli", "golden_mean", "random_range3"):
        model = load_model(str(ROOT / "fixtures" / f"{stem}.json"))
        yield _spread_record(f"fixture {stem}", model.psi)
        yield from _model_records(f"fixture {stem}", model.f, model.psi)
        for q in (-0.7, 0.7):
            combined = affine_combine(model.f, model.psi, q)
            yield _potential_record(f"fixture {stem} affine_combine q={q!r}", combined)
            shifted, c = shift_nonnegative(combined)
            yield _potential_record(f"fixture {stem} shift_nonnegative q={q!r}", shifted, shift=c)
    full2 = validate_transitions([[1, 1], [1, 1]])
    for pad in range(13):
        psi = indicator_example(full2, [(1, 1, 1)], pad=pad, theta=0.5)
        yield _potential_record(f"chi_K pad {pad}", psi)
    for rows, targets in INDICATOR_CASES:
        tm = validate_transitions(rows)
        for pad in range(7):
            psi = indicator_example(tm, targets, pad=pad, theta=0.5)
            yield _potential_record(f"indicator {rows} {targets} pad {pad}", psi)
    for seed in (1, 2, 3):
        for j, (s0, r) in enumerate(workloads.SPREAD_SHAPES):
            _, obs_tab = workloads.planted_tables(np.random.default_rng([seed, 200 + j]), s0, r)
            obs = make_potential(workloads._full_shift(s0), r, obs_tab, workloads.THETA)
            yield _spread_record(f"deviation-scan seed {seed} {s0}^{r - 1}", obs)
        f_tab, psi_tab = workloads._lattice_tables(np.random.default_rng([seed, 100]))
        tm = workloads._full_shift(3)
        yield from _model_records(f"deviation-scan seed {seed}",
                                  make_potential(tm, 3, f_tab, workloads.THETA),
                                  make_potential(tm, 4, psi_tab, workloads.THETA))
    for case, phi, psi, _, _ in _window_models():
        yield from _model_records(case, phi, psi, normalize=False)

    coin = {(1,): math.log(0.6), (2,): math.log(0.4)}
    phi = normalize_potential(make_potential(full2, 1, coin, 0.5))
    mu = equilibrium_measure(phi, k=1)
    for pad in range(4, 11):
        psi = indicator_example(full2, [(1, 1, 1)], pad=pad, theta=0.5)
        case = f"chi_K pad {pad}"
        yield {"key": f"integrate {case}", **_hexed(mean=integrate(mu, psi))}
        psi1, _ = shift_nonnegative(psi)
        for mode in ("paper", "measured"):
            c = constants_for(phi, psi1, mode)
            yield {"key": f"constants {case} {mode}", **_hexed(
                rho=c.rho, log_rho=c.log_rho, log_D=c.log_D,
                log_h_norm_bound=c.log_h_norm_bound, log_h_min_bound=c.log_h_min_bound)}
            report = verify_bound(phi, psi1, 0.05, (0.1, 0.3, 0.5, 0.7, 0.9), c)
            yield {"key": f"certificate {case} {mode}", **_hexed(
                C0=report.C0, B_psi=report.B_psi, psi_tilde=report.psi_tilde,
                alpha=report.alpha, n0=report.n0, q0=report.q0, bound=report.bound)}
            for v in report.verdicts:
                yield {"key": f"verdict {case} {mode} p={v.p!r}", **_hexed(
                    rate=v.rate, tilt_value=v.tilt_value, rate_ok=str(v.rate_ok),
                    tilt_ok=str(v.tilt_ok), method=v.tilt_method)}
    yield from _cli_records()
    yield from _pinned_records()
    yield from _budget_split_records()
    yield from _spread_graph_records()


def dump(path: str) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for case, rv in _corpus():
            record = {
                "key": f"{case} p={rv.p!r}",
                "value": rv.value.hex(),
                "q_star": None if rv.q_star is None else rv.q_star.hex(),
                "status": rv.status,
                "iterations": rv.iterations,
            }
            out.write(json.dumps(record) + "\n")
        for case, wm in _window_corpus():
            out.write(json.dumps(_mass_record(case, wm)) + "\n")
        for record in _other_corpus():
            out.write(json.dumps(record) + "\n")


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    return {r["key"]: r for r in records}


def _number(x):
    if isinstance(x, str):
        return float.fromhex(x)
    return x


def _group(key: str) -> str:
    """The corpus group of a rate level: its fixture, the large models cold
    or warm, chi_K, the flat tail or the steep step."""
    case = key.rsplit(" p=", 1)[0]
    if case.startswith("large "):
        return "large " + case.rsplit(" ", 1)[1]
    if case.startswith("chi_K "):
        return "chi_K"
    if case.endswith(" flat tail"):
        return "flat tail"
    return case


def compare(path_a: str, path_b: str) -> int:
    """Print the drift of B against A; 1 when anything differs, else 0."""
    a, b = _load(path_a), _load(path_b)
    common = [k for k in a if k in b]
    differs = False
    print(f"{len(common)} records in both dumps")
    fields = list(dict.fromkeys(f for k in common for f in (*a[k], *b[k]) if f != "key"))
    for field in (f for f in fields if f not in LABELS):
        keys = [k for k in common if field in a[k] or field in b[k]]
        count, max_abs, max_rel = 0, 0.0, 0.0
        for key in keys:
            x, y = _number(a[key].get(field)), _number(b[key].get(field))
            if x == y:
                continue
            count += 1
            if x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
                max_abs = max_rel = math.inf
                continue
            max_abs = max(max_abs, abs(x - y))
            max_rel = max(max_rel, abs(x - y) / max(abs(x), abs(y)))
        differs = differs or count > 0
        print(f"{field}: {count} of {len(keys)} differ, "
              f"max abs drift {max_abs:.3g}, max rel drift {max_rel:.3g}")
    rated = [k for k in common if "iterations" in a[k] and "iterations" in b[k]]
    print("iterations in total: {} -> {}".format(
        sum(a[k]["iterations"] for k in rated), sum(b[k]["iterations"] for k in rated)))
    groups = {}
    for key in rated:
        totals = groups.setdefault(_group(key), [0, 0])
        totals[0] += a[key]["iterations"]
        totals[1] += b[key]["iterations"]
    for group, (x, y) in groups.items():
        print(f"  {group}: {x} -> {y}")
    rose = [k for k in rated if b[k]["iterations"] > a[k]["iterations"]]
    print(f"iterations rose at {len(rose)} levels")
    for key in rose:
        print(f"  {key}: {a[key]['iterations']} -> {b[key]['iterations']}")
    for field in (f for f in fields if f in LABELS):
        for key in common:
            if a[key].get(field) != b[key].get(field):
                differs = True
                print(f"{field} change: {key}: {a[key].get(field)} -> {b[key].get(field)}")
    for key in [k for k in a if k not in b] + [k for k in b if k not in a]:
        differs = True
        print(f"only in {path_a if key in a else path_b}: {key}")
    return 1 if differs else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--dump", metavar="OUT", help="write this tree's corpus to OUT")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"), help="drift of dump B against A")
    args = ap.parse_args(argv)
    if args.dump:
        dump(args.dump)
        return 0
    return compare(*args.compare)


if __name__ == "__main__":
    sys.exit(main())
