import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thermosft
from thermosft import (
    BoundViolated,
    MissingWord,
    NotAperiodic,
    ParseError,
    RateValue,
    SchemaError,
    bounds,
    potentials,
    transfer,
)
from thermosft.cli import load_model, run_command

from conftest import FIXTURES


def run(argv):
    return run_command([str(a) for a in argv])


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_load_fixtures():
    model = load_model(str(FIXTURES / "bernoulli.json"))
    assert model.theta == 0.5
    assert model.f.r == 1 and model.psi.r == 1
    gm = load_model(str(FIXTURES / "golden_mean.json"))
    assert gm.tm.aperiodicity_exponent == 2
    load_model(str(FIXTURES / "random_range3.json"))


def test_load_errors(tmp_path):
    bad = tmp_path / "periodic.json"
    bad.write_text(json.dumps({
        "schema_version": 1, "theta": 0.5, "transitions": [[0, 1], [1, 0]],
        "potential_f": {"range": 1, "values": {"1": 0.0, "2": 0.0}},
        "observable_psi": {"range": 1, "values": {"1": 1.0, "2": 0.0}},
    }))
    with pytest.raises(NotAperiodic) as err:
        load_model(str(bad))
    assert "transitions" in str(err.value)

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({
        "schema_version": 1, "theta": 0.5, "transitions": [[1, 1], [1, 1]],
        "potential_f": {"range": 2, "values": {"11": 0.0, "12": 0.0, "21": 0.0}},
        "observable_psi": {"range": 1, "values": {"1": 1.0, "2": 0.0}},
    }))
    with pytest.raises(MissingWord) as err:
        load_model(str(missing))
    assert "(2, 2)" in str(err.value)

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    with pytest.raises(ParseError):
        load_model(str(garbage))

    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"schema_version": 1, "theta": 0.5}))
    with pytest.raises(SchemaError):
        load_model(str(incomplete))


def test_pressure_command(tmp_path):
    out = tmp_path / "curve.csv"
    code = run(["pressure", "--config", FIXTURES / "bernoulli.json",
                "--q-min", -2, "--q-max", 2, "--q-step", 0.1, "--out", out])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "q,pressure,dpressure"
    assert len(lines) == 42
    q, pr, dpr = (float(x) for x in lines[1].split(","))
    assert q == -2.0
    assert pr == pytest.approx(math.log((1 + math.exp(-2)) / 2), abs=1e-12)
    assert dpr == pytest.approx(math.exp(-2) / (1 + math.exp(-2)), abs=1e-12)


def test_rate_command_reports_status(tmp_path):
    out = tmp_path / "rate.csv"
    code = run(["rate", "--config", FIXTURES / "golden_mean.json",
                "--p-grid", "0.1:0.8:0.1", "--out", out])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,I,q_star,status"
    statuses = {line.split(",")[3] for line in lines[1:]}
    assert "interior" in statuses and "outside" in statuses
    inf_rows = [line for line in lines[1:] if line.split(",")[3] == "outside"]
    assert all(row.split(",")[1] == "inf" for row in inf_rows)


def test_bound_command(tmp_path):
    out = tmp_path / "report.csv"
    code = run(["bound", "--config", FIXTURES / "bernoulli.json", "--delta0", 0.1,
                "--constants", "measured", "--p-grid", "0.05:0.95:0.05", "--out", out])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p,I,bound,pass,mode"
    assert all(line.split(",")[3] == "true" for line in lines[1:])
    assert all(line.split(",")[4] == "measured" for line in lines[1:])


@pytest.mark.parametrize("stem, grid, lengths", [
    ("bernoulli", "0.05:0.95:0.05", [1]), ("random_range3", "0.15:0.75:0.1", [2, 3]),
])
def test_bound_builds_one_family_per_state_length(tmp_path, monkeypatch, stem, grid, lengths):
    """``thermo bound --constants measured`` builds the tilted family once
    per state length: the measured constants, ``verify_bound`` and its rate
    levels share it and its one q = 0 solve.  random_range3's observable is
    longer than the family's states, so it has a second family on
    ``psi.r``-word states."""
    built, bases, zero_solves = [], [], []
    edge_matrix, solve_block, at = (
        transfer._edge_matrix, transfer.rpf_solve_block, transfer.TiltedFamily.at
    )

    def edge_spy(f, k, *observables):
        out = edge_matrix(f, k, *observables)
        if observables:
            built.append(k)
            bases.append(out[0])
        return out

    def solve_spy(Ts, starts=None):
        zero_solves.extend(T for T in Ts if any(T is base for base in bases))
        return solve_block(Ts, starts)

    def at_spy(self, q):
        assert q != 0.0
        return at(self, q)

    monkeypatch.setattr(transfer, "_edge_matrix", edge_spy)
    monkeypatch.setattr(transfer, "rpf_solve_block", solve_spy)
    monkeypatch.setattr(transfer.TiltedFamily, "at", at_spy)
    code = run(["bound", "--config", FIXTURES / f"{stem}.json", "--delta0", 0.1,
                "--constants", "measured", "--p-grid", grid, "--out", tmp_path / "r.csv"])
    assert code == 0
    assert built == lengths
    assert len(zero_solves) == len(lengths)


def test_violated_bound_still_writes_the_report(tmp_path, capsys, monkeypatch):
    def zero_rates(phi, psi, levels, spread=None):
        return tuple(RateValue(p=p, value=0.0, q_star=0.0, status="interior", iterations=1)
                     for p in levels)

    monkeypatch.setattr(bounds, "rate_levels", zero_rates)
    out = tmp_path / "report.csv"
    code = run(["bound", "--config", FIXTURES / "bernoulli.json", "--delta0", 0.1,
                "--constants", "measured", "--p-grid", "0.1:0.9:0.2", "--out", out])
    assert code == 3
    assert "certificate violated" in capsys.readouterr().err
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 4
    assert all(row.split(",")[3] == "false" for row in rows)


def test_violation_without_a_report_writes_no_csv(tmp_path, capsys, monkeypatch):
    def sandwich_fails(*args):
        raise BoundViolated("integer sandwich failed")

    monkeypatch.setattr(bounds, "certificate_constants", sandwich_fails)
    out = tmp_path / "report.csv"
    code = run(["bound", "--config", FIXTURES / "bernoulli.json", "--delta0", 0.1,
                "--constants", "measured", "--p-grid", "0.1:0.9:0.2", "--out", out])
    assert code == 3
    assert "integer sandwich failed" in capsys.readouterr().err
    assert not out.exists()


def test_constants_command_paper_mode(tmp_path):
    out = tmp_path / "consts.csv"
    code = run(["constants", "--config", FIXTURES / "bernoulli.json", "--delta0", 0.1,
                "--constants", "paper", "--out", out])
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.read_text().splitlines()[1:])
    assert rows["mode"] == "paper"
    assert float(rows["C0"]) == pytest.approx(math.log(2) + 2, abs=1e-12)
    assert float(rows["q0"]) > 0.0
    assert float(rows["bound"]) == pytest.approx(0.1 * float(rows["q0"]) / 2, rel=1e-12)


def test_ldp_command_exact(tmp_path):
    out = tmp_path / "ldp.csv"
    code = run(["ldp", "--config", FIXTURES / "bernoulli.json", "--p", 0.8,
                "--delta", 0.05, "--n", "8:24:4", "--seed", 42, "--out", out])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,log_rate,ref,slack,method"
    assert [line.split(",")[0] for line in lines[1:]] == ["8", "12", "16", "20", "24"]
    assert all(line.endswith("exact_dp") for line in lines[1:])


def test_ldp_command_monte_carlo(tmp_path):
    out = tmp_path / "mc.csv"
    code = run(["ldp", "--config", FIXTURES / "bernoulli.json", "--p", 0.8,
                "--delta", 0.1, "--n", "10:12:2", "--seed", 9, "--method", "monte_carlo",
                "--trials", 20000, "--out", out])
    assert code == 0
    lines = out.read_text().splitlines()
    assert all(line.endswith("monte_carlo") for line in lines[1:])
    mass_rate = float(lines[1].split(",")[1])
    assert mass_rate == pytest.approx(math.log(45 / 1024) / 10, abs=0.05)


#: spread CSV fields per fixture: min_mean, max_mean, witness_min, witness_max
SPREADS = {
    "bernoulli": (0.0, 1.0, "2", "1"),
    "golden_mean": (0.0, 0.5, "2", "1-2"),
    "random_range3": (0.0902, 0.7362, "1", "2"),
}


@pytest.mark.parametrize("fixture", list(SPREADS))
def test_spread_command(tmp_path, fixture):
    min_mean, max_mean, witness_min, witness_max = SPREADS[fixture]
    out = tmp_path / "spread.csv"
    code = run(["spread", "--config", FIXTURES / f"{fixture}.json", "--out", out])
    assert code == 0
    lines = out.read_text().splitlines()
    header, row = lines[0].split(","), lines[1].split(",")
    record = dict(zip(header, row))
    assert float(record["min_mean"]) == min_mean
    assert float(record["max_mean"]) == max_mean
    assert (record["witness_min"], record["witness_max"]) == (witness_min, witness_max)
    assert record["cohomologous_to_constant"] == "false"


def test_spread_command_writes_no_negative_zero(tmp_path):
    model = json.loads((FIXTURES / "bernoulli.json").read_text())
    model["observable_psi"]["values"] = {"1": 0.0, "2": -1.0}
    cfg = tmp_path / "nonpositive.json"
    cfg.write_text(json.dumps(model))
    out = tmp_path / "spread.csv"
    assert run(["spread", "--config", cfg, "--out", out]) == 0
    assert out.read_text().splitlines()[1] == "-1,0,2,1,false"


def test_normalize_round_trip(tmp_path):
    out = tmp_path / "norm.json"
    code = run(["normalize", "--config", FIXTURES / "golden_mean.json", "--out", out])
    assert code == 0
    model = load_model(str(out))
    from thermosft import build_transfer_matrix
    import numpy as np

    T = build_transfer_matrix(model.f)
    assert float(np.max(np.abs(T.apply(np.ones(T.size)) - 1.0))) <= 1e-10


def test_validation_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{не json")
    out = tmp_path / "x.csv"
    code = run(["pressure", "--config", bad, "--q-min", 0, "--q-max", 1,
                "--q-step", 0.5, "--out", out])
    assert code == 2
    code = run(["bound", "--config", FIXTURES / "bernoulli.json", "--delta0", 0.9,
                "--constants", "measured", "--p-grid", "0.1:0.9:0.1", "--out", out])
    assert code == 2  # delta0 over the admissible limit



@pytest.mark.parametrize("command", [
    ["rate", "--p-grid", "0.2:0.8:0.2"],
    ["ldp", "--p", 0.8, "--delta", 0.05, "--n", "8:16:4"],
    ["constants", "--delta0", 0.1],
])
def test_potential_outside_the_float_range_exits_2(tmp_path, capsys, command):
    model = json.loads((FIXTURES / "bernoulli.json").read_text())
    model["potential_f"]["values"] = {"1": 0.0, "2": -800.0}  # exp underflows to 0
    cfg = tmp_path / "underflow.json"
    cfg.write_text(json.dumps(model))
    out = tmp_path / "out.csv"
    assert run(command + ["--config", cfg, "--out", out]) == 2
    assert "-800.0 on word (2, 1) is 0.0: outside the float range" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_pressure_tilt_exits_4(tmp_path, capsys):
    """exp(phi + 1000*psi) overflows on the golden-mean fixture: the tilt is
    refused as ``NoConvergence`` naming q, with no numpy warning."""
    out = tmp_path / "curve.csv"
    code = run(["pressure", "--config", FIXTURES / "golden_mean.json",
                "--q-min", 0, "--q-max", 1000, "--q-step", 500, "--out", out])
    err = capsys.readouterr().err
    assert code == 4 and "RuntimeWarning" not in err
    assert err.startswith("error: tilt q = 1000.0 overflows")


@pytest.mark.parametrize("config, argv, message", [
    (lambda raw: {**raw, "observable_psi": {"range": 1, "values": {"1": 1.0, "x": 0.0}}},
     [], "word key 'x' is not a symbol string"),
    (lambda raw: {**raw, "theta": "half"}, [], "model.theta: expected a number"),
    (lambda raw: {**raw, "transitions": "11"}, [], "model.transitions: expected list"),
    (lambda raw: None, [], "cannot read"),
    (lambda raw: [raw], [], "top level must be a JSON object"),
    (lambda raw: {**raw, "schema_version": 2}, [], "schema_version: expected 1, got 2"),
    (lambda raw: raw, ["--p-grid", "0.1:0.9"], "must have the form start:stop:step"),
    (lambda raw: raw, ["--p-grid", "0.1:x:0.2"], "has non-numeric parts"),
    (lambda raw: raw, ["--p-grid", "0.1:0.9:0"], "range step must be positive"),
])
def test_bad_model_or_range_exits_2(tmp_path, capsys, config, argv, message):
    cfg = tmp_path / "model.json"
    raw = config(json.loads((FIXTURES / "bernoulli.json").read_text()))
    if raw is not None:
        cfg.write_text(json.dumps(raw))
    out = tmp_path / "rate.csv"
    argv = argv or ["--p-grid", "0.2:0.8:0.2"]
    assert run(["rate", "--config", cfg, "--out", out] + argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_symbols_above_nine_round_trip_with_comma_keys(tmp_path):
    """On a 10-symbol alphabet ``normalize`` writes comma-separated word
    keys, which load back to the same observable table; a one-symbol key
    past 9 ends in a comma, so a normalised f of range 1 loads back too."""
    words = [f"{a},{b}" for a in range(1, 11) for b in range(1, 11)]
    cfg = tmp_path / "ten.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "theta": 0.5, "transitions": [[1] * 10] * 10,
        "potential_f": {"range": 2, "values": {w: 0.1 * (w == "1,10") for w in words}},
        "observable_psi": {"range": 2, "values": {w: float(w == "10,10") for w in words}},
    }))
    out = tmp_path / "normalized.json"
    assert run(["normalize", "--config", cfg, "--out", out]) == 0
    assert "10,10" in json.loads(out.read_text())["observable_psi"]["values"]
    model = load_model(str(out))
    assert model.psi.table == load_model(str(cfg)).psi.table
    # a range-2 f of zeros normalises to range 1, so its one-symbol keys
    # past 9 are written "10," and read back as (10,)
    raw = json.loads(cfg.read_text())
    raw["potential_f"] = {"range": 2, "values": dict.fromkeys(words, 0.0)}
    cfg.write_text(json.dumps(raw))
    assert run(["normalize", "--config", cfg, "--out", out]) == 0
    written = json.loads(out.read_text())["potential_f"]
    assert written["range"] == 1 and "10," in written["values"]
    model = load_model(str(out))
    assert model.f.r == 1 and model.f.table[(10,)] == written["values"]["10,"]
    assert sorted(model.f.table) == [(s,) for s in range(1, 11)]


def test_power_iteration_budget_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(transfer, "MAX_ITERATIONS", 3)
    out = tmp_path / "norm.json"
    assert run(["normalize", "--config", FIXTURES / "random_range3.json", "--out", out]) == 4
    assert capsys.readouterr().err.startswith("error: power iteration ")


def test_cycle_mean_budget_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(potentials, "_HOWARD_MAX_ROUNDS", 1)
    out = tmp_path / "spread.csv"
    assert run(["spread", "--config", FIXTURES / "bernoulli.json", "--out", out]) == 4
    assert capsys.readouterr().err.startswith("error: policy iteration ")
    assert not out.exists()


def test_reruns_are_byte_identical(tmp_path):
    jobs = [
        ("pressure", ["--q-min", -1, "--q-max", 1, "--q-step", 0.25]),
        ("rate", ["--p-grid", "0.2:0.8:0.2"]),
        ("bound", ["--delta0", 0.1, "--constants", "measured", "--p-grid", "0.1:0.9:0.1"]),
        ("constants", ["--delta0", 0.1, "--constants", "paper"]),
        ("ldp", ["--p", 0.8, "--delta", 0.05, "--n", "8:16:4", "--seed", 42]),
        ("spread", []),
        ("normalize", []),
    ]
    for name, extra in jobs:
        hashes = set()
        for attempt in range(2):
            out = tmp_path / f"{name}_{attempt}.out"
            code = run([name, "--config", FIXTURES / "bernoulli.json", "--out", out] + extra)
            assert code == 0
            hashes.add(digest(out))
        assert len(hashes) == 1, f"{name} output varies between runs"


def test_commands_in_one_process_match_separate_runs(tmp_path, capsys):
    """The parser is built once per process, so a failed parse must leave
    nothing behind for the commands after it."""
    rate = ["rate", "--config", FIXTURES / "random_range3.json", "--p-grid", "0.3:0.6:0.1"]
    pressure = ["pressure", "--config", FIXTURES / "golden_mean.json",
                "--q-min", -1, "--q-max", 1, "--q-step", 0.5]
    assert run(rate + ["--out", tmp_path / "rate.csv"]) == 0
    bad = ["pressure", "--config", FIXTURES / "bernoulli.json", "--q-min", "low",
           "--q-max", 1, "--out", tmp_path / "bad.csv"]
    assert run(bad) == 2
    assert "invalid float value" in capsys.readouterr().err
    assert run(pressure + ["--out", tmp_path / "pressure.csv"]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(thermosft.__file__).parents[1])}
    for argv, name in ((rate, "rate.csv"), (pressure, "pressure.csv")):
        fresh = tmp_path / f"fresh_{name}"
        subprocess.run([sys.executable, "-m", "thermosft", *map(str, argv), "--out", str(fresh)],
                       env=env, check=True)
        assert fresh.read_bytes() == (tmp_path / name).read_bytes()


def test_comma_separated_word_keys(tmp_path):
    cfg = tmp_path / "commas.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "theta": 0.5, "transitions": [[1, 1], [1, 1]],
        "potential_f": {"range": 1, "values": {"1": 0.0, "2": 0.0}},
        "observable_psi": {"range": 2, "values": {
            "1,1": 1.0, "1,2": 0.0, "2,1": 0.0, "2,2": 0.0}},
    }))
    model = load_model(str(cfg))
    assert model.psi.table[(1, 1)] == 1.0


def test_float_format_round_trips(tmp_path):
    out = tmp_path / "curve.csv"
    run(["pressure", "--config", FIXTURES / "bernoulli.json",
         "--q-min", 1, "--q-max", 1, "--q-step", 1, "--out", out])
    line = out.read_text().splitlines()[1]
    pr = float(line.split(",")[1])
    assert pr == pytest.approx(math.log((1 + math.e) / 2), abs=0.0)
