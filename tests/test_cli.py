import hashlib
import json
import math

import pytest

from thermosft import MissingWord, NotAperiodic, ParseError, SchemaError
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
