"""Benchmark of the thermosft pipeline.

    python3 perfbench/run.py --workload large-model --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Runs one workload in this process as a closed loop with one caller: set-up,
one warm-up operation, then whole rounds of the workload's fixed operation
list until ``--seconds`` have passed.  Every operation's output from the
first round is checked against the independent computations in
``oracle.py``; later rounds must reproduce it exactly.  ``--workload all``
runs the three workloads one after another, each in a process of its own.

On the reference machine a core's speed switches between levels up to 1.7x
apart, for spells of a few seconds to minutes.  So every time figure draws
on the whole run: ``wall_s`` is the mean round time, ``op_p50_ms`` the
median of every latency the run timed (all operations of all rounds), and
the set-up is timed five times spread over the run and reported as the
median: once before the first round (with this process's own imports) and
after the rounds that cross each further fifth of ``--seconds`` (with the
imports timed in a fresh interpreter).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the
library's public functions are wrapped (see ``tracer.py``) and the metrics
are the per-layer ones.  Lines before it give the same figures for people.
Scratch outputs, the result and the trace go under ``perfbench/out/``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("fixtures-cli", "large-model", "deviation-scan")
#: set-up samples per run; setup_s reports their median
SETUP_SAMPLES = 5
_IMPORTS = ("import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
            "import thermosft.cli, tracer, workloads; print(time.perf_counter() - t)")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _run_op(op):
    """(output, latency in s, error text or None) of one operation."""
    t0 = time.perf_counter()
    try:
        value = op.run()
    except Exception:  # an operation that raises is counted as failed
        return None, time.perf_counter() - t0, traceback.format_exc()
    latency = time.perf_counter() - t0
    try:
        return op.read(value), latency, None
    except Exception:
        return None, latency, traceback.format_exc()


def _import_seconds() -> float:
    """Time a fresh interpreter takes to import the library and this
    benchmark's modules."""
    done = subprocess.run([sys.executable, "-c", _IMPORTS, str(SRC), str(HERE)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def _run_all(args) -> int:
    """Each workload in a child process of its own, one after another; the
    last line sums the children's counts and names each metric
    ``<workload>.<metric>``."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        print(done.stdout, end="", flush=True)
        if done.returncode != 0:
            print(f"error: workload {name} exited with code {done.returncode}", file=sys.stderr)
            return done.returncode or 2
        result = json.loads(done.stdout.splitlines()[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "thermosft" / "__init__.py").is_file():
        print(f"error: no thermosft sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    import thermosft

    if Path(thermosft.__file__).resolve().parent != (SRC / "thermosft").resolve():
        print(f"error: thermosft imported from {thermosft.__file__}", file=sys.stderr)
        return 2
    import tracer
    import workloads

    # the CLI pool keeps its default size, capped at the cores this process may use
    threads = min(os.cpu_count() or 1, len(os.sched_getaffinity(0)))
    os.environ["THERMO_THREADS"] = str(threads)
    import_s = time.perf_counter() - _T0

    scratch = OUT / f"scratch-{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, spec, tracer, workloads, threads, import_s, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(args, spec, tracer, workloads, threads, import_s, scratch) -> int:
    tr = None
    if args.trace:
        tr = tracer.Tracer()
        tr.install()
    build = workloads.WORKLOADS[args.workload]
    imports, setups, setup_buckets = [import_s], [], []

    def set_up():
        if len(imports) == len(setups):
            imports.append(_import_seconds())
        if tr:
            setup_buckets.append(tr.begin())
        t0 = time.perf_counter()
        prepared = build(args.seed, ROOT, scratch)
        setups.append(time.perf_counter() - t0)
        return prepared

    prepared = set_up()
    ops = prepared.ops
    if tr:
        tr.begin()
    _run_op(ops[0])  # warm-up

    first, errors, problems = [None] * len(ops), {}, []
    latencies = [[] for _ in ops]
    round_s, round_buckets = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        if tr:
            round_buckets.append(tr.begin(keep_spans=not round_buckets))
        busy = 0.0
        for i, op in enumerate(ops):
            out, latency, error = _run_op(op)
            attempted += 1
            busy += latency
            latencies[i].append(latency)
            if error is not None:
                failed += 1
                errors.setdefault(op.name, error)
            elif len(round_s) == 0:
                first[i] = out
            elif out != first[i]:
                problems.append(f"{op.name}: output differs between rounds")
        round_s.append(busy)
        if tr and len(round_s) == 1:
            spans = tr.spans
        elapsed = time.perf_counter() - start
        while len(setups) < SETUP_SAMPLES and elapsed >= len(setups) * args.seconds / SETUP_SAMPLES:
            set_up()
        if elapsed >= args.seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        set_up()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for i, op in enumerate(ops):
        if first[i] is not None:
            problems += [f"{op.name}: {p}" for p in op.check(first[i])]
    problems += [f"set-up: {p}" for p in prepared.setup_checks()]
    for name, error in errors.items():
        print(f"FAILED {name}\n{error}", file=sys.stderr)
    for p in problems:
        print(f"WRONG {p}", file=sys.stderr)

    op_means = [statistics.fmean(lat) for lat in latencies]
    samples = [t for lat in latencies for t in lat]
    wall_s = statistics.fmean(round_s)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} threads {threads}: "
          f"{len(round_s)} rounds of {len(ops)} operations, {failed}/{attempted} failed, "
          f"{len(problems)} problems")
    for op, mean in zip(ops, op_means):
        print(f"  {mean * 1e3:10.2f} ms  {op.name}")

    if args.trace:
        wanted = spec["per_layer"]
        values = tracer.per_layer(setup_buckets, round_buckets, [m["name"] for m in wanted])
        print(f"traced wall_s {wall_s:.4f} s (mean of {len(round_s)} rounds)")
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "setup": setup_buckets, "rounds": round_buckets,
            "spans_first_round": spans,
        }), encoding="utf-8")
    else:
        wanted = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(i + s for i, s in zip(imports, setups)),
            "wall_s": wall_s,
            "op_p50_ms": statistics.median(samples) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        print(f"setup_s {values['setup_s']:.4f} s (median of {SETUP_SAMPLES} samples: imports "
              f"{[round(t, 4) for t in imports]} + set-up {[round(t, 4) for t in setups]})")
        print(f"wall_s {wall_s:.4f} s (mean of {len(round_s)} rounds "
              f"{[round(t, 4) for t in round_s]})")
        print(f"op_p50_ms {values['op_p50_ms']:.3f} ms (median latency; "
              f"samples={len(samples)}: {len(ops)} operations x {len(round_s)} rounds)")
        print(f"peak_rss_mb {peak_rss_mb:.1f} MB")
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for metrics {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
