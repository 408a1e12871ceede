#!/usr/bin/env python3
"""Benchmark of the flatring CLI, run in-process through ``flatring.cli.main``.

From the repository root:

    python3 bench/run.py --workload green --seed 1 --seconds 10 --trace 0

A run imports flatring from ``src/`` in a fresh interpreter, so every cache
starts cold.  One client drives a closed loop of seeded ops: the set-up phase
ends with the first op that passes its oracle check, and the steady phase
then runs ops until their summed wall time reaches ``--seconds``.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  See NOTES.md.
"""

import argparse
import compileall
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread, set before numpy loads: the load is one serial client.
BLAS_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import SPAN_NAMES, Tracer, wrapped_bindings  # noqa: E402
from workloads import WORKLOADS, Verdict  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
RUN_BUDGET_S = 150.0  # start no op after this much wall time, so a run ends within 180 s
SETUP_TRIES = 5  # the set-up phase gives up after this many failed ops


@dataclass
class Record:
    op_id: int
    seconds: float
    verdict: Verdict

    @property
    def passed(self) -> bool:
        return self.verdict.status == "pass"


def run_op(cli, op, workload, op_id: int, tracer=None) -> Record:
    """One CLI call; an exception, SystemExit or nonzero return is a failed op."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.op = op_id
    failure = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
        if code != 0:
            failure = f"exit code {code}"
    except SystemExit as exc:
        failure = f"SystemExit({exc.code})"
    except Exception as exc:  # the op failed; the run goes on and counts it
        failure = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if failure is not None:
        return Record(op_id, seconds, Verdict("error", note=failure))
    return Record(op_id, seconds, workload.check(op, out.getvalue(), err.getvalue()))


def out_of_time(args) -> bool:
    return time.time() > args.deadline


def setup_phase(args, workload, ops, tracer=None):
    """Import the CLI cold and run ops until one passes; returns (cli, seconds, records)."""
    start = time.perf_counter()
    cli = importlib.import_module("flatring.cli")
    if tracer is not None:
        tracer.install()
    records = []
    while not (records and records[-1].passed) and len(records) < SETUP_TRIES \
            and not out_of_time(args):
        records.append(run_op(cli, next(ops), workload, len(records), tracer))
    return cli, time.perf_counter() - start, records


def steady_phase(args, cli, workload, ops, first_id: int, tracer=None):
    """Ops until their summed time reaches `--seconds`."""
    records = []
    busy = 0.0
    while busy < args.seconds and not out_of_time(args):
        rec = run_op(cli, next(ops), workload, first_id + len(records), tracer)
        records.append(rec)
        busy += rec.seconds
    return records


def measure(args, workload, tracer=None):
    """Set-up then steady phase; returns (setup seconds, set-up records, steady records)."""
    ops = workload.ops()
    cli, setup_s, setup_records = setup_phase(args, workload, ops, tracer)
    steady = steady_phase(args, cli, workload, ops, len(setup_records), tracer)
    return setup_s, setup_records, steady


def spawn(args, role: str) -> dict:
    """Run this script again in a fresh interpreter, under this run's deadline,
    and read its last line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--role", role, "--deadline", repr(args.deadline)]
    timeout = max(1.0, args.deadline + 20.0 - time.time())
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} child exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
    }


def latency_stats(steady: list[Record]) -> dict:
    """Median and tail latency in ms, for the `detail` line; a failed op counts as +inf.

    Neither is a judged metric.  Every op of a workload does about the same
    work, so on a shared machine whose clock switches between two speeds the
    median jumps between the two modes from run to run, and the tail records
    how long the slow mode lasted (see NOTES.md).

    The tail is the highest percentile with at least ten samples above it.
    With fewer than 20 samples no such percentile lies above the median, and
    the median is reported as the tail.
    """
    lat = sorted(r.seconds * 1e3 if r.passed else math.inf for r in steady)
    n = len(lat)
    p50 = statistics.median(lat)
    if n >= 20:
        return {"p50": p50, "tail": lat[n - 11], "tail_pct": 100.0 * (n - 10) / n, "samples": n}
    return {"p50": p50, "tail": p50, "tail_pct": 50.0, "samples": n}


def min_digits(records: list[Record], resolution: float) -> float:
    """Digits of the worst passing op, capped at the oracle's resolution; 0 if none passed."""
    errs = [r.verdict.rel_err for r in records if r.passed]
    if not errs:
        return 0.0
    return -math.log10(max(max(errs), resolution))


def end_to_end(args, workload) -> tuple[dict, dict, list[Record]]:
    setup_samples = [spawn(args, "setup")["setup_s"] for _ in range(workload.setups - 1)]
    setup_s, setup_records, steady = measure(args, workload)
    setup_samples.append(setup_s)
    records = setup_records + steady
    passed = sum(r.passed for r in records)
    busy = sum(r.seconds for r in steady)
    lat = latency_stats(steady)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (sum(r.passed for r in steady) / busy if busy else 0.0, "1/s"),
        "min_digits": (min_digits(records, workload.resolution), "digits"),
        "pass_ratio": (passed / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {"setup_samples_s": setup_samples, "latency": lat, "steady_busy_s": busy,
              "untouched_bindings": not wrapped_bindings()}
    return metrics, detail, records


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(args, workload) -> tuple[dict, dict, list[Record]]:
    ref = spawn(args, "reference")
    tracer = Tracer()
    setup_s, setup_records, steady = measure(args, workload, tracer)
    tracer.uninstall()
    records = setup_records + steady

    spans = tracer.arrays()
    self_time = tracer.self_times(spans)
    checks = tracer.check(spans, self_time)
    tracer.write(OUT / f"trace-{workload.name}-seed{args.seed}.npz", spans)

    in_setup = spans["op"] < len(setup_records)
    n_steady = max(len(steady), 1)
    metrics = {}
    for name_id, name in enumerate(SPAN_NAMES):
        mine = spans["name"] == name_id
        metrics[f"{name}.calls_per_op"] = (np.count_nonzero(mine & ~in_setup) / n_steady, "count")
        metrics[f"{name}.setup_s"] = (float(self_time[mine & in_setup].sum()), "s")
        metrics[f"{name}.op_ms"] = (1e3 * float(self_time[mine & ~in_setup].sum()) / n_steady, "ms")

    def hit_ratio(caller: str, builder: str) -> float:
        """Share of `caller` spans with no direct `builder` child (served from cache)."""
        calls = np.flatnonzero(spans["name"] == SPAN_NAMES.index(caller))
        built = spans["parent"][spans["name"] == SPAN_NAMES.index(builder)]
        return _ratio(calls.size - np.isin(calls, built).sum(), calls.size)

    facts = [r.verdict.facts for r in records]
    covered = [f["covered"] for f in facts if "covered" in f]
    n_steady_ref = min(len(steady), len(ref["op_s"]))
    traced_busy = sum(r.seconds for r in steady[:n_steady_ref])
    metrics.update({
        "lame.eigen.modes_per_batch": (_ratio(tracer.batch_modes, tracer.batches), "count"),
        "lame.eigenpair.hit_ratio": (hit_ratio("lame.eigenpair", "lame.solve_eigenpair"), "ratio"),
        "lame.second_kind.hit_ratio": (
            hit_ratio("lame.second_kind_cached", "lame.second_kind"), "ratio"),
        "harmonics.tail_cover_ratio": (_ratio(sum(covered), len(covered)), "ratio"),
        "harmonics.tail_estimate_max": (max((f.get("tail_rel", 0.0) for f in facts), default=0.0),
                                        "ratio"),
        "dirichlet.parseval_residual_max": (
            max((f.get("parseval", 0.0) for f in facts), default=0.0), "ratio"),
        "trace.overhead_ratio": (_ratio(traced_busy, sum(ref["op_s"][:n_steady_ref])), "ratio"),
        "trace.setup_overhead_ratio": (_ratio(setup_s, ref["setup_s"]), "ratio"),
        "trace.closure_err_max": (checks["closure_err_max"], "ratio"),
    })
    detail = {"spans": int(spans["name"].size), "trace_problems": checks["problems"],
              "not_traced": tracer.missing, "restored_bindings": not wrapped_bindings(),
              "steady_ops": len(steady), "reference_steady_ops": len(ref["op_s"])}
    return metrics, detail, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--role", choices=["run", "setup", "reference"], default="run",
                        help=argparse.SUPPRESS)
    parser.add_argument("--deadline", type=float, default=time.time() + RUN_BUDGET_S,
                        help=argparse.SUPPRESS)  # epoch seconds; children inherit the parent's
    args = parser.parse_args(argv)

    if not (SRC / "flatring" / "cli.py").is_file():
        print(f"error: no flatring sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Compile flatring's bytecode before any clock starts, so that set-up
    # never includes compiling it, whether or not the environment lets
    # imports write bytecode.
    compileall.compile_dir(SRC / "flatring", quiet=1)
    workload = WORKLOADS[args.workload](args.seed)

    if args.role == "setup":
        _, setup_s, _ = setup_phase(args, workload, workload.ops())
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.role == "reference":  # untraced op times for the traced run's overhead ratio
        setup_s, _, steady = measure(args, workload)
        print(json.dumps({"setup_s": setup_s, "op_s": [r.seconds for r in steady]}))
        return 0

    if args.trace:
        metrics, detail, records = per_layer(args, workload)
        sound = not detail["trace_problems"] and detail["restored_bindings"]
    else:
        metrics, detail, records = end_to_end(args, workload)
        sound = detail["untouched_bindings"]
    failed = [r for r in records if not r.passed]
    statuses = [r.verdict.status for r in records]
    detail.update({
        "status_counts": {s: statuses.count(s) for s in sorted(set(statuses))},
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "machine": machine(),
        "failures": [f"op {r.op_id}: {r.verdict.status}: {r.verdict.note}" for r in failed][:20],
    })
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:.6g} {unit}")
    print("detail " + json.dumps(detail))
    # A wrong answer ("miss") or unreadable output ("invalid") makes the run
    # incorrect; an op that raised ("error") is a failure the program reported.
    print(json.dumps({
        "correct": sound and not {"miss", "invalid"} & set(statuses),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
