#!/usr/bin/env python3
"""factoroid benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload corpus|dense --seed N \
        --seconds S --trace 0|1 [--size full|min]

Run from the root of a source checkout; factoroid is imported from ./src and
nothing else.  An operation is one in-process call of ``factoroid.cli.main``
on an instance file written during set-up, with stdout captured; the next
operation starts when the previous one returns.  Rounds (one pass over the
workload's operations, in a seeded order) repeat until ``--seconds`` have
passed, so every run ends on a whole round.

Every time is reported in reference seconds: the wall time divided by a
host-speed factor measured around it (see ``HostSpeed``), so that the drift
of a shared host's speed does not read as a change of the program.  An
operation's factor comes from the kernel runs just before and after it, the
set-up's from those between its passes, and the per-layer times use the
loop's median.  The unscaled wall-time metrics and the factors are in the
``info`` line.

Every output is checked: ``consistent`` must be true and the verdicts must
match the exact oracle in ``oracle.py``.  The last stdout line is the result
object; the line before it records the thread settings, library versions,
sample counts, host-speed factors and any failures.  The exit code is 0 only
when every check passed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
operation twice, untraced and then traced (see ``spans.py``), prints the
per-layer metrics, and writes the spans to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# pin every BLAS/OpenMP pool to one thread before numpy can be imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("FACTOROID_TOLERANCE", None)

import argparse
import contextlib
import io
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple, Optional

import oracle
import workloads
from spans import Recorder, Target

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import sys; from time import perf_counter; sys.path.insert(0, sys.argv[1]); "
    "t0 = perf_counter(); import factoroid.cli; print(perf_counter() - t0)"
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "min"), default="full",
                   help="min: smallest instances of each kind (self-test)")
    p.add_argument("--oracle-offset", type=int, default=0,
                   help="add this to every expected center_dim (self-test)")
    return p.parse_args(argv)


def import_program():
    """Import factoroid.cli from SRC; return it and the import's time."""
    if not (SRC / "factoroid" / "__init__.py").is_file():
        sys.exit(f"perfbench: no factoroid sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import factoroid.cli as cli

    elapsed = perf_counter() - t0
    if SRC not in Path(cli.__file__).resolve().parents:
        sys.exit(f"perfbench: factoroid imported from {cli.__file__}, not {SRC}")
    return cli, elapsed


def time_fresh_import() -> float:
    """The time of the factoroid.cli import in a fresh interpreter."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                           capture_output=True, text=True, check=True)
    return float(probe.stdout)


# -- host speed ---------------------------------------------------------------

REFERENCE_KERNEL_S = 0.1
CALIBRATE_EVERY_S = 1.0
LOCAL_SAMPLES = 2  # an operation's factor: this many kernel runs before it and after


class HostSpeed:
    """Times a fixed kernel that shares no code with factoroid, now and then.

    The kernel mixes the two kinds of work a report does: batched complex
    81x81 matrix products as in the dense center, and dict inserts with
    tuple keys as in parsing and validation.  A factor is the median kernel
    time over a stretch of the run, over REFERENCE_KERNEL_S; a wall time of
    that stretch divided by it is in reference seconds, the time on a host
    that runs the kernel in exactly REFERENCE_KERNEL_S.  A slower program
    moves the wall times, not the factor.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._stack = (rng.standard_normal((40, 81, 81))
                       + 1j * rng.standard_normal((40, 81, 81)))
        self.samples: list[float] = []

    def _kernel(self) -> None:
        stack, op = self._stack, self._stack[0]
        for _ in range(5):
            flat = (stack @ op - op @ stack).reshape(len(stack), -1)
            flat.conj() @ flat.T
        for _ in range(4):
            d = {}
            for i in range(30_000):
                d[(str(i), i + 1)] = i * 7

    def sample(self) -> float:
        """Time the kernel once; return the time it took."""
        t0 = perf_counter()
        self._kernel()
        elapsed = perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    def factor(self, first: int = 0, last: Optional[int] = None) -> float:
        """Median time of ``samples[first:last]``, over REFERENCE_KERNEL_S."""
        return statistics.median(self.samples[first:last]) / REFERENCE_KERNEL_S


# -- set-up -------------------------------------------------------------------

class SetUp(NamedTuple):
    instances: list
    paths: dict
    import_s: float  # medians over the passes
    gen_s: float
    ser_s: float
    factor: float  # host-speed factor of the set-up's own kernel samples

    @property
    def total_s(self) -> float:
        return self.import_s + self.gen_s + self.ser_s


def setup(args, workdir: Path, import_s: float, host: HostSpeed) -> SetUp:
    """Import, generate and serialize SETUP_REPEATS times.

    Only a fresh process pays the import in full, so the passes after the
    first time it in a fresh interpreter.  The host kernel runs before each
    pass and after the last, and gives the set-up a factor of its own.
    """
    first = len(host.samples)
    imports, gen_s, ser_s = [import_s], [], []
    for i in range(SETUP_REPEATS):
        host.sample()
        if i:
            imports.append(time_fresh_import())
        t0 = perf_counter()
        instances = workloads.generate(args.workload, args.seed, args.size)
        t1 = perf_counter()
        paths = workloads.serialize(instances, workdir)
        t2 = perf_counter()
        gen_s.append(t1 - t0)
        ser_s.append(t2 - t1)
    host.sample()
    return SetUp(instances, paths, statistics.median(imports),
                 statistics.median(gen_s), statistics.median(ser_s),
                 host.factor(first))


class Op:
    __slots__ = ("instance", "argv", "group", "check")

    def __init__(self, instance, path, group, check):
        self.instance = instance
        self.argv = ["report", str(path), "--format", "json"]
        self.group = group
        self.check = check


def _report_check(exp: oracle.Expected, offset: int):
    want = {"center_dim": exp.center_dim + offset, "icc": exp.icc,
            "ergodic": exp.ergodic, "factor": exp.factor}

    def check(out: str):
        rep = json.loads(out)
        if rep["consistent"] is not True:
            return "report not consistent"
        for key, value in want.items():
            if rep[key] != value:
                return f"{key}={rep[key]!r}, oracle says {value!r}"
        return None

    return check


def build_ops(args, instances, paths) -> list[Op]:
    ops = []
    for inst in instances:
        exp = oracle.expected(paths[inst.name].read_text(encoding="utf-8"))
        group = "isotropy" if exp.has_isotropy else "principal"
        check = _report_check(exp, args.oracle_offset)
        ops.append(Op(inst.name, paths[inst.name], group, check))
    random.Random(f"order-{args.workload}-{args.seed}").shuffle(ops)
    return ops


# -- operations ---------------------------------------------------------------

def call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        problem = None
    except SystemExit as exc:
        rc, problem = exc.code, f"SystemExit({exc.code!r})"
    except Exception as exc:  # every failure is counted, none ends the run
        rc, problem = None, f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - t0
    return elapsed, rc, out.getvalue(), err.getvalue(), problem


def warm_up(cli, workdir: Path) -> None:
    """Run one report on a tiny instance, untimed and unchecked."""
    from factoroid.constructors import klein_four_twisted
    from factoroid.textio import write_file

    path = workdir / "warm-up.txt"
    write_file(path, *klein_four_twisted())
    call(cli, ["report", str(path), "--format", "json"])


def layer_targets():
    from factoroid import cocycle, conjugacy, textio, vna
    from factoroid.groupoid import MeasuredGroupoid

    def input_bytes(rec, args, result):
        rec.count("textio.input_bytes", os.path.getsize(args[0]))

    def pairs(rec, args, result):
        rec.count("groupoid.composable_pairs", len(result.compose))

    def stack(rec, args, result):
        rec.count("vna.matrix_dim", result.matrix_dim)
        rec.count("vna.stack_bytes", result.basis_ops.nbytes)

    def center_dim(rec, args, result):
        rec.count("vna.center_dim", result.dim)

    return [
        Target(textio, "parse_file", "textio.parse", input_bytes),
        Target(MeasuredGroupoid, "validate", "groupoid.validate", pairs),
        Target(MeasuredGroupoid, "is_ergodic", "groupoid.ergodic"),
        Target(cocycle, "validate_cocycle", "cocycle.validate"),
        Target(cocycle, "trivial_cocycle", "cocycle.trivial"),
        Target(cocycle, "normalize_cocycle", "cocycle.normalize"),
        Target(cocycle, "twisted_icc", "cocycle.twisted_icc"),
        Target(cocycle, "kleppner_holds", "cocycle.kleppner"),
        Target(conjugacy, "is_icc", "conjugacy.is_icc"),
        Target(vna, "factoriality_report", "vna.report"),
        Target(vna, "l2_space", "vna.l2_space"),
        Target(vna, "rep_operator", "vna.rep_operator"),
        # the span of the translation stack; the algebras that center and
        # invariant_subalgebra build count toward those layers
        Target(vna.MatrixStarAlgebra, "__init__", "vna.span", within="vna.algebra"),
        Target(vna, "algebra", "vna.algebra", stack),
        Target(vna, "center", "vna.center", center_dim),
        Target(vna, "invariant_subalgebra", "vna.invariants"),
        Target(vna, "subspaces_equal", "vna.invariants"),
    ]


# per-layer metric -> span name whose self time it reports, per operation
SELF_TIME_METRICS = {
    "cli.self_s": "cli",
    "textio.parse_s": "textio.parse",
    "groupoid.validate_s": "groupoid.validate",
    "groupoid.ergodic_s": "groupoid.ergodic",
    "cocycle.validate_s": "cocycle.validate",
    "cocycle.trivial_s": "cocycle.trivial",
    "cocycle.normalize_s": "cocycle.normalize",
    "cocycle.twisted_icc_s": "cocycle.twisted_icc",
    "cocycle.kleppner_s": "cocycle.kleppner",
    "conjugacy.is_icc_s": "conjugacy.is_icc",
    "vna.report_s": "vna.report",
    "vna.l2_space_s": "vna.l2_space",
    "vna.rep_operator_s": "vna.rep_operator",
    "vna.span_s": "vna.span",
    "vna.verify_s": "vna.algebra",
    "vna.center_s": "vna.center",
    "vna.invariants_s": "vna.invariants",
}


class Result(NamedTuple):
    op: Op
    elapsed: float
    rc: object
    out: str
    err: str
    problem: object
    traced: bool
    samples_before: int  # kernel runs made before this operation


def run_loop(cli, ops, seconds, host: HostSpeed, recorder=None):
    """Closed loop over whole rounds; with a recorder each op also runs traced.

    The host kernel runs once before the first operation and then between
    operations, at least CALIBRATE_EVERY_S apart; the returned wall time
    leaves its runs out.
    """
    results: list[Result] = []
    start = perf_counter()
    sampling = host.sample()
    last_sample = perf_counter()
    while True:
        for op in ops:
            results.append(
                Result(op, *call(cli, op.argv), False, len(host.samples)))
            if recorder is not None:
                recorder.op = len(results)
                recorder.install()
                try:
                    res = recorder.call("cli", call, cli, op.argv)
                finally:
                    recorder.uninstall()
                results.append(Result(op, *res, True, len(host.samples)))
            if perf_counter() - last_sample >= CALIBRATE_EVERY_S:
                sampling += host.sample()
                last_sample = perf_counter()
        if perf_counter() - start >= seconds:
            return results, perf_counter() - start - sampling


def failure(r: Result):
    if r.problem is not None:
        return r.problem
    if r.rc != 0:
        return f"exit code {r.rc}: {r.err.strip()[:200]}"
    try:
        return r.op.check(r.out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


# -- metrics -----------------------------------------------------------------

def _value(v, unit):
    return {"value": v, "unit": unit}


def _p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8] if len(xs) > 1 else xs[0]


def local_factors(results, host: HostSpeed, first: int) -> list[float]:
    """Each operation's factor: the kernel runs of the loop around it."""
    cache: dict[int, float] = {}
    for r in results:
        k = r.samples_before
        if k not in cache:
            cache[k] = host.factor(max(first, k - LOCAL_SAMPLES), k + LOCAL_SAMPLES)
    return [cache[r.samples_before] for r in results]


def end_to_end(results, wall, setup_s, fail_rate, factors, setup_factor):
    """The end-to-end metrics, every time divided by its host-speed factor."""
    lat = [r.elapsed / f for r, f in zip(results, factors)]
    by_group = {
        g: statistics.median([x for x, r in zip(lat, results) if r.op.group == g])
        for g in ("principal", "isotropy")
    }
    scaled_wall = wall * sum(lat) / sum(r.elapsed for r in results)
    return {
        "setup_s": _value(setup_s / setup_factor, "s"),
        "ops_per_s": _value(len(results) / scaled_wall, "1/s"),
        "latency_s.p50": _value(statistics.median(lat), "s"),
        "latency_s.p90": _value(_p90(lat), "s"),
        "peak_rss_mb": _value(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_rate": _value(1.0 - fail_rate, "share"),
        "op_s.principal": _value(by_group["principal"], "s"),
        "op_s.isotropy": _value(by_group["isotropy"], "s"),
    }


def per_layer(results, rec: Recorder, gen_s, ser_s, factor, setup_factor):
    """The per-layer metrics, every time divided by its host-speed factor."""
    untraced = [r.elapsed for r in results if not r.traced]
    n = (len(results) - len(untraced)) * factor
    own = rec.self_times()
    op_total = rec.total_time("cli")
    metrics = {
        "constructors.generate_s": _value(gen_s / setup_factor, "s"),
        "textio.serialize_s": _value(ser_s / setup_factor, "s"),
    }
    for metric, span in SELF_TIME_METRICS.items():
        metrics[metric] = _value(own.get(span, 0.0) / n, "s")
    metrics["vna.algebra_s"] = _value(rec.total_time("vna.algebra") / n, "s")

    def mean(name):
        xs = rec.counts.get(name)
        return statistics.fmean(xs) if xs else 0.0

    def peak(name):
        return max(rec.counts.get(name) or [0])

    metrics["textio.input_bytes"] = _value(mean("textio.input_bytes"), "B")
    metrics["groupoid.composable_pairs"] = _value(
        mean("groupoid.composable_pairs"), "count")
    metrics["vna.matrix_dim"] = _value(peak("vna.matrix_dim"), "count")
    metrics["vna.stack_bytes"] = _value(peak("vna.stack_bytes"), "B")
    metrics["vna.center_dim"] = _value(mean("vna.center_dim"), "count")
    metrics["trace.op_s"] = _value(op_total / n, "s")
    metrics["trace.untraced_op_s"] = _value(statistics.fmean(untraced) / factor, "s")
    metrics["trace.overhead"] = _value(op_total / sum(untraced) - 1.0, "share")
    return metrics


def environment(results, wall, fail_rate, failures, rec, speed, unscaled):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    lat = [r.elapsed for r in results]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpus": os.cpu_count(),
        "operations": len(results),
        "latency_samples": len(lat),
        "group_samples": {
            g: sum(1 for r in results if r.op.group == g)
            for g in ("principal", "isotropy")
        },
        "timed_s": wall,
        "host_speed": speed,
        "unscaled": unscaled,
        "fail_rate": fail_rate,
        "failures": failures[:5],
        "missing_trace_targets": rec.missing if rec else [],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    cli, import_s = import_program()
    host = HostSpeed()
    workdir = OUT / args.workload
    su = setup(args, workdir, import_s, host)
    ops = build_ops(args, su.instances, su.paths)
    warm_up(cli, workdir)

    rec = None
    if args.trace:
        rec = Recorder()
        rec.prepare("factoroid", layer_targets())
    first_sample = len(host.samples)
    results, wall = run_loop(cli, ops, args.seconds, host, rec)
    factor = host.factor(first_sample)

    failures = []
    for r in results:
        why = failure(r)
        if why is not None:
            failures.append(f"report {r.op.instance}: {why}")
    fail_rate = len(failures) / len(results)

    if args.trace:
        metrics = per_layer(results, rec, su.gen_s, su.ser_s, factor, su.factor)
        unscaled = per_layer(results, rec, su.gen_s, su.ser_s, 1.0, 1.0)
        rec.write(OUT / f"spans-{args.workload}-{args.seed}.json")
    else:
        factors = local_factors(results, host, first_sample)
        metrics = end_to_end(results, wall, su.total_s, fail_rate, factors, su.factor)
        unscaled = end_to_end(results, wall, su.total_s, fail_rate,
                              [1.0] * len(results), 1.0)
    speed = {"factor": factor, "setup_factor": su.factor,
             "kernel_samples": len(host.samples),
             "reference_kernel_s": REFERENCE_KERNEL_S}
    unscaled = {k: v["value"] for k, v in unscaled.items() if v["unit"] in ("s", "1/s")}
    print(json.dumps({"info": environment(results, wall, fail_rate, failures, rec,
                                          speed, unscaled)}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
