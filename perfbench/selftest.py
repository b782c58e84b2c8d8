#!/usr/bin/env python3
"""Self-test of the benchmark, at minimal instance sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every workload, traced and untraced, exits 0 and prints exactly
the metric names BENCHMARK.json declares; that the layer self times add up
to the traced operation time; that a wrong expected center_dim is caught
(nonzero fail rate, nonzero exit); that the corpus generators still give
the stored ``REFERENCE`` histograms; and that a directory holding only
the benchmark files makes the benchmark fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import OUT, SELF_TIME_METRICS, SRC
from workloads import REFERENCE, REFERENCE_SEEDS, WORKLOADS, reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "min",
           *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith('{"correct"') else None
    return proc.returncode, result


def main() -> int:
    declared = {
        0: {m["name"]: m["unit"] for m in BENCH["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCH["per_layer"]},
    }
    for w in WORKLOADS:
        for trace in (0, 1):
            rc, res = run(w, trace)
            tag = f"{w} --trace {trace}"
            expect(rc == 0 and res is not None and res["correct"]
                   and res["failed"] == 0, f"{tag}: exit 0, all outputs correct")
            if res is None:
                continue
            printed = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(printed == declared[trace], f"{tag}: prints every declared metric")
            if trace:
                m = res["metrics"]
                covered = sum(m[name]["value"] for name in SELF_TIME_METRICS)
                op = m["trace.op_s"]["value"]
                expect(abs(covered - op) <= 1e-9 + 1e-6 * op,
                       f"{tag}: layer self times sum to the traced op time")
                expect((OUT / f"spans-{w}-3.json").stat().st_size > 0,
                       f"{tag}: spans written")

    for w in WORKLOADS:
        rc, res = run(w, 0, "--oracle-offset", "1")
        expect(rc != 0 and res is not None and not res["correct"]
               and res["failed"] > 0 and res["metrics"]["pass_rate"]["value"] < 1,
               f"{w}: a wrong expected center_dim fails the run")

    sys.path.insert(0, str(SRC))
    expect(reference(REFERENCE_SEEDS) == REFERENCE,
           "REFERENCE is what the corpus generators give")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    rc, res = run("corpus", 0, cwd=bare)
    expect(rc != 0 and res is None, "without the sources: nonzero exit, no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
