"""Self-check of the benchmark itself; run from the root of a checkout::

    python3 carlbench/selfcheck.py

1. Every workload runs in smoke mode (tiny inputs), timed and traced, and
   prints exactly the metrics ``BENCHMARK.json`` declares.  Only the known
   fault fails, in the same share of cache-replay's answers every run.
2. The traced cache-replay round grounds nothing, collects nothing and
   misses the cache nowhere; the traced warm-sweep round grounds nothing.
3. An answer perturbed by one ulp and a planted leftover child process are
   each counted as a failed operation, and the child is gone afterwards.
4. In a directory holding only ``BENCHMARK.json`` and the benchmark's own
   files, the command exits non-zero without printing a result.

Exits 0 when every check holds; prints the first broken one otherwise.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
COMMAND_TIMEOUT = 180


def run_command(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "carlbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=COMMAND_TIMEOUT,
    )


def smoke(workload: str, trace: int) -> dict:
    done = run_command(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_smoke_runs(benchmark: dict) -> None:
    from workloads import DISTINCT_ESTIMATORS, SWEEP, WORKLOADS

    check(
        [entry["name"] for entry in benchmark["workloads"]] == list(WORKLOADS),
        "BENCHMARK.json workloads differ from workloads.WORKLOADS",
    )
    # The known fault: every bootstrapped regression answer of an ATE query.
    ate_queries = sum(1 for key in SWEEP if not key.startswith("peer_"))
    replay_share = (ate_queries, len(SWEEP) * len(DISTINCT_ESTIMATORS))
    for trace, declared in ((0, benchmark["end_to_end"]), (1, benchmark["per_layer"])):
        units = {entry["name"]: entry["unit"] for entry in declared}
        for workload in WORKLOADS:
            result = smoke(workload, trace)
            label = f"{workload} trace={trace}"
            check(result["correct"] is True, f"{label}: not correct")
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"], label)
            check(
                {name: metric["unit"] for name, metric in result["metrics"].items()} == units,
                f"{label}: metrics differ from BENCHMARK.json",
            )
            if trace == 0:
                check(
                    all(metric["value"] > 0 for metric in result["metrics"].values()),
                    f"{label}: an end-to-end metric reads 0",
                )
            if workload == "cache-replay":
                share = (result["failed"], result["attempted"])
                check(
                    share[0] * replay_share[1] == share[1] * replay_share[0],
                    f"{label}: failed {share[0]} of {share[1]}, expected share {replay_share}",
                )
            else:
                check(result["failed"] == 0, f"{label}: {result['failed']} failed")
            if trace == 1:
                values = {name: metric["value"] for name, metric in result["metrics"].items()}
                if workload == "cache-replay":
                    for name in ("carl.grounding.runs", "carl.unit_table.collect_s", "cache.misses"):
                        check(values[name] == 0, f"{label}: {name} = {values[name]}")
                if workload == "warm-sweep":
                    check(values["carl.grounding.runs"] == 0, f"{label}: grounding ran")
            print(f"ok  {label}: attempted={result['attempted']} failed={result['failed']}")


def check_failures_are_counted() -> None:
    import run

    planted: list[int] = []

    def perturb_and_plant(ops: list) -> None:
        if planted:
            return
        op = next(op for op in ops if op.reference is not None and hasattr(op.answer.result, "ate"))
        op.answer.result.ate = math.nextafter(op.answer.result.ate, math.inf)
        pid = os.fork()
        if pid == 0:  # the planted child outlives the workload unless reaped
            time.sleep(60)
            os._exit(0)
        planted.append(pid)

    result = run.execute("warm-sweep", 3, 0.1, trace=False, smoke=True, after_round=perturb_and_plant)
    check(result["failed"] == 2, f"perturbed answer + planted child: failed={result['failed']}")
    check(result["correct"] is False, "perturbed answer + planted child: still correct")
    try:
        os.kill(planted[0], 0)
    except ProcessLookupError:
        pass
    else:
        raise AssertionError("the planted child is still alive")
    print("ok  a perturbed answer and a planted child each count as failed")


def check_fails_without_program() -> None:
    bare = Path(tempfile.mkdtemp(prefix=".work-bare-", dir=BENCH_DIR))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        (bare / "carlbench").mkdir()
        for path in BENCH_DIR.glob("*.py"):
            shutil.copy(path, bare / "carlbench" / path.name)
        done = run_command(bare, "--workload", "cold-answer", "--seed", "1", "--seconds", "1", "--trace", "0")
        check(done.returncode != 0, "ran without the program's source tree")
        check(not done.stdout.strip(), "printed a result without the program's source tree")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  without the source tree the command fails without a result")


def main() -> int:
    sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        check_smoke_runs(benchmark)
        check_failures_are_counted()
        check_fails_without_program()
    except AssertionError as error:
        print(f"FAILED {error}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
