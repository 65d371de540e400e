"""Benchmark of the CaRL pipeline on SYNTHETIC REVIEWDATA.

Run from the root of a source checkout::

    python3 carlbench/run.py --workload warm-sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` sets up three times, computes serial reference answers, then
runs whole rounds of the workload for at least ``--seconds`` seconds and
prints the end-to-end metrics.  ``--trace 1`` sets up once, runs one plain
round and one round with every layer's entry points wrapped (see
``layers.py``), walks the scaling ladder, and prints the per-layer metrics.
``--smoke`` shrinks every input so a run takes seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
SOURCE_DIR = BENCH_DIR.parent / "src"

#: The end-to-end metrics: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("answers_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
#: Set-ups per timed run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A run that has not finished after this many seconds is stopped: its
#: processes are killed and it exits with status 3 without a result.
WATCHDOG_SECONDS = 170.0
#: Telemetry events kept for the traced round (worker spans are read back).
TRACE_EVENT_CAPACITY = 1 << 18


def descendants() -> list[tuple[int, str]]:
    """(pid, state) of every live or unreaped descendant of this process."""
    parent_of: dict[int, tuple[int, str]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        parent_of[int(entry)] = (int(fields[1]), fields[0])
    found: list[tuple[int, str]] = []
    frontier = [os.getpid()]
    while frontier:
        parent = frontier.pop()
        for pid, (ppid, state) in parent_of.items():
            if ppid == parent:
                found.append((pid, state))
                frontier.append(pid)
    return found


def reap_survivors() -> int:
    """Kill and reap every descendant still present; return how many."""
    survivors = descendants()
    for pid, _ in survivors:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid, _ in survivors:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # a grandchild: init reaps it once its parent is gone
    return len(survivors)


def start_watchdog(work_dir: Path) -> threading.Timer:
    def expire() -> None:
        sys.stderr.write(f"watchdog: run exceeded {WATCHDOG_SECONDS:.0f} s, stopping it\n")
        sys.stderr.flush()
        reap_survivors()
        shutil.rmtree(work_dir, ignore_errors=True)
        os._exit(3)

    timer = threading.Timer(WATCHDOG_SECONDS, expire)
    timer.daemon = True
    timer.start()
    return timer


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of any reaped worker, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def check_round(ops: list[Any], state: Any) -> None:
    from checks import check_answer

    for op in ops:
        if op.error is not None:
            op.failures = ["error"]
        else:
            op.failures = check_answer(
                op.key, op.answer, state.expected, state.data.ground_truth, op.reference
            )


def timed_setup(workload: Any, times: list[float]) -> Any:
    gc.collect()
    started = time.perf_counter()
    state = workload.setup()
    times.append(time.perf_counter() - started)
    return state


def run_timed(workload: Any, seconds: float, after_round: Callable | None) -> dict[str, Any]:
    setup_times: list[float] = []
    spare = timed_setup(workload, setup_times)
    workload.reference(spare)
    workload.close(spare)
    del spare
    for _ in range(SETUP_REPEATS - 2):
        workload.close(timed_setup(workload, setup_times))
    state = timed_setup(workload, setup_times)
    ops: list[Any] = []
    wall = 0.0
    try:
        while wall < seconds:
            round_ops, round_wall = workload.run_round(state)
            wall += round_wall
            if after_round is not None:
                after_round(round_ops)
            check_round(round_ops, state)
            ops += round_ops
    finally:
        workload.close(state)
    delivered = sum(1 for op in ops if op.error is None)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "latency_p50_s": statistics.median(op.latency for op in ops),
        "answers_per_s": delivered / wall,
        "peak_rss_mb": None,  # read after every worker has been reaped
    }
    return {"ops": ops, "metrics": metrics}


def run_traced(
    workload: Any, seed: int, ladder: tuple[int, ...], after_round: Callable | None
) -> dict[str, Any]:
    import workloads as workloads_module
    from layers import Tracer, layer_metrics, scaling_exponents, worker_metrics
    from repro.observability.telemetry import reset_registry

    spare = workload.setup()
    workload.reference(spare)
    workload.close(spare)
    del spare
    gc.collect()

    tracer = Tracer()
    tracer.install()
    tracer.wrap(workloads_module, "generate_synthetic_review_data", "setup.datasets.generate_s")
    try:
        state = workload.setup()
        setup_totals = tracer.totals()
    finally:
        tracer.uninstall()
    ops: list[Any] = []
    try:
        plain_ops, plain_wall = workload.run_round(state)
        reset_registry(capacity=TRACE_EVENT_CAPACITY)
        tracer.install()
        tracer.reset()
        try:
            traced_ops, traced_wall = workload.run_round(state)
            totals = tracer.totals()
            for name, value in worker_metrics().items():
                totals[name] = totals.get(name, 0.0) + value
        finally:
            tracer.uninstall()
        for round_ops in (plain_ops, traced_ops):
            if after_round is not None:
                after_round(round_ops)
            check_round(round_ops, state)
            ops += round_ops
    finally:
        workload.close(state)
    state = None

    tracer.install()
    try:
        exponents = scaling_exponents(tracer, seed, ladder)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(totals)
    metrics.update(exponents)
    metrics["setup.datasets.generate_s"] = setup_totals.get("setup.datasets.generate_s", 0.0)
    metrics["setup.carl.grounding.busy_s"] = setup_totals.get("carl.grounding.busy_s", 0.0)
    metrics["trace.overhead"] = traced_wall / plain_wall - 1.0
    return {"ops": ops, "metrics": metrics}


def execute(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    after_round: Callable[[list[Any]], None] | None = None,
) -> dict[str, Any]:
    """Run one workload and return the result object the command prints.

    ``after_round`` sees each round's operations before they are checked
    (the self-check uses it to perturb an answer and plant a child).
    """
    from checks import KNOWN_FAULT
    from layers import LADDER, PER_LAYER, SMOKE_LADDER
    from workloads import AUTHORS, SMOKE_AUTHORS, WORKLOADS

    authors = SMOKE_AUTHORS if smoke else AUTHORS[workload_name]
    work_dir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    # The program's private caches and worker scratch land in the checkout.
    saved_tempdir, saved_env = tempfile.tempdir, os.environ.get("TMPDIR")
    tempfile.tempdir = str(work_dir)
    os.environ["TMPDIR"] = str(work_dir)
    watchdog = start_watchdog(work_dir)
    try:
        workload = WORKLOADS[workload_name](seed, authors, work_dir)
        if trace:
            outcome = run_traced(
                workload, seed, SMOKE_LADDER if smoke else LADDER, after_round
            )
        else:
            outcome = run_timed(workload, seconds, after_round)
        gc.collect()
        survivors = reap_survivors()
    finally:
        watchdog.cancel()
        shutil.rmtree(work_dir, ignore_errors=True)
        tempfile.tempdir = saved_tempdir
        if saved_env is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved_env

    ops = outcome["ops"]
    metrics = outcome["metrics"]
    if not trace:
        metrics["peak_rss_mb"] = peak_rss_mb()
        units = dict(END_TO_END)
    else:
        units = {name: unit for name, unit, _ in PER_LAYER}
    failed_ops = [op for op in ops if op.failures]
    unexpected = [op for op in failed_ops if set(op.failures) != {KNOWN_FAULT}]
    return {
        "correct": not unexpected and survivors == 0,
        "attempted": len(ops) + survivors,
        "failed": len(failed_ops) + survivors,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "failures": sorted(
            {f"{op.label}/{op.key}: {','.join(op.failures)}" for op in unexpected}
        )
        + ([f"{survivors} surviving child process(es) killed"] if survivors else []),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("cold-answer", "warm-sweep", "cache-replay", "process-sweep"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs; runs in seconds")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # The program under test is the checkout's own source tree, never an
    # installed copy.
    if not (SOURCE_DIR / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"no source tree at {SOURCE_DIR}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(SOURCE_DIR))

    result = execute(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    failures = result.pop("failures")
    for line in failures:
        print(f"FAILED {line}")
    print(
        f"{args.workload}: attempted={result['attempted']} failed={result['failed']} "
        f"correct={str(result['correct']).lower()}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
