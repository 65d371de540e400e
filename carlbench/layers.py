"""Per-layer metrics of the traced run.

The engine imports the functions of each layer by name, so :class:`Tracer`
patches every name where the engine (or the service, for the parser)
looks it up, and the methods of the layer classes it calls.  A wrapper
adds the wall time of the outermost call on its thread to the layer's
``*_s`` total, and counts the work it sees in the call's arguments and
result.  Nested calls into the same layer (an estimator inside a bootstrap
replicate, a rule grounding inside a full grounding) are counted but not
timed twice.

Work done in worker processes is invisible to the wrappers (they run only
in the process that installed them).  The program already ships its
workers' ``worker.*`` spans and ``scheduler.*`` events back to the
dispatcher's telemetry registry, so :func:`worker_metrics` reads those
instead.
"""

from __future__ import annotations

import functools
import gc
import math
import multiprocessing.process
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np

import repro.carl.engine as engine_module
import repro.carl.shard as shard_module
import repro.inference.estimators as estimators_module
import repro.service.scheduler as scheduler_module
import repro.service.session as session_module
from repro.cache.store import ArtifactCache
from repro.carl.batch import BatchScratch
from repro.carl.engine import CaRLEngine
from repro.carl.grounding import Grounder
from repro.datasets.synthetic_review import (
    SYNTHETIC_REVIEW_PROGRAM,
    generate_synthetic_review_data,
)
from repro.db.query import ConjunctiveQuery
from repro.inference.outcome import OutcomeModel
from repro.observability.telemetry import get_registry

#: Every per-layer metric: (name, unit, better).  Seconds are busy time
#: summed over threads; counts are work done in the traced round.
PER_LAYER = (
    ("carl.parser.busy_s", "s", "lower"),
    ("carl.grounding.busy_s", "s", "lower"),
    ("carl.grounding.nodes", "count", "lower"),
    ("carl.grounding.edges", "count", "lower"),
    ("carl.grounding.runs", "count", "lower"),
    ("carl.grounding.exponent", "slope", "lower"),
    ("db.query.busy_s", "s", "lower"),
    ("db.query.calls", "count", "lower"),
    ("db.query.bindings", "count", "lower"),
    ("carl.peers.busy_s", "s", "lower"),
    ("carl.unit_table.collect_s", "s", "lower"),
    ("carl.unit_table.units", "count", "lower"),
    ("carl.unit_table.exponent", "slope", "lower"),
    ("carl.unit_table.materialize_s", "s", "lower"),
    ("carl.unit_table.covariates", "count", "lower"),
    ("carl.batch.hits", "count", "higher"),
    ("carl.batch.builds", "count", "lower"),
    ("carl.batch.hit_ratio", "ratio", "higher"),
    ("inference.estimate_s", "s", "lower"),
    ("inference.fits", "count", "lower"),
    ("inference.bootstrap_s", "s", "lower"),
    ("inference.replicates", "count", "lower"),
    ("inference.matching_s", "s", "lower"),
    ("cache.load_s", "s", "lower"),
    ("cache.decode_s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.store_s", "s", "lower"),
    ("cache.stores", "count", "lower"),
    ("cache.bytes_written", "bytes", "lower"),
    ("service.spawn_s", "s", "lower"),
    ("service.publish_s", "s", "lower"),
    ("service.queue_wait_s", "s", "lower"),
    ("service.worker_busy_s", "s", "lower"),
    ("service.collect_tasks", "count", "lower"),
    ("service.finish_tasks", "count", "lower"),
    ("service.retries", "count", "lower"),
    ("setup.datasets.generate_s", "s", "lower"),
    ("setup.carl.grounding.busy_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

#: Author counts of the scaling ladder, and of the smoke mode's ladder.
LADDER = (1250, 2500, 5000)
SMOKE_LADDER = (125, 250, 500)
#: The ladder collects the unit table of this query at every size.
LADDER_QUERY = "AVG_Score[A] <= Prestige[A] ?"

#: Worker spans shipped back to the dispatcher, and the layer metric each
#: one's duration belongs to.
WORKER_SPANS = {
    "worker.collect": "carl.unit_table.collect_s",
    "worker.store": "cache.store_s",
    "worker.merge": "cache.load_s",
    "worker.materialize": "carl.unit_table.materialize_s",
    "worker.estimate": "inference.estimate_s",
}


class Tracer:
    """Patches the layer entry points and accumulates per-thread totals."""

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._local = threading.local()
        #: One totals table per thread; a thread only writes its own, so no
        #: lock is needed (and none can be inherited held by a forked worker).
        self._tables: list[defaultdict[str, float]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- accumulation ------------------------------------------------------
    def _table(self) -> defaultdict[str, float]:
        table = getattr(self._local, "table", None)
        if table is None:
            table = self._local.table = defaultdict(float)
            self._local.depth = defaultdict(int)
            self._tables.append(table)
        return table

    def add(self, name: str, value: float = 1) -> None:
        self._table()[name] += value

    def totals(self) -> dict[str, float]:
        merged: defaultdict[str, float] = defaultdict(float)
        for table in list(self._tables):
            for name, value in list(table.items()):
                merged[name] += value
        return dict(merged)

    def reset(self) -> None:
        for table in self._tables:
            table.clear()

    # -- patching ----------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        name: str,
        metric: str,
        after: Callable[["Tracer", tuple, dict, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.name`` with a wrapper timing ``metric`` and then
        calling ``after(tracer, args, kwargs, result)``."""
        original = getattr(owner, name)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            table = tracer._table()
            depth = tracer._local.depth
            depth[metric] += 1
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                depth[metric] -= 1
                if depth[metric] == 0:
                    table[metric] += time.perf_counter() - started
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        setattr(owner, name, traced)
        self._patches.append((owner, name, original))

    def install(self) -> None:
        def counted(name: str) -> Callable[["Tracer", tuple, dict, Any], None]:
            return lambda tracer, args, kwargs, result: tracer.add(name)

        def grounded(tracer: Tracer, args: tuple, kwargs: dict, graph: Any) -> None:
            tracer.add("carl.grounding.runs")
            tracer.add("carl.grounding.nodes", len(graph))
            tracer.add("carl.grounding.edges", graph.number_of_edges())

        def evaluated(tracer: Tracer, args: tuple, kwargs: dict, bindings: Any) -> None:
            tracer.add("db.query.calls")
            tracer.add("db.query.bindings", len(bindings))

        def collected(tracer: Tracer, args: tuple, kwargs: dict, inputs: Any) -> None:
            units = args[4] if len(args) > 4 else kwargs["units"]
            tracer.add("carl.unit_table.units", len(units))

        def materialized(tracer: Tracer, args: tuple, kwargs: dict, table: Any) -> None:
            tracer.add("carl.unit_table.covariates", len(table.covariate_columns))

        def bootstrapped(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
            tracer.add("inference.replicates", len(result.samples))

        def loaded(tracer: Tracer, args: tuple, kwargs: dict, payload: Any) -> None:
            tracer.add("cache.misses" if payload is None else "cache.hits")

        def stored(tracer: Tracer, args: tuple, kwargs: dict, path: Any) -> None:
            tracer.add("cache.stores")
            if path is not None:
                tracer.add("cache.bytes_written", os.path.getsize(path))

        for owner, name in (
            (engine_module, "parse_query"),
            (engine_module, "parse_program"),
            (session_module, "parse_query"),
        ):
            self.wrap(owner, name, "carl.parser.busy_s")
        self.wrap(Grounder, "ground", "carl.grounding.busy_s", grounded)
        for name in ("ground_rule", "ground_aggregate_rule", "grounded_attribute_values"):
            self.wrap(Grounder, name, "carl.grounding.busy_s")
        self.wrap(ConjunctiveQuery, "evaluate", "db.query.busy_s", evaluated)
        self.wrap(engine_module, "compute_peers", "carl.peers.busy_s")
        self.wrap(
            engine_module, "collect_unit_table_inputs", "carl.unit_table.collect_s", collected
        )
        self.wrap(
            engine_module,
            "materialize_unit_table",
            "carl.unit_table.materialize_s",
            materialized,
        )
        self._wrap_batch_scratch()
        # Bootstrap time is reported on its own and inside inference time.
        self.wrap(engine_module, "bootstrap_statistic", "inference.bootstrap_s", bootstrapped)
        # One fit per estimator run (estimate_ate_from_unit_table goes
        # through the estimators module's estimate_ate) or outcome model.
        for owner, name in (
            (engine_module, "estimate_ate"),
            (estimators_module, "estimate_ate"),
            (OutcomeModel, "fit"),
        ):
            self.wrap(owner, name, "inference.estimate_s", counted("inference.fits"))
        for owner, name in (
            (engine_module, "estimate_ate_from_unit_table"),
            (engine_module, "bootstrap_statistic"),
            (engine_module, "naive_difference"),
            (engine_module, "pearson_correlation"),
            (OutcomeModel, "predict"),
            (OutcomeModel, "predict_intervention"),
        ):
            self.wrap(owner, name, "inference.estimate_s")
        self.wrap(estimators_module, "nearest_neighbor_match", "inference.matching_s")
        self.wrap(ArtifactCache, "load", "cache.load_s", loaded)
        self.wrap(ArtifactCache, "store", "cache.store_s", stored)
        for name in ("load_unit_table", "load_grounding"):
            self.wrap(engine_module, name, "cache.decode_s")
        self.wrap(multiprocessing.process.BaseProcess, "start", "service.spawn_s")
        for owner in (shard_module, scheduler_module):
            self.wrap(owner, "_publish_engine_state", "service.publish_s")

    def _wrap_batch_scratch(self) -> None:
        original = BatchScratch.get_or_build
        tracer = self

        @functools.wraps(original)
        def traced(scratch: BatchScratch, key: Any, build: Callable[[], Any]) -> Any:
            if os.getpid() != tracer._pid:
                return original(scratch, key, build)
            tracer.add("carl.batch.calls")

            def counted_build() -> Any:
                tracer.add("carl.batch.builds")
                return build()

            return original(scratch, key, counted_build)

        BatchScratch.get_or_build = traced
        self._patches.append((BatchScratch, "get_or_build", original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


def worker_metrics() -> dict[str, float]:
    """Service and worker-side layer totals from the telemetry registry."""
    registry = get_registry()
    totals: defaultdict[str, float] = defaultdict(float)
    for event in registry.events():
        name, kind = event["event"], event["kind"]
        if kind == "histogram" and name == "scheduler.queue_wait":
            totals["service.queue_wait_s"] += event["value"]
        elif kind == "span" and name in WORKER_SPANS:
            duration = event["t1"] - event["t0"]
            totals[WORKER_SPANS[name]] += duration
            totals["service.worker_busy_s"] += duration
            if name == "worker.collect":
                totals["service.collect_tasks"] += 1
            elif name == "worker.estimate":
                totals["service.finish_tasks"] += 1
            elif name == "worker.store":
                totals["cache.stores"] += 1
    totals["service.retries"] += registry.counters().get("scheduler.retry", 0)
    return dict(totals)


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of :data:`PER_LAYER` (0 for layers not run)."""
    metrics = {name: float(totals.get(name, 0.0)) for name, _, _ in PER_LAYER}
    calls = totals.get("carl.batch.calls", 0.0)
    builds = totals.get("carl.batch.builds", 0.0)
    metrics["carl.batch.hits"] = calls - builds
    metrics["carl.batch.hit_ratio"] = (calls - builds) / calls if calls else 0.0
    loads = metrics["cache.hits"] + metrics["cache.misses"]
    metrics["cache.hit_ratio"] = metrics["cache.hits"] / loads if loads else 0.0
    return metrics


def scaling_exponents(tracer: Tracer, seed: int, sizes: tuple[int, ...]) -> dict[str, float]:
    """Log-log slopes of grounding and collection time over ``sizes`` authors."""
    grounding, collection = [], []
    for authors in sizes:
        data = generate_synthetic_review_data(n_authors=authors, seed=seed)
        engine = CaRLEngine(data.database, SYNTHETIC_REVIEW_PROGRAM)
        gc.collect()
        tracer.reset()
        engine.graph  # noqa: B018 - ground
        engine.unit_table(LADDER_QUERY)
        totals = tracer.totals()
        grounding.append(totals["carl.grounding.busy_s"])
        collection.append(totals["carl.unit_table.collect_s"])
    logs = [math.log(authors) for authors in sizes]
    return {
        "carl.grounding.exponent": float(np.polyfit(logs, np.log(grounding), 1)[0]),
        "carl.unit_table.exponent": float(np.polyfit(logs, np.log(collection), 1)[0]),
    }
