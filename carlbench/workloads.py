"""The four workloads, each a closed loop with one client on SYNTHETIC REVIEWDATA.

A workload sets up state (:meth:`Workload.setup`, timed as ``setup_s``),
computes serial reference answers on a separate engine outside every timed
phase (:meth:`Workload.reference`), and then runs whole rounds of the same
operations (:meth:`Workload.run_round`).  One operation is one delivered
answer.  A round returns its operations and the wall seconds it spent
answering; the heap is collected before each timed step, outside the
clock, so a collector pause caused by one step's garbage is not charged to
the next.

Every workload uses at most :data:`JOBS` threads or worker processes (the
reference machine has two cores).
"""

from __future__ import annotations

import gc
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from checks import Expectations
from repro.carl.engine import CaRLEngine
from repro.datasets.synthetic_review import (
    SYNTHETIC_REVIEW_PROGRAM,
    SYNTHETIC_REVIEW_QUERIES,
    generate_synthetic_review_data,
)
from repro.inference.estimators import ESTIMATORS

#: Threads or worker processes per workload.
JOBS = 2

#: The paper's four queries: their WHERE clauses bypass batch sharing.
PAPER_QUERIES = dict(SYNTHETIC_REVIEW_QUERIES)

#: The sweep: the paper queries, treatment-threshold variants that share one
#: collection in a batch, and two queries without a WHERE clause that share
#: the (Prestige, AVG_Score) collection with each other.
SWEEP = {
    **PAPER_QUERIES,
    "qual_15": "AVG_Score[A] <= Qualification[A] >= 15 ?",
    "qual_20": "AVG_Score[A] <= Qualification[A] >= 20 ?",
    "qual_25": "AVG_Score[A] <= Qualification[A] >= 25 ?",
    "prestige_any": "AVG_Score[A] <= Prestige[A] ?",
    "peer_any": "Score[S] <= Prestige[A] ? WHEN ALL PEERS TREATED",
}

#: Embeddings of the warm sweep: one ``answer_all`` batch per embedding.
EMBEDDINGS = ("mean", "moments", "padding")


def _distinct_estimators() -> tuple[str, ...]:
    """One name per estimator function, in registry order (aliases such as
    ``psm`` and ``doubly_robust`` run the same code)."""
    first_name: dict[Any, str] = {}
    for name, function in ESTIMATORS.items():
        first_name.setdefault(function, name)
    return tuple(first_name.values())


DISTINCT_ESTIMATORS = _distinct_estimators()

#: Bootstrap replicates of every cache-replay answer.
BOOTSTRAP = 20

#: cache-replay's generator seed and bootstrap seed.  They do not follow
#: ``--seed``: the known fault this workload counts must fail on inputs that
#: are the same in every run.
REPLAY_DATA_SEED = 7
REPLAY_BOOTSTRAP_SEED = 0

#: Authors per workload, and the tiny size of the smoke mode.
AUTHORS = {
    "cold-answer": 4000,
    "warm-sweep": 1500,
    "cache-replay": 1000,
    "process-sweep": 2500,
}
SMOKE_AUTHORS = 500

#: Seconds to wait for the next streamed answer before a session is
#: declared stuck (the run's watchdog is the outer bound).
SESSION_EVENT_TIMEOUT = 120.0


@dataclass
class Op:
    """One delivered answer (or the error that replaced it)."""

    key: str
    label: str
    latency: float
    answer: Any = None
    error: str | None = None
    reference: Any = None
    failures: list[str] = field(default_factory=list)


@dataclass
class State:
    """What one set-up produced."""

    data: Any
    expected: Expectations
    engine: CaRLEngine | None = None
    cache_root: Path | None = None


class Workload:
    name = ""

    def __init__(self, seed: int, authors: int, work_dir: Path) -> None:
        self.seed = seed
        self.authors = authors
        self.work_dir = work_dir
        self.references: dict[tuple[str, str], Any] = {}

    def generate(self, seed: int) -> State:
        data = generate_synthetic_review_data(n_authors=self.authors, seed=seed)
        return State(data=data, expected=Expectations(data.database))

    def setup(self) -> State:
        return self.generate(self.seed)

    def reference(self, state: State) -> None:
        """Fill :attr:`references` with serial answers computed from
        ``state``, a set-up other than the one the rounds run on."""

    def run_round(self, state: State) -> tuple[list[Op], float]:
        raise NotImplementedError

    def close(self, state: State) -> None:
        state.engine = None
        if state.cache_root is not None:
            shutil.rmtree(state.cache_root, ignore_errors=True)


def _grounded(state: State) -> State:
    state.engine = CaRLEngine(state.data.database, SYNTHETIC_REVIEW_PROGRAM)
    state.engine.graph  # noqa: B018 - ground during set-up
    return state


def _batch_ops(
    answers: dict[str, Any] | Exception, label: str, wall: float, references: dict
) -> list[Op]:
    """Ops of a batch whose answers were all delivered at once, ``wall`` in."""
    ops = []
    for key in SWEEP:
        op = Op(key=key, label=label, latency=wall, reference=references.get((label, key)))
        if isinstance(answers, Exception):
            op.error = repr(answers)
        else:
            op.answer = answers[key]
        ops.append(op)
    return ops


class ColdAnswer(Workload):
    name = "cold-answer"

    def run_round(self, state: State) -> tuple[list[Op], float]:
        ops, wall = [], 0.0
        for key, query in PAPER_QUERIES.items():
            gc.collect()
            started = time.perf_counter()
            op = Op(key=key, label="cold", latency=0.0)
            try:
                engine = CaRLEngine(state.data.database, SYNTHETIC_REVIEW_PROGRAM)
                op.answer = engine.answer(query)
            except Exception as error:  # noqa: BLE001 - a failed op is counted
                op.error = repr(error)
            op.latency = time.perf_counter() - started
            engine = None
            wall += op.latency
            ops.append(op)
        return ops, wall


class WarmSweep(Workload):
    name = "warm-sweep"

    def setup(self) -> State:
        return _grounded(self.generate(self.seed))

    def reference(self, state: State) -> None:
        for embedding in EMBEDDINGS:
            for key, query in SWEEP.items():
                self.references[(embedding, key)] = state.engine.answer(
                    query, embedding=embedding
                )

    def run_round(self, state: State) -> tuple[list[Op], float]:
        ops, wall = [], 0.0
        for embedding in EMBEDDINGS:
            gc.collect()
            started = time.perf_counter()
            try:
                answers = state.engine.answer_all(SWEEP, embedding=embedding, jobs=JOBS)
            except Exception as error:  # noqa: BLE001 - a failed batch is counted
                answers = error
            elapsed = time.perf_counter() - started
            wall += elapsed
            ops += _batch_ops(answers, embedding, elapsed, self.references)
        return ops, wall


class CacheReplay(Workload):
    name = "cache-replay"

    def setup(self) -> State:
        state = self.generate(REPLAY_DATA_SEED)
        state.cache_root = Path(tempfile.mkdtemp(prefix="cache-", dir=self.work_dir))
        engine = CaRLEngine(
            state.data.database, SYNTHETIC_REVIEW_PROGRAM, cache=state.cache_root
        )
        for query in SWEEP.values():
            engine.answer(query)
        return state

    def reference(self, state: State) -> None:
        # A separate engine over its own, initially empty cache: the first
        # estimator's answers build every unit table from scratch (so the
        # replayed answers are compared against tables that never went
        # through the cache), the later estimators reuse them.
        engine = CaRLEngine(
            state.data.database,
            SYNTHETIC_REVIEW_PROGRAM,
            cache=tempfile.mkdtemp(prefix="reference-", dir=self.work_dir),
        )
        for estimator in DISTINCT_ESTIMATORS:
            for key, query in SWEEP.items():
                self.references[(estimator, key)] = engine.answer(
                    query, estimator=estimator, bootstrap=BOOTSTRAP, seed=REPLAY_BOOTSTRAP_SEED
                )

    def run_round(self, state: State) -> tuple[list[Op], float]:
        gc.collect()
        ops = []
        started = time.perf_counter()
        engine = CaRLEngine(
            state.data.database, SYNTHETIC_REVIEW_PROGRAM, cache=state.cache_root
        )
        for estimator in DISTINCT_ESTIMATORS:
            for key, query in SWEEP.items():
                op = Op(
                    key=key,
                    label=estimator,
                    latency=0.0,
                    reference=self.references.get((estimator, key)),
                )
                issued = time.perf_counter()
                try:
                    op.answer = engine.answer(
                        query,
                        estimator=estimator,
                        bootstrap=BOOTSTRAP,
                        seed=REPLAY_BOOTSTRAP_SEED,
                    )
                except Exception as error:  # noqa: BLE001 - a failed op is counted
                    op.error = repr(error)
                op.latency = time.perf_counter() - issued
                ops.append(op)
        return ops, time.perf_counter() - started


class ProcessSweep(Workload):
    name = "process-sweep"

    def setup(self) -> State:
        return _grounded(self.generate(self.seed))

    def reference(self, state: State) -> None:
        for key, query in SWEEP.items():
            answer = state.engine.answer(query)
            self.references[("answer_all", key)] = answer
            self.references[("session", key)] = answer

    def run_round(self, state: State) -> tuple[list[Op], float]:
        gc.collect()
        started = time.perf_counter()
        try:
            answers = state.engine.answer_all(SWEEP, executor="process", jobs=JOBS)
        except Exception as error:  # noqa: BLE001 - a failed batch is counted
            answers = error
        batch_wall = time.perf_counter() - started
        ops = _batch_ops(answers, "answer_all", batch_wall, self.references)

        gc.collect()
        streamed: list[Op] = []
        started = time.perf_counter()
        try:
            with state.engine.open_session(executor="process", jobs=JOBS) as session:
                keys = {session.submit(query): key for key, query in SWEEP.items()}
                for index, outcome in session.as_completed(timeout=SESSION_EVENT_TIMEOUT):
                    key = keys[index]
                    op = Op(
                        key=key,
                        label="session",
                        latency=time.perf_counter() - started,
                        reference=self.references.get(("session", key)),
                    )
                    if isinstance(outcome, Exception):
                        op.error = repr(outcome)
                    else:
                        op.answer = outcome
                    streamed.append(op)
        except Exception as error:  # noqa: BLE001 - undelivered answers are counted
            delivered = {op.key for op in streamed}
            streamed += [
                Op(key=key, label="session", latency=0.0, error=repr(error))
                for key in SWEEP
                if key not in delivered
            ]
        session_wall = time.perf_counter() - started
        return ops + streamed, batch_wall + session_wall


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (ColdAnswer, WarmSweep, CacheReplay, ProcessSweep)
}
