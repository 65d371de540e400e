"""Correctness checks computed apart from the engine.

Every answer the benchmark times is checked here against facts derived
straight from the generated tables and the generator's ground truth, never
from the engine's own intermediates:

* ``n_units`` equals the number of authors with a submission at a venue of
  the query's blind policy (any venue for queries without a WHERE clause),
  counted from ``Writes`` / ``SubmittedTo`` / ``Venue``;
* ``mean_peer_count`` of a peer query equals the mean ``Collaborates``
  out-degree over those authors;
* AIE and ARE of ``peer_single`` / ``peer_double`` lie within
  :data:`EFFECT_TOLERANCE` of the generator's isolated and relational
  effects, and the regression ATE of ``ate_single`` / ``ate_double`` within
  :data:`ATE_TOLERANCE` of the overall effect;
* AOE equals AIE + ARE to :data:`DECOMPOSITION_TOLERANCE` (Proposition 4.1);
* a bootstrapped point estimate lies inside its own confidence interval;
* an answer matches its serial reference field by field, floats compared
  through ``float.hex``.

:func:`check_answer` returns the names of the checks an answer fails; an
empty list means it passed.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Any

import numpy as np

#: |estimate - truth| bound for AIE and ARE of the blind-policy peer queries.
#: Over seeds 0-29 (0-79 for warm-sweep's embeddings) no deviation at a size
#: the benchmark uses exceeded 0.25 (README, "Correctness").
EFFECT_TOLERANCE = 0.35
#: |regression ATE - overall effect| bound for ``ate_single`` / ``ate_double``.
ATE_TOLERANCE = 0.35
#: Proposition 4.1: AOE = AIE + ARE up to floating-point error.
DECOMPOSITION_TOLERANCE = 1e-9

#: The check a bootstrapped ``regression`` answer fails every time: the
#: reported ATE is the outcome-model AOE, while the bootstrap resamples
#: ``estimate_ate(..., "regression")`` over the adjustment features, a
#: different estimand, so the point estimate lies outside its own interval.
KNOWN_FAULT = "point_in_ci"


class Expectations:
    """Unit sets and collaborator out-degrees counted from the raw tables."""

    def __init__(self, database: Any) -> None:
        blind = {row["venue"]: row["blind"] for row in database.table("Venue").rows()}
        venue_of = {row["sub"]: row["venue"] for row in database.table("SubmittedTo").rows()}
        units: dict[str, set[str]] = defaultdict(set)
        for row in database.table("Writes").rows():
            units[blind[venue_of[row["sub"]]]].add(row["author"])
            units["any"].add(row["author"])
        degree: dict[str, int] = defaultdict(int)
        for row in database.table("Collaborates").rows():
            degree[row["author"]] += 1
        self.n_units = {policy: len(authors) for policy, authors in units.items()}
        self.mean_peer_count = {
            policy: sum(degree[author] for author in authors) / len(authors)
            for policy, authors in units.items()
        }


def policy_of(key: str) -> str:
    """Blind policy a sweep query restricts to (``any`` without a WHERE)."""
    for policy in ("single", "double"):
        if key.endswith(f"_{policy}"):
            return policy
    return "any"


def check_answer(
    key: str,
    answer: Any,
    expected: Expectations,
    truth: Any,
    reference: Any = None,
) -> list[str]:
    """Names of the checks ``answer`` (to sweep query ``key``) fails."""
    result = answer.result
    failures: list[str] = []
    policy = policy_of(key)
    if result.n_units != expected.n_units[policy]:
        failures.append("n_units")
    if hasattr(result, "aie"):
        if result.mean_peer_count != expected.mean_peer_count[policy]:
            failures.append("mean_peer_count")
        if abs(result.aoe - (result.aie + result.are)) > DECOMPOSITION_TOLERANCE:
            failures.append("aoe_decomposition")
        if policy != "any":
            isolated = getattr(truth, f"isolated_{policy}")
            if abs(result.aie - isolated) > EFFECT_TOLERANCE:
                failures.append("aie_truth")
            if abs(result.are - truth.relational) > EFFECT_TOLERANCE:
                failures.append("are_truth")
    else:
        if key.startswith("ate_") and result.estimator == "regression":
            if abs(result.ate - getattr(truth, f"overall_{policy}")) > ATE_TOLERANCE:
                failures.append("ate_truth")
        if result.confidence_interval is not None:
            lower, upper = result.confidence_interval
            if not lower <= result.ate <= upper:
                failures.append(KNOWN_FAULT)
    if reference is not None and exact_form(answer) != exact_form(reference):
        failures.append("matches_serial")
    return failures


def exact_form(answer: Any) -> Any:
    """The answer's result fields and unit-table summary, floats as hex.

    Timing fields are left out: they are the only fields that may differ
    between two executions of the same query.
    """
    fields = {
        field.name: getattr(answer.result, field.name)
        for field in dataclasses.fields(answer.result)
    }
    return _exact({"result": fields, "summary": answer.unit_table_summary})


def _exact(value: Any) -> Any:
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return _exact(value.tolist())
    if isinstance(value, dict):
        return {str(key): _exact(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(item) for item in value]
    if value is None or isinstance(value, str):
        return value
    return repr(value)
