"""Correctness checks the benchmark applies to every operation.

The checks are computed apart from the program: they read plain records
(decision tuples, applied command sequences) and recompute the paper's
bounds from ``delta`` and ``rho`` here, instead of calling
``repro.harness.properties`` or trusting ``ServiceReport.identical_logs``.
Each check returns a list of failure reasons; an empty list means the
operation passed.
"""

from __future__ import annotations

from typing import Hashable, Iterable, NamedTuple, Sequence

#: Float slack on every bound, in units of d (as the paper's bounds are
#: closed, only rounding noise is forgiven).
EPS_D = 1e-6


class DecisionRecord(NamedTuple):
    """One correct node's latest outcome for the operation's General."""

    node: int
    value: object
    decided: bool
    tau_g_real: float | None
    returned_real: float


def paper_d(delta: float, rho: float, pi: float = 0.0) -> float:
    """The paper's end-to-end bound ``d = (delta + pi) * (1 + rho)``."""
    return (delta + pi) * (1.0 + rho)


def check_agreement_op(
    records: Iterable[DecisionRecord],
    correct_ids: Sequence[int],
    value: object,
    t0_real: float,
    delta: float,
    rho: float,
) -> list[str]:
    """Validity plus Timeliness-2 for one proposal by a correct General.

    Every correct node must decide ``value``, with its anchor in
    ``[t0 - d, rt(tau_q)]`` and ``rt(tau_q) <= t0 + 4d``, and the decision
    times of the correct nodes must lie within ``2d`` of each other.
    """
    d = paper_d(delta, rho)
    slack = EPS_D * d
    latest: dict[int, DecisionRecord] = {}
    for rec in records:
        held = latest.get(rec.node)
        if held is None or rec.returned_real > held.returned_real:
            latest[rec.node] = rec
    failures = []
    missing = [node for node in correct_ids if node not in latest]
    if missing:
        failures.append(f"no decision at correct nodes {missing}")
    for node in sorted(latest):
        rec = latest[node]
        if not rec.decided or rec.value != value:
            failures.append(f"node {node} returned {rec.value!r}, not {value!r}")
            continue
        if rec.returned_real > t0_real + 4.0 * d + slack:
            failures.append(
                f"node {node} decided {(rec.returned_real - t0_real) / d:.3f}d "
                f"after the proposal (bound 4d)"
            )
        if rec.tau_g_real is None or not (
            t0_real - d - slack <= rec.tau_g_real <= rec.returned_real + slack
        ):
            failures.append(f"node {node} anchor {rec.tau_g_real!r} out of bounds")
    times = [rec.returned_real for rec in latest.values() if rec.decided]
    if times and max(times) - min(times) > 2.0 * d + slack:
        failures.append(
            f"decision spread {(max(times) - min(times)) / d:.3f}d (bound 2d)"
        )
    return failures


def check_log(
    commands: Sequence[Hashable],
    sequences: dict[int, Sequence[Hashable]],
) -> tuple[set[Hashable], list[str]]:
    """Exactly-once, same-position check of replicated command logs.

    ``commands`` is the generator's own list of what it submitted;
    ``sequences`` maps each correct replica to its flattened applied
    command sequence.  Returns the set of failed commands (missing at some
    replica, applied more than once, or at different positions) and a list
    of foreign entries -- applied commands the generator never sent, which
    no operation accounts for.
    """
    submitted = set(commands)
    positions: dict[int, dict[Hashable, int]] = {}
    duplicated: set[Hashable] = set()
    foreign: list[str] = []
    for replica, sequence in sequences.items():
        where: dict[Hashable, int] = {}
        for pos, cmd in enumerate(sequence):
            if cmd in where:
                duplicated.add(cmd)
            else:
                where[cmd] = pos
            if cmd not in submitted:
                foreign.append(f"replica {replica} applied unknown {cmd!r}")
        positions[replica] = where
    failed = set()
    for cmd in commands:
        if cmd in duplicated:
            failed.add(cmd)
            continue
        seen = {where.get(cmd) for where in positions.values()}
        if None in seen or len(seen) != 1:
            failed.add(cmd)
    return failed, foreign


def flatten_applied(applied: Iterable[tuple[int, object]]) -> list[Hashable]:
    """A replica's ``(slot, batch)`` entries as one command sequence."""
    out: list[Hashable] = []
    for _slot, batch in applied:
        if isinstance(batch, tuple):
            out.extend(batch)
        else:
            out.append(batch)
    return out
