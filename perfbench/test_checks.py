"""The benchmark's checks reject doctored outputs.

Run from the repository root with either of::

    python3 perfbench/test_checks.py
    python3 -m pytest perfbench/test_checks.py -q

Each test starts from an output that passes, doctors one thing (a
duplicated command, a wrong decided value, a decision past 4d, ...) and
shows the check rejects it.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import (  # noqa: E402
    DecisionRecord,
    check_agreement_op,
    check_log,
    flatten_applied,
    paper_d,
)

DELTA, RHO = 1.0, 1e-4
D = paper_d(DELTA, RHO)
T0 = 100.0
CORRECT = [0, 1, 2, 3]


def good_records(value="v") -> list[DecisionRecord]:
    return [
        DecisionRecord(node, value, True, T0 + 0.5 * D, T0 + (2.0 + 0.3 * node) * D)
        for node in CORRECT
    ]


def check(records, value="v"):
    return check_agreement_op(records, CORRECT, value, T0, DELTA, RHO)


def test_agreement_accepts_a_good_operation():
    assert check(good_records()) == []


def test_agreement_rejects_a_wrong_decided_value():
    records = good_records()
    records[2] = records[2]._replace(value="forged")
    assert any("forged" in reason for reason in check(records))


def test_agreement_rejects_an_abort():
    records = good_records()
    records[1] = records[1]._replace(value=None, decided=False)
    assert check(records)


def test_agreement_rejects_a_decision_past_4d():
    records = good_records()
    records[3] = records[3]._replace(returned_real=T0 + 4.01 * D)
    assert any("bound 4d" in reason for reason in check(records))


def test_agreement_accepts_a_decision_at_exactly_4d():
    records = good_records()
    records[3] = records[3]._replace(returned_real=T0 + 4.0 * D)
    assert check(records) == []


def test_agreement_rejects_a_spread_over_2d():
    records = good_records()
    records[0] = records[0]._replace(returned_real=T0 + 0.9 * D)
    records[3] = records[3]._replace(returned_real=T0 + 3.0 * D)
    assert any("spread" in reason for reason in check(records))


def test_agreement_rejects_a_missing_node():
    assert any("no decision" in reason for reason in check(good_records()[:-1]))


def test_agreement_rejects_an_anchor_before_t0_minus_d():
    records = good_records()
    records[1] = records[1]._replace(tau_g_real=T0 - 1.5 * D)
    assert any("anchor" in reason for reason in check(records))


def test_agreement_judges_each_node_by_its_latest_decision():
    records = good_records()
    stale = records[0]._replace(value="old", returned_real=records[0].returned_real - 0.1)
    assert check([stale] + records) == []


COMMANDS = [f"c{i}" for i in range(10)]


def good_logs() -> dict[int, list[str]]:
    applied = [(0, tuple(COMMANDS[:4])), (1, tuple(COMMANDS[4:]))]
    return {node: flatten_applied(applied) for node in CORRECT}


def test_log_accepts_identical_logs():
    failed, foreign = check_log(COMMANDS, good_logs())
    assert failed == set() and foreign == []


def test_log_rejects_a_duplicated_command():
    logs = good_logs()
    logs[2] = logs[2] + ["c3"]
    failed, foreign = check_log(COMMANDS, logs)
    assert failed == {"c3"} and foreign == []


def test_log_rejects_a_lost_command():
    logs = good_logs()
    logs[1] = logs[1][:-1]
    failed, _ = check_log(COMMANDS, logs)
    assert failed == {"c9"}


def test_log_rejects_a_command_at_another_position():
    logs = good_logs()
    logs[3][4], logs[3][5] = logs[3][5], logs[3][4]
    failed, _ = check_log(COMMANDS, logs)
    assert failed == {"c4", "c5"}


def test_log_reports_a_command_nobody_sent():
    logs = good_logs()
    logs[0] = logs[0] + ["intruder"]
    failed, foreign = check_log(COMMANDS, logs)
    assert failed == set() and len(foreign) == 1


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} checks passed")
