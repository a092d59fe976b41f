"""End-to-end timing arithmetic."""

import math

import pytest

import run
import workloads

STEPS = ("a", "b")
# Operation 1 is a run of step "b": operation 0, the warm-up, was "a".
OPS = [2.0, 1.0, 6.0, 3.0, 4.0, 2.0]
REFS = [1.0, 1.0, 2.0, 1.0, 1.0, 1.0]


def outcomes(seconds):
    return [workloads.Outcome(s, []) for s in seconds]


def test_op_vs_ref_pairs_each_operation_with_the_reference_pass_after_it():
    # b: 2/1, 6/2, 4/1 -> median 3; a: 1/1, 3/1, 2/1 -> median 2.
    assert run.op_vs_ref(outcomes(OPS), REFS, STEPS) == pytest.approx(
        math.sqrt(3.0 * 2.0))


def test_best_op_is_the_geometric_mean_of_each_steps_fastest_run():
    assert run.best_op(outcomes(OPS), STEPS) == pytest.approx(
        math.sqrt(2.0 * 1.0))


def test_a_host_slowing_ops_and_reference_alike_leaves_op_vs_ref_unchanged():
    slow = [1.7 * s for s in OPS]
    assert run.op_vs_ref(outcomes(slow), [1.7 * r for r in REFS],
                         STEPS) == pytest.approx(
        run.op_vs_ref(outcomes(OPS), REFS, STEPS))
    assert run.best_op(outcomes(slow), STEPS) == pytest.approx(
        1.7 * run.best_op(outcomes(OPS), STEPS))
