"""Tests of the benchmark itself: seeded inputs, output checks and tracer.

Run with ``python3 -m pytest benchmarks``.
"""

import copy
import time
from dataclasses import replace

import numpy as np

import nusamp
from nusamp import check_minimal, criterion, oracle

import workloads
from generator import random_schedule, random_system, rng_for
from hostspeed import INSIDE_AFTER_S, REF_NOMINAL_NS, HostSpeed
from measure import _call, tail
from tracing import Tracer


def _inputs(seed, index):
    rng = rng_for(seed, 1, index)
    system = random_system(rng, 3)
    schedule = random_schedule(rng, 4)
    return system, schedule


def test_generator_is_deterministic_per_seed():
    for index in range(5):
        (s1, t1), (s2, t2) = _inputs(11, index), _inputs(11, index)
        assert np.array_equal(s1.A, s2.A) and np.array_equal(s1.b, s2.b)
        assert np.array_equal(s1.c, s2.c) and t1 == t2
    assert not np.array_equal(_inputs(11, 0)[0].A, _inputs(12, 0)[0].A)


def test_workload_ops_repeat_exactly_per_seed():
    first = [workloads.VerdictSweep(5).prepare(i) for i in range(8)]
    again = [workloads.VerdictSweep(5).prepare(i) for i in range(8)]
    assert [op.run() for op in first] == [op.run() for op in again]
    other = [workloads.VerdictSweep(6).prepare(i).run() for i in range(8)]
    assert other != [op.run() for op in first]


def test_generator_reaches_order_12():
    system = random_system(rng_for(3, 9), 12)
    assert system.n == 12 and check_minimal(system).minimal


def _analysis(order=2, count=3, seed=0):
    rng = rng_for(seed, 77)
    op = workloads._analysis_op(random_system(rng, order), random_schedule(rng, count))
    result = op.run()
    outcome = workloads.check_analysis(result, order)
    assert outcome.failure is None and outcome.agreement is True and not outcome.outlier
    return result


def test_checker_flags_corrupted_verdicts():
    good = _analysis()
    corruptions = [
        lambda r: r["criterion"].update(reachable=not r["criterion"]["reachable"]),
        lambda r: r["oracle"].update(agrees_with_criterion=False),
        lambda r: r["criterion"].update(factorization_residual=1.0),
        lambda r: r["oracle"].update(
            reachable=not r["oracle"]["reachable"], agrees_with_criterion=False
        ),
        lambda r: r.pop("criterion"),
    ]
    for corrupt in corruptions:
        bad = copy.deepcopy(good)
        corrupt(bad)
        assert workloads.check_analysis(bad, 2).failure is not None


def test_high_order_defects_are_counted_not_failed():
    result = _analysis()
    result["oracle"].update(reachable=not result["oracle"]["reachable"], agrees_with_criterion=False)
    result["criterion"]["factorization_residual"] = 1.0
    outcome = workloads.check_analysis(result, 10)
    assert outcome.failure is None and outcome.agreement is False and outcome.outlier
    result["criterion"]["factorization_residual"] = 0.0
    result["criterion"]["sigma_ratio"] = 1e-9  # inside the ambiguity band
    outcome = workloads.check_analysis(result, 2)
    assert outcome.failure is None and outcome.agreement is None


def test_design_checks_flag_wrong_outputs():
    loop = workloads.DesignLoop(4)
    for i in range(len(loop.pairs)):
        op = loop.prepare(i)
        out = op.run()
        assert op.check(out).failure is None, loop.pairs[i][1]
        kind = loop.pairs[i][1]
        if kind == "deadbeat":
            inputs, final = out
            assert op.check((inputs, final + 1e3)).failure is not None
        elif kind == "reconstruct":
            assert op.check(out + 1e-3).failure is not None
        elif kind == "zoh":
            states = out.states.copy()
            states[-1] += 1e-3
            assert op.check(replace(out, states=states)).failure is not None
        elif kind == "uniform":
            wrong = 1 if out.first_failing_multiple is None else None
            assert op.check(replace(out, first_failing_multiple=wrong)).failure is not None
            assert op.check(replace(out, passes=not out.passes)).failure is not None


def test_search_check_recomputes_the_objective_and_feasibility():
    def small_op(workload):
        i = next(i for i in range(workload.pass_len) if workload.spec_at(i)[0] == "o2d_w2_c3_s0.05")
        return workload.prepare(i)

    schedule, objective = small_op(workloads.ScheduleSearch(1)).run()
    assert small_op(workloads.ScheduleSearch(1)).check((schedule, objective)).failure is None
    t = schedule.instants
    corruptions = [
        (schedule, objective * 1.5),  # inflated objective
        (nusamp.SamplingSchedule(t[:2]), objective),  # wrong count
        (nusamp.SamplingSchedule((t[0], t[1], 2.5)), objective),  # outside the window
        (nusamp.SamplingSchedule((t[0], t[1], t[1] + 0.01)), objective),  # below the spacing
    ]
    for out in corruptions:
        assert small_op(workloads.ScheduleSearch(1)).check(out).failure is not None


def test_design_refusal_is_checked_against_the_criterion():
    singular = nusamp.joint_verdict(workloads.ROTATION, nusamp.SamplingSchedule((0.0, np.pi)))
    regular = nusamp.joint_verdict(workloads.ROTATION, nusamp.SamplingSchedule((0.0, 1.0)))
    assert workloads._checked_refusal(nusamp.SingularScheduleError("x", singular)).failure is None
    assert workloads._checked_refusal(nusamp.SingularScheduleError("x", regular)).failure
    assert workloads._checked_refusal(nusamp.SingularScheduleError("x")).failure


def test_tail_keeps_ten_samples_beyond():
    times = list(range(1, 1001))
    assert tail(times, 99.0) == (99.0, 990, 10)
    assert tail(times, 99.9)[0] == 99.0
    assert tail(list(range(1, 41)), 75.0) == (75.0, 30, 10)
    assert tail(list(range(1, 40)), 75.0)[0] == 50.0


def test_host_speed_factor_uses_the_samples_around_a_timing():
    host = HostSpeed()
    host.samples = [2 * REF_NOMINAL_NS, 2 * REF_NOMINAL_NS, 6 * REF_NOMINAL_NS]
    host.stamps = [1.0, 2.0, 3.0]
    assert host.factor(1.7, 1.8) == 0.5  # a host twice as slow halves a duration
    assert host.factor(2.8, 2.9) == 0.25  # mean of the samples before and after
    assert host.factor(0.4, 0.5) == 0.5 and host.factor(3.9, 4.0) == 1 / 6
    assert host.factor(1.5, 3.5) == 0.25  # the samples inside the duration
    host.maybe_sample()
    assert len(host.samples) == 4 and host.samples[-1] > 0 and host.stamps[-1] > 3.0


def test_long_call_is_sampled_inside_and_the_samples_are_taken_out():
    host = HostSpeed()
    short_ns, _, _ = _call(lambda: time.sleep(0.05), host)
    assert host.samples == [] and short_ns >= 0.05e9
    start = time.perf_counter()
    ns, _, error = _call(lambda: time.sleep(INSIDE_AFTER_S + 0.3), host)
    wall_ns = (time.perf_counter() - start) * 1e9
    assert error is None and len(host.samples) == 2 and host.inside_ns > 0
    assert ns <= wall_ns - host.inside_ns and ns >= (INSIDE_AFTER_S + 0.3) * 1e9 - host.inside_ns


def test_tracer_binds_every_name_and_restores():
    original = criterion.joint_verdict
    tracer = Tracer()
    with tracer.installed():
        assert oracle.joint_verdict is criterion.joint_verdict is nusamp.joint_verdict
        assert oracle.joint_verdict is not original
    assert oracle.joint_verdict is original and nusamp.joint_verdict is original


def test_tracer_self_time_excludes_children():
    tracer = Tracer()

    def child():
        time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        traced_child()
        traced_child()

    traced_child = tracer.wrap(child, "child", "stage.child")
    traced_parent = tracer.wrap(parent, "parent", "stage.parent")
    traced_child()  # outside an op: not recorded
    tracer.begin_op(0)
    traced_parent()
    tracer.end_op()
    assert tracer.calls["stage.child"] == 2 and tracer.calls["stage.parent"] == 1
    assert 0.009e9 < tracer.self_ns["stage.parent"] < 0.035e9  # children (40 ms) excluded
    assert tracer.self_ns["stage.child"] >= 0.04e9
    assert [span[5] for span in tracer.spans] == [-1, 0, 1, 1]
