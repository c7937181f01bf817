"""Chaos suite for the fault-tolerant shard runtime.

Every test injects a deterministic fault plan through the
``REPRO_CHAOS`` environment variable (crash / hang / slow / fail, keyed
by shard index and attempt — see :func:`repro.core.shardexec.parse_chaos`)
and asserts three things:

1. the learn *completes* despite the fault;
2. the result is sound — its LUB is ``⊒`` the sequential LUB in the
   value lattice and still matches the whole trace (Theorem 2 soundness
   is preserved under retry, split and degradation); when the shard
   partition is unchanged (no splits), the result is *identical* to the
   fault-free sharded run;
3. the failure counters on ``result.hot_loop`` match the injected fault
   plan exactly.

The faults run in real subprocesses of a real ``ProcessPoolExecutor``;
nothing is mocked. Tests that need parallel workers are skipped on
single-CPU machines.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import BrokenExecutor, Executor, Future

import pytest

from repro.core.heuristic import learn_bounded
from repro.core.learner import learn_dependencies
from repro.core.matching import matches_trace
from repro.core.shardexec import (
    ChaosSpec,
    ShardJob,
    ShardPolicy,
    ShardRuntime,
    parse_chaos,
)
from repro.errors import ShardExecutionError
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.systems.random_gen import RandomDesignConfig, random_design

needs_two_cpus = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="chaos tests need >= 2 CPUs"
)

#: Fast-recovery policy: tests should not wait out production backoffs.
FAST = dict(backoff=0.01, backoff_cap=0.05)


@pytest.fixture
def chaos(monkeypatch):
    """Set the REPRO_CHAOS plan for one test, restoring it afterwards."""

    def _set(plan: str) -> None:
        monkeypatch.setenv("REPRO_CHAOS", plan)

    return _set


@pytest.fixture(autouse=True)
def no_ambient_chaos(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)


def make_trace(seed=3, task_count=8, periods=12):
    design = random_design(RandomDesignConfig(task_count=task_count), seed=seed)
    return Simulator(
        design,
        SimulatorConfig(period_length=60.0 + 8.0 * task_count),
        seed=seed,
    ).run(periods).trace


def assert_sound(trace, result):
    """The chaos survivor is a sound Theorem 2 model of the whole trace."""
    sequential = learn_bounded(trace, 8).lub()
    assert sequential.leq(result.lub()), "recovery lost soundness"
    assert matches_trace(result.lub(), trace)
    assert result.periods == len(trace)
    assert result.messages == trace.message_count()
    assert result.hot_loop.periods == len(trace)


class TestChaosPlanParsing:
    def test_full_grammar(self):
        specs = parse_chaos("crash@2,hang@0:2, slow@3:0.25 ,fail@1:2")
        assert specs == (
            ChaosSpec("crash", 2, 1.0),
            ChaosSpec("hang", 0, 2.0),
            ChaosSpec("slow", 3, 0.25),
            ChaosSpec("fail", 1, 2.0),
        )

    def test_applies_by_index_and_attempt(self):
        crash = ChaosSpec("crash", 2, 2.0)
        assert crash.applies(2, 0) and crash.applies(2, 1)
        assert not crash.applies(2, 2)  # attempts exhausted the fault
        assert not crash.applies(1, 0)  # different shard
        slow = ChaosSpec("slow", 3, 0.25)
        assert slow.applies(3, 7)  # slow stays slow on every attempt

    def test_empty_entries_ignored(self):
        assert parse_chaos("") == ()
        assert parse_chaos(" , ,") == ()

    @pytest.mark.parametrize("plan", ["boom@1", "crash@x", "crash", "fail@1:y"])
    def test_bad_plans_rejected(self, plan):
        with pytest.raises(ValueError, match="REPRO_CHAOS"):
            parse_chaos(plan)


class TestShardPolicyValidation:
    def test_defaults_are_valid(self):
        policy = ShardPolicy()
        assert policy.degrade == "sequential"
        assert policy.timeout is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(timeout=0.0),
            dict(timeout=-1.0),
            dict(retries=-1),
            dict(backoff=-0.1),
            dict(max_splits=-1),
            dict(max_pool_rebuilds=-1),
            dict(degrade="panic"),
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ShardPolicy(**kwargs)

    def test_backoff_is_deterministic_and_bounded(self):
        policy = ShardPolicy(backoff=0.05, backoff_cap=1.0)
        for index in range(5):
            for attempt in range(8):
                first = policy.backoff_seconds(index, attempt)
                assert first == policy.backoff_seconds(index, attempt)
                assert 0.0 <= first <= policy.backoff_cap * 1.25


class TestShardJob:
    def test_period_range_names_global_indices(self):
        trace = make_trace(periods=6)
        job = ShardJob(index=2, periods=trace.periods[2:5])
        assert job.period_range == "2..4"
        assert "shard 2" in job.describe()
        assert "periods 2..4" in job.describe()
        assert "attempt 1" in job.describe()

    def test_empty_range(self):
        assert ShardJob(index=0, periods=()).period_range == "empty"


class TestChaosRecovery:
    """One scenario per injected fault; counters must match the plan."""

    def test_fail_twice_then_succeed(self, chaos):
        trace = make_trace()
        clean = learn_dependencies(trace, bound=8, workers=3)
        chaos("fail@1:2")
        result = learn_dependencies(
            trace, bound=8, workers=3,
            shard_policy=ShardPolicy(**FAST),
        )
        assert_sound(trace, result)
        assert result.lub() == clean.lub()
        hot = result.hot_loop
        assert hot.shard_failures == 2
        assert hot.shard_retries == 2
        assert hot.shard_splits == 0
        assert hot.pool_rebuilds == 0
        assert hot.degraded_shards == 0

    def test_worker_crash_breaks_and_rebuilds_pool(self, chaos):
        trace = make_trace()
        clean = learn_dependencies(trace, bound=8, workers=3)
        chaos("crash@1")
        result = learn_dependencies(
            trace, bound=8, workers=3,
            shard_policy=ShardPolicy(**FAST),
        )
        assert_sound(trace, result)
        # No split happened, so the partition — and hence the merged
        # model — is identical to the fault-free run.
        assert result.lub() == clean.lub()
        hot = result.hot_loop
        assert hot.pool_rebuilds == 1
        assert hot.shard_splits == 0
        assert hot.degraded_shards == 0
        # The guilty shard cannot be told apart from bystanders, so the
        # crash surfaces as collateral requeues, not per-shard retries.
        assert 1 <= hot.pool_requeues <= 3

    def test_hang_past_timeout(self, chaos):
        trace = make_trace()
        clean = learn_dependencies(trace, bound=8, workers=3)
        chaos("hang@0")
        result = learn_dependencies(
            trace, bound=8, workers=3,
            shard_policy=ShardPolicy(timeout=1.5, **FAST),
        )
        assert_sound(trace, result)
        assert result.lub() == clean.lub()
        hot = result.hot_loop
        assert hot.shard_timeouts == 1
        assert hot.shard_retries == 1
        assert hot.pool_rebuilds == 1  # a hung worker forces a teardown
        assert hot.shard_splits == 0
        assert hot.degraded_shards == 0

    def test_slow_but_successful(self, chaos):
        trace = make_trace()
        clean = learn_dependencies(trace, bound=8, workers=3)
        chaos("slow@2:0.3")
        result = learn_dependencies(
            trace, bound=8, workers=3,
            shard_policy=ShardPolicy(timeout=30.0, **FAST),
        )
        assert_sound(trace, result)
        assert result.lub() == clean.lub()
        hot = result.hot_loop
        # Slow is not a fault: nothing retried, nothing rebuilt.
        assert hot.shard_failures == 0
        assert hot.shard_timeouts == 0
        assert hot.shard_retries == 0
        assert hot.pool_rebuilds == 0

    def test_whole_pool_broken_degrades_to_sequential(self, chaos):
        trace = make_trace()
        clean = learn_dependencies(trace, bound=8, workers=3)
        chaos("crash@0:99,crash@1:99,crash@2:99")
        result = learn_dependencies(
            trace, bound=8, workers=3,
            shard_policy=ShardPolicy(max_pool_rebuilds=1, **FAST),
        )
        assert_sound(trace, result)
        # Degradation keeps the original partition: identical model.
        assert result.lub() == clean.lub()
        hot = result.hot_loop
        assert hot.pool_rebuilds == 1
        assert hot.degraded_shards == 3
        assert hot.shard_splits == 0

    def test_persistent_failure_splits_shard(self, chaos):
        trace = make_trace()
        # Shard 1 fails on every attempt; with one retry the runtime
        # must bisect it, and the two fresh shards (chaos-free indices)
        # succeed.
        chaos("fail@1:99")
        result = learn_dependencies(
            trace, bound=8, workers=3,
            shard_policy=ShardPolicy(retries=1, **FAST),
        )
        assert_sound(trace, result)
        hot = result.hot_loop
        assert hot.shard_splits == 1
        assert hot.shard_failures == 2  # attempts 0 and 1 of shard 1
        assert hot.shard_retries == 1
        assert hot.degraded_shards == 0

    def test_single_period_shard_degrades_in_process(self, chaos):
        trace = make_trace()
        # Every shard is one period (workers > periods), so the failing
        # shard cannot be split: it must fall back to in-process.
        chaos("fail@2:99")
        result = learn_dependencies(
            trace, bound=8, workers=len(trace),
            shard_policy=ShardPolicy(retries=1, max_splits=0, **FAST),
        )
        assert_sound(trace, result)
        hot = result.hot_loop
        assert hot.shard_splits == 0
        assert hot.degraded_shards == 1
        assert hot.shard_failures == 2

    def test_combined_crash_and_timeout_is_bit_identical(self, chaos, tmp_path):
        """The ISSUE acceptance scenario: one crash + one hang at
        workers=4 completes, and the model is bit-identical to the
        fault-free learn (no split changed the partition)."""
        from repro.analysis.report import dumps_model

        trace = make_trace()
        clean = learn_dependencies(trace, bound=8, workers=4)
        chaos("crash@2,hang@0:2")
        result = learn_dependencies(
            trace, bound=8, workers=4,
            shard_policy=ShardPolicy(timeout=1.5, **FAST),
        )
        assert_sound(trace, result)
        assert dumps_model(result.lub()) == dumps_model(clean.lub())
        hot = result.hot_loop
        assert hot.shard_timeouts == 1
        assert hot.shard_retries == 1
        assert hot.shard_splits == 0
        assert hot.pool_rebuilds == 2  # one crash + one hang teardown
        assert hot.degraded_shards == 0

    def test_stats_identical_under_chaos(self, chaos):
        """Retries cannot double-count: merged statistics equal the
        sequential run's exactly, fault or no fault."""
        trace = make_trace()
        chaos("fail@0:1,fail@2:2")
        result = learn_dependencies(
            trace, bound=8, workers=3,
            shard_policy=ShardPolicy(**FAST),
        )
        reference = learn_bounded(trace, 8).stats
        stats = result.stats
        assert stats.period_count == reference.period_count
        for s in trace.tasks:
            assert stats.execution_count(s) == reference.execution_count(s)
            for r in trace.tasks:
                if s != r:
                    assert stats.exclusive_count(s, r) == (
                        reference.exclusive_count(s, r)
                    )


class TestFailurePropagation:
    """degrade='fail' errors must name the shard, range and attempts."""

    def test_error_names_period_range_and_attempts(self, chaos):
        trace = make_trace()
        chaos("fail@1:99")
        with pytest.raises(ShardExecutionError) as excinfo:
            learn_dependencies(
                trace, bound=8, workers=3,
                shard_policy=ShardPolicy(
                    retries=1, max_splits=0, degrade="fail", **FAST
                ),
            )
        message = str(excinfo.value)
        assert "shard 1" in message
        assert "periods 4..7" in message  # 12 periods over 3 shards
        assert "attempt 2" in message
        assert "BrokenProcessPool" not in message

    def test_broken_pool_error_is_not_bare(self, chaos):
        """Regression: an irrecoverable pool used to surface as a bare
        BrokenProcessPool with no shard context."""
        trace = make_trace()
        chaos("crash@0:99,crash@1:99,crash@2:99")
        with pytest.raises(ShardExecutionError) as excinfo:
            learn_dependencies(
                trace, bound=8, workers=3,
                shard_policy=ShardPolicy(
                    max_pool_rebuilds=1, degrade="fail", **FAST
                ),
            )
        message = str(excinfo.value)
        assert "process pool broke" in message
        assert "degrade='fail'" in message
        assert "periods" in message
        assert "BrokenProcessPool" not in message

    def test_error_is_a_learning_error(self):
        from repro.errors import LearningError, ReproError

        assert issubclass(ShardExecutionError, LearningError)
        assert issubclass(ShardExecutionError, ReproError)


class TestPolicyThreading:
    """ShardPolicy flows CLI -> PipelineConfig -> learner -> profile."""

    def test_pipeline_carries_policy(self):
        from repro.pipeline import PipelineConfig, run_pipeline

        trace = make_trace()
        config = PipelineConfig(
            bound=8,
            workers=2,
            shard_policy=ShardPolicy(timeout=30.0, retries=1),
        )
        run = run_pipeline(config, trace)
        assert run.result.workers == 2
        profile = run.profile()
        assert profile["learn"]["shard_policy"] == {
            "timeout": 30.0,
            "retries": 1,
            "max_splits": 4,
            "max_pool_rebuilds": 2,
            "degrade": "sequential",
        }
        for key in (
            "shard_failures", "shard_timeouts", "shard_retries",
            "shard_splits", "pool_rebuilds", "pool_requeues",
            "degraded_shards",
        ):
            assert profile["hot_loop"][key] == 0

    def test_cli_flags_reach_profile_json(self, chaos, tmp_path):
        import json

        from repro.cli import main
        from repro.trace.formats import resolve_format

        trace = make_trace()
        trace_path = tmp_path / "trace.log"
        resolve_format(None, str(trace_path)).write(trace, str(trace_path))
        profile_path = tmp_path / "profile.json"
        chaos("fail@0:1")
        code = main([
            "learn", str(trace_path), "--bound", "8", "--workers", "2",
            "--shard-timeout", "30", "--shard-retries", "3",
            "--degrade", "sequential",
            "--profile-json", str(profile_path), "--quiet",
        ])
        assert code == 0
        profile = json.loads(profile_path.read_text())
        assert profile["learn"]["shard_policy"]["timeout"] == 30.0
        assert profile["learn"]["shard_policy"]["retries"] == 3
        assert profile["hot_loop"]["shard_failures"] == 1
        assert profile["hot_loop"]["shard_retries"] == 1

    def test_cli_rejects_bad_policy(self, tmp_path):
        from repro.cli import main
        from repro.trace.formats import resolve_format

        trace = make_trace(periods=4)
        trace_path = tmp_path / "trace.log"
        resolve_format(None, str(trace_path)).write(trace, str(trace_path))
        code = main([
            "learn", str(trace_path), "--bound", "8", "--workers", "2",
            "--shard-timeout", "-1",
        ])
        assert code == 2

    @needs_two_cpus
    def test_chaos_smoke(self, chaos, tmp_path):
        """What CI's chaos-smoke job runs: the crash+timeout scenario
        end-to-end through the CLI at workers=2, checking the model is
        bit-identical to a fault-free learn and the profile reports the
        injected fault plan."""
        import json

        from repro.cli import main

        trace_path = tmp_path / "trace.log"
        assert main([
            "simulate", "simple", "--periods", "12", "--seed", "5",
            "--out", str(trace_path),
        ]) == 0
        clean_model = tmp_path / "clean.json"
        assert main([
            "learn", str(trace_path), "--bound", "16", "--workers", "2",
            "--model-json", str(clean_model), "--quiet",
        ]) == 0
        chaos_model = tmp_path / "chaos.json"
        profile_path = tmp_path / "profile.json"
        chaos("crash@1,hang@0:2")
        assert main([
            "learn", str(trace_path), "--bound", "16", "--workers", "2",
            "--shard-timeout", "2", "--shard-retries", "2",
            "--model-json", str(chaos_model),
            "--profile-json", str(profile_path), "--quiet",
        ]) == 0
        assert chaos_model.read_bytes() == clean_model.read_bytes()
        hot = json.loads(profile_path.read_text())["hot_loop"]
        assert hot["shard_timeouts"] == 1
        assert hot["shard_retries"] == 1
        assert hot["shard_splits"] == 0
        assert hot["pool_rebuilds"] == 2
        assert hot["degraded_shards"] == 0

    def test_sequential_learn_ignores_policy(self):
        # workers=1 routes to the sequential path; the policy (however
        # aggressive) must not touch it.
        trace = make_trace(periods=4)
        result = learn_dependencies(
            trace, bound=8, workers=1,
            shard_policy=ShardPolicy(retries=0, max_splits=0),
        )
        assert result.workers == 1
        assert result.hot_loop.pool_rebuilds == 0


class _ScriptedExecutor(Executor):
    """A first-generation executor that breaks under shard 0.

    ``landing`` says when shard 1, the bystander, delivers its result:
    ``"before"`` the break (at submit; the break follows on a timer) or
    ``"after"`` it (the break is immediate and the result lands during
    the teardown); or the bystander never delivers, because the break
    is immediate and either its submit is ``"refused"`` or it is
    ``"lost"`` in the teardown. Later generations run every shard.
    """

    def __init__(self, generation: int, landing: str) -> None:
        self.generation = generation
        self.landing = landing
        self.late: list[tuple[Future, object]] = []
        self.broken = False

    def submit(self, fn, /, *args, **kwargs):
        (shard_args,) = args
        future = Future()
        if self.generation > 0:
            future.set_result(fn(shard_args))
        elif shard_args[4] == 0:
            error = BrokenExecutor("a worker died")
            if self.landing == "before":
                threading.Timer(0.05, future.set_exception, (error,)).start()
            else:
                self.broken = True
                future.set_exception(error)
        elif self.broken and self.landing == "refused":
            raise BrokenExecutor("a worker died")
        elif self.landing == "before":
            future.set_result(fn(shard_args))
        elif self.landing == "lost":
            self.late.append((future, BrokenExecutor("a worker died")))
        else:
            self.late.append((future, fn(shard_args)))
        return future


class _ScriptedFactory:
    def __init__(self, landing: str) -> None:
        self.landing = landing
        self.generations = 0

    def new_executor(self) -> Executor:
        self.generations += 1
        return _ScriptedExecutor(self.generations - 1, self.landing)

    def teardown(self, executor: Executor) -> None:
        for future, outcome in executor.late:
            if isinstance(outcome, BaseException):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)


def _echo_shard(args):
    return (args[4], args[5])  # (shard index, attempt)


class TestRequeueAccounting:
    """Pool requeues follow the jobs' states, not the order in which the
    executor reports a break and a bystander's result."""

    def run_scripted(self, landing):
        runtime = ShardRuntime(
            ("a", "b"), 4, 0.0, workers=2,
            policy=ShardPolicy(**FAST),
            worker=_echo_shard, fallback=_echo_shard,
            executor_factory=_ScriptedFactory(landing),
        )
        outcomes = runtime.run([("p0",), ("p1",)])
        return sorted(outcomes), runtime.counters

    def test_bystander_before_or_after_the_break(self):
        before = self.run_scripted("before")
        after = self.run_scripted("after")
        assert before == after
        outcomes, counters = before
        # The bystander's first result is kept; the guilty shard reruns
        # with one attempt charged.
        assert outcomes == [(0, 1), (1, 0)]
        assert counters.pool_requeues == 1
        assert counters.pool_rebuilds == 1
        assert counters.shard_retries == 0

    def test_refused_submit_counts_as_in_flight(self):
        refused = self.run_scripted("refused")
        assert refused == self.run_scripted("lost")
        outcomes, counters = refused
        # The refused bystander is charged like a lost one.
        assert outcomes == [(0, 1), (1, 1)]
        assert counters.pool_requeues == 2
        assert counters.pool_rebuilds == 1
