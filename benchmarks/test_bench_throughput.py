"""Throughput benchmarks (engineering, not a paper artifact).

Performance tracking for the hot paths a production deployment cares
about: simulator event throughput, learner message throughput at a fixed
bound, streamed ingestion, and the downstream analyses on the GM-scale
model. pytest-benchmark records these so regressions show up in CI.
"""

import io

from repro.core.heuristic import learn_bounded
from repro.sim.simulator import Simulator, SimulatorConfig
from repro.systems.gateway import gateway_config, gateway_design
from repro.trace.streaming import stream_learn
from repro.trace.textio import dumps_trace


def test_throughput_simulator_gm(benchmark, gm):
    def simulate():
        return Simulator(
            gm.design, SimulatorConfig(period_length=100.0), seed=1
        ).run(10)

    run = benchmark(simulate)
    assert len(run.trace) == 10


def test_throughput_simulator_gateway(benchmark):
    design = gateway_design()
    config = gateway_config()

    def simulate():
        return Simulator(design, config, seed=2).run(10)

    run = benchmark(simulate)
    assert len(run.trace) == 10


def test_throughput_learner_bound16(benchmark, gm):
    trace = gm.trace.subtrace(8)
    result = benchmark(learn_bounded, trace, 16)
    assert result.periods == 8


def test_throughput_mask_kernel_speedup(gm):
    """The interned bitmask kernel vs the retained string-set reference.

    The representation swap must be a pure performance change: identical
    hypothesis pools, functions and LUB (asserted here on the GM
    workload, and on randomized traces by the property suite), at >= 1.5x
    the reference learner's throughput. Single-run wall clock is noisy,
    so the factor is the best of three runs each; the identity assertion
    is unconditional.
    """
    from repro.bench.harness import measure
    from repro.core.reference import learn_bounded_reference

    trace = gm.trace.subtrace(8)
    bound = 16
    by_seconds = lambda m: m.seconds  # noqa: E731
    fast = min(
        (measure("mask", lambda: learn_bounded(trace, bound)) for _ in range(3)),
        key=by_seconds,
    )
    slow = min(
        (
            measure("reference", lambda: learn_bounded_reference(trace, bound))
            for _ in range(3)
        ),
        key=by_seconds,
    )
    new, ref = fast.value, slow.value
    assert [h.pairs for h in new.hypotheses] == [h.pairs for h in ref.hypotheses]
    assert new.functions == ref.functions
    assert new.lub() == ref.lub()
    assert new.merge_count == ref.merge_count
    factor = slow.seconds / max(fast.seconds, 1e-12)
    print(
        f"\n[throughput] mask kernel {fast.seconds:.3f}s vs reference "
        f"{slow.seconds:.3f}s = {factor:.2f}x"
    )
    assert factor >= 1.5, f"expected >= 1.5x over the string kernel, got {factor:.2f}x"


def test_throughput_streamed_learning(benchmark, gm):
    text = dumps_trace(gm.trace.subtrace(8))

    def learn_from_stream():
        return stream_learn(io.StringIO(text), bound=8)

    result = benchmark(learn_from_stream)
    assert result.periods == 8


def test_throughput_classification(benchmark, gm):
    from repro.analysis.classify import classify_all

    lub = learn_bounded(gm.trace, 16).lub()
    kinds = benchmark(classify_all, lub)
    assert len(kinds) == 18


def test_throughput_format_registry_round_trip(benchmark, gm):
    """Write+read each registered trace format through the registry."""
    import os
    import tempfile

    from repro.trace.formats import registered_formats

    trace = gm.trace.subtrace(4)

    def round_trip_all():
        loaded = {}
        for fmt in registered_formats():
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, f"t{fmt.extensions[0]}")
                fmt.write(trace, path)
                loaded[fmt.name] = fmt.read(path)
        return loaded

    loaded = benchmark.pedantic(round_trip_all, rounds=3, iterations=1)
    for name, got in loaded.items():
        assert len(got) == len(trace), name
        assert got.message_count() == trace.message_count(), name


def test_throughput_store_ingest_learn_round_trip(benchmark, gm):
    """Text log -> .rts store -> learn: the out-of-core pipeline.

    Benchmarks the ingest leg (the store's write path) and asserts the
    store-backed learn is bit-identical to the in-memory learn — the
    mmap path is a representation change, never a different answer.
    """
    import os
    import tempfile

    from repro.pipeline.ingest import ingest_to_store
    from repro.trace.formats import get_format
    from repro.trace.store import open_store

    trace = gm.trace.subtrace(8)
    bound = 16

    with tempfile.TemporaryDirectory() as tmp:
        log_path = os.path.join(tmp, "gm.log")
        store_path = os.path.join(tmp, "gm.rts")
        get_format("text").write(trace, log_path)

        summary = benchmark.pedantic(
            ingest_to_store,
            args=(log_path, store_path),
            rounds=3,
            iterations=1,
        )
        assert summary.periods == len(trace)
        assert summary.messages == trace.message_count()

        store_result = learn_bounded(open_store(store_path).trace(), bound)
        memory_result = learn_bounded(trace, bound)
        assert [h.pairs for h in store_result.hypotheses] == [
            h.pairs for h in memory_result.hypotheses
        ]
        assert store_result.lub() == memory_result.lub()
        assert store_result.merge_count == memory_result.merge_count


def test_throughput_workers_sweep(benchmark, gm):
    """Shard-parallel learning: wall clock and specificity vs sequential.

    Records, for workers in (1, 2, 4): wall-clock seconds, speedup over
    the sequential run, and the merged-vs-sequential specificity delta
    (Definition 8 weight — 0 means the shard merge lost nothing). The
    soundness direction (merged >= sequential in the lattice) is asserted
    unconditionally; the >= 1.5x speedup at 4 workers needs 4 real cores
    and full scale, so it is gated on cpu count and smoke mode.
    """
    import os

    from repro.bench.harness import measure
    from repro.bench.reporting import format_table
    from repro.core.learner import learn_dependencies

    from conftest import SMOKE

    bound = 16
    trace = gm.trace.subtrace(8) if SMOKE else gm.trace
    sweep_workers = (1, 2, 4)

    measurements = {
        workers: measure(
            f"workers={workers}",
            lambda w=workers: learn_dependencies(trace, bound=bound, workers=w),
        )
        for workers in sweep_workers
    }
    benchmark.pedantic(
        learn_dependencies,
        args=(trace,),
        kwargs={"bound": bound, "workers": 2},
        rounds=1,
        iterations=1,
    )

    sequential = measurements[1].value.lub()
    base_seconds = measurements[1].seconds
    rows = []
    for workers in sweep_workers:
        m = measurements[workers]
        merged = m.value.lub()
        # Soundness: the merge may generalize, never specialize or drop.
        assert sequential.leq(merged), f"unsound merge at workers={workers}"
        rows.append([
            workers,
            m.seconds,
            base_seconds / max(m.seconds, 1e-12),
            merged.weight() - sequential.weight(),
        ])
    print()
    print(
        format_table(
            ["workers", "seconds", "speedup", "specificity loss (weight)"],
            rows,
            title="[throughput] shard-parallel learn "
            f"(bound={bound}, {len(trace)} periods, "
            f"{trace.message_count()} messages)",
        )
    )

    if os.cpu_count() >= 4 and not SMOKE:
        speedup_at_4 = base_seconds / max(measurements[4].seconds, 1e-12)
        assert speedup_at_4 >= 1.5, (
            f"expected >= 1.5x at 4 workers, got {speedup_at_4:.2f}x"
        )
    else:
        print(
            "[throughput] speedup assertion skipped "
            f"(cpus={os.cpu_count()}, smoke={SMOKE})"
        )


def test_throughput_chaos_recovery_overhead(benchmark, gm, monkeypatch):
    """Fault-tolerant runtime: what a recovered failure costs.

    Runs the same shard-parallel learn fault-free and with REPRO_CHAOS
    injecting two transient failures on shard 1, and records the
    wall-clock overhead of the retries. The models must be
    bit-identical — recovery is pure overhead, never a different
    answer — and the counters must report exactly the injected plan.
    """
    from repro.bench.harness import measure
    from repro.bench.reporting import format_table
    from repro.core.learner import learn_dependencies
    from repro.core.shardexec import ShardPolicy

    from conftest import SMOKE

    bound = 16
    trace = gm.trace.subtrace(8) if SMOKE else gm.trace
    policy = ShardPolicy(retries=2)

    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    clean = measure(
        "fault-free",
        lambda: learn_dependencies(
            trace, bound=bound, workers=2, shard_policy=policy
        ),
    )
    monkeypatch.setenv("REPRO_CHAOS", "fail@1:2")
    chaos = measure(
        "fail@1:2",
        lambda: learn_dependencies(
            trace, bound=bound, workers=2, shard_policy=policy
        ),
    )
    monkeypatch.delenv("REPRO_CHAOS")
    benchmark.pedantic(
        learn_dependencies,
        args=(trace,),
        kwargs={"bound": bound, "workers": 2, "shard_policy": policy},
        rounds=1,
        iterations=1,
    )

    assert chaos.value.lub() == clean.value.lub(), (
        "recovery changed the learned model"
    )
    counters = chaos.value.hot_loop
    assert counters.shard_failures == 2
    assert counters.shard_retries == 2
    assert counters.degraded_shards == 0
    print()
    print(
        format_table(
            ["run", "seconds", "retries", "overhead"],
            [
                ["fault-free", clean.seconds, 0, ""],
                [
                    "fail@1:2",
                    chaos.seconds,
                    counters.shard_retries,
                    f"{chaos.seconds - clean.seconds:+.3f}s",
                ],
            ],
            title="[throughput] chaos recovery overhead "
            f"(bound={bound}, {len(trace)} periods, workers=2)",
        )
    )
