"""Hash-seed independence of every serialized artifact (RL001's theorem).

repro-lint's RL001 statically forbids unsorted set iteration on output
paths; this test checks the property it protects *dynamically*: the same
learn run, executed in fresh interpreters under different
``PYTHONHASHSEED`` values, must produce byte-identical traces, model
JSON, Markdown reports and CLI text. ``PYTHONHASHSEED`` only takes
effect at interpreter startup, so each run is a subprocess.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SEEDS = ("0", "1", "4242")

#: Both shards of a 2-worker run crash on every attempt, so the process
#: pool breaks past its rebuild budget and the runtime degrades to
#: in-process sequential learning. Shard indices are deterministic, so
#: the plan forces the same recovery path in every interpreter.
DEGRADE_CHAOS = "crash@0:99,crash@1:99"

#: ``0.123 s`` wall-clock figures in the report and CLI summary. Timing
#: varies with machine load, not with the hash seed, so it is masked
#: before the byte comparison.
ELAPSED = re.compile(rb"\d+\.\d{3} s")


def mask_elapsed(payload: bytes) -> bytes:
    return ELAPSED.sub(b"<elapsed> s", payload)


def run_learn(workdir: Path, hash_seed: str) -> dict[str, bytes]:
    """Simulate + learn under one PYTHONHASHSEED; return artifact bytes."""
    outdir = workdir / f"seed{hash_seed}"
    outdir.mkdir()
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    trace = outdir / "trace.log"
    model = outdir / "model.json"
    report = outdir / "report.md"
    common = [sys.executable, "-m", "repro.cli"]
    subprocess.run(
        [*common, "simulate", "simple", "--periods", "12", "--seed", "5",
         "--out", str(trace)],
        check=True, env=env, capture_output=True,
    )
    learn = subprocess.run(
        [*common, "learn", str(trace), "--bound", "16",
         "--model-json", str(model), "--report", str(report)],
        check=True, env=env, capture_output=True,
    )
    return {
        "trace": trace.read_bytes(),
        "model": model.read_bytes(),
        "report": mask_elapsed(report.read_bytes()),
        # The CLI echoes the artifact paths, which differ per run dir.
        "stdout": mask_elapsed(
            learn.stdout.replace(str(outdir).encode(), b"<outdir>")
        ),
    }


def run_learn_degraded(workdir: Path, hash_seed: str) -> dict[str, object]:
    """Simulate + learn under chaos that forces sequential degradation.

    Returns the trace and model bytes plus the recovery counters from
    the profile JSON. The Markdown report and CLI summary are excluded
    on purpose: they embed wall-clock seconds, which vary between
    subprocess runs independently of the hash seed.
    """
    outdir = workdir / f"degraded-seed{hash_seed}"
    outdir.mkdir()
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    common = [sys.executable, "-m", "repro.cli"]
    trace = outdir / "trace.log"
    model = outdir / "model.json"
    profile = outdir / "profile.json"
    subprocess.run(
        [*common, "simulate", "simple", "--periods", "12", "--seed", "5",
         "--out", str(trace)],
        check=True, env=env, capture_output=True,
    )
    env[  # only the learn subprocess sees the fault plan
        "REPRO_CHAOS"
    ] = DEGRADE_CHAOS
    subprocess.run(
        [*common, "learn", str(trace), "--bound", "16", "--workers", "2",
         "--quiet", "--model-json", str(model),
         "--profile-json", str(profile)],
        check=True, env=env, capture_output=True,
    )
    counters = json.loads(profile.read_text())["hot_loop"]
    return {
        "trace": trace.read_bytes(),
        "model": model.read_bytes(),
        "recovery": {
            key: counters[key]
            for key in ("shard_failures", "shard_timeouts", "shard_retries",
                        "shard_splits", "pool_rebuilds", "pool_requeues",
                        "degraded_shards")
        },
    }


def test_artifacts_identical_across_hash_seeds(tmp_path):
    baseline = run_learn(tmp_path, SEEDS[0])
    for seed in SEEDS[1:]:
        other = run_learn(tmp_path, seed)
        for name, payload in baseline.items():
            assert other[name] == payload, (
                f"{name} differs between PYTHONHASHSEED={SEEDS[0]} "
                f"and PYTHONHASHSEED={seed}"
            )


def test_kernels_identical_across_hash_seeds(tmp_path):
    """Under every hash seed, the CLI's model JSON is byte-identical to
    the string-kernel reference learner's model of the same trace."""
    from repro.analysis.report import dumps_model
    from repro.core.reference import learn_bounded_reference
    from repro.trace.textio import loads_trace

    for seed in SEEDS:
        artifacts = run_learn(tmp_path, seed)
        trace = loads_trace(artifacts["trace"].decode())
        expected = dumps_model(learn_bounded_reference(trace, 16).lub())
        assert artifacts["model"] == expected.encode(), (
            f"model differs from the reference under PYTHONHASHSEED={seed}"
        )


def run_learn_store(workdir: Path, hash_seed: str) -> dict[str, bytes]:
    """Simulate + ingest into a .rts store + learn from the store.

    The store file itself must be hash-seed independent (the header is
    compact sorted-keys JSON; the columns are raw little-endian arrays),
    and so must the model learned from it.
    """
    outdir = workdir / f"store-seed{hash_seed}"
    outdir.mkdir()
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    common = [sys.executable, "-m", "repro.cli"]
    trace = outdir / "trace.log"
    store = outdir / "trace.rts"
    model = outdir / "model.json"
    subprocess.run(
        [*common, "simulate", "simple", "--periods", "12", "--seed", "5",
         "--out", str(trace)],
        check=True, env=env, capture_output=True,
    )
    subprocess.run(
        [*common, "ingest", str(trace), "-o", str(store)],
        check=True, env=env, capture_output=True,
    )
    info = subprocess.run(
        [*common, "store-info", str(store), "--json"],
        check=True, env=env, capture_output=True,
    )
    subprocess.run(
        [*common, "learn", str(store), "--bound", "16", "--quiet",
         "--model-json", str(model)],
        check=True, env=env, capture_output=True,
    )
    return {
        "store": store.read_bytes(),
        "info": info.stdout.replace(str(outdir).encode(), b"<outdir>"),
        "model": model.read_bytes(),
    }


def test_store_artifacts_identical_across_hash_seeds(tmp_path):
    baseline = run_learn_store(tmp_path, SEEDS[0])
    log_model = run_learn(tmp_path, SEEDS[0])["model"]
    assert baseline["model"] == log_model, (
        "store-backed learn diverged from the text-log learn"
    )
    for seed in SEEDS[1:]:
        other = run_learn_store(tmp_path, seed)
        for name, payload in baseline.items():
            assert other[name] == payload, (
                f"{name} differs between PYTHONHASHSEED={SEEDS[0]} "
                f"and PYTHONHASHSEED={seed}"
            )


def test_degraded_run_artifacts_identical_across_hash_seeds(tmp_path):
    """A chaos run that degrades to in-process learning is still
    hash-seed deterministic: same model bytes, same recovery counters."""
    baseline = run_learn_degraded(tmp_path, SEEDS[0])
    assert baseline["recovery"]["degraded_shards"] > 0, (
        "chaos plan was expected to force sequential degradation"
    )
    for seed in SEEDS[1:]:
        other = run_learn_degraded(tmp_path, seed)
        for name, payload in baseline.items():
            assert other[name] == payload, (
                f"{name} differs between PYTHONHASHSEED={SEEDS[0]} "
                f"and PYTHONHASHSEED={seed}"
            )


#: Driver for the service case: one interpreter hosts the daemon and
#: two clients whose appends interleave, then prints every observable
#: (model JSON + session profiles + daemon aggregate) as sorted JSON.
#: PYTHONHASHSEED only takes effect at startup, so the whole scenario
#: runs in the subprocess; threads share the seeded interpreter.
SERVICE_SCRIPT = """
import itertools
import json
import sys

from repro.service import ServiceClient, ServiceThread, SessionPolicy
from repro.trace.synthetic import alternating_branch_trace, serial_chain_trace

thread = ServiceThread(SessionPolicy())
traces = {
    "a": serial_chain_trace(3, 6),
    "b": alternating_branch_trace(6),
}
clients = {}
for name, trace in traces.items():
    client = ServiceClient(thread.address, name=name)
    client.connect()
    client.open_session(name, trace.tasks, bound=16)
    clients[name] = client
streams = {
    name: iter(trace.periods) for name, trace in traces.items()
}
for name in itertools.cycle(sorted(streams)):
    if not streams:
        break
    period = next(streams[name], None)
    if period is None:
        del streams[name]
        continue
    clients[name].append_periods([period])
out = {}
for name, client in sorted(clients.items()):
    out[name] = {
        "model": client.query_model(),
        "profile": client.profile(),
    }
    client.close_session()
stats = clients["a"].daemon_stats()
del stats["server"]  # embeds hostname+pid
out["daemon"] = stats
for client in clients.values():
    client.close()
thread.stop()
json.dump(out, sys.stdout, sort_keys=True)
"""

#: Every wall-clock figure in the profiles (``elapsed_seconds`` plus
#: the hot-loop's ``*_seconds`` timers) varies with machine load, not
#: the hash seed; everything else must match byte for byte.
SERVICE_ELAPSED = re.compile(rb'"[a-z_]+_seconds": [0-9.e+-]+')


def run_service_sessions(workdir: Path, hash_seed: str) -> bytes:
    """Run the two-client service scenario under one PYTHONHASHSEED."""
    outdir = workdir / f"service-seed{hash_seed}"
    outdir.mkdir()
    script = outdir / "drive.py"
    script.write_text(SERVICE_SCRIPT)
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop("REPRO_CHAOS", None)
    proc = subprocess.run(
        [sys.executable, str(script)],
        check=True, env=env, capture_output=True, timeout=120,
    )
    return SERVICE_ELAPSED.sub(b'"elapsed_seconds": "<elapsed>"', proc.stdout)


def test_service_sessions_identical_across_hash_seeds(tmp_path):
    """A daemon serving two interleaved streaming clients is hash-seed
    deterministic end to end: model JSON, per-session profile counters,
    and the daemon's aggregate counters are byte-identical."""
    baseline = run_service_sessions(tmp_path, SEEDS[0])
    payload = json.loads(baseline)
    assert payload["a"]["profile"]["learn"]["periods"] == 6
    assert payload["daemon"]["hot_loop"]["sessions_closed"] == 2
    for seed in SEEDS[1:]:
        other = run_service_sessions(tmp_path, seed)
        assert other == baseline, (
            f"service artifacts differ between PYTHONHASHSEED={SEEDS[0]} "
            f"and PYTHONHASHSEED={seed}"
        )
