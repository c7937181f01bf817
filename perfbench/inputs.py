"""Inputs made from the benchmark's seed, before anything is timed.

Traces come from the program's own simulator (``repro.sim``, through
``repro.bench.workloads`` where it has the design); the program under
test only ever sees the files and frames built here. Sub-seeds are
derived from the run seed with a purpose label, so each input changes
with the seed and no two inputs share a stream.
"""

from __future__ import annotations

import bisect
import random


def sub_seed(seed: int, purpose: str) -> int:
    return random.Random(f"{seed}:{purpose}").randrange(2**31)


def gm_trace(periods: int, seed: int):
    """The paper's GM case study, simulated for *periods* periods."""
    from repro.bench.workloads import gm_workload

    return gm_workload(periods, seed=sub_seed(seed, "gm")).trace


def pipeline_trace(periods: int, seed: int):
    """The five-stage ``pipeline`` design (what ``repro simulate
    pipeline`` builds)."""
    from repro.sim.simulator import Simulator, SimulatorConfig
    from repro.systems.examples import pipeline_design

    simulator = Simulator(
        pipeline_design(5), SimulatorConfig(period_length=100.0),
        seed=sub_seed(seed, "pipeline"),
    )
    return simulator.run(periods).trace


def session_trace(index: int, periods: int, seed: int):
    """Session *index*'s own run of the four-task Figure 1 design."""
    from repro.bench.workloads import simple_workload

    return simple_workload(periods, seed=sub_seed(seed, f"session{index}")).trace


def write_text_log(trace, path: str) -> None:
    from repro.trace.formats import write_trace_file

    write_trace_file(trace, path, "text")


class Popularity:
    """Zipf(1) session popularity over a ranking of the ids seeded by
    *seed* alone: every phase of a run sees the same popular sessions,
    each drawing them from its own stream, named by *phase*."""

    def __init__(self, sessions: int, seed: int, phase: str = "open") -> None:
        order = list(range(sessions))
        random.Random(sub_seed(seed, "popularity")).shuffle(order)
        self.rng = random.Random(sub_seed(seed, f"picks-{phase}"))
        self.order = order
        self.weights = [0.0] * sessions
        running = 0.0
        self.cumulative = []
        for rank, session in enumerate(order):
            weight = 1.0 / (rank + 1)
            self.weights[session] = weight
            running += weight
            self.cumulative.append(running)

    def share(self, session: int) -> float:
        """The probability that :meth:`pick` returns *session*."""
        return self.weights[session] / self.cumulative[-1]

    def pick(self) -> int:
        point = self.rng.random() * self.cumulative[-1]
        return self.order[bisect.bisect_left(self.cumulative, point)]


def open_loop_schedule(
    rate: float, seconds: float, sessions: int, query_every: int, seed: int
) -> list[tuple[float, int, str]]:
    """``(due offset, session, kind)`` rows: Poisson arrivals at *rate*
    ops/s over skewed sessions, one op in *query_every* a ``query``."""
    rng = random.Random(sub_seed(seed, "arrivals"))
    popularity = Popularity(sessions, seed)
    rows = []
    due = 0.0
    while True:
        due += rng.expovariate(rate)
        if due >= seconds:
            return rows
        kind = "query" if (len(rows) + 1) % query_every == 0 else "append"
        rows.append((due, popularity.pick(), kind))
