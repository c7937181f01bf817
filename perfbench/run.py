"""The repository benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workloads and metrics are listed,
with their reasons and bounds, in ``BENCHMARK.json`` beside ``src``:

* ``learn-store-tcp`` and ``learn-exact`` time cold ``repro learn``
  processes (see ``learn_workloads.py``);
* ``serve-stream`` drives one ``repro serve`` daemon over the session
  frame protocol (see ``serve_workload.py``).

Inputs are generated from ``--seed`` before anything is timed, and every
run checks the program's outputs against an independent computation
outside the timed region. With ``--trace 0`` the last line of standard
output carries the end-to-end metrics, measured with no tracing; with
``--trace 1`` it carries the per-layer metrics of a traced run, whose
spans are recorded by ``tracing.py``. The lines before it are a report
for people. Working files go to ``.perfbench_work`` in the checkout
and are removed at exit; the exit code is nonzero, with no result line,
when the run could not be made, and 1 when the outputs were wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ROOT, BenchError, become_subreaper, source_ready  # noqa: E402

WORKLOADS = ("learn-store-tcp", "serve-stream", "learn-exact")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _declared(traced: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as f:
        spec = json.load(f)
    return spec["per_layer" if traced else "end_to_end"]


def _run(args: argparse.Namespace, workdir: str) -> dict:
    run_id = os.path.basename(workdir)
    traced = bool(args.trace)
    if args.workload == "serve-stream":
        import serve_workload

        return serve_workload.run(args.seed, args.seconds, traced, workdir, run_id)
    import learn_workloads

    return learn_workloads.run(args.workload, args.seed, args.seconds, traced,
                               workdir, run_id)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    try:
        source_ready()
        declared = _declared(bool(args.trace))
    except (BenchError, OSError) as error:
        print(f"perfbench: cannot run: {error}", file=sys.stderr)
        return 2
    become_subreaper()
    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = _run(args, workdir)
    except BenchError as error:
        print(f"perfbench: run failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    figures = result["metrics"]
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in figures:
            if not args.trace:
                print(f"perfbench: no figure for {name}", file=sys.stderr)
                return 1
            figures[name] = 0.0  # a layer this workload never calls
        metrics[name] = {"value": figures[name], "unit": entry["unit"]}
        print(f"{name} {figures[name]:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
