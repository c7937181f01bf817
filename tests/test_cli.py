"""Tests for the command-line interface."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.report import dumps_model
from repro.cli import main
from repro.core.depfunc import DependencyFunction
from repro.core.lattice import MAY_DEPEND, MAY_DETERMINE
from repro.trace.synthetic import build_trace
from repro.trace.textio import read_trace, save_trace


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


#: Runs ``repro`` in a fresh interpreter and prints, as its last line,
#: the exit code and every module loaded by the time ``main`` returned.
_LOADED_PROBE = (
    "import io, json, sys; from repro.cli import main; "
    "out = io.StringIO(); code = main(sys.argv[1:], out=out); "
    "print(out.getvalue()); print(json.dumps([code, sorted(sys.modules)]))"
)


def run_fresh(*argv, cwd=None):
    """``repro *argv`` in a new interpreter: (exit code, output, modules)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", _LOADED_PROBE, *argv],
        env=dict(os.environ, PYTHONPATH=src), cwd=cwd,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    code, modules = json.loads(lines[-1])
    return code, "\n".join(lines[:-1]), set(modules)


def off_path_modules(modules):
    """Loaded modules that a learn, ingest or store-info never runs."""
    kept_analyses = {"repro.analysis.report", "repro.analysis.classify",
                     "repro.analysis.graph"}
    return sorted(
        name for name in modules
        if name in ("repro.devtools.lint.engine",
                    "repro.devtools.lint.registry")
        or name.startswith(("repro.devtools.lint.rules", "repro.sim",
                            "repro.systems"))
        or (name.startswith("repro.analysis.")
            and name not in kept_analyses)
    )


@pytest.fixture()
def trace_file(tmp_path):
    path = str(tmp_path / "trace.log")
    code, _ = run_cli(
        "simulate", "simple", "--periods", "15", "--seed", "3",
        "--out", path,
    )
    assert code == 0
    return path


class TestSimulate:
    def test_writes_trace(self, tmp_path):
        path = str(tmp_path / "t.log")
        code, output = run_cli(
            "simulate", "diamond", "--periods", "5", "--out", path
        )
        assert code == 0
        assert "5 periods" in output
        assert len(read_trace(path)) == 5

    def test_random_design(self, tmp_path):
        path = str(tmp_path / "t.log")
        code, _ = run_cli(
            "simulate", "random", "--tasks", "6", "--periods", "3",
            "--out", path,
        )
        assert code == 0
        assert len(read_trace(path).tasks) == 6

    def test_json_format(self, tmp_path):
        path = str(tmp_path / "t.json")
        code, _ = run_cli(
            "simulate", "simple", "--periods", "2", "--out", path,
            "--format", "json",
        )
        assert code == 0
        with open(path, encoding="utf-8") as handle:
            assert json.load(handle)["format"] == "repro-trace"


class TestValidate:
    def test_clean_trace(self, trace_file):
        code, output = run_cli("validate", trace_file)
        assert code == 0
        assert "0 errors" in output

    def test_missing_file(self):
        code, output = run_cli("validate", "/nonexistent/trace.log")
        assert code == 2
        assert "error:" in output


class TestLearn:
    def test_prints_model(self, trace_file):
        code, output = run_cli("learn", trace_file, "--bound", "8")
        assert code == 0
        assert "algorithm" in output
        assert "t1" in output

    def test_artifacts_written(self, trace_file, tmp_path):
        dot = str(tmp_path / "g.dot")
        graphml = str(tmp_path / "g.graphml")
        model = str(tmp_path / "m.json")
        report = str(tmp_path / "r.md")
        code, output = run_cli(
            "learn", trace_file, "--bound", "8",
            "--dot", dot, "--graphml", graphml,
            "--model-json", model, "--report", report, "--quiet",
        )
        assert code == 0
        assert open(dot, encoding="utf-8").read().startswith("digraph")
        assert "graphml" in open(graphml, encoding="utf-8").read()
        assert json.load(open(model, encoding="utf-8"))["format"] == (
            "repro-dependency-model"
        )
        assert open(report, encoding="utf-8").read().startswith("#")

    def test_exact_mode(self, trace_file):
        code, output = run_cli("learn", trace_file)
        assert code == 0
        assert "exact" in output

    def test_model_json_learn_never_imports_networkx(self, trace_file, tmp_path):
        """networkx is costly to import and only graph output needs it."""
        model = str(tmp_path / "m.json")
        code, _, modules = run_fresh(
            "learn", trace_file, "--quiet", "--model-json", model)
        assert code == 0
        assert "networkx" not in modules
        assert json.load(open(model, encoding="utf-8"))["format"] == (
            "repro-dependency-model"
        )


class TestMonitor:
    def test_clean_stream(self, trace_file, tmp_path):
        model = str(tmp_path / "m.json")
        run_cli("learn", trace_file, "--bound", "8",
                "--model-json", model, "--quiet")
        code, output = run_cli("monitor", trace_file, "--model", model)
        assert code == 0
        assert "0 anomalous" in output

    def test_drifted_stream(self, trace_file, tmp_path):
        model = str(tmp_path / "m.json")
        run_cli("learn", trace_file, "--bound", "8",
                "--model-json", model, "--quiet")
        # A different design's trace against the simple model: anomalies.
        other = str(tmp_path / "other.log")
        run_cli("simulate", "simple", "--periods", "5", "--seed", "77",
                "--period-length", "500", "--out", other)
        code, output = run_cli("monitor", other, "--model", model)
        # Longer periods stretch timings; anomalies may or may not occur —
        # exercise both exits deterministically instead with a broken file:
        assert code in (0, 1)

    def test_structurally_drifted_stream(self, trace_file, tmp_path):
        model = str(tmp_path / "m.json")
        run_cli("learn", trace_file, "--bound", "8",
                "--model-json", model, "--quiet")
        other = str(tmp_path / "other.log")
        with open(other, "w", encoding="utf-8") as handle:
            handle.write(
                "tasks t1 t2 t3 t4\n"
                "period 0\n"
                "0.0 task_start t1\n"
                "1.0 task_end t1\n"
            )
        code, output = run_cli("monitor", other, "--model", model)
        assert code == 1
        assert "1 anomalous" in output

    def test_unexplainable_period_is_classified_without_hanging(self, tmp_path):
        """One receiver, 12 senders and 13 messages under a model allowing
        every sender -> receiver pair: no assignment exists, and the
        monitor must say so promptly (a depth-first search would try
        about 12! partial assignments)."""
        k = 12
        senders = [f"s{i:02d}" for i in range(k)]
        tasks = (*senders, "r")
        entries = {}
        for sender in senders:
            entries[(sender, "r")] = MAY_DETERMINE
            entries[("r", sender)] = MAY_DEPEND
        model = tmp_path / "model.json"
        model.write_text(
            dumps_model(DependencyFunction(tasks, entries)), encoding="utf-8"
        )
        trace = tmp_path / "trace.log"
        save_trace(build_trace(tasks, [(
            [(s, float(i), i + 0.5) for i, s in enumerate(senders)]
            + [("r", 3.0 * k + 10, 3.0 * k + 11)],
            [(f"m{j:02d}", k + 2.0 * j, k + 2.0 * j + 1) for j in range(k + 1)],
        )]), str(trace))
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "monitor", str(trace),
             "--model", str(model)],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=30,
        )
        assert done.returncode == 1, done.stderr
        assert "period 0: unexplained_messages" in done.stdout


class TestErrors:
    def test_unknown_format_choice_rejected_by_argparse(self, trace_file):
        with pytest.raises(SystemExit):
            run_cli("learn", trace_file, "--format", "yaml")


class TestAnalyze:
    def test_modes_summary(self, trace_file):
        code, output = run_cli("analyze", trace_file)
        assert code == 0
        assert "operation modes" in output

    def test_curve(self, trace_file):
        code, output = run_cli("analyze", trace_file, "--curve", "--bound", "4")
        assert code == 0
        assert "converged" in output


class TestDesignFile:
    def test_simulate_from_design_spec(self, tmp_path):
        from repro.systems.examples import diamond_design
        from repro.systems.specio import dumps_design

        spec = str(tmp_path / "design.json")
        with open(spec, "w", encoding="utf-8") as handle:
            handle.write(dumps_design(diamond_design()))
        out = str(tmp_path / "t.log")
        code, output = run_cli(
            "simulate", "file", "--design-file", spec,
            "--periods", "4", "--out", out,
        )
        assert code == 0
        assert len(read_trace(out)) == 4

    def test_file_without_spec_errors(self, tmp_path):
        out = str(tmp_path / "t.log")
        code, output = run_cli("simulate", "file", "--out", out)
        assert code == 2
        assert "design-file" in output


class TestCoverage:
    def test_exhaustive_trace(self, tmp_path):
        from repro.systems.examples import pipeline_design
        from repro.systems.specio import dumps_design

        spec = str(tmp_path / "design.json")
        with open(spec, "w", encoding="utf-8") as handle:
            handle.write(dumps_design(pipeline_design(3)))
        trace = str(tmp_path / "t.log")
        run_cli("simulate", "pipeline", "--periods", "3", "--out", trace)
        # pipeline CLI design has 5 stages; build matching spec instead:
        with open(spec, "w", encoding="utf-8") as handle:
            from repro.systems.examples import pipeline_design as pd

            handle.write(dumps_design(pd(5)))
        code, output = run_cli(
            "coverage", trace, "--design-file", spec
        )
        assert code == 0
        assert "exhaustive: True" in output

    def test_incomplete_trace_exits_nonzero(self, tmp_path):
        from repro.systems.examples import diamond_design
        from repro.systems.specio import dumps_design

        spec = str(tmp_path / "design.json")
        with open(spec, "w", encoding="utf-8") as handle:
            handle.write(dumps_design(diamond_design()))
        trace = str(tmp_path / "t.log")
        # One period cannot cover both branch choices of the diamond.
        run_cli("simulate", "diamond", "--periods", "1", "--out", trace,
                "--period-length", "40")
        code, output = run_cli("coverage", trace, "--design-file", spec)
        assert code == 1
        assert "exhaustive: False" in output


class TestFormatInference:
    """--format omitted: the registry infers from the file extension."""

    @pytest.mark.parametrize(
        "suffix,expected", [(".log", "text"), (".txt", "text"),
                            (".trace", "text"), (".csv", "csv"),
                            (".json", "json")]
    )
    def test_simulate_infers_output_format(self, tmp_path, suffix, expected):
        from repro.trace.formats import get_format

        path = str(tmp_path / f"t{suffix}")
        code, _ = run_cli(
            "simulate", "simple", "--periods", "2", "--out", path
        )
        assert code == 0
        loaded = get_format(expected).read(path)
        assert len(loaded) == 2

    def test_unknown_extension_defaults_to_text(self, tmp_path):
        path = str(tmp_path / "t.dat")
        code, _ = run_cli(
            "simulate", "simple", "--periods", "2", "--out", path
        )
        assert code == 0
        assert len(read_trace(path)) == 2

    def test_explicit_format_wins_over_extension(self, tmp_path):
        path = str(tmp_path / "t.json")
        code, _ = run_cli(
            "simulate", "simple", "--periods", "2", "--out", path,
            "--format", "csv",
        )
        assert code == 0
        with open(path, encoding="utf-8") as handle:
            first = handle.readline()
        assert first.startswith("period,")  # CSV header, not JSON

    def test_learn_reads_inferred_format(self, tmp_path):
        path = str(tmp_path / "t.csv")
        run_cli("simulate", "simple", "--periods", "6", "--out", path)
        code, output = run_cli("learn", path, "--bound", "8")
        assert code == 0
        assert "algorithm" in output


class TestEverySubcommandEveryFormat:
    """Round-trip each subcommand through each registered format."""

    @pytest.fixture(params=["text", "csv", "json"])
    def fmt(self, request):
        return request.param

    @pytest.fixture
    def formatted_trace(self, tmp_path, fmt):
        path = str(tmp_path / f"trace.{fmt}x")  # neutral extension
        code, _ = run_cli(
            "simulate", "simple", "--periods", "10", "--seed", "3",
            "--out", path, "--format", fmt,
        )
        assert code == 0
        return path

    def test_validate(self, formatted_trace, fmt):
        code, output = run_cli(
            "validate", formatted_trace, "--format", fmt
        )
        assert code == 0
        assert "0 errors" in output

    def test_learn(self, formatted_trace, fmt):
        code, output = run_cli(
            "learn", formatted_trace, "--format", fmt, "--bound", "8"
        )
        assert code == 0
        assert "heuristic" in output

    def test_monitor(self, formatted_trace, fmt, tmp_path):
        model = str(tmp_path / "m.json")
        run_cli("learn", formatted_trace, "--format", fmt, "--bound", "8",
                "--model-json", model, "--quiet")
        code, output = run_cli(
            "monitor", formatted_trace, "--format", fmt, "--model", model
        )
        assert code == 0
        assert "0 anomalous" in output

    def test_analyze(self, formatted_trace, fmt):
        code, output = run_cli(
            "analyze", formatted_trace, "--format", fmt
        )
        assert code == 0
        assert "operation modes" in output

    def test_coverage(self, formatted_trace, fmt, tmp_path):
        from repro.systems.examples import simple_four_task_design
        from repro.systems.specio import dumps_design

        spec = str(tmp_path / "design.json")
        with open(spec, "w", encoding="utf-8") as handle:
            handle.write(dumps_design(simple_four_task_design()))
        code, output = run_cli(
            "coverage", formatted_trace, "--format", fmt,
            "--design-file", spec,
        )
        assert code in (0, 1)
        assert "signature coverage" in output

    def test_simulate_round_trips(self, formatted_trace, fmt):
        from repro.trace.formats import get_format

        loaded = get_format(fmt).read(formatted_trace)
        assert len(loaded) == 10


class TestUnknownFormat:
    def test_registry_error_path(self, trace_file):
        """Below argparse: the pipeline rejects unregistered names."""
        from repro.pipeline import PipelineConfig, run_pipeline
        from repro.trace.formats import UnknownFormatError

        with pytest.raises(UnknownFormatError, match="yaml"):
            run_pipeline(
                PipelineConfig(source=trace_file, format="yaml", bound=4)
            )

    def test_format_choices_track_registry(self):
        from repro.cli import _build_parser
        from repro.trace.formats import format_names

        parser = _build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["learn", "t.log", "--format", "nope"])
        for name in format_names():
            args = parser.parse_args(["learn", "t.log", "--format", name])
            assert args.format == name


class TestWorkers:
    def test_workers_flag_learns(self, trace_file):
        code, output = run_cli(
            "learn", trace_file, "--bound", "8", "--workers", "2"
        )
        assert code == 0
        assert "workers=2" in output

    def test_workers_one_output_matches_sequential(self, trace_file):
        import re

        seq_code, seq_out = run_cli("learn", trace_file, "--bound", "8")
        par_code, par_out = run_cli(
            "learn", trace_file, "--bound", "8", "--workers", "1"
        )
        assert seq_code == par_code == 0
        # Identical modulo wall-clock jitter in the elapsed-seconds line.
        normalize = lambda text: re.sub(r"\d+\.\d+ s", "_ s", text)
        assert normalize(seq_out) == normalize(par_out)

    def test_workers_without_bound_is_an_error(self, trace_file):
        code, output = run_cli("learn", trace_file, "--workers", "2")
        assert code == 2
        assert "bound" in output


class TestHotLoopFlag:
    def test_prints_stage_timings(self, trace_file):
        code, output = run_cli(
            "learn", trace_file, "--bound", "8", "--hot-loop", "--quiet"
        )
        assert code == 0
        assert "pipeline stages:" in output
        assert "ingest" in output
        assert "hot loop" in output



class TestImportBoundary:
    """Each command imports only the code it runs."""

    def test_exact_learn(self, trace_file, tmp_path):
        code, _, modules = run_fresh(
            "learn", trace_file, "--quiet",
            "--model-json", str(tmp_path / "m.json"))
        assert code == 0
        assert off_path_modules(modules) == []

    def test_bounded_learn(self, trace_file, tmp_path):
        code, _, modules = run_fresh(
            "learn", trace_file, "--bound", "8", "--quiet",
            "--model-json", str(tmp_path / "m.json"))
        assert code == 0
        assert off_path_modules(modules) == []
        # The string learner is the test oracle, not a bounded-learn helper.
        assert "repro.core.reference" not in modules

    def test_ingest_and_store_info(self, trace_file, tmp_path):
        store = str(tmp_path / "t.rts")
        code, _, modules = run_fresh("ingest", trace_file, "-o", store)
        assert code == 0
        assert off_path_modules(modules) == []
        code, output, modules = run_fresh("store-info", store)
        assert code == 0
        assert "periods: 15" in output
        assert off_path_modules(modules) == []

    def test_lint_list_rules_loads_every_rule(self):
        code, output, modules = run_fresh("lint", "--list-rules")
        assert code == 0
        codes = [line.split()[0] for line in output.splitlines()
                 if line.startswith("RL")]
        assert codes == [f"RL00{n}" for n in range(1, 9)]
        assert "repro.devtools.lint.engine" in modules

    def test_simulate_loads_the_simulator(self, tmp_path):
        code, output, modules = run_fresh(
            "simulate", "gm", "--periods", "4", "--out", "t.log",
            cwd=str(tmp_path))
        assert code == 0
        assert "wrote 4 periods" in output
        assert len(read_trace(str(tmp_path / "t.log"))) == 4
        assert "repro.sim.simulator" in modules
