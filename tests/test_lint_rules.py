"""Tests for repro-lint: rule fixtures, suppression, engine, CLI.

Each rule gets positive (violating), negative (clean) and suppressed
fixtures through :func:`repro.devtools.lint.engine.lint_source`, which
lets a test pick the module name (rules scope by module) and, for
RL005, the anchor set. A self-check at the end asserts the linter runs
clean on ``src/repro`` itself — the tree is the ultimate negative
fixture, and the check fails loudly if a violation ever lands.
"""

from __future__ import annotations

import io
import json
import textwrap
from pathlib import Path

from repro.devtools.lint.cli import main as lint_main
from repro.devtools.lint.engine import (
    discover_files,
    lint_paths,
    lint_source,
    module_name_for,
)
from repro.devtools.lint.registry import all_rules
from repro.devtools.lint.rules.rl005_anchors import extract_anchors
from repro.devtools.lint.suppressions import scan_suppressions

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_REPRO = REPO_ROOT / "src" / "repro"


def lint(source: str, **kwargs):
    return lint_source(textwrap.dedent(source), **kwargs)


def active(findings, rule=None):
    return [
        f
        for f in findings
        if not f.suppressed and (rule is None or f.rule == rule)
    ]


class TestRL001Determinism:
    MODULE = "repro.core.result"

    def test_for_loop_over_set_flagged(self):
        findings = lint(
            """
            def render(items):
                for item in set(items):
                    print(item)
            """,
            module=self.MODULE,
        )
        assert len(active(findings, "RL001")) == 1
        assert "sorted" in active(findings, "RL001")[0].message

    def test_comprehension_over_values_flagged(self):
        findings = lint(
            """
            def render(table):
                return [len(v) for v in table.values()]
            """,
            module=self.MODULE,
        )
        assert len(active(findings, "RL001")) == 1

    def test_local_name_bound_to_set_flagged(self):
        findings = lint(
            """
            def render(items):
                seen = set(items)
                return ", ".join(seen)
            """,
            module=self.MODULE,
        )
        assert len(active(findings, "RL001")) == 1

    def test_sorted_iteration_clean(self):
        findings = lint(
            """
            def render(items):
                for item in sorted(set(items)):
                    print(item)
                return ", ".join(sorted(items.values()))
            """,
            module=self.MODULE,
        )
        assert active(findings, "RL001") == []

    def test_order_insensitive_reducer_clean(self):
        findings = lint(
            """
            def width(table):
                return max(len(v) for v in table.values())
            """,
            module=self.MODULE,
        )
        assert active(findings, "RL001") == []

    def test_non_output_module_not_checked(self):
        findings = lint(
            """
            def helper(items):
                for item in set(items):
                    print(item)
            """,
            module="repro.core.stats",
        )
        assert active(findings, "RL001") == []

    def test_suppression_keeps_finding_marked(self):
        findings = lint(
            """
            def render(items):
                for item in set(items):  # repro-lint: ignore[RL001]
                    print(item)
            """,
            module=self.MODULE,
        )
        rl001 = [f for f in findings if f.rule == "RL001"]
        assert len(rl001) == 1
        assert rl001[0].suppressed
        assert active(findings, "RL001") == []


class TestRL002HotLoopPurity:
    KERNEL = "repro.core.exact"

    def test_undecorated_kernel_loop_flagged(self):
        findings = lint(
            """
            def merge(masks):
                out = 0
                for mask in masks:
                    out |= mask
                return out
            """,
            module=self.KERNEL,
        )
        assert len(active(findings, "RL002")) == 1
        assert "not marked @hot_loop" in active(findings, "RL002")[0].message

    def test_decorated_kernel_loop_clean(self):
        findings = lint(
            """
            from repro.core.instrumentation import hot_loop

            @hot_loop
            def merge(masks):
                out = 0
                for mask in masks:
                    out |= mask
                return out
            """,
            module=self.KERNEL,
        )
        assert active(findings, "RL002") == []

    def test_loopless_kernel_function_needs_no_marker(self):
        findings = lint(
            """
            def pair_bit(index):
                return 1 << index
            """,
            module=self.KERNEL,
        )
        assert active(findings, "RL002") == []

    def test_decode_call_in_hot_loop_flagged_anywhere(self):
        findings = lint(
            """
            @hot_loop
            def report(table, mask):
                return table.pairs_of(mask)
            """,
            module="repro.analysis.report",
        )
        assert len(active(findings, "RL002")) == 1
        assert "pairs_of" in active(findings, "RL002")[0].message

    def test_fstring_and_set_in_loop_flagged(self):
        findings = lint(
            """
            @hot_loop
            def absorb(masks):
                out = []
                for mask in masks:
                    out.append(f"mask={mask}")
                    seen = frozenset([mask])
                return out
            """,
            module=self.KERNEL,
        )
        messages = [f.message for f in active(findings, "RL002")]
        assert any("f-string" in m for m in messages)
        assert any("frozenset" in m for m in messages)

    def test_raise_path_exempt(self):
        findings = lint(
            """
            @hot_loop
            def absorb(masks, cap):
                for mask in masks:
                    if mask > cap:
                        raise ValueError(f"mask {mask} over cap")
            """,
            module=self.KERNEL,
        )
        assert active(findings, "RL002") == []

    def test_standalone_suppression_covers_def(self):
        findings = lint(
            """
            # repro-lint: ignore[RL002]
            def decode_all(table, masks):
                return [table.pairs_of(m) for m in masks]
            """,
            module=self.KERNEL,
        )
        assert active(findings, "RL002") == []

    def test_batch_module_is_a_kernel_module(self):
        findings = lint(
            """
            def fold(columns):
                out = 0
                for column in columns:
                    out |= column
                return out
            """,
            module="repro.core.batch",
        )
        assert len(active(findings, "RL002")) == 1
        assert "not marked @hot_loop" in active(findings, "RL002")[0].message


class TestRL003Boundary:
    OUTSIDE = "repro.analysis.modes"

    def test_kernel_import_flagged(self):
        findings = lint(
            """
            from repro.core.interning import TaskTable
            """,
            module=self.OUTSIDE,
        )
        assert len(active(findings, "RL003")) >= 1

    def test_mask_attribute_flagged(self):
        findings = lint(
            """
            def peek(hypothesis):
                return hypothesis.mask
            """,
            module=self.OUTSIDE,
        )
        assert len(active(findings, "RL003")) == 1
        assert ".mask" in active(findings, "RL003")[0].message

    def test_kernel_class_name_flagged(self):
        findings = lint(
            """
            def build(tasks):
                return PairSet(tasks)
            """,
            module=self.OUTSIDE,
        )
        assert len(active(findings, "RL003")) == 1

    def test_core_module_allowed(self):
        findings = lint(
            """
            from repro.core.interning import TaskTable

            def build(tasks):
                return TaskTable(tasks).mask_of([])
            """,
            module="repro.core.sharded",
        )
        assert active(findings, "RL003") == []

    def test_string_pair_api_clean(self):
        findings = lint(
            """
            def pairs(result):
                return sorted(result.model.nonparallel_pairs())
            """,
            module=self.OUTSIDE,
        )
        assert active(findings, "RL003") == []

    def test_batch_bulk_op_flagged_outside_core(self):
        findings = lint(
            """
            def widths(masks):
                return pack_masks(masks, 2)
            """,
            module=self.OUTSIDE,
        )
        assert len(active(findings, "RL003")) == 1
        assert "bulk mask op" in active(findings, "RL003")[0].message

    def test_batch_bulk_op_allowed_inside_core(self):
        findings = lint(
            """
            from repro.core.batch import pack_masks

            def widths(masks):
                return pack_masks(masks, 2)
            """,
            module="repro.core.heuristic",
        )
        assert active(findings, "RL003") == []

    def test_suppression(self):
        findings = lint(
            """
            def peek(hypothesis):
                return hypothesis.mask  # repro-lint: ignore[RL003]
            """,
            module=self.OUTSIDE,
        )
        rl003 = [f for f in findings if f.rule == "RL003"]
        assert len(rl003) == 1 and rl003[0].suppressed


class TestRL004PickleSafety:
    def test_lambda_submit_flagged(self):
        findings = lint(
            """
            from concurrent.futures import ProcessPoolExecutor

            def run(shards):
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(lambda s: s, shard) for shard in shards]
            """,
        )
        assert len(active(findings, "RL004")) == 1

    def test_nested_def_submit_flagged(self):
        findings = lint(
            """
            from concurrent.futures import ProcessPoolExecutor

            def run(shards):
                def work(shard):
                    return shard
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(work, shards))
            """,
        )
        assert len(active(findings, "RL004")) == 1
        assert "nested function" in active(findings, "RL004")[0].message

    def test_lambda_bound_name_flagged(self):
        findings = lint(
            """
            from concurrent.futures import ProcessPoolExecutor

            def run(shards):
                work = lambda s: s
                pool = ProcessPoolExecutor()
                return [pool.submit(work, s) for s in shards]
            """,
        )
        assert len(active(findings, "RL004")) == 1

    def test_lambda_in_argument_list_flagged(self):
        findings = lint(
            """
            from concurrent.futures import ProcessPoolExecutor

            def run(shard, work):
                with ProcessPoolExecutor() as pool:
                    return pool.submit(work, shard, key=lambda s: s)
            """,
        )
        assert len(active(findings, "RL004")) == 1
        assert "argument list" in active(findings, "RL004")[0].message

    def test_module_level_function_clean(self):
        findings = lint(
            """
            from concurrent.futures import ProcessPoolExecutor

            def work(shard):
                return shard

            def run(shards):
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(work, s) for s in shards]
            """,
        )
        assert active(findings, "RL004") == []

    def test_annotated_pool_parameter_resolved(self):
        """The runtime's resubmission helpers receive their pool as an
        annotated parameter; lambdas crossing that boundary are flagged."""
        findings = lint(
            """
            from concurrent.futures import ProcessPoolExecutor

            def resubmit(pool: ProcessPoolExecutor, job):
                return pool.submit(lambda j: j, job)
            """,
        )
        assert len(active(findings, "RL004")) == 1

    def test_pool_factory_return_annotation_resolved(self):
        """The retry-resubmission path: a shard is resubmitted onto a
        pool rebuilt by a factory. The factory's return annotation is
        what ties the local name to a process pool."""
        findings = lint(
            """
            from concurrent.futures import ProcessPoolExecutor

            def rebuild() -> ProcessPoolExecutor | None:
                return ProcessPoolExecutor()

            def retry(job):
                pool = rebuild()
                return pool.submit(lambda j: j, job)
            """,
        )
        assert len(active(findings, "RL004")) == 1

    def test_retry_resubmission_with_module_worker_clean(self):
        """The clean shape of the retry path — module-level worker,
        plain data arguments — is not flagged."""
        findings = lint(
            """
            from concurrent.futures import ProcessPoolExecutor

            def work(args):
                return args

            def rebuild() -> "ProcessPoolExecutor":
                return ProcessPoolExecutor()

            def retry(jobs):
                pool = rebuild()
                inflight = {}
                while jobs:
                    job = jobs.pop()
                    inflight[pool.submit(work, job)] = job
                return inflight
            """,
        )
        assert active(findings, "RL004") == []

    def test_attribute_bound_pool_resolved(self):
        findings = lint(
            """
            from concurrent.futures import ProcessPoolExecutor

            class Runtime:
                def start(self, jobs):
                    self._pool = ProcessPoolExecutor()
                    return [self._pool.submit(lambda j: j, j) for j in jobs]
            """,
        )
        assert len(active(findings, "RL004")) == 1

    def test_thread_pool_not_checked(self):
        findings = lint(
            """
            from concurrent.futures import ThreadPoolExecutor

            def run(shards):
                with ThreadPoolExecutor() as pool:
                    return [pool.submit(lambda s: s, s) for s in shards]
            """,
        )
        assert active(findings, "RL004") == []

    def test_suppression(self):
        findings = lint(
            """
            from concurrent.futures import ProcessPoolExecutor

            def run(shards):
                with ProcessPoolExecutor() as pool:
                    # repro-lint: ignore[RL004]
                    return pool.submit(lambda s: s, shards)
            """,
        )
        rl004 = [f for f in findings if f.rule == "RL004"]
        assert len(rl004) == 1 and rl004[0].suppressed


class TestRL005Anchors:
    ANCHORS = frozenset({"Definition 8", "Theorem 2", "Lemma"})

    def test_unknown_citation_flagged(self):
        findings = lint(
            '''
            def weight(d):
                """Heuristic weight (paper Definition 99)."""
            ''',
            anchors=self.ANCHORS,
        )
        assert len(active(findings, "RL005")) == 1
        assert "Definition 99" in active(findings, "RL005")[0].message

    def test_known_citations_clean(self):
        findings = lint(
            '''
            """Module doc citing Theorem 2 and the Lemma."""

            def weight(d):
                """Definition 8 weight."""
            ''',
            anchors=self.ANCHORS,
        )
        assert active(findings, "RL005") == []

    def test_finding_line_points_into_docstring(self):
        findings = lint(
            '''
            def weight(d):
                """Heuristic weight.

                Justified by Theorem 7.
                """
            ''',
            anchors=self.ANCHORS,
        )
        (finding,) = active(findings, "RL005")
        assert finding.line == 5

    def test_no_anchor_set_skips_rule(self):
        findings = lint(
            '''
            def weight(d):
                """Heuristic weight (paper Definition 99)."""
            ''',
            anchors=None,
        )
        assert active(findings, "RL005") == []

    def test_extract_anchors_reads_plural_ranges(self):
        anchors = extract_anchors(
            "Definition 8 holds; Theorems 2 and 3 follow from the Lemma."
        )
        assert "Definition 8" in anchors
        assert "Theorem 2" in anchors
        assert "Lemma" in anchors

    def test_design_md_resolves_every_citation_in_src(self):
        anchors = extract_anchors(
            (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
        )
        for needed in ["Definition 5", "Definition 8", "Theorem 3", "Lemma"]:
            assert needed in anchors


class TestRL006Columnar:
    OUTSIDE = "repro.analysis.modes"

    def test_mmap_import_flagged(self):
        findings = lint(
            """
            import mmap

            def window(path):
                return mmap.mmap(-1, 4096)
            """,
            module=self.OUTSIDE,
        )
        assert len(active(findings, "RL006")) == 1
        assert "open_store" in active(findings, "RL006")[0].message

    def test_mmap_from_import_flagged(self):
        findings = lint(
            """
            from mmap import ACCESS_READ
            """,
            module=self.OUTSIDE,
        )
        assert len(active(findings, "RL006")) == 1

    def test_column_accessor_flagged(self):
        findings = lint(
            """
            def raw_times(periods):
                return periods.times_view()
            """,
            module=self.OUTSIDE,
        )
        assert len(active(findings, "RL006")) == 1
        assert ".times_view" in active(findings, "RL006")[0].message

    def test_subject_interning_flagged(self):
        findings = lint(
            """
            def code_for(label, table, index_of):
                return encode_subject(label, table, index_of)
            """,
            module=self.OUTSIDE,
        )
        assert len(active(findings, "RL006")) == 1

    def test_columnar_modules_allowed(self):
        source = """
            import mmap

            def window(view):
                return view.offsets_view()
            """
        for module in ("repro.trace.store", "repro.trace.columnar"):
            findings = lint(source, module=module)
            assert active(findings, "RL006") == []

    def test_period_iteration_clean(self):
        findings = lint(
            """
            def message_times(store_trace):
                return [
                    event.time
                    for period in store_trace.periods
                    for event in period.events
                ]
            """,
            module=self.OUTSIDE,
        )
        assert active(findings, "RL006") == []


class TestRL007WireFraming:
    OUTSIDE = "repro.core.sharded"

    def test_framing_module_import_flagged(self):
        findings = lint(
            """
            from repro.distributed.framing import encode_frame

            def ship(payload):
                return encode_frame(payload)
            """,
            module=self.OUTSIDE,
        )
        assert len(active(findings, "RL007")) == 1
        assert "framing module" in active(findings, "RL007")[0].message

    def test_reexported_framing_name_flagged(self):
        findings = lint(
            """
            from repro.distributed import decode_frame
            """,
            module=self.OUTSIDE,
        )
        assert len(active(findings, "RL007")) == 1
        assert "decode_frame" in active(findings, "RL007")[0].message

    def test_homegrown_pickle_over_socket_flagged(self):
        findings = lint(
            """
            import pickle
            import socket

            def push(sock, payload):
                sock.sendall(pickle.dumps(payload))
            """,
            module=self.OUTSIDE,
        )
        assert len(active(findings, "RL007")) == 1
        assert "second framing layer" in active(findings, "RL007")[0].message

    def test_coordinator_api_import_clean(self):
        findings = lint(
            """
            from repro.distributed import TcpExecutorFactory

            def make_factory(address, workers):
                return TcpExecutorFactory(address, workers=workers)
            """,
            module=self.OUTSIDE,
        )
        assert active(findings, "RL007") == []

    def test_distributed_modules_allowed(self):
        source = """
            import pickle
            import socket
            from repro.distributed.framing import send_frame
            """
        for module in ("repro.distributed.worker", "repro.distributed"):
            findings = lint(source, module=module)
            assert active(findings, "RL007") == []


class TestRL008AsyncConfinement:
    OUTSIDE = "repro.core.sharded"

    def test_asyncio_import_flagged(self):
        findings = lint(
            """
            import asyncio

            def run(coro):
                return asyncio.run(coro)
            """,
            module=self.OUTSIDE,
        )
        assert len(active(findings, "RL008")) == 1
        assert "asyncio" in active(findings, "RL008")[0].message

    def test_asyncio_from_import_flagged(self):
        findings = lint(
            """
            from asyncio import get_event_loop
            """,
            module=self.OUTSIDE,
        )
        assert len(active(findings, "RL008")) == 1

    def test_coroutine_definition_flagged(self):
        findings = lint(
            """
            async def fetch(url):
                return url
            """,
            module=self.OUTSIDE,
        )
        assert len(active(findings, "RL008")) == 1
        assert "fetch" in active(findings, "RL008")[0].message

    def test_async_with_flagged_at_its_site(self):
        findings = lint(
            """
            async def guarded(lock):
                async with lock:
                    return 1
            """,
            module=self.OUTSIDE,
        )
        messages = [f.message for f in active(findings, "RL008")]
        assert any("async with" in m for m in messages)

    def test_synchronous_module_clean(self):
        findings = lint(
            """
            import threading

            def run(fn):
                thread = threading.Thread(target=fn)
                thread.start()
                return thread
            """,
            module=self.OUTSIDE,
        )
        assert active(findings, "RL008") == []

    def test_service_modules_allowed(self):
        source = """
            import asyncio

            async def serve():
                await asyncio.sleep(0)
            """
        for module in ("repro.service.server", "repro.service"):
            findings = lint(source, module=module)
            assert active(findings, "RL008") == []

    def test_suppressed_with_waiver(self):
        findings = lint(
            """
            import asyncio  # repro-lint: ignore[RL008]
            """,
            module=self.OUTSIDE,
        )
        assert active(findings, "RL008") == []


class TestSuppressionScanner:
    def test_same_line_and_next_line(self):
        index = scan_suppressions(
            "x = 1  # repro-lint: ignore[RL001]\n"
            "# repro-lint: ignore[RL002]\n"
            "y = 2\n"
        )
        assert index.is_suppressed("RL001", 1)
        assert index.is_suppressed("RL002", 3)
        assert not index.is_suppressed("RL001", 3)

    def test_comma_separated_codes(self):
        index = scan_suppressions("x = 1  # repro-lint: ignore[RL001, RL003]\n")
        assert index.is_suppressed("RL001", 1)
        assert index.is_suppressed("RL003", 1)
        assert not index.is_suppressed("RL002", 1)

    def test_file_wide_directive(self):
        index = scan_suppressions("# repro-lint: ignore-file[RL005]\nx = 1\n")
        assert index.is_suppressed("RL005", 999)
        assert not index.is_suppressed("RL001", 1)


class TestEngine:
    def test_module_name_for_src_layout(self):
        assert (
            module_name_for(Path("src/repro/core/exact.py"))
            == "repro.core.exact"
        )
        assert (
            module_name_for(Path("/x/y/src/repro/analysis/__init__.py"))
            == "repro.analysis"
        )

    def test_syntax_error_becomes_parse_finding(self):
        findings = lint_source("def broken(:\n")
        assert len(findings) == 1
        assert findings[0].rule == "PARSE"

    def test_discover_files_skips_pycache(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.py").write_text("x = 1\n")
        files = discover_files([tmp_path])
        assert [f.name for f in files] == ["a.py"]

    def test_registry_has_all_eight_rules(self):
        codes = [rule.code for rule in all_rules()]
        assert codes == [
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007",
            "RL008",
        ]

    def test_report_json_round_trip(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run(s):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return pool.submit(lambda: s)\n"
        )
        report = lint_paths([bad])
        data = json.loads(report.to_json())
        assert data["format"] == "repro-lint-report"
        assert data["summary"] == {"RL004": 1}
        assert data["findings"][0]["rule"] == "RL004"


class TestSelfCheck:
    def test_src_repro_is_lint_clean(self):
        report = lint_paths([SRC_REPRO])
        assert report.files_checked > 50
        assert report.active == [], "\n" + report.render()

    def test_waivers_are_recorded_not_lost(self):
        report = lint_paths([SRC_REPRO])
        assert all(f.suppressed for f in report.suppressed)
        assert all(f.rule == "RL002" for f in report.suppressed)


class TestCli:
    def run(self, *argv):
        out = io.StringIO()
        code = lint_main(list(argv), out=out)
        return code, out.getvalue()

    def test_clean_tree_exits_zero(self):
        code, output = self.run(str(SRC_REPRO))
        assert code == 0
        assert "0 finding(s)" in output

    def test_findings_exit_one(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def run(s):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return pool.submit(lambda: s)\n"
        )
        code, output = self.run(str(bad))
        assert code == 1
        assert "RL004" in output

    def test_json_artifact_written(self, tmp_path):
        artifact = tmp_path / "report.json"
        code, _ = self.run(str(SRC_REPRO), "--json", str(artifact))
        assert code == 0
        data = json.loads(artifact.read_text())
        assert data["findings"] == []
        assert data["files_checked"] > 50

    def test_missing_path_exits_two(self, tmp_path):
        code, output = self.run(str(tmp_path / "nope"))
        assert code == 2
        assert "no such path" in output

    def test_list_rules_names_all_codes(self):
        code, output = self.run("--list-rules")
        assert code == 0
        for rule_code in [
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007",
            "RL008",
        ]:
            assert rule_code in output

    def test_quiet_prints_summary_only(self):
        code, output = self.run(str(SRC_REPRO), "--quiet")
        assert code == 0
        assert len(output.strip().splitlines()) == 1

    def test_repro_cli_mounts_lint_subcommand(self):
        from repro.cli import main as repro_main

        out = io.StringIO()
        code = repro_main(["lint", str(SRC_REPRO), "--quiet"], out=out)
        assert code == 0
        assert "finding(s)" in out.getvalue()
