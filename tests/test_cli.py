"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_debug_defaults(self):
        args = build_parser().parse_args(["debug", "red candle"])
        assert args.dataset == "products"
        assert args.strategy == "sbh"
        assert args.level == 3

    def test_bench_choices(self):
        args = build_parser().parse_args(["bench", "fig11"])
        assert args.experiment == "fig11"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "fig99"])

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "red candle"])
        assert args.strategy == "sbh"
        assert args.budget_queries == 0
        assert args.budget_simulated == 0.0
        assert args.output is None
        assert not args.summary

    def test_trace_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "red candle", "--strategy", "xx"])

    def test_serve_workers_default_and_validation(self):
        args = build_parser().parse_args(["serve"])
        assert args.workers == 4
        args = build_parser().parse_args(["serve", "--workers", "2"])
        assert args.workers == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--workers", "many"])

    def test_debug_rejects_workers(self, capsys):
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(["debug", "red candle", "--workers", "2"])
        assert raised.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


class TestCommands:
    def test_debug_products(self, capsys):
        assert main(["debug", "saffron scented candle"]) == 0
        out = capsys.readouterr().out
        assert "non-answer queries" in out
        assert "maximal alive sub-query" in out

    def test_debug_with_strategy_and_direct(self, capsys):
        assert main(["debug", "red candle", "--strategy", "tdwr", "--direct"]) == 0
        assert "answer queries" in capsys.readouterr().out

    def test_search_answers(self, capsys):
        assert main(["search", "scented candle"]) == 0
        assert "Classic KWS-S" in capsys.readouterr().out

    def test_search_non_answer(self, capsys):
        assert main(["search", "pink scented"]) == 0
        assert "No results found!" in capsys.readouterr().out

    def test_inspect(self, capsys):
        assert main(["inspect", "--dataset", "products"]) == 0
        out = capsys.readouterr().out
        assert "4 tables" in out
        assert "inverted index" in out

    def test_bench_small(self, capsys):
        assert main(["bench", "fig9a", "--scale", "1", "--level", "3"]) == 0
        assert "Figure 9(a)" in capsys.readouterr().out

    def test_debug_dblife(self, capsys):
        assert (
            main(["debug", "Gray SIGMOD", "--dataset", "dblife", "--direct"]) == 0
        )
        assert "answer queries" in capsys.readouterr().out

    def test_debug_diagnose_and_rank(self, capsys):
        assert main(
            ["debug", "saffron scented candle", "--diagnose", "--rank"]
        ) == 0
        out = capsys.readouterr().out
        assert "breaks at:" in out
        assert "Prioritized explanations" in out

    def test_debug_save_report(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        assert main(["debug", "red candle", "--save-report", str(path)]) == 0
        assert path.exists()
        assert "report saved" in capsys.readouterr().out

    def test_debug_free_copies(self, capsys):
        assert main(
            ["debug", "saffron scented candle", "--direct", "--free-copies", "2"]
        ) == 0
        assert "answer queries" in capsys.readouterr().out


class TestTooManyKeywords:
    """Four keywords at level 3: one stderr line, exit 2, debugger closed."""

    @pytest.mark.parametrize("command", ["debug", "trace"])
    @pytest.mark.parametrize("mode", [[], ["--direct"]], ids=["lattice", "direct"])
    def test_exits_two_with_one_line(self, capsys, monkeypatch, command, mode):
        from repro.core.debugger import NonAnswerDebugger

        closed = []
        close = NonAnswerDebugger.close

        def recording_close(debugger):
            closed.append(debugger)
            close(debugger)

        monkeypatch.setattr(NonAnswerDebugger, "close", recording_close)
        assert main([command, "saffron scented candle red", *mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{command}: query has 4 keywords, but a join tree of at most 2 "
            f"joins binds at most 3; raise --level (max_joins + 1) to at least 4\n"
        )
        assert len(closed) == 1


class TestUnusableCache:
    """A ``cache.sqlite`` that is not a cache file: one stderr line, exit 2,
    and whatever the command built released."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["debug", "saffron scented candle"],
            ["trace", "saffron scented candle"],
            ["serve", "--port", "0"],
            ["cache", "stats"],
            ["cache", "clear"],
        ],
        ids=["debug", "trace", "serve", "cache-stats", "cache-clear"],
    )
    def test_exits_two_with_one_line(self, capsys, monkeypatch, tmp_path, argv):
        from repro.core.debugger import NonAnswerDebugger

        released = []
        release = NonAnswerDebugger._release

        def recording_release(debugger):
            released.append(debugger)
            release(debugger)

        monkeypatch.setattr(NonAnswerDebugger, "_release", recording_release)
        path = tmp_path / "cache.sqlite"
        path.write_text("not a cache file\n")
        assert main([*argv, "--cache-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{argv[0]}: ")
        assert str(path) in lines[0]
        assert "not a database" in lines[0]
        assert path.read_text() == "not a cache file\n"
        assert len(released) == (argv[0] != "cache")

    @pytest.mark.parametrize(
        "argv",
        [
            ["debug", "saffron scented candle"],
            ["debug", "saffron scented candle", "--index-backend", "sqlite"],
            ["trace", "saffron scented candle"],
            ["serve", "--port", "0"],
            ["cache", "stats"],
            ["cache", "clear"],
        ],
        ids=["debug", "debug-sqlite-index", "trace", "serve", "cache-stats",
             "cache-clear"],
    )
    def test_regular_file_as_cache_dir_exits_two(self, capsys, tmp_path, argv):
        path = tmp_path / "not-a-dir"
        path.write_text("one line\n")
        assert main([*argv, "--cache-dir", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"{argv[0]}: ")
        assert str(path) in lines[0]
        assert path.read_text() == "one line\n"


class TestBenchGateExitStatus:
    """The timing gates run as plain commands: the exit status is the gate."""

    @pytest.mark.parametrize(("passed", "code"), [(True, 0), (False, 1)])
    @pytest.mark.parametrize(
        ("argv", "runner"),
        [
            (["bench", "serve"], "repro.bench.serve.run_serve_bench"),
            (
                ["bench", "scale", "--tuples", "1000"],
                "repro.bench.scale.run_scale_bench",
            ),
        ],
        ids=["serve", "scale"],
    )
    def test_exit_status_follows_payload(
        self, monkeypatch, capsys, tmp_path, argv, runner, passed, code
    ):
        import json

        from repro.bench.tables import TextTable

        def fake_runner(*args, **kwargs):
            return TextTable("gate", ["passed"]), {"passed": passed}

        monkeypatch.setattr(runner, fake_runner)
        path = tmp_path / "bench.json"
        assert main(argv + ["--json", str(path)]) == code
        # The payload is still written for upload when the gate fails.
        assert json.loads(path.read_text()) == {"passed": passed}


class TestTraceCommand:
    def test_trace_stdout_is_valid_jsonl(self, capsys):
        from repro.obs.trace import validate_trace_lines

        assert main(["trace", "saffron scented candle"]) == 0
        captured = capsys.readouterr()
        counts = validate_trace_lines(captured.out.splitlines())
        assert counts["span"] > 0 and counts["event"] >= 2
        assert "trace:" in captured.err  # status stays off stdout

    def test_trace_output_file(self, capsys, tmp_path):
        from repro.obs.trace import validate_trace_file

        path = tmp_path / "trace.jsonl"
        assert main(
            ["trace", "saffron scented candle", "--output", str(path)]
        ) == 0
        counts = validate_trace_file(str(path))
        assert counts["span"] > 0
        assert "wrote" in capsys.readouterr().out

    def test_trace_span_count_matches_executed_queries(self, capsys):
        import json

        assert main(["trace", "saffron scented candle", "--strategy", "buwr"]) == 0
        records = [
            json.loads(line) for line in capsys.readouterr().out.splitlines()
        ]
        executed = sum(
            1 for r in records if r["kind"] == "span" and not r["cache_hit"]
        )
        end = next(r for r in records if r.get("name") == "traversal_end")
        assert executed == end["queries_executed"]

    def test_trace_budget_bounds_executions_and_reports(self, capsys):
        import json

        assert main(
            ["trace", "saffron scented candle", "--budget-queries", "1"]
        ) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        executed = [
            r for r in records if r["kind"] == "span" and not r["cache_hit"]
        ]
        assert len(executed) <= 1
        assert any(r.get("name") == "budget_exhausted" for r in records)
        assert "budget exhausted" in captured.err

    def test_trace_summary_tables(self, capsys):
        assert main(["trace", "saffron scented candle", "--summary"]) == 0
        err = capsys.readouterr().err
        assert "Probe spans by lattice level" in err
        assert "Probe spans by traversal strategy" in err

    def test_trace_dblife_direct(self, capsys):
        assert main(
            [
                "trace",
                "Gray SIGMOD",
                "--dataset",
                "dblife",
                "--direct",
                "--strategy",
                "tdwr",
            ]
        ) == 0
        assert "trace:" in capsys.readouterr().err

    def test_bench_trace_writes_jsonl(self, capsys, tmp_path):
        from repro.obs.trace import validate_trace_file

        path = tmp_path / "bench-trace.jsonl"
        assert main(
            ["bench", "fig11", "--scale", "1", "--level", "3", "--trace", str(path)]
        ) == 0
        counts = validate_trace_file(str(path))
        assert counts["span"] > 0 and counts["event"] >= 2
        assert "wrote" in capsys.readouterr().out


class TestLintCommand:
    def test_lint_clean_repo_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        assert "no diagnostics" in capsys.readouterr().out

    def test_lint_json_output(self, capsys):
        import json

        assert main(["lint", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["diagnostics"] == []

    def test_lint_dblife_lattice(self, capsys):
        assert main(["lint", "--dataset", "dblife", "--no-repo"]) == 0
        assert "no diagnostics" in capsys.readouterr().out

    def test_lint_layers_can_be_skipped(self, capsys):
        assert main(["lint", "--no-plan", "--no-repo"]) == 0
        capsys.readouterr()

    def test_lint_listed_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "lint" in capsys.readouterr().out

    def test_lint_corrupted_lattice_exits_nonzero_with_code(
        self, capsys, monkeypatch
    ):
        import json
        from dataclasses import replace

        import repro.analysis.runner as runner
        from repro.core.lattice import Lattice, generate_lattice
        from repro.relational.jointree import JoinTree, RelationInstance

        def corrupt_lattice(schema, max_joins, **kwargs):
            """One tree rebuilt, unvalidated, with an edge to a non-member."""
            lattice = generate_lattice(schema, max_joins, **kwargs)
            trees = list(lattice)
            position = next(i for i, tree in enumerate(trees) if tree.edges)
            victim = trees[position]
            edge = min(victim.edges, key=str)
            ghost = RelationInstance(edge.b.relation, lattice.max_keywords + 1)
            edges = (victim.edges - {edge}) | {replace(edge, b=ghost)}
            adjacency = {
                instance: tuple(e for e in edges if instance in (e.a, e.b))
                for instance in victim.instances
            }
            trees[position] = JoinTree._unchecked(
                victim.instances, frozenset(edges), adjacency
            )
            return Lattice.from_trees(
                schema,
                max_joins,
                trees,
                max_keywords=lattice.max_keywords,
                distinct_slots=lattice.distinct_slots,
                free_copies=lattice.free_copies,
            )

        monkeypatch.setattr(runner, "generate_lattice", corrupt_lattice)
        assert main(["lint", "--json", "--no-repo"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert {"PLAN001", "PLAN002"} <= {d["code"] for d in payload["diagnostics"]}


class TestLintContract:
    """Exit codes: 0 = clean, 1 = diagnostics, 2 = internal error."""

    def test_family_selection_runs_clean(self, capsys):
        assert main(["lint", "--no-plan", "--select", "CONC,RES"]) == 0
        assert "no diagnostics" in capsys.readouterr().out

    def test_unknown_family_is_internal_error(self, capsys):
        assert main(["lint", "--select", "BOGUS"]) == 2
        assert "internal error" in capsys.readouterr().err

    def test_crashing_pass_is_internal_error(self, capsys, monkeypatch):
        import repro.analysis.runner as runner

        def explode(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(runner, "lint_files", explode)
        assert main(["lint", "--no-plan"]) == 2
        assert "boom" in capsys.readouterr().err

    def test_findings_exit_one_with_valid_json(self, capsys, tmp_path):
        import json

        from repro.analysis import validate_lint_report

        bad = tmp_path / "repro" / "backends"
        bad.mkdir(parents=True)
        (bad / "leaky.py").write_text(
            "import threading\n\n"
            "def hold(lock: threading.Lock) -> None:\n"
            "    lock.acquire()\n"
            "    print(1)\n",
            encoding="utf-8",
        )
        assert (
            main(
                [
                    "lint", "--json", "--no-plan",
                    "--src-root", str(tmp_path),
                ]
            )
            == 1
        )
        payload = json.loads(capsys.readouterr().out)
        counts = validate_lint_report(payload)
        assert counts["errors"] == 1
        assert payload["diagnostics"][0]["code"] == "CONC002"

    def test_clean_json_passes_schema(self, capsys):
        import json

        from repro.analysis import LINT_REPORT_VERSION, validate_lint_report

        assert main(["lint", "--json", "--no-plan"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == LINT_REPORT_VERSION
        assert validate_lint_report(payload) == {"errors": 0, "warnings": 0}


class TestTraceCheck:
    """`repro trace check FILE` validates schema + runtime invariants."""

    @staticmethod
    def _write_trace(path, capsys, backend="memory"):
        assert (
            main(
                [
                    "trace", "saffron scented candle",
                    "--strategy", "buwr",
                    "--budget-queries", "50",
                    "--backend", backend,
                    "--output", str(path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        return path

    @pytest.fixture()
    def trace_file(self, tmp_path, capsys):
        return self._write_trace(tmp_path / "trace.jsonl", capsys)

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_fresh_trace_is_clean(self, backend, tmp_path, capsys):
        import json

        trace_file = self._write_trace(tmp_path / "trace.jsonl", capsys, backend)
        assert (
            main(
                [
                    "trace", "check", str(trace_file),
                    "--budget-queries", "50",
                ]
            )
            == 0
        )
        assert "0 invariant violation(s)" in capsys.readouterr().err
        if backend == "sqlite":
            # The pooled run ends with the event the pool-release
            # invariant reads: every connection checked back in.
            pool_events = [
                record
                for record in map(json.loads, trace_file.read_text().splitlines())
                if record["kind"] == "event" and record["name"] == "pool_stats"
            ]
            assert len(pool_events) == 1
            assert pool_events[0]["in_use"] == 0

    def test_violated_trace_exits_one(self, trace_file, capsys):
        import json

        records = [
            json.loads(line)
            for line in trace_file.read_text().splitlines()
            if line.strip()
        ]
        spans = [r for r in records if r["kind"] == "span"]
        assert len(spans) >= 2
        spans[-1]["budget_remaining"] = spans[0]["budget_remaining"] + 5
        trace_file.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        assert main(["trace", "check", str(trace_file)]) == 1
        captured = capsys.readouterr()
        assert "budget-monotone" in captured.out
        assert "1 invariant violation(s)" in captured.err

    def test_schema_error_exits_one(self, tmp_path, capsys):
        mangled = tmp_path / "bad.jsonl"
        mangled.write_text('{"kind": "span", "seq": 0}\n', encoding="utf-8")
        assert main(["trace", "check", str(mangled)]) == 1
        assert "schema error" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["trace", "check", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_check_without_path_exits_two(self, capsys):
        assert main(["trace", "check"]) == 2
        assert "missing trace file" in capsys.readouterr().err

    def test_path_with_non_check_query_exits_two(self, trace_file, capsys):
        assert main(["trace", "red candle", str(trace_file)]) == 2
        capsys.readouterr()


class TestCacheCommand:
    """`repro cache clear` forgets every answer: probed or inferred."""

    @staticmethod
    def _executed(cache_dir, capsys):
        """Backend queries one cached `repro debug` run executes."""
        import re

        argv = [
            "debug", "saffron scented candle",
            "--index-backend", "sqlite",
            "--cache-dir", str(cache_dir),
        ]
        assert main(argv) == 0
        match = re.search(r"SQL effort: (\d+) queries", capsys.readouterr().out)
        assert match is not None
        return int(match.group(1))

    @staticmethod
    def _stats(cache_dir, capsys):
        import json

        assert main(["cache", "stats", "--cache-dir", str(cache_dir), "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_clear_restores_the_cold_query_count(self, tmp_path, capsys):
        from repro.cache import CACHE_SCHEMA_VERSION

        cold = self._executed(tmp_path, capsys)
        assert cold > 0
        assert self._executed(tmp_path, capsys) == 0  # the saved facts answer
        stats = self._stats(tmp_path, capsys)
        assert set(stats) == {
            "path", "exists", "size_bytes", "schema_version", "entries",
            "relations",
        }
        assert stats["schema_version"] == CACHE_SCHEMA_VERSION
        # One row per classified query: the probes it executed and the
        # statuses it inferred.
        entries = stats["entries"]
        assert entries > cold
        assert sum(v["entries"] for v in stats["relations"].values()) == entries

        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert f"removed {entries} cached probe(s)" in capsys.readouterr().out
        stats = self._stats(tmp_path, capsys)
        assert stats["entries"] == 0
        assert (tmp_path / "index.sqlite").exists()  # holds no answers
        assert self._executed(tmp_path, capsys) == cold

    @pytest.mark.parametrize("version", [2, 3])
    def test_old_layout_reads_empty_and_clear_rebuilds_it(
        self, tmp_path, capsys, version
    ):
        """A file of another layout version holds rows no open would
        read: stats reports none and names the version, clear rebuilds."""
        import json

        from repro.cache import CACHE_SCHEMA_VERSION
        from tests.test_status_cache import write_old_cache

        relations = [["Item", "f", 1, 1, 0]]
        state = json.dumps({"composite": "c", "lineage": "l", "relations": relations})
        write_old_cache(tmp_path, version, state, [("k", 1, "Item")])
        stats = self._stats(tmp_path, capsys)
        assert stats["schema_version"] == version
        assert stats["entries"] == 0 and stats["relations"] == {}
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        assert f"layout version {version}, not {CACHE_SCHEMA_VERSION}" in (
            capsys.readouterr().out
        )

        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 0 cached probe(s)" in capsys.readouterr().out
        stats = self._stats(tmp_path, capsys)
        assert stats["schema_version"] == CACHE_SCHEMA_VERSION
        assert stats["entries"] == 0
