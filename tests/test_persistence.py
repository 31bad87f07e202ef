"""Tests for lattice and report persistence."""

import json

import pytest

from repro.core.binding import KeywordBinder
from repro.core.debugger import NonAnswerDebugger
from repro.core.lattice import Lattice
from repro.core.persistence import (
    PersistenceError,
    decode_query,
    decode_tree,
    encode_query,
    encode_tree,
    load_lattice,
    load_report,
    report_to_dict,
    save_lattice,
    save_report,
)
from repro.index.mapper import Interpretation
from repro.relational.jointree import RelationInstance


class TestTreeRoundtrip:
    def test_encode_decode(self, products_debugger):
        level3 = [tree for tree in products_debugger.lattice if tree.size == 3]
        for tree in level3[:20]:
            assert decode_tree(encode_tree(tree)) == tree

    def test_malformed_payload(self):
        with pytest.raises(PersistenceError):
            decode_tree({"instances": [["R"]], "edges": []})


class TestLatticeRoundtrip:
    def test_roundtrip_preserves_everything(self, products_debugger, tmp_path):
        lattice = products_debugger.lattice
        path = tmp_path / "lattice.json"
        save_lattice(lattice, path)
        loaded = load_lattice(path, lattice.schema)

        assert loaded.max_joins == lattice.max_joins
        assert loaded.max_keywords == lattice.max_keywords
        assert list(loaded) == list(lattice)
        assert loaded.stats.nodes_per_level == lattice.stats.nodes_per_level

    def test_loaded_lattice_answers_queries(self, products_db, products_debugger, tmp_path):
        from repro.core.debugger import NonAnswerDebugger

        path = tmp_path / "lattice.json"
        save_lattice(products_debugger.lattice, path)
        loaded = load_lattice(path, products_db.schema)
        debugger = NonAnswerDebugger(products_db, lattice=loaded)
        report = debugger.debug("saffron scented candle")
        baseline = products_debugger.debug("saffron scented candle")
        assert {q.describe() for q in report.non_answers()} == {
            q.describe() for q in baseline.non_answers()
        }

    def test_wrong_schema_rejected(self, products_debugger, dblife_db, tmp_path):
        path = tmp_path / "lattice.json"
        save_lattice(products_debugger.lattice, path)
        with pytest.raises(PersistenceError, match="different schema"):
            load_lattice(path, dblife_db.schema)

    def test_file_with_parent_links_still_loads(
        self, products_db, products_debugger, tmp_path
    ):
        """Files written while the lattice kept its Hasse-diagram edges
        carry each node's ``parents``; the loader ignores them."""
        lattice = products_debugger.lattice
        position = {tree: index for index, tree in enumerate(lattice)}
        parents = [[] for _ in position]
        for tree, index in position.items():
            for child in tree.child_subtrees():
                parents[position[child]].append(index)
        path = tmp_path / "lattice.json"
        save_lattice(lattice, path)
        payload = json.loads(path.read_text())
        for entry, links in zip(payload["nodes"], parents):
            entry["parents"] = sorted(links)
        path.write_text(json.dumps(payload))

        loaded = load_lattice(path, products_db.schema)
        assert list(loaded) == list(lattice)
        binder, reloaded = KeywordBinder(lattice), KeywordBinder(loaded)
        for interpretation in (
            Interpretation((("red", "Color"), ("candle", "ProductType"))),
            Interpretation((("saffron", "Item"), ("scented", "Item"))),
        ):
            assert (
                reloaded.prune(interpretation).retained
                == binder.prune(interpretation).retained
            )
        debugger = NonAnswerDebugger(products_db, lattice=loaded)
        report = debugger.debug("saffron scented candle")
        debugger.close()
        baseline = products_debugger.debug("saffron scented candle")
        assert [q.describe_full() for q in report.non_answers()] == [
            q.describe_full() for q in baseline.non_answers()
        ]

    def test_wrong_kind_rejected(self, tmp_path, products_db):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"kind": "nonsense", "format": 1}))
        with pytest.raises(PersistenceError):
            load_lattice(path, products_db.schema)

    def test_non_json_file_rejected(self, tmp_path, products_db):
        path = tmp_path / "lattice.json"
        path.write_text("{not json")
        with pytest.raises(PersistenceError, match="not valid JSON"):
            load_lattice(path, products_db.schema)

    def test_json_array_rejected(self, tmp_path, products_db):
        path = tmp_path / "lattice.json"
        path.write_text("[]")
        with pytest.raises(PersistenceError, match="not a JSON object"):
            load_lattice(path, products_db.schema)

    def test_missing_relations_rejected(self, products_debugger, products_db, tmp_path):
        path = tmp_path / "lattice.json"
        save_lattice(products_debugger.lattice, path)
        payload = json.loads(path.read_text())
        del payload["relations"]
        path.write_text(json.dumps(payload))
        with pytest.raises(PersistenceError, match="corrupt lattice file"):
            load_lattice(path, products_db.schema)


class TestReportExport:
    def test_report_dict_contents(self, products_debugger):
        report = products_debugger.debug("saffron scented candle")
        payload = report_to_dict(report)
        assert payload["query"] == "saffron scented candle"
        assert payload["mtn_count"] == 5
        assert len(payload["non_answers"]) == 4
        assert payload["sql_queries_executed"] > 0
        for entry in payload["non_answers"]:
            assert entry["mpans"], "every dead CN has at least one MPAN here"

    def test_aborted_report(self, products_debugger):
        payload = report_to_dict(products_debugger.debug("sofa"))
        assert payload["aborted"] is True
        assert "answers" not in payload

    def test_save_report_is_json(self, products_debugger, tmp_path):
        report = products_debugger.debug("red candle")
        path = tmp_path / "report.json"
        save_report(report, path)
        parsed = json.loads(path.read_text())
        assert parsed["kind"] == "debug_report"


class TestAtomicWrites:
    def test_no_temp_files_left_behind(self, products_debugger, tmp_path):
        save_lattice(products_debugger.lattice, tmp_path / "lattice.json")
        save_report(products_debugger.debug("red candle"), tmp_path / "r.json")
        names = {entry.name for entry in tmp_path.iterdir()}
        assert names == {"lattice.json", "r.json"}

    def test_overwrite_replaces_content(self, products_debugger, tmp_path):
        path = tmp_path / "report.json"
        save_report(products_debugger.debug("red candle"), path)
        save_report(products_debugger.debug("saffron scented candle"), path)
        assert json.loads(path.read_text())["query"] == "saffron scented candle"

    def test_failed_write_keeps_the_old_artifact(self, products_debugger, tmp_path):
        from repro.core import persistence

        path = tmp_path / "report.json"
        report = products_debugger.debug("red candle")
        save_report(report, path)
        before = path.read_text()

        class Unserializable:
            pass

        broken = report_to_dict(report)
        broken["oops"] = Unserializable()
        with pytest.raises(TypeError):
            persistence._atomic_write_text(
                path, json.dumps(broken)  # json.dumps raises before any write
            )
        assert path.read_text() == before
        assert list(tmp_path.iterdir()) == [path]


class TestFromParts:
    """:meth:`Lattice.from_trees`, the loader's constructor."""

    def test_rebuilds_identical_lattice(self, products_debugger):
        lattice = products_debugger.lattice
        rebuilt = Lattice.from_trees(
            lattice.schema,
            lattice.max_joins,
            lattice,
            max_keywords=lattice.max_keywords,
            distinct_slots=lattice.distinct_slots,
            free_copies=lattice.free_copies,
            stats=lattice.stats,
        )
        assert list(rebuilt) == list(lattice)
        bound = frozenset(RelationInstance("Item", slot) for slot in (1, 2))
        assert rebuilt.trees_within(bound) == lattice.trees_within(bound)

    def test_duplicate_tree_rejected(self, products_debugger):
        lattice = products_debugger.lattice
        tree = next(iter(lattice))
        with pytest.raises(ValueError, match="duplicate join tree"):
            Lattice.from_trees(lattice.schema, lattice.max_joins, [tree, tree])

    def test_corrupt_lattice_file_is_persistence_error(
        self, products_debugger, products_db, tmp_path
    ):
        path = tmp_path / "lattice.json"
        save_lattice(products_debugger.lattice, path)
        payload = json.loads(path.read_text())
        payload["nodes"][1] = payload["nodes"][0]  # duplicate a node
        path.write_text(json.dumps(payload))
        with pytest.raises(PersistenceError, match="corrupt lattice file"):
            load_lattice(path, products_db.schema)


class TestReportRoundtrip:
    def test_query_roundtrip(self, products_debugger):
        report = products_debugger.debug("saffron scented candle")
        for query in report.non_answers() + report.answers():
            assert decode_query(encode_query(query)) == query

    def test_malformed_query_payload(self):
        with pytest.raises(PersistenceError, match="malformed bound query"):
            decode_query({"bindings": [], "mode": "token"})  # no tree

    def test_load_report_roundtrip(self, products_debugger, tmp_path):
        report = products_debugger.debug("saffron scented candle")
        path = tmp_path / "report.json"
        save_report(report, path)
        loaded = load_report(path)
        assert loaded["query"] == "saffron scented candle"
        assert loaded["answers"] == report.answers()
        assert [entry["query"] for entry in loaded["non_answers"]] == (
            report.non_answers()
        )
        for entry, (_, mpans) in zip(
            loaded["non_answers"], report.explanations()
        ):
            assert entry["mpans"] == mpans

    def test_load_report_rejects_other_kinds(
        self, products_debugger, products_db, tmp_path
    ):
        path = tmp_path / "lattice.json"
        save_lattice(products_debugger.lattice, path)
        with pytest.raises(PersistenceError, match="not a v1 debug report"):
            load_report(path)

    def test_load_report_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "truncated.json"
        path.write_text(json.dumps({"kind": "debug_report", "format": 1}))
        with pytest.raises(PersistenceError, match="missing report field"):
            load_report(path)

    def test_load_report_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "debug_report"')
        with pytest.raises(PersistenceError, match="not valid JSON"):
            load_report(path)
