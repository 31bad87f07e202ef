"""Scale-sweep machinery: bench smoke, determinism, streaming equivalence.

The full ``repro bench scale`` sweep (10^4 -> 10^6 tuples) runs in CI;
these tests exercise the same code paths at toy sizes so a regression in
the harness, the generator's determinism contract, or the streaming
semi-join is caught in seconds, not minutes.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.bench.scale import run_scale_bench
from repro.core.debugger import NonAnswerDebugger
from repro.datasets.dblife import (
    DBLifeConfig,
    SyntheticGenerator,
    dblife_database,
    scale_for_tuples,
)
from repro.relational.engine import InMemoryEngine


class TestScaleBench:
    @pytest.fixture(scope="class")
    def outcome(self):
        return run_scale_bench(targets=(1_000, 3_000), seed=42)

    def test_signatures_match_across_backends(self, outcome):
        _, payload = outcome
        assert payload["gates"]["signatures_match"]
        for scale in payload["scales"].values():
            assert scale["signatures_match"]

    def test_payload_shape(self, outcome):
        table, payload = outcome
        assert payload["targets"] == [1_000, 3_000]
        assert set(payload["scales"]) == {"1000", "3000"}
        for scale in payload["scales"].values():
            assert set(scale["backends"]) == {"memory", "sqlite"}
            for cell in scale["backends"].values():
                assert cell["probes"] > 0
                assert cell["build_s"] >= 0.0
                assert cell["high_water_bytes"] >= cell["probe_high_water_bytes"]
        assert "passed" in payload
        rendered = table.render()
        assert "memory" in rendered and "sqlite" in rendered

    def test_gates_present(self, outcome):
        _, payload = outcome
        gates = payload["gates"]
        assert set(gates) >= {
            "signatures_match",
            "memory_ceiling",
            "memory_ceiling_ratio",
            "throughput_parity",
            "throughput_parity_ratio",
        }


class TestSyntheticDeterminism:
    """The generator's output is a pure function of its config.

    ``repro bench scale`` regenerates each snapshot per run and the
    sqlite index persists fingerprints across processes, so a generator
    that varied under hash randomization would silently invalidate every
    cached artifact.  The cross-process check spawns fresh interpreters
    with *different* ``PYTHONHASHSEED`` values and compares content
    fingerprints.
    """

    SNIPPET = (
        "from repro.datasets.dblife import DBLifeConfig, dblife_database;"
        "print(dblife_database(DBLifeConfig(seed=%d, scale=%d)).fingerprint())"
    )

    def _subprocess_fingerprint(self, seed: int, scale: int, hashseed: str) -> str:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath("src"), env.get("PYTHONPATH", "")]
        )
        result = subprocess.run(
            [sys.executable, "-c", self.SNIPPET % (seed, scale)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return result.stdout.strip()

    def test_same_config_same_snapshot_in_process(self):
        config = DBLifeConfig(seed=7, scale=2)
        first = SyntheticGenerator(config).generate()
        second = SyntheticGenerator(config).generate()
        assert first.fingerprint() == second.fingerprint()

    def test_cross_process_fingerprints_agree(self):
        local = dblife_database(DBLifeConfig(seed=7, scale=2)).fingerprint()
        assert self._subprocess_fingerprint(7, 2, "0") == local
        assert self._subprocess_fingerprint(7, 2, "12345") == local

    def test_scale_for_tuples_is_monotone(self):
        small = scale_for_tuples(5_000)
        large = scale_for_tuples(50_000)
        assert 1 <= small < large


class TestStreamingEquivalence:
    """The streamed semi-join classifies exactly like the classic path.

    ``materialization_cap=0`` forces *every* probe through the streaming
    path; the reports must match a plain in-memory run byte for byte.
    """

    QUERIES = ("Widom Trio", "DeRose VLDB", "Gray SIGMOD", "DeWitt tutorial")

    def _signatures(self, debugger):
        try:
            signatures = []
            for text in self.QUERIES:
                report = debugger.debug(text)
                assert report.traversal is not None
                signatures.append(report.traversal.classification_signature())
            return signatures
        finally:
            debugger.close()

    def test_forced_streaming_matches_classic(self, dblife_db):
        classic = self._signatures(
            NonAnswerDebugger(dblife_db, max_joins=2, use_lattice=False)
        )
        debugger = NonAnswerDebugger(
            dblife_db, max_joins=2, use_lattice=False, index_backend="sqlite"
        )
        # The sqlite index arms streaming; a cap of 0 forces every probe
        # through it.
        assert debugger.backend._streaming_source is debugger.index
        debugger.backend = InMemoryEngine(
            dblife_db,
            tuple_set_provider=debugger.index.tuple_set,
            streaming_source=debugger.index,
            materialization_cap=0,
        )
        streamed = self._signatures(debugger)
        assert streamed == classic
