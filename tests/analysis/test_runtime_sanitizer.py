"""The runtime sanitizer catches each seeded violation, actionably.

Every test installs its own :class:`Sanitizer` (restoring the previous
monitor afterwards) so these seeded findings never leak into the
``REPRO_SANITIZE=1`` plugin's global run.
"""

from __future__ import annotations

import contextlib
import importlib.util
import os
import threading
import time

import pytest

from repro.analysis import runtime
from repro.analysis.runtime.contracts import ContractRegistry
from repro.analysis.runtime.locks import SanitizedLock, find_cycles
from repro.analysis.runtime.sanitizer import Sanitizer
from repro.common.locks import install_monitor

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "runtime_seeded.py")


def _load_fixture_module():
    """A fresh copy of the seeded-violation module (fresh classes)."""
    spec = importlib.util.spec_from_file_location("runtime_seeded", FIXTURE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def seeded_sanitizer():
    """(sanitizer, fixture_module) with the monitor installed."""
    registry = ContractRegistry()
    registry.scan_file(FIXTURE, module="runtime_seeded")
    sanitizer = Sanitizer(registry)
    previous = install_monitor(sanitizer)
    try:
        module = _load_fixture_module()
        sanitizer.instrument_module(module)
        yield sanitizer, module
    finally:
        sanitizer.uninstrument()
        install_monitor(previous)


class TestLockOrderCycle:
    def test_ab_ba_cycle_reported_with_both_stacks(self):
        with seeded_sanitizer() as (sanitizer, module):
            pair = module.CrossedPair()
            t1 = threading.Thread(target=pair.forward, args=(1,),
                                  name="fwd-thread")
            t2 = threading.Thread(target=pair.backward, name="bwd-thread")
            t1.start(); t1.join()
            t2.start(); t2.join()

            findings = sanitizer.graph.cycle_findings()
            assert len(findings) == 1
            finding = findings[0]
            assert finding.rule == "lock-order-cycle"
            assert "CrossedPair._a" in finding.message
            assert "CrossedPair._b" in finding.message
            # Both acquisition sites, each with a real stack naming the
            # acquiring thread and the fixture source line.
            labels = [label for label, _ in finding.sites]
            stacks = "".join(stack for _, stack in finding.sites)
            assert len(finding.sites) == 4  # 2 edges x (outer, inner)
            assert any("fwd-thread" in label for label in labels)
            assert any("bwd-thread" in label for label in labels)
            assert "runtime_seeded.py" in stacks
            assert "forward" in stacks and "backward" in stacks

    def test_consistent_order_is_clean(self):
        with seeded_sanitizer() as (sanitizer, module):
            pair = module.CrossedPair()
            for _ in range(3):
                pair.forward(1)  # only ever _a -> _b
            assert sanitizer.graph.cycle_findings() == []
            assert sanitizer.observed_edges() == [
                ["CrossedPair._a", "CrossedPair._b"]
            ]

    def test_edge_records_collect_every_holding_thread(self):
        # The first example's stacks are kept once, but the thread set
        # grows on every occurrence — that is what the v2 witness file
        # stores.
        with seeded_sanitizer() as (sanitizer, module):
            pair = module.CrossedPair()
            for name in ("fwd-A", "fwd-B"):
                worker = threading.Thread(
                    target=pair.forward, args=(1,), name=name
                )
                worker.start()
                worker.join()
            assert sanitizer.graph.edge_records() == [
                {"outer": "CrossedPair._a", "inner": "CrossedPair._b",
                 "threads": ["fwd-A", "fwd-B"]},
            ]

    def test_find_cycles_canonicalises(self):
        cycles = find_cycles([("A", "B"), ("B", "A"), ("B", "C")])
        assert cycles == [("A", "B")]
        assert find_cycles([("A", "B"), ("B", "C"), ("C", "A")]) == \
            [("A", "B", "C")]
        assert find_cycles([("A", "B"), ("B", "C")]) == []


class TestGuardedBy:
    def test_unguarded_write_reported_with_declaration_and_stack(self):
        with seeded_sanitizer() as (sanitizer, module):
            counter = module.GuardedCounter()
            counter.bump_locked()
            assert sanitizer.guard_findings() == []
            counter.bump_racy()
            findings = sanitizer.guard_findings()
            assert len(findings) == 1
            finding = findings[0]
            assert finding.rule == "guarded-by"
            assert "GuardedCounter._count" in finding.message
            assert "guarded by self._lock" in finding.message
            # Declaration site (file:line) and the writing thread.
            assert "runtime_seeded.py" in finding.message
            assert "MainThread" in finding.message
            # The write stack points at the racy method.
            stacks = "".join(stack for _, stack in finding.sites)
            assert "bump_racy" in stacks

    def test_init_writes_are_exempt(self):
        with seeded_sanitizer() as (sanitizer, module):
            module.GuardedCounter()  # __init__ writes _count bare
            assert sanitizer.guard_findings() == []

    def test_duplicate_write_sites_report_once(self):
        with seeded_sanitizer() as (sanitizer, module):
            counter = module.GuardedCounter()
            for _ in range(5):
                counter.bump_racy()
            assert len(sanitizer.guard_findings()) == 1


class _Meter:
    def charge(self, *args, **kwargs):
        pass


class _CostModel:
    file_write_row = 0.0
    file_row_io = 0.0


class TestResourceLeaks:
    def test_leaked_staged_file_detected_then_cleared_by_seal(self, tmp_path):
        from repro.core.staging import StagedFile

        sanitizer = Sanitizer()
        previous = install_monitor(sanitizer)
        try:
            staged = StagedFile(str(tmp_path / "n1.stage"), 3, "n1",
                                _Meter(), _CostModel())
            leaks = sanitizer.witness.leak_findings()
            assert len(leaks) == 1
            assert leaks[0].rule == "resource-leak"
            assert "staged-file" in leaks[0].message
            assert "never closed" in leaks[0].message
            stacks = "".join(stack for _, stack in leaks[0].sites)
            assert "test_runtime_sanitizer" in stacks
            staged.seal()
            assert sanitizer.witness.leak_findings() == []
        finally:
            install_monitor(previous)

    def test_leaked_executor_detected_then_cleared_by_close(self):
        from repro.core.scan_pool import ScanWorkerPool

        sanitizer = Sanitizer()
        previous = install_monitor(sanitizer)
        try:
            pool = ScanWorkerPool("thread", 2)
            pool._ensure_executor()
            leaks = sanitizer.witness.leak_findings()
            assert len(leaks) == 1
            assert "executor" in leaks[0].message
            assert "thread pool, 2 workers" in leaks[0].message
            pool.close()
            assert sanitizer.witness.leak_findings() == []
        finally:
            install_monitor(previous)

    def test_submitted_futures_close_on_completion(self):
        from repro.core.scan_pool import ScanWorkerPool

        sanitizer = Sanitizer()
        previous = install_monitor(sanitizer)
        try:
            pool = ScanWorkerPool("thread", 2)
            pool.install("sig", _NullKernel(), [], 0, 2)
            futures = [pool.submit(i, [(0, 0)], [], []) for i in range(4)]
            for future in futures:
                future.result()
            pool.close()
            # Everything created was closed: no leaks, balanced counts.
            assert sanitizer.witness.leak_findings() == []
            counts = sanitizer.witness.counts()
            assert counts["created"] == counts["closed"]
            assert counts["created"] >= 5  # 1 executor + 4 futures
        finally:
            install_monitor(previous)


class _NullKernel:
    """Routes every row nowhere (mask is empty)."""

    @staticmethod
    def route(row):
        return ()


class TestActivateDeactivate:
    def test_activate_instruments_and_deactivate_restores(self):
        from repro.core.cc_store import BinaryTreeCCStore

        if runtime.active() is not None:
            pytest.skip("REPRO_SANITIZE plugin owns the global sanitizer")
        sanitizer = runtime.activate()
        try:
            assert runtime.active() is sanitizer
            store = BinaryTreeCCStore(2)
            assert isinstance(store._lock, SanitizedLock)
            store._size = 1  # unguarded write on an armed instance
            assert any(
                "BinaryTreeCCStore._size" in f.message
                for f in sanitizer.guard_findings()
            )
        finally:
            runtime.deactivate()
        assert runtime.active() is None
        clean = BinaryTreeCCStore(2)
        assert not isinstance(clean._lock, SanitizedLock)
        clean._size = 2  # no sanitizer, no enforcement
        assert sanitizer.report()["findings"]  # findings survive

    def test_report_shape(self, tmp_path):
        with seeded_sanitizer() as (sanitizer, module):
            pair = module.CrossedPair()
            pair.forward(1)
            path = str(tmp_path / "sanitize.json")
            report = runtime.write_report(sanitizer, path)
            assert os.path.exists(path)
            assert report["clean"] is True
            assert report["lock_order_edges"] == [
                ["CrossedPair._a", "CrossedPair._b"]
            ]
            records = report["lock_order_edge_records"]
            assert [r["outer"] for r in records] == ["CrossedPair._a"]
            assert records[0]["threads"] == ["MainThread"]
            assert set(report["resources"]) == {"created", "closed", "live"}


class TestOverhead:
    def test_instrumented_workload_within_3x(self):
        """The sanitizer costs < 3x wall-clock on a lock-heavy path."""
        from repro.core.cc_store import BinaryTreeCCStore

        def workload():
            store = BinaryTreeCCStore(4)
            for i in range(20000):
                vector, _ = store.get_or_create((f"a{i % 40}", i % 17))
                vector[i % 4] += 1
            return len(store)

        def timed():
            started = time.perf_counter()
            workload()
            return time.perf_counter() - started

        workload()  # warm caches / allocator
        # A nested activate is fine when the plugin already installed
        # one sanitizer: activate() is idempotent, so piggy-back on it.
        already = runtime.active()
        # Cores on a shared machine can change speed within seconds, so
        # the plain and instrumented runs alternate round by round and
        # best is compared against best: both sides see the same cores.
        plain = instrumented = float("inf")
        sanitizer = None
        for _ in range(5):
            plain = min(plain, timed())
            sanitizer = runtime.activate()
            try:
                instrumented = min(instrumented, timed())
            finally:
                if already is None:
                    runtime.deactivate()
        assert sanitizer is not None
        assert instrumented <= plain * 3.0, (
            f"sanitizer overhead {instrumented / plain:.2f}x exceeds 3x "
            f"({plain * 1000:.1f}ms -> {instrumented * 1000:.1f}ms)"
        )
