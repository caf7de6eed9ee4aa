"""Execution engines: waves, the async protocol, fault handling."""

import threading
import time

import pytest

from stochlp import execution, lshaped, phedging
from stochlp.errors import ConfigError, DeadlockError, WorkerPanic
from stochlp.execution import (
    ExecConfig,
    ResultEnvelope,
    VersionedDecision,
    WorkItem,
    run_async,
    run_wave,
)
from stochlp.fixtures import simple_problem


class TestExecConfig:
    def test_parse_modes(self):
        assert ExecConfig.parse("serial").mode == "serial"
        assert ExecConfig.parse("sync", workers=4).workers == 4
        cfg = ExecConfig.parse("async:0.25", workers=2)
        assert cfg.mode == "async" and cfg.kappa == 0.25

    def test_env_var_fallback(self, monkeypatch):
        monkeypatch.setenv("STOCHLP_WORKERS", "6")
        assert ExecConfig.parse("sync").workers == 6

    def test_invalid(self, monkeypatch):
        with pytest.raises(ConfigError):
            ExecConfig.parse("warp")
        with pytest.raises(ConfigError):
            ExecConfig(mode="async", kappa=0.0)
        for text, workers in (("async:abc", None), ("serial:2", None), ("sync", 0)):
            with pytest.raises(ConfigError):
                ExecConfig.parse(text, workers=workers)
        monkeypatch.setenv("STOCHLP_WORKERS", "abc")
        with pytest.raises(ConfigError):
            ExecConfig.parse("sync")


class TestRunWave:
    def test_exactly_once_and_sorted(self):
        items = [WorkItem(version=1, index=i) for i in range(8)]
        counts = {}
        lock = threading.Lock()

        def fn(item):
            with lock:
                counts[item.index] = counts.get(item.index, 0) + 1
            return item.index * 10

        envs = run_wave(items, fn)
        assert [e.index for e in envs] == list(range(8))
        assert [e.payload for e in envs] == [i * 10 for i in range(8)]
        assert all(v == 1 for v in counts.values())

    def test_single_worker_inline(self):
        envs = run_wave([WorkItem(0, 0)], lambda it: "x")
        assert envs[0].payload == "x"

    def test_worker_panic_carries_item(self):
        def fn(item):
            if item.index == 3:
                raise RuntimeError("boom")
            return 0

        with pytest.raises(WorkerPanic) as exc:
            run_wave([WorkItem(0, i) for i in range(5)], fn)
        assert exc.value.item == (0, 3)


class TestWavesRunInline:
    @pytest.mark.parametrize("engine", [ExecConfig.parse("serial", workers=4),
                                        ExecConfig(mode="sync", workers=2)],
                             ids=["serial-4", "sync-2"])
    def test_every_item_runs_on_the_calling_thread(self, monkeypatch, engine):
        threads = []
        for module, name in ((lshaped, "solve_subproblem"), (phedging, "solve_ph_subproblem")):
            def record(*args, _solve=getattr(module, name), **kwargs):
                threads.append(threading.get_ident())
                return _solve(*args, **kwargs)
            monkeypatch.setattr(module, name, record)
        lshaped.solve_lshaped(simple_problem(), lshaped.LShapedConfig(execution=engine))
        phedging.solve_ph(simple_problem(),
                          phedging.PhConfig(max_iterations=3, execution=engine))
        assert threads and set(threads) == {threading.get_ident()}


class _CountingCoordinator:
    """Sums payloads; converges after a fixed number of versions."""

    def __init__(self, n_items, rounds):
        self.n_items = n_items
        self.rounds = rounds
        self.version = 0
        self.finished = False
        self.incorporated = []
        self.complete_versions = []

    def initial_decision(self):
        return VersionedDecision(version=0, payload=0.0)

    def incorporate(self, env):
        self.incorporated.append((env.version, env.index))

    def advance(self):
        if self.version + 1 >= self.rounds:
            return None
        self.version += 1
        return VersionedDecision(version=self.version, payload=float(self.version))

    def complete(self, version, decision):
        self.complete_versions.append(version)
        if version >= self.rounds - 1:
            self.finished = True
            return True
        return False


class TestRunAsync:
    def test_all_items_processed_exactly_once_per_version(self):
        coord = _CountingCoordinator(n_items=6, rounds=4)
        stats = run_async(coord, lambda dec, idx: dec.payload + idx,
                          ExecConfig(mode="async", workers=3, kappa=0.5))
        assert stats.issued == stats.received
        assert stats.max_pair_multiplicity == 1
        # every published version fully resolved
        for v in range(stats.versions_published):
            got = [i for (ver, i) in coord.incorporated if ver == v]
            assert sorted(got) == list(range(6))

    def test_kappa_one_waits_for_full_waves(self):
        coord = _CountingCoordinator(n_items=5, rounds=3)
        stats = run_async(coord, lambda dec, idx: idx,
                          ExecConfig(mode="async", workers=2, kappa=1.0))
        # with kappa=1 every publish happens only after a full wave
        assert stats.versions_published == 3
        assert coord.complete_versions == sorted(coord.complete_versions)

    def test_slow_worker_does_not_deadlock(self):
        slow_thread = []

        def fn(dec, idx):
            tid = threading.get_ident()
            if not slow_thread:
                slow_thread.append(tid)
            if tid == slow_thread[0]:
                time.sleep(0.05)
            return idx

        coord = _CountingCoordinator(n_items=8, rounds=3)
        t0 = time.perf_counter()
        stats = run_async(coord, fn,
                          ExecConfig(mode="async", workers=4, kappa=0.5))
        assert stats.issued == stats.received
        assert time.perf_counter() - t0 < 10.0

    def test_watchdog_detects_stuck_worker(self, monkeypatch):
        def fn(dec, idx):
            if idx == 0:
                time.sleep(3.0)
            return idx

        coord = _CountingCoordinator(n_items=2, rounds=2)
        monkeypatch.setattr(execution, "_WATCHDOG_S", 0.2)
        with pytest.raises(DeadlockError) as exc:
            run_async(coord, fn, ExecConfig(mode="async", workers=1, kappa=1.0))
        assert "outstanding" in str(exc.value)

    def test_worker_panic_propagates(self):
        def fn(dec, idx):
            if idx == 1:
                raise ValueError("bad scenario")
            return idx

        coord = _CountingCoordinator(n_items=3, rounds=2)
        with pytest.raises(WorkerPanic):
            run_async(coord, fn, ExecConfig(mode="async", workers=2, kappa=1.0))
