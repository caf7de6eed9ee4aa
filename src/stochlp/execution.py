"""Execution: driving a coordinator by waves or by the asynchronous kappa protocol.

Each algorithm has one coordinator, a state machine over versioned decisions:
``initial_decision`` publishes version 0, ``worker_payload`` solves one work
item of a version, ``incorporate`` folds one result in, ``complete`` runs once
all n results of a version are in, and ``advance`` re-solves and publishes
the next version, or sets ``finished`` and returns None when the run stops.
A coordinator's work items come from ``work_items`` over its groups (L-shaped
aggregation bundles, PH scenarios): one item holding every group in waves,
one item per group under async.  ``drive`` runs a coordinator to its stop in
one of two ways:

- waves (serial and sync): the one item of the newest version goes to
  ``run_wave``, which runs it on the calling thread; its result is
  incorporated, then the version is completed and advanced.  This is the
  kappa protocol with kappa = 1, run without queues.  Serial and sync are
  the same run; threads would only contend for the interpreter lock, so the
  worker count does not apply to waves.
- the kappa protocol (async): ``run_async`` mirrors a master/worker channel
  design with in-memory bounded queues and ``workers`` threads.  Workers
  pull (version, item) work and push result envelopes back, and the
  coordinator publishes version v+1 as soon as ceil(kappa * n) results for
  version v have arrived, so kappa counts groups.  Every published version's
  full item set is still processed (late results are incorporated), and the
  coordinators run their stopping tests only at an advance that follows the
  completion of some version.  Workers are handed items of the newest
  version only; intermediate versions a stale worker never saw are not
  revisited.
"""

from __future__ import annotations

import math
import os
import queue
import threading
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DeadlockError, StochLPError, WorkerPanic

ENV_WORKERS = "STOCHLP_WORKERS"
_WATCHDOG_S = 60.0      # seconds the async coordinator waits for any result


@dataclass
class ExecConfig:
    mode: str = "serial"           # serial | sync | async
    workers: int = 1
    kappa: float = 0.5

    def __post_init__(self):
        if self.mode not in ("serial", "sync", "async"):
            raise ConfigError(f"execution mode must be serial, sync or async, got {self.mode!r}")
        if self.workers < 1:
            raise ConfigError("worker count must be >= 1")
        if not 0.0 < self.kappa <= 1.0:
            raise ConfigError("kappa must lie in (0, 1]")

    @classmethod
    def parse(cls, text, workers=None):
        """Parse a --exec flag value: serial, sync, or async[:KAPPA].

        ``workers`` falls back to the STOCHLP_WORKERS environment variable.
        """
        mode, colon, kappa = text.strip().partition(":")
        if mode not in ("serial", "sync", "async") or (colon and mode != "async"):
            raise ConfigError(f"unknown execution mode {text!r}")
        if workers is None:
            workers = _number(int, os.environ.get(ENV_WORKERS) or 1, ENV_WORKERS)
        kappa = _number(float, kappa, "kappa") if colon else cls.kappa
        return cls(mode=mode, workers=workers, kappa=kappa)

    @property
    def label(self):
        """This configuration in --exec syntax, as echoed in reports."""
        return f"async:{self.kappa}" if self.mode == "async" else self.mode


def _number(kind, value, what):
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"invalid {what} {value!r}") from None


@dataclass(frozen=True)
class WorkItem:
    version: int
    index: int


@dataclass(frozen=True)
class VersionedDecision:
    version: int
    payload: object     # immutable decision data (e.g. the candidate x)
    iteration: int = 0


@dataclass
class ResultEnvelope:
    worker: object
    version: int
    index: int
    payload: object
    wall: float = 0.0
    error: BaseException = None


def work_items(groups, engine: ExecConfig):
    """The work items of one version: index arrays over ``groups``, in group order.

    Waves (serial and sync) get one item that concatenates every group;
    async gets one item per group.
    """
    if engine.mode == "async":
        return [np.asarray(g, dtype=int) for g in groups]
    return [np.concatenate(groups).astype(int)]


def run_wave(items, worker_fn):
    """Process every item once, in order on the calling thread.

    Returns the envelopes sorted by (version, index).  ``worker_fn(item)``
    must be pure given the item and the published decision it references.
    A package error (StochLPError) stops the wave and is raised as is; any
    other failure is a WorkerPanic naming the item once the wave has run.
    """
    def call(item):
        t0 = time.perf_counter()
        try:
            payload = worker_fn(item)
            return ResultEnvelope(worker=threading.get_ident(), version=item.version,
                                  index=item.index, payload=payload,
                                  wall=time.perf_counter() - t0)
        except StochLPError:
            raise
        except BaseException as exc:  # noqa: BLE001 - reported with item identity
            return ResultEnvelope(worker=threading.get_ident(), version=item.version,
                                  index=item.index, payload=None,
                                  wall=time.perf_counter() - t0, error=exc)

    envs = sorted((call(it) for it in items), key=lambda e: (e.version, e.index))
    for e in envs:
        if e.error is not None:
            raise WorkerPanic((e.version, e.index), e.error)
    return envs


def drive(coord, engine: ExecConfig):
    """Run ``coord`` to its stop; returns the protocol stats under async, else None.

    Serial and sync run one wave per version and feed its results in index
    order, which is the kappa protocol at kappa = 1.  The wave goes through
    this module's ``run_wave`` name, so a wrapper installed on it sees
    every wave.
    """
    if engine.mode == "async":
        return run_async(coord, coord.worker_payload, engine)
    dec = coord.initial_decision()
    while dec is not None:
        items = [WorkItem(version=dec.version, index=i) for i in range(coord.n_items)]
        for env in run_wave(items, lambda item, d=dec: coord.worker_payload(d, item.index)):
            coord.incorporate(env)
        coord.complete(dec.version, dec)
        dec = coord.advance()
    return None


class AsyncStats:
    """Protocol accounting, checked by tests for exactly-once semantics."""

    def __init__(self):
        self.issued = 0
        self.received = 0
        self.versions_published = 0
        self.pair_counts = {}
        self.version_log = []   # (version, awaited, received_at_publish, wall)

    @property
    def max_pair_multiplicity(self):
        return max(self.pair_counts.values(), default=0)

    def summary(self):
        """The ``async`` block of a solve report."""
        return {"issued": self.issued, "received": self.received,
                "versions": self.versions_published,
                "max_pair_multiplicity": self.max_pair_multiplicity,
                "version_log": [list(rec) for rec in self.version_log]}


def run_async(coordinator, worker_fn, cfg: ExecConfig):
    """Drive the k-threshold asynchronous protocol until the coordinator is done.

    The coordinator must provide:

    - ``n_items``: number of work items per published decision
    - ``initial_decision() -> VersionedDecision``
    - ``incorporate(envelope) -> None``: fold one result into master state
    - ``complete(version, decision) -> None``: called when all results of one
      version are in
    - ``advance() -> VersionedDecision | None``: re-solve and publish the next
      decision, or None when no further decision should be issued
    - ``finished`` property: stop flag; no decision is published once it is set

    Returns AsyncStats; all issued items are drained before returning so no
    result is ever lost.  As in ``run_wave``, a worker's ``StochLPError`` is
    re-raised as is and any other exception becomes a WorkerPanic.
    """
    n = coordinator.n_items
    kappa_count = max(1, math.ceil(cfg.kappa * n))
    capacity = max(2 * n, 2)
    work_q = queue.Queue(maxsize=capacity + cfg.workers)
    result_q = queue.Queue()
    decisions = {}
    stats = AsyncStats()
    _SENTINEL = object()

    def worker_loop(wid):
        while True:
            item = work_q.get()
            if item is _SENTINEL:
                return
            t0 = time.perf_counter()
            try:
                payload = worker_fn(decisions[item.version], item.index)
                env = ResultEnvelope(worker=wid, version=item.version, index=item.index,
                                     payload=payload, wall=time.perf_counter() - t0)
            except BaseException as exc:  # noqa: BLE001
                env = ResultEnvelope(worker=wid, version=item.version, index=item.index,
                                     payload=None, wall=time.perf_counter() - t0, error=exc)
            result_q.put(env)

    threads = [threading.Thread(target=worker_loop, args=(w,), daemon=True)
               for w in range(cfg.workers)]
    for t in threads:
        t.start()

    def publish(decision):
        decisions[decision.version] = decision
        stats.versions_published += 1
        for idx in range(n):
            work_q.put(WorkItem(decision.version, idx))
        stats.issued += n

    counts = {}
    newest = None
    failure = None
    t_start = time.perf_counter()
    try:
        dec = coordinator.initial_decision()
        newest = dec.version
        publish(dec)
        while stats.received < stats.issued:
            try:
                env = result_q.get(timeout=_WATCHDOG_S)
            except queue.Empty:
                raise DeadlockError({
                    "issued": stats.issued, "received": stats.received,
                    "outstanding": stats.issued - stats.received,
                    "newest_version": newest, "work_queue": work_q.qsize(),
                }) from None
            stats.received += 1
            pair = (env.version, env.index)
            stats.pair_counts[pair] = stats.pair_counts.get(pair, 0) + 1
            if env.error is not None:
                failure = env.error if isinstance(env.error, StochLPError) \
                    else WorkerPanic(pair, env.error)
                break
            if env.version > newest:
                raise StochLPError("protocol violation: envelope for an unpublished version")
            coordinator.incorporate(env)
            counts[env.version] = counts.get(env.version, 0) + 1
            if counts[env.version] == n:
                coordinator.complete(env.version, decisions[env.version])
            if not coordinator.finished and counts.get(newest, 0) >= kappa_count:
                nxt = coordinator.advance()
                if nxt is not None:
                    stats.version_log.append(
                        (newest, kappa_count, counts.get(newest, 0),
                         time.perf_counter() - t_start))
                    newest = nxt.version
                    publish(nxt)
    finally:
        for _ in threads:
            work_q.put(_SENTINEL)
        for t in threads:
            t.join(timeout=_WATCHDOG_S)
    if failure is not None:
        raise failure
    return stats
