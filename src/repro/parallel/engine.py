"""Process-pool execution engine with deterministic decomposition.

Design constraints, in order:

1. **Determinism.** Work decomposition (:func:`shard_sizes`) and seed
   derivation (:func:`shard_seed`) depend only on the workload and the
   root seed — never on the worker count — so results can be reassembled
   in decomposition order and compared byte-for-byte against a serial
   run.
2. **Serial is the degenerate case.** ``jobs=1`` runs every task
   in-process through the same code path a worker would take (no pool,
   no pickling), so the serial and parallel pipelines cannot drift.
3. **Picklable task units.** Task functions must be module-level
   callables and payloads plain data; workers are separate processes.

Worker-side telemetry: :func:`call_with_metrics` runs a task under its
own fresh :class:`~repro.obs.registry.MetricsRegistry` and returns the
snapshot alongside the result, so parents can merge worker metrics with
:meth:`MetricsRegistry.merge`.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    FIRST_EXCEPTION,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.exceptions import ConfigurationError, TaskRetryError
from repro.net.rng import RngFactory

P = TypeVar("P")
R = TypeVar("R")


def default_jobs() -> int:
    """Number of workers when the caller asks for "all cores"."""
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` mean all cores."""
    if jobs is None or jobs == 0:
        return default_jobs()
    if jobs < 0:
        raise ConfigurationError(f"jobs must be positive, got {jobs}")
    return int(jobs)


# -- deterministic decomposition -------------------------------------------


def shard_sizes(total: int, shards: int) -> List[int]:
    """Split ``total`` items into ``shards`` contiguous chunk sizes.

    Sizes are as equal as possible (the remainder spreads over the first
    shards) and depend only on ``(total, shards)`` — concatenating shard
    results in shard order therefore reproduces the unsharded ordering.
    Shards never outnumber items; with ``total == 0`` a single empty
    shard is returned.
    """
    if total < 0:
        raise ConfigurationError(f"total must be non-negative, got {total}")
    if shards <= 0:
        raise ConfigurationError(f"shards must be positive, got {shards}")
    shards = max(1, min(shards, total))
    base, extra = divmod(total, shards)
    return [base + (1 if index < extra else 0) for index in range(shards)]


def shard_seed(root_seed: int, index: int, label: str = "shard") -> int:
    """Derive shard ``index``'s seed from the experiment's root seed.

    Reuses the :class:`~repro.net.rng.RngFactory` stream-derivation
    idiom (``spawn("shard-<i>")``): seeds are stable across processes and
    machines, independent per shard, and never collide with the root
    seed's own streams.
    """
    return RngFactory(root_seed).spawn(f"{label}-{index}").seed


# -- retry policy -----------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Resilience policy for task execution.

    Attributes
    ----------
    max_attempts:
        Total attempts per task (first run included). A task still
        failing after this many attempts raises
        :class:`~repro.exceptions.TaskRetryError` with the last failure
        chained.
    timeout:
        Seconds a retry *round* may take before its unfinished tasks are
        treated as failed and rescheduled. Measured from round start, so
        it covers queueing as well as execution; size it for the slowest
        expected task times the round's queue depth. ``None`` disables
        timeouts. Only enforced under a process pool — in-process (serial)
        execution cannot interrupt a running task.
    backoff:
        Base delay in seconds before the second attempt; doubles each
        further attempt (exponential backoff). ``0`` retries immediately.

    Retries are determinism-safe *for pure tasks*: a task function that
    depends only on its payload (the engine's contract) returns the same
    value on any attempt, and results are reassembled by payload index,
    so retried runs remain byte-identical to serial runs at the same
    seed.
    """

    max_attempts: int = 3
    timeout: Optional[float] = None
    backoff: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be at least 1, got {self.max_attempts}"
            )
        if self.timeout is not None and not 0 < self.timeout < math.inf:
            raise ConfigurationError(
                f"timeout must be positive and finite, got {self.timeout}"
            )
        if not 0 <= self.backoff < math.inf:
            raise ConfigurationError(
                f"backoff must be non-negative and finite, got {self.backoff}"
            )

    def delay_before(self, attempt: int) -> float:
        """Backoff delay before ``attempt`` (1-based; first attempt is free)."""
        if attempt <= 1 or self.backoff == 0:
            return 0.0
        return self.backoff * (2.0 ** (attempt - 2))


def _failure_kind(exc: BaseException) -> str:
    if isinstance(exc, BrokenProcessPool):
        return "crash"
    if isinstance(exc, TimeoutError):
        return "timeout"
    return "error"


def _record_failure(exc: BaseException) -> None:
    from repro.obs.registry import get_registry

    registry = get_registry()
    if registry.enabled:
        registry.counter("parallel.task_failures", kind=_failure_kind(exc)).inc()


def _record_retry() -> None:
    from repro.obs.registry import get_registry

    registry = get_registry()
    if registry.enabled:
        registry.counter("parallel.task_retries").inc()


def _serial_attempts(func: Callable[[P], R], payload: P, index: int,
                     retry: RetryPolicy) -> R:
    """Run one task in-process under the retry policy (no timeout)."""
    last: Optional[BaseException] = None
    for attempt in range(1, retry.max_attempts + 1):
        if attempt > 1:
            _record_retry()
            delay = retry.delay_before(attempt)
            if delay:
                time.sleep(delay)
        try:
            return func(payload)
        except Exception as exc:
            last = exc
            _record_failure(exc)
    raise TaskRetryError(
        f"task {index} failed after {retry.max_attempts} attempts: {last!r}"
    ) from last


def _stream_round(
    func: Callable[[P], R],
    payloads: Sequence[P],
    indices: Sequence[int],
    jobs: int,
    timeout: Optional[float],
) -> Iterator[Tuple[str, int, object]]:
    """One pool attempt over ``indices``; yields ``(event, index, value)``.

    ``event`` is ``"ok"`` (value is the result) or ``"fail"`` (value is
    the exception). A fresh pool is built per round, so a pool poisoned
    by a crashed worker (``BrokenProcessPool``) never leaks into the next
    attempt. On a round timeout, unfinished futures are cancelled and the
    pool abandoned without waiting; a genuinely wedged worker process can
    therefore outlive the round (and is the reason ``timeout`` should be
    generous).
    """
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(indices)))
    try:
        futures = {pool.submit(func, payloads[i]): i for i in indices}
        pending = set(futures)
        deadline = None if timeout is None else time.monotonic() + timeout
        while pending:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            done, pending = wait(pending, timeout=remaining,
                                 return_when=FIRST_COMPLETED)
            if not done:
                # Round deadline expired with tasks still outstanding.
                for future in pending:
                    future.cancel()
                for future in pending:
                    yield ("fail", futures[future],
                           TimeoutError(f"task {futures[future]} timed out"))
                return
            for future in done:
                index = futures[future]
                try:
                    yield ("ok", index, future.result())
                except Exception as exc:
                    yield ("fail", index, exc)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def _pooled_with_retry(
    func: Callable[[P], R],
    payloads: Sequence[P],
    jobs: int,
    retry: RetryPolicy,
) -> Iterator[Tuple[int, R]]:
    """Pool execution with retry rounds; yields results in completion order."""
    attempts = dict.fromkeys(range(len(payloads)), 0)
    pending = sorted(attempts)
    round_index = 0
    while pending:
        if round_index > 0:
            delay = retry.delay_before(round_index + 1)
            if delay:
                time.sleep(delay)
        for index in pending:
            attempts[index] += 1
            if attempts[index] > 1:
                _record_retry()
        still_failing: List[int] = []
        for event, index, value in _stream_round(
            func, payloads, pending, jobs, retry.timeout
        ):
            if event == "ok":
                yield index, value  # type: ignore[misc]
                continue
            exc = value  # type: BaseException
            _record_failure(exc)
            if attempts[index] >= retry.max_attempts:
                raise TaskRetryError(
                    f"task {index} failed after {attempts[index]} attempts: {exc!r}"
                ) from exc
            still_failing.append(index)
        pending = sorted(still_failing)
        round_index += 1


# -- task execution --------------------------------------------------------


def run_tasks(
    func: Callable[[P], R],
    payloads: Sequence[P],
    jobs: int = 1,
    retry: Optional[RetryPolicy] = None,
) -> List[R]:
    """Run ``func`` over ``payloads``; results in payload order.

    ``jobs == 1`` executes in-process. With more jobs, payloads fan out
    over a process pool; the pool size never exceeds the payload count.

    With a :class:`RetryPolicy`, failed tasks (exceptions, crashed
    workers, round timeouts) are retried on a fresh pool up to
    ``max_attempts`` times; ``retry=None`` preserves fail-fast behavior.
    Results are keyed by payload index either way, so retries never
    perturb output ordering.
    """
    payloads = list(payloads)
    jobs = resolve_jobs(jobs)
    if retry is not None:
        if jobs == 1 or len(payloads) <= 1:
            return [
                _serial_attempts(func, payload, index, retry)
                for index, payload in enumerate(payloads)
            ]
        results = dict(_pooled_with_retry(func, payloads, jobs, retry))
        return [results[index] for index in range(len(payloads))]
    if jobs == 1 or len(payloads) <= 1:
        return [func(payload) for payload in payloads]
    with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
        return list(pool.map(func, payloads))


def run_tasks_completed(
    func: Callable[[P], R],
    payloads: Sequence[P],
    jobs: int = 1,
    retry: Optional[RetryPolicy] = None,
) -> Iterator[Tuple[int, R]]:
    """Yield ``(payload_index, result)`` pairs in completion order.

    The streaming variant of :func:`run_tasks`, for callers that
    checkpoint or report progress as results land. Serial execution
    completes in payload order by construction. Without a retry policy,
    a failing task cancels pending tasks and the exception propagates
    after in-flight workers finish; with one, failed tasks are retried
    on a fresh pool and only a task exhausting ``max_attempts`` raises
    (:class:`~repro.exceptions.TaskRetryError`).
    """
    payloads = list(payloads)
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(payloads) <= 1:
        for index, payload in enumerate(payloads):
            if retry is not None:
                yield index, _serial_attempts(func, payload, index, retry)
            else:
                yield index, func(payload)
        return
    if retry is not None:
        yield from _pooled_with_retry(func, payloads, jobs, retry)
        return
    with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
        futures = {
            pool.submit(func, payload): index
            for index, payload in enumerate(payloads)
        }
        pending = set(futures)
        try:
            while pending:
                done, pending = wait(pending, return_when=FIRST_EXCEPTION)
                for future in done:
                    yield futures[future], future.result()
        finally:
            for future in pending:
                future.cancel()


def call_with_metrics(
    func: Callable[[], R],
    collect_metrics: bool,
) -> Tuple[R, Optional[dict]]:
    """Invoke ``func``, optionally under a fresh metrics registry.

    Returns ``(result, snapshot)``; the snapshot is ``None`` when metrics
    collection is off. The snapshot is plain JSON-serializable data, so
    workers can ship it back across the process boundary for the parent
    to fold in with :meth:`MetricsRegistry.merge`.
    """
    if not collect_metrics:
        return func(), None
    from repro.obs.registry import MetricsRegistry, using_registry

    with using_registry(MetricsRegistry()) as registry:
        result = func()
    return result, registry.snapshot()
