"""Load drivers and sample statistics for the planning-service benchmark.

Two loops, both driven from the calling thread:

* :func:`open_loop` fires events on an absolute due-time schedule.
  Every latency counts from the event's *due* time, so a stall (in the
  system or in the generator) is charged to every event it delays
  instead of hiding itself (no coordinated omission).  The generator's
  own lateness is recorded separately per event.
* :func:`closed_loop` keeps ``clients`` requests in flight; a client
  sends its next request only after its previous one completed.

Neither loop starts threads of its own: asynchronous events are
``Future``s completed by the server's worker pool, and completion is
stamped in the future's done-callback, at the moment the result exists.
"""

from __future__ import annotations

import math
import statistics
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

clock = time.perf_counter

#: Percentiles a tail may be read at, highest first.  A tail is the
#: highest of these with at least :data:`TAIL_BEYOND` samples beyond it,
#: so a p90 needs 100 samples, p75 40 and the last rung, p50 (a median,
#: not a tail), 20.
TAIL_LADDER = (99, 95, 90, 80, 75, 50)
TAIL_BEYOND = 10


@dataclass
class Event:
    """One timed operation: when it was due, sent and completed."""

    due: float
    sent: float = 0.0
    done: float = 0.0
    #: Generator lateness: how long after it *could* have sent the
    #: event (due time, or the previous synchronous completion) it did.
    lag: float = 0.0
    result: Any = None
    error: Optional[BaseException] = None
    #: Lowest catalog version the operation can have read.
    floor: int = 0

    @property
    def latency(self) -> float:
        return self.done - self.due


def stamp(event: Event) -> Callable[[Future], None]:
    def done(future: Future) -> None:
        event.done = clock()
        try:
            event.result = future.result()
        except BaseException as exc:  # noqa: BLE001 - recorded, checked later
            event.error = exc

    return done


def open_loop(
    offsets: Sequence[float],
    fire: Callable[[int], Any],
    sync: bool = False,
    start: Optional[float] = None,
    stall: Optional[Callable[[int], None]] = None,
) -> Tuple[List[Event], List[Future]]:
    """Fire ``fire(i)`` at ``start + offsets[i]`` for every event.

    ``fire`` returns a ``Future`` (asynchronous submit) or, with
    ``sync``, the result itself (the call blocks this loop until it is
    acknowledged).  A synchronous loop whose previous call overran the
    next due time sends at once; the wait is charged to the event's
    latency (it counts from the due time) but not to generator lag,
    which measures only the generator's own slack.  ``stall`` is a
    test hook called before each send.

    Returns the events and the futures still to be awaited.
    """
    if start is None:
        start = clock()
    events: List[Event] = []
    futures: List[Future] = []
    free_at = start
    for index, offset in enumerate(offsets):
        due = start + offset
        now = clock()
        if due > now:
            time.sleep(due - now)
        if stall is not None:
            stall(index)
        event = Event(due=due)
        event.sent = clock()
        event.lag = max(0.0, event.sent - max(due, free_at))
        events.append(event)
        if sync:
            try:
                event.result = fire(index)
            except Exception as exc:  # noqa: BLE001 - recorded, checked later
                event.error = exc
            event.done = free_at = clock()
        else:
            future = fire(index)
            future.add_done_callback(stamp(event))
            futures.append(future)
    return events, futures


def closed_loop(
    fire: Callable[[int], Future],
    clients: int,
    duration: float,
) -> Tuple[List[Event], float]:
    """``clients`` requests in flight until ``duration`` has passed.

    A request's latency counts from its send; requests sent before the
    window closes are awaited.  Returns the events and the wall time
    from the first send to the last completion.
    """
    start = clock()
    end = start + duration
    events: List[Event] = []
    inflight: dict = {}

    def launch() -> None:
        event = Event(due=clock())
        event.sent = event.due
        future = fire(len(events))
        events.append(event)
        future.add_done_callback(stamp(event))
        inflight[future] = event

    for _ in range(clients):
        launch()
    while inflight:
        done, _ = wait(list(inflight), return_when=FIRST_COMPLETED)
        for future in done:
            settle([inflight.pop(future)])
            if clock() < end:
                launch()
    last = max(event.done for event in events)
    return events, last - start


def await_all(futures: Sequence[Future], events: Sequence[Event]) -> None:
    """Block until every future completed and every event is stamped."""
    if futures:
        wait(list(futures))
    settle(events)


def settle(events: Sequence[Event]) -> None:
    """Wait out the window between a future's waiters waking and its
    done-callback stamping the event (callbacks run just after)."""
    for event in events:
        while event.done == 0.0:
            time.sleep(0)


def tail_percentile(count: int) -> Optional[int]:
    """Highest ladder percentile with :data:`TAIL_BEYOND` samples beyond it."""
    for q in TAIL_LADDER:
        if count - math.ceil(q * count / 100.0) >= TAIL_BEYOND:
            return q
    return None


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100.0))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    """Mean of a sample (0 when empty).

    For operations as short as a replan or a journal replay, a shared
    host's speed shows as two modes about 1.5x apart, one per state of
    the neighbouring load, and the share of samples in each moves from
    run to run.  Near an even split the median jumps from one mode to
    the other; the mean moves with the share.
    """
    return statistics.fmean(values) if values else 0.0


def tail(
    values: Sequence[float], planned: Optional[int] = None
) -> Tuple[float, int, int]:
    """``(value, percentile, samples)`` of a sample's tail.

    The percentile follows from ``planned`` — the sample count the
    workload schedules — when given, so it is the same on every run even
    when a closed loop completes a few more or fewer requests.  Every
    workload plans enough samples for a ladder percentile; only a run
    too short for its plan (the self-test's) falls back to the maximum
    (percentile 100).
    """
    if not values:
        return 0.0, 100, 0
    q = tail_percentile(len(values) if planned is None else planned) or 100
    return percentile(values, q), q, len(values)
