"""Seeded traffic for the benchmark workloads, generated with ``repro.loggen``.

Everything here depends only on the seed (and the sizes asked for), so
the same seed gives the same event stream.  The program under test only
ever sees the generated :class:`Event` lines, hosts and timestamps; the
ground-truth flag stays on the benchmark side.
"""

from __future__ import annotations

from array import array
from datetime import datetime, timedelta
from typing import NamedTuple

import numpy as np

from repro.loggen.evasion import CampaignBuilder
from repro.loggen.fleet import FleetConfig, FleetSimulator
from repro.preprocess.normalizer import Normalizer

#: Attack-session rate of the generated fleets (the bench world's test window).
ATTACK_SESSION_RATE = 0.18
#: Independent simulated fleets mixed into one stream.  Each fleet draws
#: its own user population and role mix from the seed; mixing several
#: keeps one seed's traffic close to another's.
FLEETS = 8
#: Exponent of the Zipf popularity law the warm pool is resampled with.
ZIPF_EXPONENT = 0.8
#: Lines generated per simulator call while collecting distinct lines.
_CHUNK_LINES = 20_000
_START = datetime(2022, 6, 1)


class Event(NamedTuple):
    """One command event as the benchmark sends it, plus its ground truth."""

    line: str
    host: str
    timestamp: float
    malicious: bool


def _simulators(seed: int) -> list[FleetSimulator]:
    states = np.random.SeedSequence(seed).generate_state(FLEETS)
    return [
        FleetSimulator(FleetConfig(seed=int(state), attack_session_rate=ATTACK_SESSION_RATE))
        for state in states
    ]


def telemetry(simulators, start: datetime, lines: int) -> list[Event]:
    """One day of telemetry from every fleet, merged in time order.

    Hosts are prefixed with their fleet (``f2-m000042``) so two fleets'
    machines never share a session.
    """
    events = []
    for index, simulator in enumerate(simulators):
        for record in simulator.generate(start, days=1, target_lines=lines // len(simulators)):
            events.append(Event(record.line, f"f{index}-{record.machine}",
                                record.timestamp.timestamp(), record.is_malicious))
    events.sort(key=lambda event: event.timestamp)
    return events


def distinct_telemetry(seed: int, count: int, max_rounds: int = 40) -> list[Event]:
    """Fleet telemetry in time order, one event per distinct normalized line.

    Lines are deduplicated on the normalizer's output (the score cache's
    key without canonicalization), so no event can hit the cache.
    """
    return _distinct_with_counts(seed, count, max_rounds)[0]


def _distinct_with_counts(seed: int, count: int, max_rounds: int = 40):
    """Distinct events plus how often each one's line occurred meanwhile."""
    simulators = _simulators(seed)
    normalize = Normalizer()
    seen: dict[str, int] = {}
    events: list[Event] = []
    occurrences: list[int] = []
    for round_index in range(max_rounds):
        start = _START + timedelta(days=round_index)
        for event in telemetry(simulators, start, _CHUNK_LINES):
            key = normalize(event.line)
            index = seen.get(key)
            if index is not None:
                occurrences[index] += 1
                continue
            if len(events) == count:
                return events, occurrences
            seen[key] = len(events)
            events.append(event)
            occurrences.append(1)
    return events, occurrences


class Cycle:
    """A fixed event list handed out in order, again from the start when it
    runs out, so a phase can last as long as it is timed for.

    Each pass after the first shifts the timestamps past the previous
    pass, so time never runs backwards.
    """

    def __init__(self, events: list[Event]):
        if not events:
            raise ValueError("a cycle needs at least one event")
        self.events = events
        self.count = 0
        self._span = events[-1].timestamp - events[0].timestamp + 1.0

    @property
    def passes(self) -> float:
        return self.count / len(self.events)

    def _event(self, position: int) -> Event:
        turn, index = divmod(position, len(self.events))
        event = self.events[index]
        if turn:
            event = Event(event.line, event.host, event.timestamp + turn * self._span,
                          event.malicious)
        return event

    def take(self, n: int) -> list[Event]:
        start, self.count = self.count, self.count + n
        if start + n <= len(self.events):
            return self.events[start : start + n]
        return [self._event(position) for position in range(start, start + n)]

    def served(self) -> list[Event]:
        """Every event handed out so far, in order."""
        return [self._event(position) for position in range(self.count)]


class ZipfStream:
    """Endless Zipf resample of a distinct-line pool.

    Zipf ranks follow each line's popularity in the telemetry the pool
    was drawn from (ties in random order), so the hot head is the
    fleet's everyday commands, as in real telemetry, rather than
    whichever line a shuffle put first.  Each pool entry keeps its host,
    so a repeat always reaches the same shard or fleet node.  Timestamps
    advance 10 ms per event after the pool's.  Picks are drawn in fixed
    blocks from one seeded generator, so the stream does not depend on
    how much of it a run consumes.
    """

    BLOCK = 4096

    def __init__(self, seed: int, pool: list[Event], occurrences: list[int]):
        self.pool = pool
        self._rng = np.random.default_rng([seed, 1])
        order = np.lexsort((self._rng.random(len(pool)), -np.asarray(occurrences)))
        ranks = np.empty(len(pool))
        ranks[order] = np.arange(len(pool))
        weights = 1.0 / np.power(ranks + 1.0, ZIPF_EXPONENT)
        self._p = weights / weights.sum()
        self._base = max(event.timestamp for event in pool)
        self._drawn = array("l")
        self.count = 0

    def take(self, n: int) -> list[Event]:
        while len(self._drawn) < self.count + n:
            self._drawn.extend(self._rng.choice(len(self.pool), size=self.BLOCK, p=self._p))
        start, self.count = self.count, self.count + n
        return self._events(start, self.count)

    def _events(self, start: int, stop: int) -> list[Event]:
        base, picked = self._base, map(self.pool.__getitem__, self._drawn[start:stop])
        return [Event(source.line, source.host, base + 0.01 * (position + 1), source.malicious)
                for position, source in zip(range(start, stop), picked)]

    def served(self) -> list[Event]:
        """Every event handed out so far, in order."""
        return self._events(0, self.count)


def zipf_stream(seed: int, pool_size: int) -> tuple[list[Event], ZipfStream]:
    """``(pool, stream)``: a distinct-line pool and an endless Zipf resample of it."""
    pool, occurrences = _distinct_with_counts(seed, pool_size)
    return pool, ZipfStream(seed, pool, occurrences)


def live_tail(seed: int, warm: int, count: int, campaigns: int = 3,
              spacing: int = 5) -> tuple[list[Event], list[Event]]:
    """``(warm, tail)``: multi-host telemetry, campaigns injected in the tail.

    The telemetry keeps its repeats (it is what a live tail sees); the
    first *warm* events are the history a running server has already
    served.  Each campaign from
    :class:`~repro.loggen.evasion.CampaignBuilder` runs on its own victim
    host; its steps are interleaved every *spacing* events of the tail,
    20 s apart, so the sequence stage sees them as one window.
    """
    steps = [(c, step) for c, campaign in enumerate(CampaignBuilder(seed).build(campaigns))
             for step in campaign.steps]
    hosts = {c: f"victim-{c:02d}" for c in range(campaigns)}
    history = telemetry(_simulators(seed), _START, warm + count)
    warm_events, history = history[:warm], history[warm:]
    tail = history[: max(count - len(steps), 0)]
    per_campaign: dict[int, list] = {}
    for c, step in steps:
        per_campaign.setdefault(c, []).append(step)
    inserts: dict[int, list[Event]] = {}
    for c, campaign_steps in per_campaign.items():
        first = (c + 1) * len(tail) // (campaigns + 1)
        base = tail[min(first, len(tail) - 1)].timestamp if tail else 0.0
        for k, step in enumerate(campaign_steps):
            event = Event(step.line, hosts[c], base + 20.0 * k, True)
            inserts.setdefault(first + spacing * k, []).append(event)
    stream: list[Event] = []
    for position in range(len(tail) + 1):
        stream.extend(inserts.pop(position, ()))
        if position < len(tail):
            stream.append(tail[position])
    for leftover in sorted(inserts):
        stream.extend(inserts[leftover])
    return warm_events, stream
