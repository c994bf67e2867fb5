"""Naive reference simulators used as oracles by the test suite.

`brute_force_simulate` is a direct transcription of the pool semantics;
it shares no code or data structures with the production simulator.
Eviction stays a linear scan: it lists the eligible frames, scans them
for the LRU or Clock2 victim, and the checkpoints and final flush scan
every frame.  Only two lookups are indexed, so that it replays traces of
1e5 events: list membership reads the page's last touch from a dict
(`on_list`, the `bufferpool` rule), and a dict finds the resident
page's frame.
`plain_base_policy` is the bare LRU or Clock2 policy (dirty tracking and
checkpoints, but no recency-list protection), for checking that N=0
degenerates to it; only its page lookup is indexed, by a dict, so that
it can replay traces of 1e5 events.  `lru_stack_distances` gives the
LRU read counts of every pool size at N=0 from one pass over the pages
alone, by a method that shares nothing with either simulator.
`line_by_line_read_trace_csv`
reads a trace CSV one line at a time into a list of events, the way the
block reader must behave on every input.
"""
from __future__ import annotations

import math
import random

from storage_rules.bufferpool import TRACE_HEADER, SimReport, TraceEvent


class _Frame:
    def __init__(self, page, loaded_at, protected_until, dirty, use_seq):
        self.page = page
        self.protected_until = protected_until
        self.dirty = dirty
        self.first_dirtied = loaded_at if dirty else None
        self.use_seq = use_seq
        self.ref = 1


def _flush_old(frames, cutoff, counters):
    for f in frames:
        if f.dirty and f.first_dirtied < cutoff:
            f.dirty = False
            f.first_dirtied = None
            counters["checkpoint_flushes"] += 1


def _run_checkpoints(frames, state, t, interval, counters):
    if interval is None:
        return
    # a boundary flushes only frames dirtied before its cutoff, one
    # interval back, so the loop jumps over those that flush nothing: all
    # but the last one or two <= t, and while a frame is dirty, all up to
    # the last whose cutoff is at or below the oldest dirt time
    skip_to = math.floor(t / interval) - 1
    while True:
        if skip_to > state["k"]:
            k = skip_to
            dirt = [f.first_dirtied for f in frames if f.dirty]
            if dirt:
                oldest = min(dirt)
                k = min(k, math.floor(oldest / interval) + 1)
                while k > state["k"] and k * interval - interval > oldest:
                    k -= 1
            state["k"] = max(state["k"], k)
        if state["k"] * interval > t:
            return
        _flush_old(frames, state["k"] * interval - interval, counters)
        state["k"] += 1


def _lru_victim_index(frames, candidates):
    best = None
    for idx in candidates:
        if best is None or frames[idx].use_seq < frames[best].use_seq:
            best = idx
    return best


def _clock_victim_index(frames, candidates, state):
    hand = state["hand"]
    n = len(frames)
    i = hand
    while True:
        if i in candidates:
            if frames[i].ref:
                frames[i].ref = 0
            else:
                state["hand"] = (i + 1) % n
                return i
        i = (i + 1) % n


def on_list(last_touch, page, t, n_lifetime):
    """Whether page is on the recency list at t: touched at or after t - N.

    last_touch maps each page touched so far to the time of its last
    touch.  A page never touched is not on the list, even where t - N
    overflows to -inf.
    """
    return page in last_touch and last_touch[page] >= t - n_lifetime


def brute_force_simulate(trace, frames_count, base_policy="lru",
                         n_lifetime=0.0, checkpoint_interval=None) -> SimReport:
    history: dict = {}  # page -> time of its last touch
    frames: list[_Frame] = []
    index_of = {}  # page -> its index in frames
    counters = {"logical": 0, "physical": 0, "evictions": 0,
                "contention_flushes": 0, "checkpoint_flushes": 0, "fallbacks": 0}
    cp_state = {"k": 1}
    clock_state = {"hand": 0}
    seq = 0
    prev_t = None

    for t, page, op in trace:
        assert prev_t is None or t >= prev_t, "oracle requires ordered traces"
        prev_t = t
        _run_checkpoints(frames, cp_state, t, checkpoint_interval, counters)
        counters["logical"] += 1
        seq += 1

        listed = on_list(history, page, t, n_lifetime)

        idx = index_of.get(page)
        if idx is not None:
            frame = frames[idx]
            frame.use_seq = seq
            frame.ref = 1
            if op == "write" and not frame.dirty:
                frame.dirty = True
                frame.first_dirtied = t
        else:
            counters["physical"] += 1
            protected_until = t + n_lifetime if listed else t
            if len(frames) < frames_count:
                index_of[page] = len(frames)
                frames.append(_Frame(page, t, protected_until, op == "write", seq))
            else:
                eligible = [i for i in range(len(frames))
                            if frames[i].protected_until <= t]
                if eligible:
                    candidates = set(eligible)
                else:
                    candidates = set(range(len(frames)))
                    counters["fallbacks"] += 1
                if base_policy == "lru":
                    idx = _lru_victim_index(frames, candidates)
                else:
                    idx = _clock_victim_index(frames, candidates, clock_state)
                counters["evictions"] += 1
                if frames[idx].dirty:
                    counters["contention_flushes"] += 1
                del index_of[frames[idx].page]
                index_of[page] = idx
                frames[idx] = _Frame(page, t, protected_until, op == "write", seq)
        history[page] = t

    if checkpoint_interval is not None:
        for f in frames:
            if f.dirty:
                f.dirty = False
                counters["checkpoint_flushes"] += 1

    logical = counters["logical"]
    physical = counters["physical"]
    return SimReport(
        logical_accesses=logical,
        physical_reads=physical,
        evictions=counters["evictions"],
        contention_flushes=counters["contention_flushes"],
        checkpoint_flushes=counters["checkpoint_flushes"],
        protected_eviction_fallbacks=counters["fallbacks"],
        hit_ratio=1.0 - physical / logical if logical else 0.0,
    )


def plain_base_policy(trace, frames_count, base_policy="lru",
                      checkpoint_interval=None) -> SimReport:
    """The bare base policy: no recency list, no protection, no fallbacks."""
    frames: list[_Frame] = []
    counters = {"logical": 0, "physical": 0, "evictions": 0,
                "contention_flushes": 0, "checkpoint_flushes": 0, "fallbacks": 0}
    cp_state = {"k": 1}
    clock_state = {"hand": 0}
    seq = 0
    index_of = {}  # page -> its index in frames

    for t, page, op in trace:
        _run_checkpoints(frames, cp_state, t, checkpoint_interval, counters)
        counters["logical"] += 1
        seq += 1
        idx = index_of.get(page)
        if idx is not None:
            frame = frames[idx]
            frame.use_seq = seq
            frame.ref = 1
            if op == "write" and not frame.dirty:
                frame.dirty = True
                frame.first_dirtied = t
        else:
            counters["physical"] += 1
            if len(frames) < frames_count:
                index_of[page] = len(frames)
                frames.append(_Frame(page, t, 0.0, op == "write", seq))
            else:
                candidates = range(len(frames))
                if base_policy == "lru":
                    idx = _lru_victim_index(frames, candidates)
                else:
                    idx = _clock_victim_index(frames, candidates, clock_state)
                counters["evictions"] += 1
                if frames[idx].dirty:
                    counters["contention_flushes"] += 1
                del index_of[frames[idx].page]
                index_of[page] = idx
                frames[idx] = _Frame(page, t, 0.0, op == "write", seq)

    if checkpoint_interval is not None:
        for f in frames:
            if f.dirty:
                f.dirty = False
                counters["checkpoint_flushes"] += 1

    logical = counters["logical"]
    physical = counters["physical"]
    return SimReport(
        logical_accesses=logical,
        physical_reads=physical,
        evictions=counters["evictions"],
        contention_flushes=counters["contention_flushes"],
        checkpoint_flushes=counters["checkpoint_flushes"],
        protected_eviction_fallbacks=counters["fallbacks"],
        hit_ratio=1.0 - physical / logical if logical else 0.0,
    )


def lru_stack_distances(trace) -> tuple[list[int], int]:
    """LRU stack distances of a trace (Mattson, Gecsei, Slutz & Traiger 1970).

    An access's stack distance is the number of distinct pages touched
    since the same page's previous access, itself included: 1 is a
    re-access of the most recent page.  A Fenwick tree over positions
    marks each page's last access, so a distance is a count of marks.
    Returns (counts, cold): counts[d] accesses at distance d, and the
    cold first accesses, one per distinct page.
    """
    pages = [page for _, page, _ in trace]
    n = len(pages)
    tree = [0] * (n + 1)  # Fenwick tree over positions 1..n

    def add(i, delta):
        while i <= n:
            tree[i] += delta
            i += i & -i

    def marks_up_to(i):
        total = 0
        while i > 0:
            total += tree[i]
            i -= i & -i
        return total

    last: dict = {}  # page -> position of its last access
    counts = [0] * (n + 1)
    cold = 0
    for i, page in enumerate(pages, start=1):
        j = last.get(page)
        if j is None:
            cold += 1
        else:
            # one mark per distinct page, all below i: len(last) of them
            counts[len(last) - marks_up_to(j - 1)] += 1
            add(j, -1)
        add(i, 1)
        last[page] = i
    return counts, cold


def lru_reads(counts, cold, frames) -> tuple[int, int, float]:
    """(physical reads, evictions, hit ratio) of an N=0 LRU pool of `frames`.

    An access misses when it is cold or its stack distance exceeds the
    pool; every miss after the pool first fills evicts one page.
    """
    logical = cold + sum(counts)
    physical = cold + sum(counts[frames + 1:])
    evictions = physical - min(frames, cold)
    return physical, evictions, 1.0 - physical / logical if logical else 0.0


def random_trace(rng: random.Random, max_events=200, max_pages=12,
                 write_prob=0.4, same_time_prob=0.15,
                 max_step=5.0) -> list[TraceEvent]:
    """Messy but valid trace: repeated timestamps, bursts, mixed ops."""
    events = []
    t = 0.0
    for _ in range(rng.randrange(max_events + 1)):
        if events and rng.random() < same_time_prob:
            pass  # repeat the previous timestamp
        else:
            t += rng.random() * max_step
        page = rng.randrange(1, max_pages + 1)
        op = "write" if rng.random() < write_prob else "read"
        events.append(TraceEvent(t, page, op))
    return events


def line_by_line_read_trace_csv(fh) -> list[TraceEvent]:
    header = fh.readline().rstrip("\n").rstrip("\r")
    if header != TRACE_HEADER:
        raise ValueError(f"trace file must start with {TRACE_HEADER!r}, got {header!r}")
    events = []
    for lineno, line in enumerate(fh, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected 3 fields, got {len(parts)}")
        t_raw, page, op_raw = parts
        try:
            t = float(t_raw)
        except ValueError:
            raise ValueError(f"line {lineno}: bad time {t_raw!r}") from None
        op = {"r": "read", "w": "write"}.get(op_raw)
        if op is None:
            raise ValueError(f"line {lineno}: op must be r or w, got {op_raw!r}")
        events.append(TraceEvent(t, page, op))
    return events
