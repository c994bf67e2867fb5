"""Trace-driven buffer-pool simulator with an N-second lifetime policy.

The pool runs LRU or Clock2 underneath and layers the recency-list rule
on top: the manager remembers every page touched within the last N
seconds, and when a page is re-read from disk while still on that list
it is granted an N-second lifetime, i.e. its frame will not be evicted
for the next N seconds (the list plays the role of LRU-K's retained
information period; O'Neil, O'Neil & Weikum, SIGMOD 1993).  Dirty
frames are flushed either on eviction (contention flush) or by periodic
checkpoints (checkpoint flush).

Exact semantics, shared by any reimplementation that wants to agree
with this one event for event:

* Virtual time is the trace's own timestamps; nothing waits.  Times
  must be finite and non-decreasing; a NaN, an infinite or a backwards
  time raises TraceOrderError.
* History membership: a page is on the list at time t iff its recorded
  last touch is >= t - N (strictly older entries have lapsed).  The
  membership test uses the state before the current access's touch is
  recorded; every access, hit or miss, records a touch afterwards.
* A miss always counts one physical read (writes allocate too) and sets
  the frame's protected_until to t + N when the page was on the list,
  else to t.  Hits never extend protection.
* Eviction considers frames with protected_until <= t; if none are
  eligible the base-policy victim among all frames is taken and the
  fallback counter is bumped.  Evicting a dirty frame counts one
  contention flush.
* With a checkpoint interval C, boundary k*C (k = 1, 2, ...) cleans the
  frames first dirtied before (k-1)*C, one checkpoint flush each.  Only
  the last boundary <= t acts before the event at t (cutoffs only grow
  and nothing is dirtied in between); it pops one queued dirtying per
  step, so no cost grows with the boundaries crossed or the pool size.
  Once a boundary is passed, t/C >= 2**53 (where boundaries stop being
  distinct floats) raises TraceOrderError.  A final checkpoint at end of
  trace cleans every dirty frame; no interval, no checkpoints at all.
* Clock2 keeps one reference bit per frame in a fixed ring of slots
  filled in index order; the hand starts at slot 0 and stops just past
  the victim.  Loads and hits set the bit.  The sweep skips ineligible
  frames without touching their bits; the fallback sweep ignores
  protection.
* LRU victims are least-recently-used; hits and loads both count as use.

Cost.  No eviction visits a protected frame, save to park it (LRU, once
per load or hit) or in a fallback, where every frame is protected;
auxiliary state is O(frames).  Every protection runs N seconds from a
non-decreasing t, so protections lapse in the order they were granted:
a FIFO of (protected_until, slot, load number) entries, popped before
each victim choice, keeps the count of protected frames, and when that
count is the pool size the fallback victim is taken at once.  Every
load, protected or not, stamps its slot with a new load number (the
physical read count), so an entry whose slot was reloaded since is
skipped as stale.

Clock2 keeps one byte per frame: bit 0 is the reference bit, bit 1 the
protected flag.  The hand clears the 1 bytes it passes and stops at a 0
byte; at a protected frame it leaves the rest of the sweep to
bytearray.find, which skips protected frames in C, and one translate
clears the reference bits passed.  The fallback sweep is a Python loop.

LRU parks the protected pages its scan from the cold end meets: a
parked page leaves the recency order and is older than every page still
in it, and pages are parked in recency order; a hit returns a parked
page to the recent end.  The victim is the oldest parked page whose
protection has lapsed (a heap keyed by park number), else the first
page in recency order; a fallback takes the oldest parked page, else
the first page in recency order.

So each eviction does O(1) amortised Python work whatever share of
frames is protected.  The FIFO drops its stale entries whenever it
passes 2 * frames entries, and so does the checkpoint queue of
dirtyings, keeping one entry per slot still dirty since that entry's
time, so it stays O(frames) even when no boundary comes.  The heap
needs no such step: it holds at most one entry per slot, since a slot's
entry leaves it before the slot is reloaded (a slot is evicted through
its entry, by the recency scan, which runs only once the heap is empty,
or in a fallback, which never takes a frame whose protection has
lapsed).  Per-slot state grows as the pool fills, so frames beyond the
trace's distinct pages cost nothing.

Traces.  A Trace holds a trace as three columns (times, dense page ids
with an id -> label table, write flags); simulate keys its state by the
dense ids, keeps the last touch of each page in a flat list indexed by
them, and reports labels in the event log.  Any other iterable of
(time, page, op) is run as it is, keyed by its pages.  read_trace_csv
splits whole blocks of plain lines at once and parses any other block
line by line, so what it accepts and the errors it reports are those of
a line-by-line reader.
"""
from __future__ import annotations

import io
import math
import operator
import sys
from array import array
from collections import OrderedDict, defaultdict, deque
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, NamedTuple

from .rules import EconomicParams, TechnologyParams, break_even_interval

LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
_U64 = (1 << 64) - 1

TRACE_HEADER = "time,page,op"
REPORT_HEADER = ("logical,physical,hit_ratio,evictions,"
                 "contention_flushes,checkpoint_flushes,fallbacks")


# clears Clock2's reference bit (byte 1 -> 0) but not a protected frame's
_CLEAR_REF = bytes.maketrans(b"\x01", b"\x00")


class ConfigError(ValueError):
    """Invalid simulator or generator configuration."""


class TraceOrderError(ValueError):
    """Trace timestamps went backwards, were not finite, or outran checkpoints."""


class TraceEvent(NamedTuple):
    time_s: float
    page_id: object
    op: str  # "read" | "write"


_OP_NAMES = ("read", "write")  # indexed by a write flag


class Trace(Sequence):
    """A trace held as three columns rather than one object per event.

    times is an array('d') of event times; ids an array('i') (or 'q') of
    dense page ids, one per distinct page, where labels[id] is the page
    as given (an int from generate_trace, a str from read_trace_csv);
    is_write holds one byte per event, 1 for a write.  It reads as a sequence of TraceEvent with
    the original labels: slicing gives a Trace, and == compares it event
    by event with any sequence.
    """
    __slots__ = ("times", "ids", "labels", "is_write")

    def __init__(self, times: array, ids: array, labels: Sequence, is_write: bytes):
        self.times, self.ids, self.labels, self.is_write = times, ids, labels, is_write

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return Trace(self.times[k], self.ids[k], self.labels, self.is_write[k])
        return TraceEvent(self.times[k], self.labels[self.ids[k]], _OP_NAMES[self.is_write[k]])

    def __iter__(self):
        return map(TraceEvent, self.times, map(self.labels.__getitem__, self.ids),
                   map(_OP_NAMES.__getitem__, self.is_write))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None

    def keyed(self):
        """(time, dense page id, op) per event: what simulate iterates."""
        return zip(self.times, self.ids, map(_OP_NAMES.__getitem__, self.is_write))


@dataclass(frozen=True)
class PoolConfig:
    frames: int
    base_policy: str = "lru"            # lru | clock2
    n_minute_s: float = 0.0             # protection lifetime N, in seconds
    checkpoint_interval_s: float | None = None  # None disables checkpoints

    def __post_init__(self):
        if isinstance(self.frames, bool) or not isinstance(self.frames, int) or self.frames <= 0:
            raise ConfigError(f"frames must be a positive integer, got {self.frames!r}")
        if self.base_policy not in ("lru", "clock2"):
            raise ConfigError(f"base_policy must be lru or clock2, got {self.base_policy!r}")
        if not 0 <= self.n_minute_s < math.inf:  # also false for NaN
            raise ConfigError(f"n_minute_s must be finite and >= 0, got {self.n_minute_s}")
        if self.checkpoint_interval_s is not None and not self.checkpoint_interval_s > 0:
            raise ConfigError("checkpoint_interval_s must be > 0 or None")


@dataclass(frozen=True)
class SimReport:
    logical_accesses: int
    physical_reads: int
    evictions: int
    contention_flushes: int
    checkpoint_flushes: int
    protected_eviction_fallbacks: int
    hit_ratio: float

    def row(self) -> tuple:
        """The counters in REPORT_HEADER's column order."""
        return (self.logical_accesses, self.physical_reads, self.hit_ratio,
                self.evictions, self.contention_flushes, self.checkpoint_flushes,
                self.protected_eviction_fallbacks)

    def csv(self) -> str:
        return f"{REPORT_HEADER}\n" + ",".join(
            format(cell, ".6g") if isinstance(cell, float) else str(cell)
            for cell in self.row()) + "\n"


def simulate(trace: Iterable[tuple], config: PoolConfig,
             event_log: list | None = None) -> SimReport:
    """Run the pool over a time-ordered trace and return the counters.

    trace is a Trace, whose dense page ids key the pool's state, or any
    iterable of (time, page, op), whose pages do.  event_log, when given,
    receives one ("evict", time, page, protected_until, was_fallback)
    tuple per eviction, for auditing the protection guarantee; page is
    the label the trace gave.
    """
    # history: page -> time of its last touch, -inf before the first
    if isinstance(trace, Trace):
        events, label = trace.keyed(), trace.labels.__getitem__
        history = [-math.inf] * len(trace.labels)
    else:
        events, label = trace, None
        history = defaultdict(lambda: -math.inf)
    frames = config.frames
    n_lifetime = config.n_minute_s
    cp = config.checkpoint_interval_s
    lru = config.base_policy == "lru"

    from heapq import heappop, heappush  # here: analytic commands never need it

    # page -> slot of each resident page but the parked ones; under LRU the
    # order is recency, least recent first
    slot_of = OrderedDict() if lru else {}
    move_to_end = slot_of.move_to_end if lru else None
    parked = OrderedDict()  # LRU: page -> slot, in the order they were parked
    # per-slot state, grown as the pool fills
    slot_page = []
    protected = []
    loaded = []     # load number (the physical read count) of the slot's page
    parked_at = []  # park number of a parked page, else 0
    dirty = bytearray()
    first_dirt = []
    ref = bytearray()  # bit 0: Clock2 reference bit; bit 1: protected
    # (protected_until, slot, load number) per protected load, oldest first
    expiries = deque()
    n_protected = 0
    lapsed = []  # heap of (park number, slot) of parked pages no longer protected
    park_no = 0
    # (first_dirt, slot) per clean-to-dirty change; popping skips stale ones
    dirtied = deque(maxlen=0 if cp is None else None)
    queue_cap = 2 * frames  # expiries and dirtied drop stale entries beyond it
    hand = 0
    logical = physical = evictions = contention = checkpoints = fallbacks = 0
    inf = math.inf
    next_boundary = cp if cp is not None else inf
    prev_t = -sys.float_info.max  # below every finite time, above -inf

    for t, page, op in events:
        if not prev_t <= t < inf:  # also false for NaN
            if math.isfinite(t):
                raise TraceOrderError(f"trace is not time-ordered: {t} after {prev_t}")
            raise TraceOrderError(f"trace times must be finite, got {t}")
        prev_t = t

        if t >= next_boundary:
            # below 2**53 floor(t/C) is within one of the last k with k*C <= t
            if not t / cp < 2**53:
                raise TraceOrderError(f"time {t} is 2**53 or more checkpoint intervals of {cp} s")
            k = math.floor(t / cp)
            if k * cp > t:
                k -= 1
            elif (k + 1) * cp <= t:
                k += 1
            next_boundary = (k + 1) * cp
            cutoff = k * cp - cp
            while dirtied and dirtied[0][0] < cutoff:
                i = dirtied.popleft()[1]
                if dirty[i] and first_dirt[i] < cutoff:
                    dirty[i] = 0
                    checkpoints += 1

        logical += 1
        i = slot_of.get(page)
        if i is None and parked:
            i = parked.pop(page, None)
            if i is not None:  # a hit returns a parked page to the recent end
                parked_at[i] = 0
                slot_of[page] = i
        if i is not None:
            if lru:
                move_to_end(page)
            else:
                ref[i] |= 1
            if op == "write" and not dirty[i]:
                dirty[i] = 1
                first_dirt[i] = t
                dirtied.append((t, i))
                if len(dirtied) > queue_cap:
                    dirtied = _live_dirt(dirtied, dirty, first_dirt)
        else:
            physical += 1
            prot = t + n_lifetime if history[page] >= t - n_lifetime else t
            if len(slot_page) < frames:
                i = len(slot_page)
                slot_page.append(None)
                protected.append(0.0)
                loaded.append(0)
                parked_at.append(0)
                dirty.append(0)
                first_dirt.append(0.0)
                ref.append(0)
            else:
                while expiries and expiries[0][0] <= t:
                    _, j, load = expiries.popleft()
                    if loaded[j] == load:
                        n_protected -= 1
                        ref[j] &= 1
                        if parked_at[j]:
                            heappush(lapsed, (parked_at[j], j))
                was_fallback = n_protected == frames
                if was_fallback:
                    n_protected -= 1  # the victim is one of them
                if not lru:
                    # The hand clears the reference bits of the candidates it
                    # passes and stops at the first one whose bit is clear.
                    i = hand
                    if was_fallback:  # every frame, all protected: byte 3 or 2
                        while ref[i] == 3:
                            ref[i] = 2
                            i = i + 1 if i + 1 < frames else 0
                    else:  # the eligible frames: byte 1 or 0
                        while ref[i] == 1:
                            ref[i] = 0
                            i = i + 1 if i + 1 < frames else 0
                        if ref[i]:
                            # a protected frame: find skips it and all the others
                            hand = i
                            i = ref.find(0, hand)
                            if i < 0:  # wrap to slot 0
                                ref[hand:] = ref[hand:].translate(_CLEAR_REF)
                                hand = 0
                                i = ref.find(0)
                                if i < 0:  # every eligible frame was referenced
                                    ref = ref.translate(_CLEAR_REF)
                                    i = ref.find(0)
                            ref[hand:i] = ref[hand:i].translate(_CLEAR_REF)
                    hand = i + 1 if i + 1 < frames else 0
                    old = slot_page[i]
                    del slot_of[old]
                elif was_fallback:
                    if parked:
                        old, i = parked.popitem(last=False)
                        parked_at[i] = 0
                    else:
                        old, i = slot_of.popitem(last=False)
                else:
                    while lapsed and parked_at[lapsed[0][1]] != lapsed[0][0]:
                        heappop(lapsed)
                    if lapsed:
                        i = heappop(lapsed)[1]
                        old = slot_page[i]
                        del parked[old]
                        parked_at[i] = 0
                    else:
                        old, i = slot_of.popitem(last=False)
                        while protected[i] > t:
                            park_no += 1
                            parked[old] = i
                            parked_at[i] = park_no
                            old, i = slot_of.popitem(last=False)
                evictions += 1
                if was_fallback:
                    fallbacks += 1
                if dirty[i]:
                    contention += 1
                if event_log is not None:
                    event_log.append(("evict", t, old if label is None else label(old),
                                      protected[i], was_fallback))
            slot_page[i] = page
            slot_of[page] = i
            protected[i] = prot
            loaded[i] = physical
            if prot > t:
                n_protected += 1
                ref[i] = 3
                expiries.append((prot, i, physical))
                if len(expiries) > queue_cap:
                    expiries = deque(e for e in expiries if loaded[e[1]] == e[2])
            else:
                ref[i] = 1
            if op == "write":
                dirty[i] = 1
                first_dirt[i] = t
                dirtied.append((t, i))
                if len(dirtied) > queue_cap:
                    dirtied = _live_dirt(dirtied, dirty, first_dirt)
            else:
                dirty[i] = 0
        history[page] = t

    if cp is not None:
        checkpoints += sum(dirty)  # final checkpoint cleans everything
    hit_ratio = 1.0 - physical / logical if logical else 0.0
    return SimReport(logical, physical, evictions, contention, checkpoints,
                     fallbacks, hit_ratio)


def _live_dirt(dirtied: deque, dirty: bytearray, first_dirt: list) -> deque:
    """The queue's entries whose slot is still dirty since their time, one per slot."""
    live = {i: d for d, i in dirtied if dirty[i] and first_dirt[i] == d}
    return deque((d, i) for i, d in live.items())


def recommended_n(tp: TechnologyParams, ep: EconomicParams) -> float:
    """Economically justified lifetime N: the break-even reference interval."""
    return break_even_interval(tp, ep).interval_s


def generate_trace(seed: int, n_ops: int, n_pages: int, zipf_s: float = 0.0,
                   write_fraction: float = 0.0,
                   ops_per_second: float = 1.0) -> Trace:
    """Deterministic synthetic trace: Zipf(s) page popularity, fixed op rate.

    The stream is reproducible bit for bit from the seed: a 64-bit LCG
    (state' = state * 6364136223846793005 + 1442695040888963407 mod
    2**64) supplies uniforms from the top 53 bits of each new state; per
    op the first uniform picks a page rank by inverse CDF over
    Zipf(zipf_s) (s=0 is uniform), the second makes it a write when below
    write_fraction.  Event k happens at k / ops_per_second.  Page ids
    are the ranks 1..n_pages.
    """
    if n_pages <= 0:
        raise ConfigError(f"n_pages must be > 0, got {n_pages}")
    if n_ops < 0:
        raise ConfigError(f"n_ops must be >= 0, got {n_ops}")
    if not zipf_s >= 0:  # also true for NaN
        raise ConfigError(f"zipf_s must be >= 0, got {zipf_s}")
    if not 0.0 <= write_fraction <= 1.0:
        raise ConfigError(f"write_fraction must be in [0, 1], got {write_fraction}")
    if not ops_per_second > 0:
        raise ConfigError(f"ops_per_second must be > 0, got {ops_per_second}")
    if n_ops > 1 and not (n_ops - 1) / ops_per_second < math.inf:
        raise ConfigError(f"ops_per_second {ops_per_second} puts the last of {n_ops} ops "
                          "at an infinite time")
    labels = range(1, n_pages + 1)  # dense id k is rank k + 1
    id_code = "i" if n_pages <= 2**31 else "q"
    if n_ops == 0:
        return Trace(array("d"), array(id_code), labels, b"")
    import numpy as np  # here, not at module level: analytic commands never need it

    # LCG states vectorized: state_k = A^k * seed + (1 + A + ... + A^(k-1)) * C
    n = 2 * n_ops
    mult = np.uint64(LCG_MULT)
    try:
        apow = np.cumprod(np.full(n, mult, dtype=np.uint64))
        geo = np.cumsum(np.concatenate((np.ones(1, dtype=np.uint64), apow[:-1])),
                        dtype=np.uint64)
        states = apow * np.uint64(seed & _U64) + geo * np.uint64(LCG_INC)
        uniforms = (states >> np.uint64(11)).astype(np.float64) * 2.0**-53

        weights = 1.0 / np.arange(1, n_pages + 1, dtype=np.float64) ** zipf_s
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        ranks = np.searchsorted(cdf, uniforms[0::2], side="right")
        ids = np.minimum(ranks, n_pages - 1).astype(id_code)  # 0-based ranks
        writes = uniforms[1::2] < write_fraction
        times = np.arange(n_ops, dtype=np.float64) / ops_per_second
    except MemoryError:
        raise ConfigError(f"{n_ops} ops over {n_pages} pages do not fit in memory") from None
    return Trace(array("d", times.tobytes()), array(id_code, ids.tobytes()), labels,
                 writes.tobytes())


# --- trace and report serialization ---------------------------------------

_OPS_OUT = {"read": "r", "write": "w"}
_WRITE_ROWS = 1 << 16  # rows formatted per write
_READ_CHARS = 1 << 20  # characters read per block, then up to the next newline
_OP_FLAG = {"r": 0, "w": 1}


def write_trace_csv(trace: Iterable[TraceEvent], fh: io.TextIOBase) -> None:
    """Trace CSV: header ``time,page,op``; op is r/w.

    Times keep full precision (repr) so a written trace replays exactly.
    Rows are formatted and written a block at a time.
    """
    fh.write(TRACE_HEADER + "\n")
    if isinstance(trace, Trace):
        rows = zip(trace.times, map(trace.labels.__getitem__, trace.ids),
                   map(("r", "w").__getitem__, trace.is_write))
    else:
        rows = ((t, page, _OPS_OUT[op]) for t, page, op in trace)
    while block := "".join([f"{t!r},{page},{op}\n" for t, page, op in islice(rows, _WRITE_ROWS)]):
        fh.write(block)


def read_trace_csv(fh: io.TextIOBase) -> Trace:
    """Read a trace CSV into a Trace whose page labels are strings.

    The file is read in blocks of whole lines.  A block of plain
    ``time,page,r|w`` lines is split at once; any other block is parsed
    line by line, which skips blank lines, strips each line and reports
    the first bad line by its number.  Invalid UTF-8 names the first line
    of the block being read, as the decoder reads ahead, and so pre-empts
    a malformed line earlier in that block.
    """
    lineno = 1  # the first line of the text being read
    try:
        header = fh.readline().rstrip("\n").rstrip("\r")
        if header != TRACE_HEADER:
            raise ValueError(f"trace file must start with {TRACE_HEADER!r}, got {header!r}")
        times, ids, is_write = array("d"), array("i"), bytearray()
        id_of: dict = {}  # page label -> dense id
        intern = id_of.setdefault
        lineno = 2
        while block := fh.read(_READ_CHARS):
            if not block.endswith("\n"):
                block += fh.readline()
                if not block.endswith("\n"):  # the file's last line
                    block += "\n"
            lines = block.count("\n")
            t_col, pages, w_col = _split_block(block, lines) or _parse_lines(block, lineno)
            times.extend(t_col)
            ids.extend([intern(page, len(id_of)) for page in pages])
            is_write.extend(w_col)
            lineno += lines
    except UnicodeDecodeError as err:  # raised only by the reads
        raise ValueError(f"line {lineno} or later: not UTF-8 ({err.reason})") from None
    return Trace(times, ids, list(id_of), is_write)


def _split_block(block: str, lines: int):
    """(times, pages, write flags) of a block of plain lines, else None.

    Each of the block's newlines becomes a field of its own, so the
    split is right only if there are four fields per newline and every
    fourth one is a newline: then each line has exactly three fields.
    """
    fields = block.replace("\n", ",\n,").split(",")
    fields.pop()  # the empty field after the last newline
    if len(fields) != 4 * lines or fields[3::4].count("\n") != lines:
        return None
    try:
        flags = bytes(map(_OP_FLAG.__getitem__, fields[2::4]))
        times = array("d", map(float, fields[0::4]))
    except (KeyError, ValueError):
        return None
    return times, fields[1::4], flags


def _parse_lines(block: str, lineno: int):
    """(times, pages, write flags) of a block, line by line; the first bad line raises."""
    times, pages, flags = [], [], bytearray()
    for lineno, line in enumerate(block.split("\n"), start=lineno):
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
        flag = _OP_FLAG.get(op_raw)
        if flag is None:
            raise ValueError(f"line {lineno}: op must be r or w, got {op_raw!r}")
        times.append(t)
        pages.append(page)
        flags.append(flag)
    return times, pages, flags
