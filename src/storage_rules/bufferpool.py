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
* History membership: a page is on the list at time t iff it has a
  recorded last touch and that touch is >= t - N (strictly older
  entries have lapsed), even where t - N overflows to -inf.  The
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
  and nothing is dirtied in between).  A time at or past boundary 2**53,
  C * 2**53 (t/C >= 2**53, where boundaries stop being distinct floats),
  raises TraceOrderError.  A final checkpoint at end of trace cleans
  every dirty frame; no interval, no checkpoints at all.
* Clock2 keeps one reference bit per frame in a fixed ring of slots
  filled in index order; the hand starts at slot 0 and stops just past
  the victim.  Loads and hits set the bit.  The sweep skips ineligible
  frames without touching their bits; the fallback sweep ignores
  protection.
* LRU victims are least-recently-used; hits and loads both count as use.

Cost.  Nothing happens at a checkpoint boundary.  A dirty frame's
checkpoint flush is settled at its next write or eviction, from the time
d it was first dirtied (an eviction then counts no contention flush, a
write dirties the frame anew), and the final checkpoint settles the
rest.  Once t >= C, d <= t - 8C has been flushed and d >= t - C has not;
only in between is the last boundary's cutoff computed (the proof is at
_QUICK_ACCEPT).  So no cost grows with the boundaries crossed or the
pool size.

No eviction visits a protected frame, save to park it (LRU, once
per load or hit) or in a fallback, where every frame is protected;
auxiliary state is O(frames).  Every protection runs N seconds from a
non-decreasing t, so protections lapse in the order they were granted:
a FIFO of (protected_until, slot) entries, popped before each victim
choice, keeps the count of protected frames, and when that count is the
pool size the fallback victim is taken at once.  A popped entry acts
only if its slot is still flagged protected (below) and due; any other
entry belongs to a load that a fallback evicted.  Every entry due at t
pops in one pass, so acting on a slot's first due entry leaves the
state that acting on its own entry would.

Each frame keeps one byte: bit 1 is the protected flag, bit 0 Clock2's
reference bit.  The Clock2 hand clears the 1 bytes it passes and stops
at a 0 byte (in a fallback, the 3 bytes and a 2); at a protected frame
it leaves the rest of the sweep to bytearray.find, and one
bytearray.replace clears the reference bits passed.  Each was set by a
hit or a load, so only the Python work per cleared bit is amortised over
events: the passed stretch, protected frames too, is still searched and
copied in C.

LRU parks the protected pages its scan from the cold end meets: a
parked page leaves the recency order and is older than every page still
in it, and pages are parked in recency order; a hit returns a parked
page to the recent end.  The victim is the oldest parked page whose
protection has lapsed (a heap keyed by park number), else the first
page in recency order; a fallback takes the oldest parked page, else
the first page in recency order.

So each eviction does O(1) amortised Python work whatever share of
frames is protected.  Whenever the FIFO passes 2 * frames entries it
is rebuilt from the flags, one entry per protected frame, so it stays
O(frames) even where reloads at one time repeat an entry.  The heap
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
from collections import OrderedDict, defaultdict, deque, namedtuple
from collections.abc import Iterable, Sequence
from itertools import islice

LCG_MULT = 6364136223846793005
LCG_INC = 1442695040888963407
_U64 = (1 << 64) - 1

TRACE_HEADER = "time,page,op"
REPORT_HEADER = ("logical,physical,hit_ratio,evictions,"
                 "contention_flushes,checkpoint_flushes,fallbacks")


class ConfigError(ValueError):
    """Invalid simulator or generator configuration."""


class TraceOrderError(ValueError):
    """Trace timestamps went backwards, were not finite, or outran checkpoints."""


# op is "read" or "write"; a namedtuple, not a typing.NamedTuple, so
# that simulate and gen-trace do not load typing
TraceEvent = namedtuple("TraceEvent", ["time_s", "page_id", "op"])


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


# base_policy is lru or clock2; n_minute_s is the protection lifetime N,
# in seconds; checkpoint_interval_s None disables checkpoints
class PoolConfig(namedtuple("PoolConfig", "frames base_policy n_minute_s checkpoint_interval_s",
                            defaults=("lru", 0.0, None))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if isinstance(self.frames, bool) or not isinstance(self.frames, int) or self.frames <= 0:
            raise ConfigError(f"frames must be a positive integer, got {self.frames!r}")
        if self.base_policy not in ("lru", "clock2"):
            raise ConfigError(f"base_policy must be lru or clock2, got {self.base_policy!r}")
        if not 0 <= self.n_minute_s < math.inf:  # also false for NaN
            raise ConfigError(f"n_minute_s must be finite and >= 0, got {self.n_minute_s}")
        if self.checkpoint_interval_s is not None and not self.checkpoint_interval_s > 0:
            raise ConfigError("checkpoint_interval_s must be > 0 or None")
        return self


class SimReport(namedtuple("SimReport", "logical_accesses physical_reads evictions "
                                        "contention_flushes checkpoint_flushes "
                                        "protected_eviction_fallbacks hit_ratio")):
    __slots__ = ()

    def row(self) -> tuple:
        """The counters in REPORT_HEADER's column order."""
        return (self.logical_accesses, self.physical_reads, self.hit_ratio,
                self.evictions, self.contention_flushes, self.checkpoint_flushes,
                self.protected_eviction_fallbacks)

    def csv(self) -> str:
        return f"{REPORT_HEADER}\n" + ",".join(
            format(cell, ".6g") if isinstance(cell, float) else str(cell)
            for cell in self.row()) + "\n"


# The quick accept: once t >= C, a frame dirtied at d <= fl(t - 8C) has
# been flushed.  Let u = 2**-53 and K the last boundary, so K >= 1 and
# b = fl(K*C) <= t < fl((K+1)*C).  Then (K+1)*C > t*(1-u), so
# b > t*(1-2u) - C and the cutoff fl(b - C) > t*(1-3u) - 2C > t - 5C, since
# u*t < C for t < C * 2**53.  8C is exact and
# fl(t - 8C) < t - 8C + max(u*t, 8uC) < t - 7C, so d < the cutoff.  (A
# subnormal result errs by at most 2**-1075 <= C/2, which the margin covers.)
# Conversely d >= fl(t - C) has not been flushed: b <= t gives
# fl(b - C) <= fl(t - C).
_QUICK_ACCEPT = 8


def _cutoff(t: float, cp: float) -> float:
    """The last boundary's cutoff at t, for cp <= t < cp * 2**53."""
    # below 2**53 floor(t/C) is within one of the last k with k*C <= t
    k = math.floor(t / cp)
    if k * cp > t:
        k -= 1
    elif (k + 1) * cp <= t:
        k += 1
    return k * cp - cp


def simulate(trace: Iterable[tuple], config: PoolConfig,
             event_log: list | None = None) -> SimReport:
    """Run the pool over a time-ordered trace and return the counters.

    trace is a Trace, whose dense page ids key the pool's state, or any
    iterable of (time, page, op), whose pages do.  event_log, when given,
    receives one ("evict", time, page, protected_until, was_fallback)
    tuple per eviction, for auditing the protection guarantee; page is
    the label the trace gave.
    """
    # history: page -> time of its last touch, NaN before the first, so
    # that no bound admits it, not even a t - N that overflows to -inf
    if isinstance(trace, Trace):
        events = zip(trace.times, trace.ids, map(_OP_NAMES.__getitem__, trace.is_write))
        label = trace.labels.__getitem__
        history = [math.nan] * len(trace.labels)
    else:
        events, label = trace, None
        history = defaultdict(lambda: math.nan)
    frames = config.frames
    n_lifetime = config.n_minute_s
    cp = config.checkpoint_interval_s
    lru = config.base_policy == "lru"

    from heapq import heappop, heappush  # here: gen-trace never needs it

    # page -> slot of each resident page but the parked ones; under LRU the
    # order is recency, least recent first
    slot_of = OrderedDict() if lru else {}
    move_to_end = slot_of.move_to_end if lru else None
    parked = OrderedDict()  # LRU: page -> slot, in the order they were parked
    # per-slot state, grown as the pool fills
    slot_page = []
    protected = []
    parked_at = []  # park number of a parked page, else 0
    dirtied = []  # time of the first write since the last flush; clean if -inf or < _cutoff(t)
    ref = bytearray()  # bit 0: Clock2 reference bit; bit 1: protected
    expiries = deque()  # (protected_until, slot) per protected load, oldest first
    n_protected = 0
    lapsed = []  # heap of (park number, slot) of parked pages no longer protected
    park_no = 0
    hand = 0
    logical = physical = contention = dirtyings = fallbacks = 0
    inf = math.inf
    # A frame dirtied at d is flushed by t iff d < _cutoff(t), which is
    # settled at its next write or eviction: d > t - lag is still dirty,
    # d <= t - margin flushed, and only in between is _cutoff computed.
    # Once t >= C, lag = C and margin = _QUICK_ACCEPT * C; before that, and
    # with checkpoints off, both are inf, so t - lag and t - margin are -inf.
    lag = margin = inf
    t_next = cp if cp is not None else inf  # the loop's next rule change
    prev_t = -sys.float_info.max  # below every finite time, above -inf

    for t, page, op in events:
        if not prev_t <= t < t_next:  # also false for NaN
            if not prev_t <= t < inf:
                if math.isfinite(t):
                    raise TraceOrderError(f"trace is not time-ordered: {t} after {prev_t}")
                raise TraceOrderError(f"trace times must be finite, got {t}")
            if t_next == cp:  # the first boundary is passed
                lag, margin, t_next = cp, _QUICK_ACCEPT * cp, cp * 2**53
            # C * 2**53 is exact when finite, and boundary 2**53 itself
            if t >= t_next:
                raise TraceOrderError(f"time {t} is 2**53 or more checkpoint intervals of {cp} s")
        prev_t = t

        logical += 1
        i = slot_of.get(page)
        if i is not None:
            if lru:
                move_to_end(page)
            else:
                ref[i] |= 1
        elif parked and (i := parked.pop(page, None)) is not None:
            parked_at[i] = 0  # a hit returns a parked page to the recent end
            slot_of[page] = i
        else:
            physical += 1
            prot = t + n_lifetime if history[page] >= t - n_lifetime else t
            if len(slot_page) < frames:
                i = len(slot_page)
                slot_page.append(None)
                protected.append(0.0)
                parked_at.append(0)
                dirtied.append(-inf)
                ref.append(0)
            else:
                while expiries and expiries[0][0] <= t:
                    j = expiries.popleft()[1]
                    if ref[j] > 1 and protected[j] <= t:  # else a fallback took its load
                        n_protected -= 1
                        ref[j] &= 1
                        if parked_at[j]:
                            heappush(lapsed, (parked_at[j], j))
                was_fallback = n_protected == frames
                if was_fallback:
                    n_protected -= 1  # the victim is one of them
                    fallbacks += 1
                if not lru:
                    # The hand clears the reference bits of the candidates it
                    # passes (all frames in a fallback, else the eligible ones)
                    # and stops at the first one whose bit is clear.
                    i = hand
                    seen, clear = (3, 2) if was_fallback else (1, 0)
                    while ref[i] == seen:
                        ref[i] = clear
                        i = i + 1 if i + 1 < frames else 0
                    if ref[i] != clear:
                        # a protected frame: find skips it and all the others
                        hand = i
                        i = ref.find(0, hand)
                        if i < 0:  # wrap to slot 0
                            ref[hand:] = ref[hand:].replace(b"\x01", b"\x00")
                            hand = 0
                            i = ref.find(0)
                            if i < 0:  # every eligible frame was referenced
                                ref[:] = ref.replace(b"\x01", b"\x00")
                                i = ref.find(0)
                        ref[hand:i] = ref[hand:i].replace(b"\x01", b"\x00")
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
                d = dirtied[i]
                if d > t - margin and (d > t - lag or d >= _cutoff(t, cp)):  # still dirty
                    contention += 1
                    dirtied[i] = -inf
                if event_log is not None:
                    event_log.append(("evict", t, old if label is None else label(old),
                                      protected[i], was_fallback))
            slot_page[i] = page
            slot_of[page] = i
            protected[i] = prot
            if prot > t:
                n_protected += 1
                ref[i] = 3
                expiries.append((prot, i))
                if len(expiries) > 2 * frames:  # rebuilt: one entry per protected frame
                    js = sorted([j for j, r in enumerate(ref) if r > 1], key=protected.__getitem__)
                    expiries = deque(zip(map(protected.__getitem__, js), js))
            else:
                ref[i] = 1
        if op == "write":
            d = dirtied[i]
            if d <= t - lag and (d <= t - margin or d < _cutoff(t, cp)):  # clean or flushed
                dirtied[i] = t
                dirtyings += 1
        history[page] = t

    # every dirty spell ends in one flush: an eviction's, or with checkpoints
    # a boundary's or the final checkpoint's
    checkpoints = dirtyings - contention if cp is not None else 0
    evictions = physical - len(slot_page)  # every other miss filled a free frame
    hit_ratio = 1.0 - physical / logical if logical else 0.0
    return SimReport(logical, physical, evictions, contention, checkpoints,
                     fallbacks, hit_ratio)


def recommended_n(tp: rules.TechnologyParams, ep: rules.EconomicParams) -> float:
    """Economically justified lifetime N: the break-even reference interval."""
    from . import rules  # here: simulate and gen-trace never need it

    return rules.break_even_interval(tp, ep).interval_s


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
    are the ranks 1..n_pages.  The columns are allocated once, at full
    size, and filled in place a chunk of ops at a time.
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
    try:
        trace = Trace(array("d", [0.0]) * n_ops, array(id_code, [0]) * n_ops, labels,
                      bytearray(n_ops))
        if n_ops:
            _fill_trace(trace, seed, zipf_s, write_fraction, ops_per_second)
    except (MemoryError, OverflowError):
        raise ConfigError(f"{n_ops} ops over {n_pages} pages do not fit in memory") from None
    return trace


_GEN_OPS = 1 << 14  # ops generated per chunk


def _fill_trace(trace: Trace, seed: int, zipf_s: float, write_fraction: float,
                ops_per_second: float) -> None:
    """Fill generate_trace's columns in place, _GEN_OPS ops at a time.

    numpy writes through views of the columns, which die with this frame,
    so the columns can be resized again once it returns.
    """
    import numpy as np  # here, not at module level: simulate never needs it

    n_ops = len(trace)
    times = np.frombuffer(trace.times, dtype=np.float64)
    ids = np.frombuffer(trace.ids, dtype=trace.ids.typecode)
    writes = np.frombuffer(trace.is_write, dtype=np.uint8)
    # LCG jumps: state_(k+j) = A^j * state_k + (1 + A + ... + A^(j-1)) * C,
    # for j = 1 .. 2 * _GEN_OPS, two states per op
    apow = np.cumprod(np.full(2 * min(n_ops, _GEN_OPS), np.uint64(LCG_MULT)))
    geo_c = np.cumsum(np.concatenate((np.ones(1, dtype=np.uint64), apow[:-1])),
                      dtype=np.uint64) * np.uint64(LCG_INC)
    n_pages = len(trace.labels)
    weights = 1.0 / np.arange(1, n_pages + 1, dtype=np.float64) ** zipf_s
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    state = np.uint64(seed & _U64)
    for lo in range(0, n_ops, _GEN_OPS):
        hi = min(lo + _GEN_OPS, n_ops)
        n = 2 * (hi - lo)
        states = apow[:n] * state + geo_c[:n]
        state = states[-1]
        uniforms = (states >> np.uint64(11)).astype(np.float64) * 2.0**-53
        ranks = np.searchsorted(cdf, uniforms[0::2], side="right")
        ids[lo:hi] = np.minimum(ranks, n_pages - 1)  # 0-based ranks
        writes[lo:hi] = uniforms[1::2] < write_fraction
        times[lo:hi] = np.arange(lo, hi, dtype=np.float64) / ops_per_second


# --- trace and report serialization ---------------------------------------

# rows formatted per write; larger blocks are no faster and hold more (5 MB at 1 << 16)
_WRITE_ROWS = 1 << 14
_READ_CHARS = 1 << 17  # characters read per block, then up to the next newline
_OP_FLAG = {"r": 0, "w": 1}


def write_trace_csv(trace: Iterable[TraceEvent], fh: io.TextIOBase) -> None:
    """Trace CSV: header ``time,page,op``; op is w for "write", else r.

    Times keep full precision (repr) so a written trace replays exactly.
    Rows are formatted and written a block at a time: the repr of each
    time, the ``,page,`` cell of its page, formatted once per distinct
    page, and ``r`` or ``w``.  A page label with a comma or a line break
    raises ValueError once the blocks before it are written.
    """
    fh.write(TRACE_HEADER + "\n")
    if isinstance(trace, Trace):
        lines = map("".join, zip(map(repr, trace.times),
                                 map(_PageCells(trace.labels.__getitem__).__getitem__, trace.ids),
                                 map(("r\n", "w\n").__getitem__, trace.is_write)))
    else:
        cells = _PageCells(format)
        lines = (f"{t!r}{cells[page]}{'w' if op == 'write' else 'r'}\n" for t, page, op in trace)
    while block := "".join(islice(lines, _WRITE_ROWS)):
        fh.write(block)


class _PageCells(dict):
    """page -> ``,label,``, formatted and checked at the page's first lookup.

    Lazy, so a label table far larger than the trace (generate_trace's
    range of every page) costs only the pages that occur.
    """
    __slots__ = ("label",)

    def __init__(self, label):  # label(page) is the label to write
        self.label = label

    def __missing__(self, page) -> str:
        cell = self[page] = f",{self.label(page)},"
        if cell.count(",") > 2 or "\n" in cell or "\r" in cell:
            raise ValueError(f"page label {cell[1:-1]!r} contains ',' or a line break")
        return cell


def read_trace_csv(fh: io.TextIOBase) -> Trace:
    """Read a trace CSV into a Trace whose page labels are strings.

    The file is read in blocks of whole lines.  A block of plain
    ``time,page,r|w`` lines is split at once; any other block is parsed
    line by line, which skips blank lines, strips each line and reports
    the first bad line by its number.  Invalid UTF-8 met by the header
    read names its line; met by a block read, it names the block's first
    line, as the decoder reads ahead, and so pre-empts a malformed line
    earlier in that block.
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
        where = f"line {lineno} or later:"
        if lineno == 1:
            # the header read decodes the file's first chunk, then more
            # only while no newline has come, so the bad byte's line is known
            lineno += bytes(err.object[:err.start]).count(b"\n")
            where = f"line {lineno} is"
        raise ValueError(f"{where} not UTF-8 ({err.reason})") from None
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
