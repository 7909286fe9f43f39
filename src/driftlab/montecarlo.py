"""Seeded Monte Carlo engine.

Trials are keyed by (seed, trial index) through SeedSequence spawn
keys, so results are deterministic and independent of trial execution
order.  trial_rng(seed, i) is the stream of trial i; simulations build
the streams of a chunk of trials at once (_trial_rngs), hashing every
spawn key of the chunk in one numpy pass, and each such stream equals
trial_rng's.  The reference for every simulation is the loop over a
trial's Process interface (sample_initial, is_target, step).  A process
whose step_law is a KernelDraw (kernel chains) or a BitFlipEA on
LeadingOnes is instead stepped by the lockstep walker: all
live trials of a chunk advance together in numpy, each reading its own
stream in blocks, since rng.random(a) followed by rng.random(b) gives
the numbers of rng.random(a + b).  A chain takes its block of draws a
segment of steps at a time: a step is a gather of each trial's
thresholds, a comparison with its uniform and a gather of its next
position in the chain's compiled table, and the segment's hits and
first visits are read from its history at once.  The EA on LeadingOnes
takes its block from improvement to improvement, since LO stays put in
between; its draws per trial are the loop's, rng.random(n) a step.
Once at most _HAND_OFF chain trials are live, or from the start in a
job of that many, each one's hitting time is finished in plain Python
on the compiled table, one uniform at a time from blocks of its stream.
On the loop, a UniformPick walk's rng.integers(k) calls are read from
blocks of its stream's raw words (_RawDraws), as numpy would draw
them.  Hitting times and value curves equal the loop's trial by trial.
"""

import itertools
import math
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

from .bounds import _grid_flags
from .errors import ParameterError
from .processes import BitFlipEA, KernelDraw, Process, UniformPick, _leading_ones, _natural

Z99 = 2.5758293035489004  # two-sided 99% normal quantile
_CAP = 10_000_000  # simulate_hitting's step cap when none is given


@dataclass(frozen=True)
class RunStats:
    """Hitting-time statistics over independent trials.

    mean/variance/ci99 cover the uncensored trials only; censored
    counts trials truncated at the step cap, and censored_mean_lb
    reports the mean with those trials contributing the cap, a lower
    bound on the true mean.
    """

    trials: int
    mean: float
    variance: float
    ci99: tuple
    censored: int
    cap: int
    censored_mean_lb: float

    @property
    def se(self) -> float:
        return math.sqrt(self.variance / max(self.trials - self.censored, 1))


@dataclass(frozen=True)
class ConditionReport:
    """Per-state verdicts for one drift-style condition."""

    condition_id: str
    per_state: tuple
    overall: str  # pass / fail / indeterminate
    extras: dict = field(default_factory=dict)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The private randomness stream of one trial."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


# numpy's SeedSequence hash of 32-bit words into a pool of 4: hashmix
# xors a word with a running constant, multiplies it by the constant's
# next value and xorshifts it by 16; mix joins two pool words
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_WIDE_TRIAL = 1 << 32  # from here a spawn key has two words


def _constants(value: int, mult: int, count: int) -> np.ndarray:
    """value and the count running constants after it."""
    return np.array([value * pow(mult, k, 1 << 32) & _M32 for k in range(count + 1)],
                    dtype=np.uint32)


# generate_state(4, uint64) reads the pool twice, one constant a word
_STATE_CONSTANTS = _constants(_INIT_B, _MULT_B, 8)


def _seed_pool(seed: int):
    """The pool of SeedSequence(seed, spawn_key=(t,)) before t, its last
    entropy word, is mixed in, and the five hash constants t's four
    hashmix calls use.  The entropy is the seed's words, zero-padded to
    the pool, then t; numpy hashes a short seed's missing pool words as
    0, so the pool is SeedSequence(seed)'s.  Filling and cross-mixing it
    takes 16 hashmix calls, and each seed word past the fourth 4 more."""
    calls = 4 * max(4, -(-seed.bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, calls, 1 << 32) & _M32
    return np.random.SeedSequence(seed).pool, _constants(const, _MULT_A, 4)


class _TrialSeed(ISpawnableSeedSequence):
    """Seeds one trial's PCG64 with the state words that
    SeedSequence(seed, spawn_key=(trial,)) generates for it.  spawn, and
    any other request, goes to that SeedSequence, built on first use."""

    def __init__(self, seed: int, trial: int, words: np.ndarray):
        self.seed, self.trial, self.words = seed, trial, words
        self._sequence = None

    def _full(self) -> np.random.SeedSequence:
        if self._sequence is None:
            self._sequence = np.random.SeedSequence(self.seed, spawn_key=(self.trial,))
        return self._sequence

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and np.dtype(dtype) == np.uint64:
            return self.words
        return self._full().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._full().spawn(n_children)


def _trial_rngs(seed: int, first: int, count: int) -> list:
    """The streams of trials first .. first + count - 1, each equal to
    trial_rng's, with the spawn keys of all of them hashed in one pass."""
    stop = first + count
    wide = min(max(first, _WIDE_TRIAL), stop)
    pool, const = _seed_pool(seed)
    t = np.arange(first, wide, dtype=np.uint32)[:, None]
    word = (t ^ const[:-1]) * const[1:]
    word ^= word >> 16
    pool = pool * np.uint32(_MIX_L) - word * np.uint32(_MIX_R)
    pool ^= pool >> 16
    state = (np.tile(pool, 2) ^ _STATE_CONSTANTS[:-1]) * _STATE_CONSTANTS[1:]
    state ^= state >> 16
    state = state.astype("<u4").view("<u8").astype(np.uint64)
    return [
        np.random.Generator(np.random.PCG64(_TrialSeed(seed, first + i, words)))
        for i, words in enumerate(state)
    ] + [trial_rng(seed, trial) for trial in range(wide, stop)]


def _streams(seed: int, trials: int):
    """The streams of trials 0 .. trials - 1, built a chunk at a time."""
    for first in range(0, trials, _CHUNK):
        yield from _trial_rngs(seed, first, min(_CHUNK, trials - first))


class _RawDraws:
    """rng.integers(k), for 1 <= k < 2**32, read from blocks of rng's raw
    64-bit words: call by call the Generator's own draws, for a stream
    that nothing reads from directly any more.

    numpy draws integers(k) by Lemire's multiply-and-reject on 32-bit
    halves of raw words (D. Lemire, "Fast Random Integer Generation in an
    Interval", ACM TOMACS 29(1), 2019): m = x·k for the next half x, again
    while m mod 2**32 < (2**32 - k) mod k, and the result is m >> 32.  A
    word gives its low half and keeps its high half for the next draw, as
    the bit generator's has_uint32 buffer does, and a half that buffer
    holds at the start (an odd-size integers(0, 2, size=n) leaves one)
    comes first.  integers(1) draws nothing.  The blocks double from
    _FIRST_BLOCK words, so a walk reads past its last draw; that is exact
    only because each trial's stream is its own."""

    def __init__(self, rng):
        self.raw = rng.bit_generator.random_raw
        state = rng.bit_generator.state
        self.half = state["uinteger"] if state["has_uint32"] else None
        self.words, self.block = iter(()), _FIRST_BLOCK

    def _next_uint32(self) -> int:
        half = self.half
        if half is not None:
            self.half = None
            return half
        word = next(self.words, None)
        if word is None:
            self.words = iter(self.raw(self.block).tolist())
            self.block *= 2
            word = next(self.words)
        self.half = word >> 32
        return word & _M32

    def integers(self, k: int) -> int:
        if not 1 <= k <= _M32:
            raise ValueError(f"integers({k}) needs 1 <= k < 2**32")
        if k == 1:
            return 0
        m = self._next_uint32() * k
        if m & _M32 < k:  # the rejection floor is below k
            floor = (_M32 + 1 - k) % k
            while m & _M32 < floor:
                m = self._next_uint32() * k
        return m >> 32


def _hit_time(process: Process, state, rng, cap: int) -> int:
    """The hitting time of a trial started at state, stepping it on (-1
    if the cap comes first).  A UniformPick walk draws its integers from
    rng's raw words."""
    if type(process.step_law) is UniformPick:
        rng = _RawDraws(rng)
    t = 0
    while not process.is_target(state):
        if t == cap:
            return -1
        state = process.step(state, rng)
        t += 1
    return t


def sample_hitting_times(
    process: Process, trials: int, seed: int, cap: int
) -> np.ndarray:
    """Per-trial hitting times; censored trials are recorded as -1."""
    seed = _natural("sample_hitting_times", "seed", seed)
    trials = _natural("sample_hitting_times", "trials", trials, 1)
    cap = _natural("sample_hitting_times", "cap", cap, 1)
    # a chain takes the lockstep walker at any trial count: it hands its
    # last few live trials, or all of a few, to its walk on compiled rows
    if isinstance(process.step_law, KernelDraw) or _steps_in_lockstep(process, trials):
        return _lockstep(process, trials, seed, cap)
    times = np.empty(trials, dtype=np.int64)
    for trial, rng in enumerate(_streams(seed, trials)):
        times[trial] = _hit_time(process, process.sample_initial(rng), rng, cap)
    return times


# ---------------------------------------------------------------------------
# Lockstep walker
# ---------------------------------------------------------------------------

_FEW_TRIALS = 4  # a chain's mean curve over no more trials than this takes the loop
_HAND_OFF = 32  # live trials the lockstep walker hands to a chain's walk on compiled rows
_CHUNK = 4096  # trials started together
_BLOCK_UNIFORMS = 1 << 19  # uniforms (and recorded values) held per block
_FIRST_BLOCK = 16  # steps in a chunk's first block; each next block doubles
_MIN_BLOCK = 64  # steps a full chunk's block can hold at least


class _KernelTable:
    """Successor and threshold rows of a KernelDraw chain, compiled on
    first visit and shared by every simulation of it.

    A row holds its successors as positions, width times their row
    number, and before each successor but the last the row's running sum,
    accumulated in row order as _categorical does.  _categorical takes
    the first successor whose sum is above u, else the last, so a row of
    two steps by one comparison, u >= its first sum, and a wider one by
    the first column above u.  A NaN sum, above no u, is held as -inf.
    Thresholds are padded with inf and successors with the row's last.
    Row 0 is a sentinel that steps to itself, as does every row not
    compiled yet.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.index = {}
        self.states = [None]
        self.ready = [True]
        self.width = 1
        self.succ = np.zeros((8, 1), dtype=np.int64)
        self.cut = np.full((8, 1), np.inf)

    def row(self, state) -> int:
        i = self.index.get(state)
        if i is None:
            i = self.index[state] = len(self.states)
            self.states.append(state)
            self.ready.append(False)
            if i == len(self.succ):
                self.succ = np.concatenate([self.succ, np.zeros_like(self.succ)])
                self.cut = np.concatenate([self.cut, np.full_like(self.cut, np.inf)])
        return i

    def compile(self, i: int) -> None:
        pairs = self.kernel(self.states[i])
        succ = np.array([self.row(s) for s, _ in pairs])
        if len(succ) > self.width:
            grow = len(succ) - self.width
            self.succ = self.succ // self.width * len(succ)
            self.succ = np.hstack([self.succ, np.repeat(self.succ[:, -1:], grow, axis=1)])
            self.cut = np.hstack([self.cut, np.full((len(self.cut), grow), np.inf)])
            self.width = len(succ)
        cut = np.array(list(itertools.accumulate(p for _, p in pairs))[:-1], dtype=float)
        cut[np.isnan(cut)] = -np.inf
        self.succ[i] = succ[-1] * self.width
        self.succ[i, :len(succ)] = succ * self.width
        self.cut[i, :len(cut)] = cut
        self.ready[i] = True


# compiled rows depend on the kernel alone, so lifted copies of a process
# share its table; an entry goes when its KernelDraw does
_TABLES = weakref.WeakKeyDictionary()


class _KernelWalk:
    """Trials of a KernelDraw chain as positions in its table.

    A block is stepped a segment of _FIRST_BLOCK steps at a time, on the
    table as it stands, with each step's positions written into the
    segment's history.  Then the history is read in one gather of the
    flags at its positions, and each slot's flagged rows are taken in
    order: a row not yet visited by this simulation is visited, and the
    first target row is the slot's hit.  A row that had to be compiled
    stepped to the sentinel, so the slots that passed one are stepped
    again from the earliest such step.  Rows an earlier simulation
    compiled step correctly and are only visited.
    """

    def __init__(self, process: Process, record: bool):
        law = process.step_law
        self.table = _TABLES.get(law)
        if self.table is None:
            self.table = _TABLES[law] = _KernelTable(law.kernel)
        self.process = process
        self.record = record
        self.width = 1
        # per simulation, at each row's position: 0 steps on, 1 not yet
        # visited, 2 target; and the row's value
        self.stride = 1
        self.flag = np.zeros(1, dtype=np.int8)
        self.val = np.full(1, np.nan)

    def _fit(self) -> None:
        """Lay flag and val out on the table's positions once it grew."""
        size, width = self.table.succ.size, self.table.width
        if size > len(self.flag):
            kept = slice(0, len(self.flag) // self.stride * width, width)
            flag = np.ones(size, dtype=np.int8)
            flag[kept] = self.flag[::self.stride]
            val = np.full(size, np.nan)
            val[kept] = self.val[::self.stride]
            self.flag, self.val, self.stride = flag, val, width

    def _visit(self, i: int) -> bool:
        """Visit row i, reached for the first time; whether it had to be
        compiled."""
        table = self.table
        state = table.states[i]
        target = self.process.is_target(state)
        compiled = not (target or table.ready[i])
        if compiled:
            table.compile(i)
            self._fit()
        self.flag[i * self.stride] = 2 if target else 0
        if self.record:
            self.val[i * self.stride] = self.process.value(state)
        return compiled

    def start(self, states) -> np.ndarray:
        rows = np.array([self.table.row(s) for s in states], dtype=np.int64)
        self._fit()
        for i in np.unique(rows[self.flag[rows * self.stride] == 1]).tolist():
            self._visit(i)
        self.pos = rows * self.stride
        return self.flag[self.pos] == 2

    def draw(self, rngs, steps: int) -> np.ndarray:
        u = np.empty((len(rngs), steps))
        for row, rng in zip(u, rngs):
            rng.random(out=row)
        return u.T

    def _walk(self, u, hist, pos) -> None:
        """Step every slot from its position once per row of u, each
        row of a slot's draws taken as _categorical takes its one
        uniform, and write the positions after each step into hist."""
        table = self.table
        succ, width = table.succ.ravel(), table.width
        # positions are always in range, and numpy buffers a take into out
        # unless it clips
        if width <= 2:
            cut = table.cut.ravel()
            for uk, out in zip(u, hist):
                pos = succ.take(pos + (uk >= cut.take(pos)), out=out, mode="clip")
        else:
            # the first column whose threshold is above u; the last one's is inf
            for uk, out in zip(u, hist):
                j = (uk[:, None] < table.cut.take(pos // width, axis=0)).argmax(axis=1)
                pos = succ.take(pos + j, out=out, mode="clip")

    def _segment(self, u, at, t: int):
        """Step every slot once per row of u and give its positions after
        each step.  A slot that reaches a target gets at = t + its step
        there and goes to the sentinel; the count of those slots."""
        hist = np.empty(u.shape, dtype=np.int64)
        self._walk(u, hist, self.pos)
        hits, lanes = [], slice(None)
        while True:
            f = self.flag.take(hist[:, lanes])
            if not f.any():
                break
            # each slot's flagged steps in order, until a hit or a row that
            # had to be compiled: every step after that went to the sentinel
            lane, step = np.nonzero(f.T)
            slot = np.arange(u.shape[1])[lanes][lane]
            stride = self.stride
            rows = hist[step, slot] // stride
            fresh, redo, last = set(), {}, -1
            for s, k, i in zip(slot.tolist(), step.tolist(), rows.tolist()):
                if s == last:
                    continue
                if self.flag[i * self.stride] == 1 and self._visit(i):
                    fresh.add(i)
                if i in fresh:
                    redo[s], last = k, s
                elif self.flag[i * self.stride] == 2:
                    at[s], last = t + k, s
                    hits.append(s)
            if self.stride != stride:
                hist //= stride
                hist *= self.stride
            if not redo:
                break
            lanes = np.array(list(redo))
            k = min(redo.values())
            again = np.empty((len(u) - k - 1, len(lanes)), dtype=np.int64)
            self._walk(u[k + 1:, lanes], again, hist[k, lanes])
            hist[k + 1:, lanes] = again
        self.pos = hist[-1].copy()
        self.pos[hits] = 0  # the sentinel steps to itself
        return hist, len(hits)

    def advance(self, u):
        """Step every slot once per row of u; each slot's step of
        reaching a target and, when recording, the values after each
        step, the value at the hit held after it."""
        span, slots = u.shape
        at = np.full(slots, -1)
        vals = np.empty((span, slots)) if self.record else None
        live = slots
        for t in range(0, span, _FIRST_BLOCK):
            seg = u[t:t + _FIRST_BLOCK]
            hist, hits = self._segment(seg, at, t)
            if self.record:
                self.val.take(hist, out=vals[t:t + len(seg)])
            live -= hits
            if not live:
                break
        if self.record:
            after = (at >= 0) & (np.arange(span)[:, None] > at)
            vals = np.where(after, vals[at, np.arange(slots)], vals)
        return at, vals

    def finish(self, rngs, t: int, cap: int) -> list:
        """The hitting time of each slot (-1 if the cap comes first),
        walked on alone from its position at time t in Python, over the
        table's rows as lists: a step takes the first column whose
        threshold is above u, as _walk does.  A slot's uniforms come in
        blocks that double from _FIRST_BLOCK, none past the cap, so a
        block may run on past the hit; the hitting time is still exact
        because each trial's stream is its own and nothing reads it
        after the hit.  A row first reached here is visited on arrival,
        and stepped from at once when that compiled it; the lists are
        then taken again, and if the table widened, the slots' positions
        are rescaled as _segment rescales its history."""
        succ, cut, flag = self._lists()
        times = []
        for slot, rng in enumerate(rngs):
            pos, now, block, hit = int(self.pos[slot]), t, _FIRST_BLOCK, -1
            while hit < 0 and now < cap:
                span = min(block, cap - now)
                block *= 2
                for u in rng.random(span).tolist():
                    while u >= cut[pos]:
                        pos += 1
                    pos = succ[pos]
                    now += 1
                    if flag[pos]:
                        if flag[pos] == 1:
                            stride = self.stride
                            if self._visit(pos // stride):
                                self.pos //= stride
                                self.pos *= self.stride
                                pos = pos // stride * self.stride
                                succ, cut, flag = self._lists()
                            else:
                                flag[pos] = int(self.flag[pos])
                        if flag[pos] == 2:
                            hit = now
                            break
            times.append(hit)
        return times

    def _lists(self):
        """The table's successors and thresholds and the flags, flat, as lists."""
        return self.table.succ.ravel().tolist(), self.table.cut.ravel().tolist(), self.flag.tolist()

    def keep(self, live) -> None:
        self.pos = self.pos[live]

    def values(self):
        return self.val[self.pos]


def _low_bit(words: np.ndarray, none: int) -> np.ndarray:
    """The place of the lowest set bit of each row of words (the last
    axis, word 0 holding the lowest bits), or none where no bit is set."""
    low = words & -words  # the lowest set bit alone, by two's complement
    # a power of two is exact in float32, so its exponent is its place
    place = (low.astype(np.float32).view(np.uint32) >> 23).astype(np.int32) - 127
    place += 8 * words.itemsize * np.arange(words.shape[-1], dtype=np.int32)
    place[words == 0] = none
    return place.min(axis=-1)


class _LeadingOnesWalk:
    """Trials of the (1+1) EA on LeadingOnes, each a row of bits packed
    into little-endian words (bit i of the string is bit i of the row,
    the padding after bit n - 1 is 0), with LO, its first 0 bit.

    A step keeps its offspring exactly when its first flipped bit f is
    at or above LO, and LO rises only at a step where f == LO: the flips
    kept since a slot's last improvement never touch the bits below LO,
    and bit LO flips only at the step that ends them.  So LO is constant
    from one improvement to the next, and a block of draws is taken in
    rounds: every slot still in the block finds its next step with
    f == LO, xors its kept flips up to there into its bits, and reads
    the new LO as the first 0 bit.  The rounds end when no slot has an
    improvement left in the block, and the kept flips after each slot's
    last one go into its bits as well."""

    def __init__(self, process: Process, record: bool):
        law = process.step_law
        self.n, self.p = law.n, law.p
        self.width = law.n
        self.record = record
        self.value = None if process.value is law.distance else process.value
        self.distance = np.arange(law.n, -1, -1, dtype=float)
        # one word of 1, 2 or 4 bytes for n <= 32, else 8-byte words
        size = -(-law.n // 8)
        size = 8 if size > 4 else 1 << (size - 1).bit_length()
        self.word = np.dtype(f"<u{size}")
        self.cols = -(-law.n // (8 * size)) * 8 * size

    def _pack(self, flags: np.ndarray) -> np.ndarray:
        """Rows of n flags as rows of words."""
        padded = np.zeros(flags.shape[:-1] + (self.cols,), dtype=bool)
        padded[..., :self.n] = flags
        words = np.packbits(padded, bitorder="little").view(self.word)
        return words.reshape(flags.shape[:-1] + (-1,))

    def _values(self, bits: np.ndarray) -> np.ndarray:
        """The process value of each row of bits, a string being a tuple
        of 0/1 ints as in the states step passes."""
        flags = np.unpackbits(bits.astype(self.word, copy=False).view(np.uint8),
                              axis=-1, count=self.n, bitorder="little")
        strings = flags.reshape(-1, self.n).tolist()
        return np.array([self.value(tuple(b)) for b in strings]).reshape(bits.shape[:-1])

    def start(self, states) -> np.ndarray:
        self.bits = self._pack(np.array(states, dtype=bool).reshape(len(states), self.n))
        self.lo = _low_bit(~self.bits, self.n)
        return self.lo == self.n

    def draw(self, rngs, steps: int) -> np.ndarray:
        flips = np.empty((len(rngs), steps, self.n), dtype=bool)
        for row, rng in zip(flips, rngs):
            np.less(rng.random(steps * self.n).reshape(steps, self.n), self.p, out=row)
        return self._pack(flips)

    def advance(self, flips):
        slots, span, _ = flips.shape
        n, bits, lo = self.n, self.bits, self.lo
        first = _low_bit(flips, n)  # n where nothing flips
        steps = np.arange(span, dtype=np.int32)
        at = np.full(slots, -1)
        if self.record:
            # LO at each step where it rose, and at step 0 the LO before it
            bits0, lo0 = bits.copy(), lo.copy()
            rises = np.zeros((slots, span), dtype=np.int32)
            rises[:, 0] = lo0
        # the slots still in the block, and the step after each one's last improvement
        act = np.arange(slots)
        since = np.zeros(slots, dtype=np.int32)
        while act.size:
            whole = act.size == slots
            f = first if whole else first[act]
            at_lo = lo[act][:, None]
            later = steps >= since[act][:, None]
            up = later & (f == at_lo)
            end = up.argmax(axis=1).astype(np.int32)
            rose = up[np.arange(act.size), end]
            end[~rose] = span - 1
            kept = later & (steps <= end[:, None]) & (f >= at_lo)
            seg = flips if whole else flips[act]
            bits[act] ^= np.bitwise_xor.reduce(seg * kept[:, :, None], axis=1)
            act, end = act[rose], end[rose]
            lo[act] = _low_bit(~bits[act], n)
            if self.record:
                rises[act, end] = lo[act]
            hit = lo[act] == n
            at[act[hit]] = end[hit]
            since[act] = end + 1
            act = act[~hit & (end + 1 < span)]
        if not self.record:
            return at, None
        curve = np.maximum.accumulate(rises, axis=1)
        if self.value is None:
            return at, self.distance[curve].T
        # every step's bits: the prefix xor of the flips kept at the LO before it
        before = np.hstack([lo0[:, None], curve[:, :-1]])
        kept = flips * (first >= before)[:, :, None]
        return at, self._values(np.bitwise_xor.accumulate(kept, axis=1) ^ bits0[:, None]).T

    def keep(self, live) -> None:
        self.bits, self.lo = self.bits[live], self.lo[live]

    def values(self):
        return self.distance[self.lo] if self.value is None else self._values(self.bits)


def _steps_in_lockstep(process: Process, trials: int) -> bool:
    """Whether the lockstep walker simulates these trials, for a mean
    curve; hitting times of a chain take it at any count (see _lockstep).
    A lockstep step of a chain costs about 2.6 µs of numpy calls however
    few trials are live, and the loop's own step 1-2 µs a trial, so a
    chain's curve over a few trials stays on the loop.  The EA on
    LeadingOnes takes a block of draws in a few numpy calls per
    improvement, where the loop pays a bit-string step per draw.  The EA
    on linear functions and the UniformPick walks take the loop."""
    law = process.step_law
    if isinstance(law, KernelDraw):
        return trials > _FEW_TRIALS
    return isinstance(law, BitFlipEA) and law.fitness is _leading_ones


def _chunk_trials(width: int) -> int:
    """Trials per chunk when each step draws width uniforms."""
    return max(1, min(_CHUNK, _BLOCK_UNIFORMS // (width * _MIN_BLOCK)))


def _lockstep(process: Process, trials: int, seed: int, steps: int, sums=None) -> np.ndarray:
    """Hitting times within steps steps (-1 if none), stepping every
    live trial of a chunk together.  With sums = (acc, acc2), the value
    curves of t = 0..steps are added to them trial after trial, as the
    loop over sample_trajectory adds them.

    A walker holds one slot per live trial.  start(states) gives the
    mask of slots on the target; draw(rngs, span) takes each slot's next
    span steps of draws from its stream; advance(draws) takes those
    steps and gives each slot's step of reaching the target within them
    (-1 if none) and, when recording, the (span, slots) values after
    each step, the value at the hit held after it; keep(mask) compacts
    the slots and values() gives each slot's process value.

    For a chain's hitting times, once at most _HAND_OFF trials are live
    at a block boundary (at once, for a job of that many), the chain
    walker's finish walks each of them on alone in Python: a lockstep
    step costs about 2.6 µs of numpy calls however few slots are live,
    a step on the rows as lists about 80 ns.  Each stream has then given
    exactly the draws of the steps taken."""
    record = sums is not None
    if isinstance(process.step_law, KernelDraw):
        walk = _KernelWalk(process, record)
    else:
        walk = _LeadingOnesWalk(process, record)
    times = np.full(trials, -1, dtype=np.int64)
    chunk = _chunk_trials(walk.width)
    for first in range(0, trials, chunk):
        rngs = _trial_rngs(seed, first, min(chunk, trials - first))
        size = len(rngs)
        hit = walk.start([process.sample_initial(rng) for rng in rngs])
        pos = np.arange(size)  # the trial in the chunk of each slot
        times[first + pos[hit]] = 0
        if record:
            cur = walk.values()  # each trial's value, held once it hits
            _add_in_order(sums, 0, cur[None])
        t, block = 0, _FIRST_BLOCK
        while True:
            if hit.any():
                pos = pos[~hit]
                rngs = [rng for rng, h in zip(rngs, hit) if not h]
                walk.keep(~hit)
            live = len(pos)
            if t == steps or not (live or record):
                break
            if not record and live <= _HAND_OFF and isinstance(walk, _KernelWalk):
                times[first + pos] = walk.finish(rngs, t, steps)
                break
            span = _BLOCK_UNIFORMS // max(live * walk.width, size if record else 1)
            span = min(block, steps - t, max(1, span))
            block *= 2
            if live:
                at, vals = walk.advance(walk.draw(rngs, span))
                hit = at >= 0
                times[first + pos[hit]] = t + 1 + at[hit]
            else:
                hit = np.zeros(0, dtype=bool)
            if record:
                rec = np.empty((span, size))
                rec[:] = cur
                if live:
                    rec[:, pos] = vals
                    cur[pos] = vals[-1]
                _add_in_order(sums, t + 1, rec)
            t += span
    return times


def _add_in_order(sums, t0: int, rec: np.ndarray) -> None:
    """Add each trial's values (the columns of rec, times t0 onward) to
    acc and their squares to acc2, one trial after the other."""
    acc, acc2 = sums
    seg = slice(t0, t0 + len(rec))
    for total, vals in ((acc, rec.T), (acc2, rec.T * rec.T)):
        total[seg] = np.add.accumulate(np.vstack([total[None, seg], vals]), axis=0)[-1]


def _stats_from_times(times: np.ndarray, cap: int) -> RunStats:
    trials = len(times)
    censored = int(np.sum(times < 0))
    good = times[times >= 0].astype(float)
    if good.size:
        mean = float(np.mean(good))
        var = float(np.var(good, ddof=1)) if good.size > 1 else 0.0
        half = Z99 * math.sqrt(var / good.size)
        ci = (mean - half, mean + half)
    else:
        mean, var, ci = float("nan"), float("nan"), (float("nan"), float("nan"))
    clipped = np.where(times < 0, cap, times).astype(float)
    return RunStats(
        trials=trials,
        mean=mean,
        variance=var,
        ci99=ci,
        censored=censored,
        cap=cap,
        censored_mean_lb=float(np.mean(clipped)),
    )


def simulate_hitting(
    process: Process, trials: int, seed: int, cap: Optional[int] = None
) -> RunStats:
    """Empirical hitting-time statistics over independent trials."""
    seed = _natural("simulate_hitting", "seed", seed)
    trials = _natural("simulate_hitting", "trials", trials, 1)
    cap = _CAP if cap is None else _natural("simulate_hitting", "cap", cap, 1)
    return _stats_from_times(sample_hitting_times(process, trials, seed, cap), cap)


@dataclass(frozen=True)
class TrajectoryStats:
    """Per-step mean and 99% CI of the process value."""

    horizon: int
    trials: int
    mean: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray


def sample_trajectory(process: Process, horizon: int, seed: int, trial: int = 0) -> np.ndarray:
    """Values of one trial over t = 0..horizon (terminal value is held
    after absorption)."""
    seed = _natural("sample_trajectory", "seed", seed)
    horizon = _natural("sample_trajectory", "horizon", horizon)
    trial = _natural("sample_trajectory", "trial", trial)
    return _trajectory(process, horizon, trial_rng(seed, trial))


def _trajectory(process: Process, horizon: int, rng) -> np.ndarray:
    state = process.sample_initial(rng)
    out = np.empty(horizon + 1)
    out[0] = process.value(state)
    for t in range(1, horizon + 1):
        if not process.is_target(state):
            state = process.step(state, rng)
        out[t] = process.value(state)
    return out


def simulate_trajectory(
    process: Process, horizon: int, trials: int, seed: int
) -> TrajectoryStats:
    """Mean value curve over t = 0..horizon with pointwise 99% CIs."""
    seed = _natural("simulate_trajectory", "seed", seed)
    horizon = _natural("simulate_trajectory", "horizon", horizon)
    trials = _natural("simulate_trajectory", "trials", trials, 1)
    acc = np.zeros(horizon + 1)
    acc2 = np.zeros(horizon + 1)
    if _steps_in_lockstep(process, trials):
        _lockstep(process, trials, seed, horizon, (acc, acc2))
    else:
        for rng in _streams(seed, trials):
            vals = _trajectory(process, horizon, rng)
            acc += vals
            acc2 += vals * vals
    mean = acc / trials
    var = np.maximum(acc2 / trials - mean * mean, 0.0)
    if trials > 1:
        var = var * trials / (trials - 1)
    half = Z99 * np.sqrt(var / trials)
    return TrajectoryStats(
        horizon=horizon, trials=trials, mean=mean,
        ci_lo=mean - half, ci_hi=mean + half,
    )


# ---------------------------------------------------------------------------
# Drift estimation and condition verification
# ---------------------------------------------------------------------------

def _one_step_drops(process: Process, potential, state, base: float, samples: int, rng):
    """(drops, probs, mean, ci) of the potential over one step from a
    state where it is base: with an exact kernel, each successor's drop,
    its probability, the exact mean and a zero-width CI; otherwise
    `samples` drawn drops, None, the sample mean and its 99% CI."""
    if process.exact_kernel is not None:
        row = process.exact_kernel(state)
        drops = np.array([base - potential.eval(succ) for succ, _ in row])
        probs = np.array([p for _, p in row])
        mean = float(np.dot(probs, drops))
        return drops, probs, mean, (mean, mean)
    after = (potential.eval(process.step(state, rng)) for _ in range(samples))
    drops = base - np.fromiter(after, dtype=float, count=samples)
    mean = float(np.mean(drops))
    se = float(np.std(drops, ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return drops, None, mean, (mean - Z99 * se, mean + Z99 * se)


def estimate_drift(process: Process, potential, state, samples: int, seed: int):
    """One-step drift of the potential at a state.

    Exact from the kernel when present (zero-width CI), otherwise the
    sample mean with a 99% CI.
    """
    seed = _natural("estimate_drift", "seed", seed)
    samples = _natural("estimate_drift", "samples", samples, 1)
    _, _, est, ci = _one_step_drops(
        process, potential, state, potential.eval(state), samples, trial_rng(seed, 0)
    )
    return est, ci


def _sample_states(process, rng):
    """Visited-state sampling for huge state spaces: walk up to 20
    trajectories and collect up to 50 distinct non-target states."""
    seen = {}  # ordered as first visited
    for _ in range(20):
        state = process.sample_initial(rng)
        for _ in range(10_000):
            if process.is_target(state):
                break
            seen[state] = None
            if len(seen) >= 50:
                break
            state = process.step(state, rng)
        if len(seen) >= 50:
            break
    return list(seen)


# the parameters each condition requires
_CONDITIONS = {
    "additive_D": ("delta",),
    "multiplicative_D": ("delta",),
    "variable_D": ("h",),
    "variance_Var": ("delta",),
    "step_bound_B": ("c",),
    "concentration_C": ("beta", "delta"),
    "monotone_M": (),
    "greed_admitting": ("h",),
}


def verify_condition(
    process: Process,
    potential,
    condition_id: str,
    state_set: Optional[Iterable] = None,
    samples: int = 10_000,
    seed: int = 0,
    delta: Optional[float] = None,
    c: Optional[float] = None,
    beta: Optional[float] = None,
    h=None,
    sense: str = ">=",
) -> ConditionReport:
    """Check a named drift-style condition per state.

    Exact-kernel processes evaluate expectations exactly (no CI); a
    state fails only when its estimate (or CI) conflicts with the
    threshold.  sense (">=" or "<=") says which side of the threshold
    the drift conditions ask for.  Without an explicit state_set,
    non-target states are sampled from trajectories and the overall
    verdict is capped at "indeterminate"; so is a check that examined
    no state.
    """
    if condition_id not in _CONDITIONS:
        raise ParameterError(f"unknown condition id {condition_id!r}")
    given = {"delta": delta, "c": c, "beta": beta, "h": h}
    missing = [name for name in _CONDITIONS[condition_id] if given[name] is None]
    if missing:
        raise ParameterError(f"{condition_id} requires {' and '.join(missing)}")
    if sense not in (">=", "<="):
        raise ParameterError(f"sense must be '>=' or '<=', got {sense!r}")
    seed = _natural("verify_condition", "seed", seed)
    samples = _natural("verify_condition", "samples", samples, 1)

    if condition_id == "greed_admitting":
        # property of the drift function itself, checked on a value grid
        hi = max((potential.eval(s) for s, _ in (process.initial_support or ())), default=1.0)
        greed = _grid_flags(h, 0.0, max(hi, 1.0))["greed_admitting"]
        return ConditionReport(
            condition_id=condition_id,
            per_state=(),
            overall=greed.status,
            extras={"grid_max": float(max(hi, 1.0))},
        )

    rng = trial_rng(seed, 0)
    sampled_states = state_set is None
    states = _sample_states(process, rng) if sampled_states else state_set

    exact = process.exact_kernel is not None
    tol = 1e-9
    slack = tol if exact else 0.0  # an exact CI is zero-width: allow for rounding
    per_state = []
    for state in states:
        # skipped here, not up front, so a memo of the last state's groups hits
        if process.is_target(state):
            continue
        base = potential.eval(state)
        drops, probs, mean_drop, ci = _one_step_drops(
            process, potential, state, base, samples, rng
        )
        if condition_id in ("additive_D", "multiplicative_D", "variable_D"):
            if condition_id == "additive_D":
                threshold = delta
            elif condition_id == "multiplicative_D":
                threshold = delta * base
            else:
                threshold = h.eval(base)
            ok = ci[1] >= threshold - slack if sense == ">=" else ci[0] <= threshold + slack
            estimate = mean_drop
        elif condition_id == "variance_Var":
            if exact:
                var = float(np.dot(probs, drops * drops)) - mean_drop * mean_drop
                ci = (var, var)
            else:
                var = float(np.var(drops, ddof=1))
                var_se = var * math.sqrt(2.0 / max(len(drops) - 1, 1))
                ci = (var - Z99 * var_se, var + Z99 * var_se)
            ok = ci[1] >= delta - slack
            estimate = var
        elif condition_id in ("step_bound_B", "monotone_M"):
            if exact:
                drops = drops[probs > 0]  # drops that can occur
            if condition_id == "step_bound_B":
                estimate = float(np.max(np.abs(drops))) if len(drops) else 0.0
                ok = estimate <= c + tol
            else:
                estimate = float(np.min(drops)) if len(drops) else 0.0
                ok = estimate >= -tol
            ci = (estimate, estimate)
        else:  # concentration_C
            if base <= 1.0:
                continue
            limit = beta * delta / math.log(base)
            cut = beta * base
            if exact:
                freq = float(np.sum(probs[drops >= cut - tol]))
                ci = (freq, freq)
            else:
                freq = float(np.mean(drops >= cut))
                p_se = math.sqrt(max(freq * (1 - freq), 1e-12) / len(drops))
                ci = (freq - Z99 * p_se, freq + Z99 * p_se)
            ok = ci[0] <= limit + slack
            estimate = freq
        per_state.append((state, estimate, ci, ok))

    if any(not ok for *_, ok in per_state):
        overall = "fail"
    elif exact and not sampled_states and per_state:
        overall = "pass"
    else:
        overall = "indeterminate"
    return ConditionReport(
        condition_id=condition_id,
        per_state=tuple(per_state),
        overall=overall,
        extras={"exact": exact, "sampled_states": sampled_states},
    )


def wilson_interval(successes: int, trials: int) -> tuple:
    """Wilson 99% score interval (z = Z99) for a binomial proportion.

    The ends are exactly 0 with no success and exactly 1 with no
    failure; computed, they can miss the observed frequency by rounding.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ParameterError(f"successes must lie in [0, {trials}], got {successes}")
    phat = successes / trials
    z2 = Z99 * Z99
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = Z99 * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return (lo, hi)


def tail_frequency(process: Process, time_threshold: int, trials: int, seed: int):
    """Empirical Pr[T > threshold] with a Wilson 99% CI."""
    seed = _natural("tail_frequency", "seed", seed)
    trials = _natural("tail_frequency", "trials", trials, 1)
    threshold = _natural("tail_frequency", "time_threshold", time_threshold)
    times = sample_hitting_times(process, trials, seed, cap=max(threshold, 1))
    exceed = int(np.sum((times < 0) | (times > threshold)))
    frac = exceed / trials
    return frac, wilson_interval(exceed, trials)
