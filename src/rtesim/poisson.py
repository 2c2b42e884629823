"""Seeded, lazily extended unit-rate Poisson epoch streams.

Every stream is keyed by ``(master_seed, replication, process)`` through a
counter-based Philox generator, so the epoch sequence is a pure function of
the key: queries may arrive in any order, from any consumer, and the stream
always contains the same epochs.  This is what makes coupled-path
comparisons possible -- the exact solver and every fixed-step variant of one
replication read the very same epochs.

Each stream draws its epochs BATCH at a time, and ``next_epochs`` is the
only code that draws them: one call extends any number of streams by a
batch each, and since a stream depends on its key alone, a row's epochs do
not depend on which streams share the call.  ``PoissonPath`` keeps every
epoch of one stream; ``EpochWindows``, the block solvers' reader, keeps
only the batch each stream of a block is in and refills every exhausted
window in one call.  A block in which several rows read one stream, a
lock-step group, draws every stream's batches once into a bank that its
rows copy from.
"""

import bisect
import math
import operator

import numpy as np

from .errors import QueryError

_TINY = np.finfo(float).tiny
# epochs drawn per stream at a time; batch boundaries set the rounding of
# the cumulative sums, so every reader of a stream draws the same batches
BATCH = 128


def epoch_generator(master_seed, replication, process):
    """Philox generator of the stream keyed (master_seed, replication, process)."""
    ss = np.random.SeedSequence(entropy=master_seed,
                                spawn_key=(replication, process))
    return np.random.Generator(np.random.Philox(ss))


def next_epochs(gens, last):
    """The next BATCH epochs of each stream, shape (len(gens), BATCH).

    Row i continues the stream of ``gens[i]``, whose latest epoch is
    ``last[i]``.  A row's epochs do not depend on the other rows.
    """
    out = np.empty((len(gens), BATCH))
    for gen, row in zip(gens, out):
        gen.standard_exponential(out=row, method="inv")
    # a zero gap (probability ~2^-53) would break strict monotonicity
    np.maximum(out, _TINY, out=out)
    np.cumsum(out, axis=1, out=out)
    out += last[:, None]
    return out


class PoissonPath:
    """Unit-rate Poisson process as a growing, strictly increasing epoch list.

    Epochs are generated on demand in fixed-size batches from exponential
    gaps (inverse-CDF method), so extension is deterministic no matter how
    the path is queried.  A path is single-owner mutable: share it freely
    between solver variants inside one replication, never across threads.
    """

    __slots__ = ("_gen", "_epochs")

    def __init__(self, master_seed, replication, process):
        self._gen = epoch_generator(master_seed, replication, process)
        self._epochs = []

    @property
    def epochs(self):
        """Epochs materialised so far (do not mutate)."""
        return self._epochs

    def _extend_past(self, u):
        e = self._epochs
        last = e[-1] if e else 0.0
        while last <= u:
            e.extend(next_epochs((self._gen,), np.array([last]))[0].tolist())
            last = e[-1]

    def count_at(self, u):
        """Number of epochs in (0, u], i.e. Y(u) for this unit-rate process."""
        if not (u >= 0.0) or not math.isfinite(u):
            raise QueryError(f"count_at needs finite u >= 0, got {float(u)!r}")
        if u == 0.0:
            return 0
        self._extend_past(u)
        return bisect.bisect_right(self._epochs, u)

    def increment(self, a, b):
        """Count of epochs in (a, b]; a <= b required."""
        if a > b:
            raise QueryError(f"increment needs a <= b, got a={float(a)!r} b={float(b)!r}")
        if not (a >= 0.0) or not math.isfinite(b):
            raise QueryError(f"increment needs finite 0 <= a <= b, "
                             f"got a={float(a)!r} b={float(b)!r}")
        if a == b:
            return 0
        self._extend_past(b)
        e = self._epochs
        return bisect.bisect_right(e, b) - bisect.bisect_right(e, a)

    def next_epoch_after(self, u):
        """Smallest epoch strictly greater than u."""
        if not (u >= 0.0) or not math.isfinite(u):
            raise QueryError(f"next_epoch_after needs finite u >= 0, got {float(u)!r}")
        e = self._epochs
        if not e or e[-1] <= u:
            self._extend_past(u)
        return e[bisect.bisect_right(e, u)]


class PathBundle:
    """The p driving streams of one replication, derived from one master seed."""

    def __init__(self, master_seed, replication, p):
        self.master_seed = master_seed
        self.replication = replication
        self.paths = [PoissonPath(master_seed, replication, k) for k in range(p)]

    def __getitem__(self, k):
        return self.paths[k]


class EpochWindows:
    """The current epoch batch of every (row, process) stream of a block.

    Row i reads the streams of replication ``replications[i]`` (an int
    array).  Each stream draws its batches exactly as PoissonPath does, so
    a window holds the epochs PoissonPath would list at the same positions;
    only the batch that the cursor sits in is kept.  A cursor sits on the
    first epoch above the latest clock queried; clocks never decrease.

    A stream has one generator however many rows read it.  In a block
    where no replication repeats, each stream draws into its row's window.
    In a block where one does, as the configs of a lock-step group do,
    every stream is banked: its batches are drawn once, into a bank, each
    of its rows copies its next batch from there, and the bank drops the
    batches that all those rows have left.
    """

    def __init__(self, master_seed, replications, p):
        self.master_seed = master_seed
        # a key is never truncated to an int: a non-integer replication raises
        reps = [operator.index(j) for j in replications]
        self.replications = np.array(reps, dtype=np.int64)
        slots = {}
        stream = np.array([slots.setdefault(j, len(slots)) for j in reps],
                          dtype=np.intp)
        gens = np.array([[epoch_generator(master_seed, j, k) for k in range(p)]
                         for j in slots], dtype=object).reshape(len(slots), p)
        first = next_epochs(gens.ravel(), np.zeros(gens.size)).reshape(
            len(slots), p, BATCH)
        banked = len(slots) < len(reps)
        self.gens = gens[stream]
        self.win = first[stream] if banked else first
        self.cur = np.zeros(self.gens.shape, dtype=np.intp)
        self.drawn = np.zeros(self.gens.shape, dtype=np.int64)
        # sid[i, k] is the bank row that holds the batches of row i's stream k
        self.sid = stream[:, None] * p + np.arange(p)
        n = gens.size if banked else 0
        self.bank_gens = gens.ravel()[:n]
        self.bank = first.reshape(-1, 1, BATCH)[:n]
        # bank[s, i] holds stream s's batch base[s] + i, for i < held[s]
        self.base = np.zeros(n, dtype=np.int64)
        self.held = np.ones(n, dtype=np.int64)
        self._reindex()

    def _reindex(self):
        m, p = self.cur.shape
        self._flat = self.win.reshape(-1)
        self._base = np.arange(m * p).reshape(m, p) * BATCH

    def _make_room(self):
        """Drop the batches that every row of their stream has left, and
        leave room for as many batches again as the fullest stream keeps.

        Returns the number of batches dropped from each stream.
        """
        drop = self.held - 1  # the newest batch stays: it seeds the next
        np.minimum.at(drop, self.sid, self.drawn // BATCH - self.base[self.sid])
        live = (self.held - drop).max()
        # past a stream's newest batch the slots hold no epochs: any will do
        at = np.minimum(drop[:, None] + np.arange(live), self.bank.shape[1] - 1)
        bank = np.empty((len(self.bank), 2 * live, BATCH))
        bank[:, :live] = self.bank[np.arange(len(bank))[:, None], at]
        self.bank = bank
        self.base += drop
        self.held -= drop
        return drop

    def _refill(self):
        """Load the next batch of every window whose cursor ran off its end.

        Returns whether any window was refilled.
        """
        full = np.nonzero(self.cur == BATCH)
        if full[0].size == 0:
            return False
        if len(self.bank):
            self._copy_banked(full)
        else:
            self.win[full] = next_epochs(self.gens[full], self.win[full + (-1,)])
        self.drawn[full] += BATCH
        self.cur[full] = 0
        return True

    def _copy_banked(self, windows):
        """Copy the next batch of each of ``windows`` from the bank, drawing
        each batch it lacks once."""
        sid = self.sid[windows]
        # a cursor leaves batch b - 1 before it asks for batch b, so a
        # stream's next batch is at most one past its newest
        want = self.drawn[windows] // BATCH + 1 - self.base[sid]
        if (fresh := want == self.held[sid]).any():
            new = np.zeros(len(self.bank), dtype=bool)
            new[sid[fresh]] = True
            streams = np.flatnonzero(new)
            n = self.held[streams]
            if n.max() == self.bank.shape[1]:
                drop = self._make_room()
                want -= drop[sid]
                n -= drop[streams]
            self.bank[streams, n] = next_epochs(self.bank_gens[streams],
                                                self.bank[streams, n - 1, -1])
            self.held[streams] += 1
        self.win[windows] = self.bank[sid, want]

    def next_after(self, clocks):
        """Smallest epoch strictly above each clock, shape (m, p).

        Cursors step one epoch at a time: between two calls a clock passes
        at most a few epochs.
        """
        while True:
            ep = self._flat[self._base + self.cur]
            behind = ep <= clocks
            if not behind.any():
                return ep
            self.cur += behind
            self._refill()

    def count(self, clocks):
        """Number of epochs in (0, clock] of each stream, Y(clock).

        ``clocks`` (b, p) are those of the first b rows; the later rows'
        clocks have not moved since they were last read.  Returns (b, p).
        """
        b = len(clocks)
        while True:
            # a window is sorted: the epochs at or below a clock come first
            self.cur[:b] = (self.win[:b] <= clocks[..., None]).sum(axis=-1)
            if not self._refill():
                return self.drawn[:b] + self.cur[:b]

    def keep(self, mask):
        """Drop the rows where ``mask`` is False."""
        self.replications = self.replications[mask]
        self.gens = self.gens[mask]
        self.win = self.win[mask]
        self.cur = self.cur[mask]
        self.drawn = self.drawn[mask]
        self.sid = self.sid[mask]
        self._reindex()
