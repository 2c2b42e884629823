"""Seeded, lazily extended unit-rate Poisson epoch streams.

Every stream is keyed by ``(master_seed, replication, process)`` through a
counter-based Philox generator, so the epoch sequence is a pure function of
the key: queries may arrive in any order, from any consumer, and the stream
always contains the same epochs.  This is what makes coupled-path
comparisons possible -- the exact solver and every fixed-step variant of one
replication read the very same epochs.
"""

import bisect
import math

import numpy as np

from .errors import QueryError

_TINY = np.finfo(float).tiny


def epoch_generator(master_seed, replication, process):
    """Philox generator of the stream keyed (master_seed, replication, process)."""
    ss = np.random.SeedSequence(entropy=master_seed,
                                spawn_key=(replication, process))
    return np.random.Generator(np.random.Philox(ss))


def next_epochs(gen, last, size):
    """The next ``size`` epochs of a stream whose latest epoch is ``last``."""
    gaps = gen.standard_exponential(size, method="inv")
    # a zero gap (probability ~2^-53) would break strict monotonicity
    np.maximum(gaps, _TINY, out=gaps)
    return last + np.cumsum(gaps)


class PoissonPath:
    """Unit-rate Poisson process as a growing, strictly increasing epoch list.

    Epochs are generated on demand in fixed-size batches from exponential
    gaps (inverse-CDF method), so extension is deterministic no matter how
    the path is queried.  A path is single-owner mutable: share it freely
    between solver variants inside one replication, never across threads.
    """

    __slots__ = ("stream_id", "_gen", "_epochs", "_batch")

    def __init__(self, master_seed, replication, process, batch=128):
        self.stream_id = (replication, process)
        self._gen = epoch_generator(master_seed, replication, process)
        self._epochs = []
        self._batch = int(batch)

    @property
    def epochs(self):
        """Epochs materialised so far (do not mutate)."""
        return self._epochs

    def _extend_past(self, u):
        e = self._epochs
        last = e[-1] if e else 0.0
        while last <= u:
            e.extend(next_epochs(self._gen, last, self._batch).tolist())
            last = e[-1]

    def count_at(self, u):
        """Number of epochs in (0, u], i.e. Y(u) for this unit-rate process."""
        if not (u >= 0.0) or not math.isfinite(u):
            raise QueryError(f"count_at needs finite u >= 0, got {u!r}")
        if u == 0.0:
            return 0
        self._extend_past(u)
        return bisect.bisect_right(self._epochs, u)

    def increment(self, a, b):
        """Count of epochs in (a, b]; a <= b required."""
        if a > b:
            raise QueryError(f"increment needs a <= b, got a={a!r} b={b!r}")
        if not (a >= 0.0) or not math.isfinite(b):
            raise QueryError(f"increment needs finite 0 <= a <= b, got a={a!r} b={b!r}")
        if a == b:
            return 0
        self._extend_past(b)
        e = self._epochs
        return bisect.bisect_right(e, b) - bisect.bisect_right(e, a)

    def next_epoch_after(self, u):
        """Smallest epoch strictly greater than u."""
        if not (u >= 0.0) or not math.isfinite(u):
            raise QueryError(f"next_epoch_after needs finite u >= 0, got {u!r}")
        self._extend_past(u)
        e = self._epochs
        return e[bisect.bisect_right(e, u)]


class PathBundle:
    """The p driving streams of one replication, derived from one master seed."""

    def __init__(self, master_seed, replication, p, batch=128):
        self.master_seed = master_seed
        self.replication = replication
        self.paths = [PoissonPath(master_seed, replication, k, batch=batch)
                      for k in range(p)]

    def __len__(self):
        return len(self.paths)

    def __getitem__(self, k):
        return self.paths[k]

    def __iter__(self):
        return iter(self.paths)
