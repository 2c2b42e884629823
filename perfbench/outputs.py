"""Output check: digests of rte-sim result files, compared with recorded ones.

A digest keeps every number of ``report.csv`` and ``diagnose.csv`` and, for
each ``local_*.csv`` (about 1 MB per study), the row count, the sum of the
step indices and the sum, sum of squares and maximum of each error column.

The tolerance admits roundoff from reordered floating-point sums (a batched
engine is not bitwise equal to the serial loop; such changes move values by
about 1e-15 relative) but not a changed estimator: a different seed mapping,
quadrature or reduction moves Monte Carlo means by 1e-3 relative or more.
``ATOL`` covers values that are near zero by construction, such as the
martingale mean, whose path integrals are refined to an absolute 1e-8.
"""

import math
import os

RTOL = 1e-7
ATOL = 1e-9


def _rows(path):
    """Numeric rows of a CSV, grouped under its ``# variant=`` comments."""
    blocks = {}
    current = ""
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("# variant="):
                current = line[len("# variant="):]
            elif line and not line.startswith("#") and not line[0].isalpha():
                blocks.setdefault(current, []).append(
                    [float(v) for v in line.split(",")])
    return blocks


def _column_stats(values):
    return [math.fsum(values), math.fsum(v * v for v in values),
            max(values, default=0.0)]


def digest(outdir):
    """Digest of every checked file in one invocation's output directory."""
    out = {}
    for name in sorted(os.listdir(outdir)):
        path = os.path.join(outdir, name)
        if name in ("report.csv", "diagnose.csv"):
            out[name] = _rows(path)
        elif name.startswith("local_") and name.endswith(".csv"):
            rows = [r for block in _rows(path).values() for r in block]
            out[name] = {"rows": len(rows),
                         "n_sum": int(sum(r[0] for r in rows)),
                         "L_abs": _column_stats([r[1] for r in rows]),
                         "K_abs": _column_stats([r[2] for r in rows])}
    return out


def _close(a, b):
    return abs(a - b) <= ATOL + RTOL * max(abs(a), abs(b))


def compare(got, want, where=""):
    """List of mismatches between two digests (empty when they agree)."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got}"
                    f" != {sorted(want)}"]
        return [m for k in sorted(want)
                for m in compare(got[k], want[k], f"{where}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: length differs"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in compare(g, w, f"{where}[{i}]")]
    if isinstance(want, int) and not isinstance(want, bool):
        return [] if got == want else [f"{where}: {got!r} != {want!r}"]
    return [] if _close(got, want) else [f"{where}: {got!r} != {want!r}"]


def tree_bytes(outdir):
    """Every file of an output directory, by name, as bytes."""
    blobs = {}
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as f:
            blobs[name] = f.read()
    return blobs
