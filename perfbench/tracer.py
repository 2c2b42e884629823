"""Span tracer that wraps rtesim's public entry points from outside the package.

``Tracer.install`` replaces module attributes through which callers reach
each entry point; ``Tracer.uninstall`` puts the originals back.  Calls into
the ``cli``, ``analysis``, ``stepper`` and ``exact`` layers become spans
(name, start, end, parent) kept in memory.  Calls into the ``poisson`` and
``model`` layers happen millions of times, so they are folded into a count
and a total time on the span that is open when they happen.  Nested model
calls (``eval_rates`` -> ``eval_rate`` -> rate callable) are each counted,
but only the outermost one is timed.

Only meant for single-process runs (``--threads 1``): spans opened in
forked pool workers would never reach the parent.
"""

import bisect
import dataclasses
import json
import time
import weakref

import rtesim
from rtesim import analysis, cli, exact, model, poisson, stepper

MODULES = (rtesim, cli, analysis, exact, stepper, model, poisson)

SPAN_LAYERS = {
    "run": "cli",
    "strong_error": "analysis",
    "martingale_check": "analysis",
    "local_errors": "analysis",
    "integrate_along_path": "analysis",
    "run_replications": "analysis",
    "solve_trajectory": "stepper",
    "exact_trajectory": "exact",
}

FOLDED_MODEL = ("eval_drift", "eval_rate", "eval_rates")


def _span_attrs(name, args, result):
    """Work counts a span carries, read from its arguments and result."""
    if name == "solve_trajectory":
        return {"variant": args[1].variant(), "steps": len(result.grid) - 1}
    if name == "exact_trajectory":
        return {"jumps": int(result.jump_count)}
    if name == "integrate_along_path":
        return {"segments": int((args[0].seg_durations > 0.0).sum())}
    if name == "run_replications":
        return {"M": int(args[1])}
    return {}


class Span:
    __slots__ = ("id", "parent", "layer", "name", "start", "end", "attrs",
                 "counts")

    def __init__(self, span_id, parent, layer, name):
        self.id = span_id
        self.parent = parent
        self.layer = layer
        self.name = name
        self.start = self.end = 0.0
        self.attrs = {}
        self.counts = {}

    def as_dict(self):
        return {"id": self.id, "parent": self.parent, "layer": self.layer,
                "name": self.name, "start": self.start, "end": self.end,
                "attrs": self.attrs, "counts": self.counts}


class Tracer:
    def __init__(self):
        self.spans = []
        self.root = Span(0, None, "process", "process")
        self.stack = [self.root]
        self.folding = False
        self.models = []
        self.live_paths = weakref.WeakSet()
        self.epochs = 0
        self.epochs_used = 0
        self.closed = False
        self._patches = []

    # -- wrappers ----------------------------------------------------------

    def span(self, layer, name, fn):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            s = Span(len(tracer.spans) + 1, tracer.stack[-1].id, layer, name)
            tracer.spans.append(s)
            tracer.stack.append(s)
            s.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                s.end = clock()
                tracer.stack.pop()
            s.attrs = _span_attrs(name, args, result)
            return result
        return wrapper

    def fold(self, layer, key, fn):
        """Count calls of fn under ``key`` and time them into ``<layer>.s``."""
        tracer = self
        clock = time.perf_counter
        time_key = layer + ".s"

        def wrapper(*args, **kwargs):
            counts = tracer.stack[-1].counts
            if key is not None:
                counts[key] = counts.get(key, 0) + 1
            if tracer.folding:
                return fn(*args, **kwargs)
            tracer.folding = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[time_key] = counts.get(time_key, 0.0) + (clock() - t0)
                tracer.folding = False
        return wrapper

    def _wrap_model(self, m):
        hook = lambda f: self.fold("model", "model.hook_calls", f)
        m.drift = self.fold("model", "model.drift_calls", m.drift)
        m.rates = tuple(self.fold("model", "model.rate_calls", r)
                        for r in m.rates)
        a = m.analytic
        if a is not None:
            m.analytic = dataclasses.replace(
                a, flow=hook(a.flow),
                hazard_integral=tuple(hook(f) for f in a.hazard_integral),
                hazard_inverse=tuple(hook(f) for f in a.hazard_inverse),
                drift_integral=(None if a.drift_integral is None
                                else hook(a.drift_integral)))
        self.models.append(m)
        return m

    def _path_class(self):
        tracer = self
        base = poisson.PoissonPath
        query = lambda f: tracer.fold("poisson", "poisson.queries", f)
        count_at = query(base.count_at)
        increment = query(base.increment)
        next_epoch_after = query(base.next_epoch_after)

        class TracedPoissonPath(base):
            """PoissonPath that remembers the highest clock it was queried at."""

            __slots__ = ("max_u", "__weakref__")

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.max_u = 0.0
                tracer.live_paths.add(self)

            def count_at(self, u):
                n = count_at(self, u)
                self.max_u = max(self.max_u, u)
                return n

            def increment(self, a, b):
                n = increment(self, a, b)
                self.max_u = max(self.max_u, b)
                return n

            def next_epoch_after(self, u):
                e = next_epoch_after(self, u)
                self.max_u = max(self.max_u, u)
                return e

            def __del__(self):
                if not tracer.closed:
                    tracer._retire(self)

        return TracedPoissonPath

    def _retire(self, path):
        if path.max_u is None:
            return
        epochs = path.epochs
        self.epochs += len(epochs)
        self.epochs_used += bisect.bisect_right(epochs, path.max_u)
        path.max_u = None

    # -- install / uninstall -----------------------------------------------

    def _replace(self, original, replacement):
        for mod in MODULES:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, replacement)

    def install(self):
        for name, layer in SPAN_LAYERS.items():
            owner = cli if name == "run" else analysis
            original = getattr(owner, name)
            self._replace(original, self.span(layer, name, original))
        for name in FOLDED_MODEL:
            original = getattr(model, name)
            self._replace(original, self.fold("model", None, original))
        get_model = model.get_model
        self._replace(get_model,
                      lambda *a, **k: self._wrap_model(get_model(*a, **k)))
        self._replace(poisson.PoissonPath, self._path_class())
        self.root.start = time.perf_counter()

    def uninstall(self):
        self.root.end = time.perf_counter()
        for mod, name, value in reversed(self._patches):
            setattr(mod, name, value)
        self._patches = []
        for path in list(self.live_paths):
            self._retire(path)
        self.closed = True

    def write(self, fileobj):
        """Spans as JSON lines, then one summary line."""
        for s in [self.root] + self.spans:
            fileobj.write(json.dumps(s.as_dict()) + "\n")
        summary = {
            "summary": True,
            "poisson.epochs": self.epochs,
            "poisson.epochs_used": self.epochs_used,
            "model.rate_clamps": sum(m.clamp_diag.count for m in self.models),
        }
        fileobj.write(json.dumps(summary) + "\n")
