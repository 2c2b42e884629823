"""One rte-sim CLI invocation in a fresh interpreter, as run.py measures it.

    python3 perfbench/child.py plain  STAMP  -- <rte-sim arguments>
    python3 perfbench/child.py traced SPANS  -- <rte-sim arguments>
    python3 perfbench/child.py probe  RESULT -- <rte-sim arguments>

``plain`` runs ``rtesim.cli.main`` untraced, except that the first call to
``run_replications`` writes the monotonic clock to STAMP: that instant ends
the set-up phase (imports, model construction, validation).  ``traced``
runs it under ``tracer.Tracer`` and writes the spans to SPANS.  ``probe``
times ``run_replications`` with a worker that returns at once a result
shaped like the one the invocation's workers return, at its M and
``--threads``, and writes the median of three timings to RESULT.

The exit status is the CLI's.  rtesim must be importable (run.py puts
``src`` on PYTHONPATH).
"""

import json
import statistics
import sys
import time


def _stamp_first_replication(path):
    from rtesim import analysis

    original = analysis.run_replications

    def first(*args, **kwargs):
        analysis.run_replications = original
        with open(path, "w") as f:
            f.write(repr(time.monotonic()))
        return original(*args, **kwargs)

    analysis.run_replications = first


def _probe(cli_args, result_path):
    import numpy as np
    from rtesim import analysis, cli
    from rtesim.analysis import LocalErrorSample
    from rtesim.stepper import grid_steps

    args = cli.build_parser().parse_args(cli_args)
    with open(args.config) as f:
        doc = json.load(f)
    config = cli.RunConfig(doc, args.experiment, 0)
    cfgs = [c for e in config.solver_entries for c in config.solver_configs(e)]
    if args.experiment == "converge":
        shape = np.zeros(len(cfgs))
    elif args.experiment == "local-error":
        shape = [[LocalErrorSample(n, 0.0, 0.0)
                  for n in range(grid_steps(config.T, c.h))] for c in cfgs]
    else:
        shape = (0.0, 0.0)
    timings = []
    for _ in range(3):
        t0 = time.perf_counter()
        analysis.run_replications(lambda j: shape, config.M, args.threads)
        timings.append(time.perf_counter() - t0)
    with open(result_path, "w") as f:
        f.write(repr(statistics.median(timings)))
    return 0


def main(argv):
    mode, path, sep, cli_args = argv[0], argv[1], argv[2], argv[3:]
    if sep != "--" or mode not in ("plain", "traced", "probe"):
        print(__doc__, file=sys.stderr)
        return 2
    if mode == "probe":
        return _probe(cli_args, path)
    from rtesim import cli

    if mode == "plain":
        _stamp_first_replication(path)
        return cli.main(cli_args)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
    with open(path, "w") as f:
        tracer.write(f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
