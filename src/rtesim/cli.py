"""Command-line front end: rte-sim simulate|converge|local-error|diagnose.

Runs are described by a single JSON document (schema 1); every output file
carries the config hash and the effective seed so results can be traced
back to the exact run that produced them.  With --no-timestamp, outputs
are byte-identical across repeated runs at any --threads value.
"""

import argparse
import gc
import hashlib
import json
import os
import sys
import warnings
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analysis import (_CHUNK_CAP, _norm_fn, fit_order, local_error_study,
                       martingale_check, strong_error)
from .errors import (ConfigurationError, FitError, GridError,
                     ImplicitSolveError, ModelEvaluationError,
                     NegativeStateError, QueryError, RteSimError,
                     RunawayJumpError, UnsupportedModelError)
from .exact import exact_trajectory
from .model import get_model, is_finite_number
from .poisson import PathBundle
from .stepper import (MAX_STEPS, SolverConfig, check_nesting, grid_steps,
                      solve_trajectory, step_size_warning)

DEFAULT_SEED = 0x5EED
EXPERIMENTS = ("simulate", "converge", "local-error", "diagnose")

# Most replications a document may ask for.  strong_error keeps every
# replication's signed errors, (M, nconfig, d) floats: at 10^6 that is 8 MB
# per config and state component, and 100 times protocol scale (M = 10^4).
MAX_REPLICATIONS = 10**6
# Longest diagnose horizon.  Its path integrals split a flow segment into
# chunks of at most _CHUNK_CAP time units, and a segment as long as T may
# have no more chunks than a fixed-step grid has steps (MAX_STEPS).
MAX_DIAGNOSE_T = MAX_STEPS * _CHUNK_CAP

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MODEL = 2
EXIT_NUMERICAL = 3

_MODEL_ERRORS = (ModelEvaluationError, UnsupportedModelError,
                 RunawayJumpError, QueryError)
_NUMERICAL_ERRORS = (ImplicitSolveError, NegativeStateError, FitError)


_TOP_KEYS = {"schema", "model", "solver", "experiment", "T", "x0", "M",
             "seed", "reference", "output", "error_norm", "observable"}
_MODEL_KEYS = {"name", "params", "scaling"}
_SOLVER_KEYS = {"theta", "quadrature", "h", "fp_tol", "fp_max_iter",
                "negativity", "clamp_phi3"}
_REFERENCE_KEYS = {"h_ref", "theta", "quadrature", "fp_tol", "fp_max_iter",
                   "negativity", "clamp_phi3"}
_OBSERVABLE_KEYS = {"component": {"kind", "index"}, "sum": {"kind"}}


def _reject_unknown(block, allowed, where):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown {where} field(s): {', '.join(sorted(unknown))}")


class RunConfig:
    """One run document and, after a `validate` that finds no error, its objects:
    ``model``, the float array ``x0``, ``variants`` (one `solver_configs` list
    per entry), ``reference`` ("exact" or a SolverConfig) and, for diagnose,
    ``observable`` (F, gradF).
    """

    def __init__(self, doc, experiment, seed):
        self.doc = doc
        self.experiment = experiment
        self.seed = seed
        model_block = doc.get("model", {})
        self.model_name = (model_block.get("name")
                           if isinstance(model_block, dict) else None)
        self.solver_entries = doc.get("solver", [])
        self.T = doc.get("T")
        self.M = doc.get("M", 1)
        self.output = doc.get("output")
        self.error_norm = doc.get("error_norm", "euclidean")
        self.model = self.x0 = self.variants = self.reference = self.observable = None

    def solver_configs(self, entry):
        """SolverConfig per h of one solver entry, h descending."""
        if not isinstance(entry, dict):
            raise ConfigurationError(f"must be an object, got {entry!r}")
        _reject_unknown(entry, _SOLVER_KEYS, "solver entry")
        for key in ("theta", "h"):
            if key not in entry:
                raise ConfigurationError(f"field {key!r} is required")
        hs = entry["h"] if isinstance(entry["h"], list) else [entry["h"]]
        if not hs:
            raise ConfigurationError("h lists no step size")
        fields = {k: v for k, v in entry.items() if k != "h"}
        cfgs = [SolverConfig(h=h, **fields) for h in hs]
        return sorted(cfgs, key=lambda c: c.h, reverse=True)

    def config_hash(self):
        """Hash of every semantically meaningful field plus the effective seed."""
        semantic = {k: v for k, v in self.doc.items() if k not in ("output", "seed")}
        semantic["seed"] = self.seed
        semantic["experiment"] = self.experiment
        canon = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _build_model(block):
    if not isinstance(block, dict):
        raise ConfigurationError(
            f"model block must be an object, got {type(block).__name__}")
    _reject_unknown(block, _MODEL_KEYS, "model")
    params, scaling = block.get("params", {}), block.get("scaling")
    if not isinstance(params, dict):
        raise ConfigurationError(f"model params must be an object, got {params!r}")
    if scaling is not None and not isinstance(scaling, dict):
        raise ConfigurationError(f"model scaling must be an object, got {scaling!r}")
    return get_model(block.get("name"), params, scaling)


def _reference_config(block):
    """The string "exact", or the SolverConfig of the fine-step reference."""
    if block == "exact":
        return "exact"
    if not isinstance(block, dict):
        raise ConfigurationError(
            f"must be 'exact' or a fine-step block, got {block!r}")
    ref = dict(block)
    _reject_unknown(ref, _REFERENCE_KEYS, "reference")
    # explicit Euler treats every variant family alike: a reference that
    # shares a variant's scheme cancels their common error at the finest
    # steps and distorts fitted orders
    return SolverConfig(h=ref.pop("h_ref", 1.0 / 320.0),
                        theta=ref.pop("theta", 0.0),
                        quadrature=ref.pop("quadrature", "euler"), **ref)


def _observable(spec, dim):
    if not isinstance(spec, dict):
        raise ConfigurationError(f"must be an object, got {spec!r}")
    kind = spec.get("kind", "component")
    if not isinstance(kind, str) or kind not in _OBSERVABLE_KEYS:
        raise ConfigurationError(f"unknown kind {kind!r}")
    _reject_unknown(spec, _OBSERVABLE_KEYS[kind], f"{kind} observable")
    if kind == "component":
        i = spec.get("index", 0)
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < dim:
            raise ConfigurationError(f"component {i!r} out of range")
        F = lambda xs: np.asarray(xs, dtype=float)[..., i]

        def gradF(xs):
            g = np.zeros_like(np.asarray(xs, dtype=float))
            g[..., i] = 1.0
            return g
        return F, gradF
    F = lambda xs: np.asarray(xs, dtype=float).sum(axis=-1)
    gradF = lambda xs: np.ones_like(np.asarray(xs, dtype=float))
    return F, gradF


def resolve_seed(cli_seed, doc):
    """Precedence: --seed flag > RTE_SIM_SEED env > config field > default."""
    if cli_seed is not None:
        seed = int(cli_seed)
    elif os.environ.get("RTE_SIM_SEED") is not None:
        seed = int(os.environ["RTE_SIM_SEED"], 0)
    else:
        seed = doc.get("seed", DEFAULT_SEED)
        if type(seed) is not int:  # no bool, float or string coerced to one
            raise TypeError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def validate(config, sample_grid=None):
    """Collect (level, message) findings and build RunConfig's objects; never raises."""
    findings = []
    err = lambda m: findings.append(("error", m))
    warn = lambda m: findings.append(("warning", m))
    doc = config.doc
    if type(doc.get("schema")) is not int or doc.get("schema") != 1:
        err(f"config schema must be the integer 1, got {doc.get('schema')!r}")
    for key in sorted(set(doc) - _TOP_KEYS):
        warn(f"ignoring unknown config field {key!r}")
    if config.experiment not in EXPERIMENTS:
        err(f"unknown experiment {config.experiment!r}")
    if doc.get("experiment") not in (None, config.experiment):
        err(f"config names experiment {doc.get('experiment')!r} but "
            f"{config.experiment!r} was invoked")
    model = None
    try:
        model = config.model = _build_model(doc.get("model", {}))
    except RteSimError as e:
        err(f"model: {e}")
    T_ok = is_finite_number(config.T) and config.T > 0
    if not T_ok:
        err(f"horizon T must be a positive number, got {config.T!r}")
    elif config.experiment == "diagnose" and config.T > MAX_DIAGNOSE_T:
        err(f"horizon T={config.T!r} is above diagnose's limit of "
            f"{MAX_DIAGNOSE_T:g}")
    x0 = doc.get("x0")
    values = x0 if isinstance(x0, list) else [x0]
    if x0 is None:
        err("initial state x0 is required")
    elif not all(is_finite_number(v) for v in values):
        err(f"initial state x0 must be a finite number or a list of them, "
            f"got {x0!r}")
    elif model is not None and len(values) != model.dim:
        err(f"x0 has shape ({len(values)},), model dim is {model.dim}")
    else:
        config.x0 = np.array(values, dtype=float)
    try:
        _norm_fn(config.error_norm)
    except ConfigurationError as e:
        err(f"error_norm: {e}")
    if (not isinstance(config.M, int) or isinstance(config.M, bool)
            or config.M < 1):
        err(f"replication count M must be a positive integer, got {config.M!r}")
    elif config.M > MAX_REPLICATIONS:
        err(f"replication count M={config.M} is above the limit of "
            f"{MAX_REPLICATIONS}")
    elif config.experiment == "diagnose" and config.M < 2:
        err(f"diagnose needs M >= 2 replications, got {config.M}")
    entries = config.solver_entries
    if not isinstance(entries, list):
        err(f"solver must be a list of entries, got {entries!r}")
        entries = []
    elif not entries and config.experiment != "diagnose":
        err("at least one solver entry is required")
    ref = None
    try:
        ref = config.reference = _reference_config(doc.get("reference", "exact"))
    except RteSimError as e:
        err(f"reference: {e}")
    if ref == "exact" and model is not None and model.analytic is None:
        err(f"reference 'exact' needs analytic hooks; model "
            f"{config.model_name!r} has none (use a fine-step reference)")

    def check_solver(cfg, step, where=""):
        """Findings on one solver's step size and grid; whether its grid holds."""
        if model is not None and (message := step_size_warning(model, cfg)):
            warn(message + where)
        try:
            if T_ok:
                grid_steps(config.T, cfg.h)
            return True
        except GridError:
            err(f"{step}={cfg.h!r} does not divide T={config.T!r}")
        except ConfigurationError as e:
            err(f"{step}={cfg.h!r}: {e}")
        return False

    if isinstance(ref, SolverConfig) and not check_solver(
            ref, "reference step h_ref", " (reference)"):
        ref = None  # its nesting checks would repeat the finding
    config.variants = []
    for entry in entries:
        try:
            cfgs = config.solver_configs(entry)
        except RteSimError as e:
            err(f"solver entry {entry!r}: {e}")
            continue
        config.variants.append(cfgs)
        for cfg in cfgs:
            check_solver(cfg, "step size h")
            if isinstance(ref, SolverConfig):
                try:
                    check_nesting(ref.h, [cfg.h])
                except GridError as e:
                    err(str(e))
    labels = [cfg.label() for cfgs in config.variants for cfg in cfgs]
    if repeated := sorted({label for label in labels if labels.count(label) > 1}):
        err(f"solver configs share the label(s) {', '.join(repeated)}; "
            f"each config's output is named by its label")
    if sample_grid is not None and isinstance(config.reference, SolverConfig):
        err("--sample-grid: samples the exact path, but the reference is a "
            f"fine-step run (h_ref={config.reference.h!r})")
    elif sample_grid is not None and T_ok:
        try:
            grid_steps(config.T, sample_grid)
        except ConfigurationError as e:
            err(f"--sample-grid: {e}")
    if not config.output:
        err("output directory is required")
    elif not isinstance(config.output, str):
        err(f"output directory must be a string, got {config.output!r}")
    elif "\0" in config.output:
        err(f"output directory {config.output!r} contains a NUL byte")
    if config.experiment == "local-error" and model is not None:
        if model.analytic is None or model.analytic.drift_integral is None:
            err(f"local-error needs analytic hooks with a drift integral; "
                f"model {config.model_name!r} lacks them")
    if config.experiment == "diagnose" and model is not None:
        if model.analytic is None:
            err(f"diagnose runs on exact paths; model {config.model_name!r} "
                f"has no analytic hooks")
        try:
            config.observable = _observable(doc.get("observable", {}), model.dim)
        except ConfigurationError as e:
            err(f"observable: {e}")
    return findings


# ---------------------------------------------------------------------------
# output helpers


def _write_table(outdir, name, comments, columns, rows):
    """Write the file outdir/name and return name.

    The file holds each of ``comments`` as a '# ' line, the CSV header
    ``columns``, then ``rows``.  A row is a sequence of Python ints and
    floats (or a row of a 2-D float array), written as their repr so that
    every float reads back exactly and a JSON-integer step size stays an
    integer, or a str, written in place as one more '# ' line.  With
    ``columns`` None the file is plain text, one line per row.
    """
    if isinstance(rows, np.ndarray):
        rows = map(np.ndarray.tolist, rows)
    with open(os.path.join(outdir, name), "w") as f:
        f.writelines(f"# {line}\n" for line in comments)
        if columns is None:
            f.writelines(f"{line}\n" for line in rows)
            return name
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(f"# {row}\n" if isinstance(row, str)
                    else ",".join(map(repr, row)) + "\n")
    return name


def _meta_comments(config, timestamp):
    lines = [f"rte-sim v{__version__} experiment={config.experiment} "
             f"model={config.model_name}",
             f"config_hash={config.config_hash()}",
             f"seed={config.seed}"]
    if timestamp:
        lines.append(f"timestamp={timestamp}")
    return lines


def _meta_table(config, files, timestamp):
    meta = {
        "version": __version__,
        "schema": 1,
        "experiment": config.experiment,
        "model": config.model_name,
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "files": sorted(files),
    }
    if timestamp:
        meta["timestamp"] = timestamp
    return "meta.json", [], None, [json.dumps(meta, indent=2, sort_keys=True)]


# ---------------------------------------------------------------------------
# experiments: each returns its output files as tables and writes nothing


def _run_converge(config, threads, comments):
    flat = [c for cfgs in config.variants for c in cfgs]
    report = strong_error(config.model, config.reference, flat, config.x0,
                          config.T, config.M, config.seed, threads=threads,
                          norm=config.error_norm)
    rows, fit_lines = [], []
    i = 0
    for cfgs in config.variants:
        variant = cfgs[0].variant()
        rows.append(f"variant={variant}")
        variant_rows = report.rows[i:i + len(cfgs)]
        i += len(cfgs)
        rows += variant_rows
        try:
            fit = fit_order(variant_rows)
        except FitError as e:
            fit_lines.append(f"{variant}: no fit ({e})")
            continue
        rows.append(f"slope={fit.slope!r}, intercept={fit.intercept!r}, "
                    f"r2={fit.r_squared!r}")
        fit_lines.append(f"{variant}: slope={fit.slope!r} "
                         f"intercept={fit.intercept!r} r2={fit.r_squared!r}")
    return [("report.csv", comments, ["h", "mean_abs_error", "std_error", "M"],
             rows),
            ("fit.txt", comments, None, fit_lines)]


def _run_simulate(config, comments, sample_grid):
    model = config.model
    bundle = PathBundle(config.seed, 0, model.jump_count)
    x_cols = [f"x_{i + 1}" for i in range(model.dim)]
    traj_cols = ["t"] + x_cols + [f"tau_{k + 1}" for k in range(model.jump_count)]

    def trajectory(name, cfg, variant):
        traj = solve_trajectory(model, cfg, bundle, config.x0, config.T)
        return (name, comments + [f"variant={variant}"], traj_cols,
                np.column_stack([traj.grid, traj.states, traj.clocks]))

    tables = [trajectory(f"traj_{cfg.label()}.csv", cfg, cfg.label())
              for cfgs in config.variants for cfg in cfgs]
    if config.reference != "exact":
        return tables + [trajectory("traj_reference.csv", config.reference,
                                    "reference")]
    traj = exact_trajectory(model, bundle, config.x0, config.T)
    jumps = zip(traj.jump_times.tolist(), (traj.jump_ids + 1).tolist(),
                traj.states_post_jump.tolist())
    tables.append(("exact_jumps.csv", comments,
                   ["jump_time", "process_id"] + x_cols,
                   ([t, k, *x] for t, k, x in jumps)))
    tables.append(("exact_segments.csv", comments,
                   ["seg_start", "duration"] + x_cols,
                   np.column_stack([traj.seg_starts, traj.seg_durations,
                                    traj.seg_states])))
    if sample_grid is not None:
        tables.append(("exact_grid.csv", comments, ["t"] + x_cols,
                       np.column_stack(traj.sample_grid(sample_grid))))
    return tables


def _run_local_error(config, threads, comments):
    all_cfgs = [c for cfgs in config.variants for c in cfgs]
    per_cfg = local_error_study(config.model, all_cfgs, config.x0, config.T,
                                config.M, config.seed, threads=threads)
    # each generator binds its config's arrays now; run reads them later
    return [(f"local_{cfg.label()}.csv", comments + [f"variant={cfg.label()}"],
             ["n", "L_abs", "K_abs"],
             ((n, L, K) for errs in reps for n, (L, K) in enumerate(errs.tolist())))
            for cfg, reps in zip(all_cfgs, per_cfg)]


def _run_diagnose(config, threads, comments):
    F, gradF = config.observable
    c = martingale_check(config.model, F, gradF, config.x0, config.T, config.M,
                         config.seed, threads=threads)
    return [("diagnose.csv", comments,
             ["M", "mean", "abs_z", "se_mean", "second_moment_lhs", "se_lhs",
              "second_moment_rhs", "se_rhs"],
             [(c.M, c.mean, c.abs_z, c.se_mean, c.second_moment_lhs, c.se_lhs,
               c.second_moment_rhs, c.se_rhs)])]


def run(config, threads=1, timestamp=True, sample_grid=None, log=print):
    """Validate, compute every table, then write them; returns the exit status."""
    findings = validate(config, sample_grid)
    errors = [message for level, message in findings if level == "error"]
    for message in (m for level, m in findings if level == "warning"):
        log(f"warning: {message}")
    if errors:  # one line, however many findings
        log("error: " + "; ".join(errors))
        return EXIT_CONFIG
    # Freeze what the imports and validate left alive, before any pool
    # forks: the interpreter's exit-time collection then skips it.  No
    # collect first, which would cost set-up time, and no unfreeze after,
    # so an in-process caller keeps those objects frozen too.
    gc.freeze()
    stamp = (datetime.now(timezone.utc).isoformat(timespec="seconds")
             if timestamp else None)
    comments = _meta_comments(config, stamp)
    try:
        with warnings.catch_warnings():
            # the findings above already hold every step-size warning
            warnings.filterwarnings("ignore", message=r"h\*theta\*L_f = ")
            if config.experiment == "converge":
                tables = _run_converge(config, threads, comments)
            elif config.experiment == "simulate":
                tables = _run_simulate(config, comments, sample_grid)
            elif config.experiment == "local-error":
                tables = _run_local_error(config, threads, comments)
            else:
                tables = _run_diagnose(config, threads, comments)
        os.makedirs(config.output, exist_ok=True)
        names = [_write_table(config.output, *table) for table in tables]
        _write_table(config.output, *_meta_table(config, names, stamp))
    except ConfigurationError as e:
        log(f"error: {e}")
        return EXIT_CONFIG
    except _MODEL_ERRORS as e:
        log(f"error: {e}")
        return EXIT_MODEL
    except _NUMERICAL_ERRORS as e:
        log(f"error: {e}")
        return EXIT_NUMERICAL
    except OSError as e:  # the output directory cannot be made or written
        log(f"error: output: {e}")
        return EXIT_CONFIG
    for name in names:
        log(f"wrote {os.path.join(config.output, name)}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises a malformed command line as a ConfigurationError; subparsers
    inherit the class, so main reports every flag error as exit 1."""

    def error(self, message):
        raise ConfigurationError(message)


def build_parser():
    def seed(text):  # argparse's error line names the converter
        return int(text, 0)
    parser = _Parser(
        prog="rte-sim",
        description="Simulation and strong-error experiments for "
                    "Poisson-driven hybrid jump systems.")
    parser.add_argument("--version", action="version",
                        version=f"rte-sim {__version__}")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, desc in [
            ("simulate", "write coupled trajectories for each solver variant"),
            ("converge", "strong-error table and convergence-order fit"),
            ("local-error", "sample one-step drift/clock errors on exact paths"),
            ("diagnose", "martingale and second-moment diagnostics")]:
        s = sub.add_parser(name, help=desc)
        s.add_argument("--config", required=True, help="JSON run document")
        s.add_argument("--seed", type=seed, default=None,
                       help="override the master seed")
        s.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                       help="worker processes across replications")
        s.add_argument("--no-timestamp", action="store_true",
                       help="omit timestamps for byte-stable outputs")
        if name == "simulate":
            s.add_argument("--sample-grid", type=float, default=None,
                           help="also sample the exact path on this grid")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except ConfigurationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    if args.threads < 1:
        print(f"error: --threads must be >= 1, got {args.threads}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        with open(args.config) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read config {args.config!r}: {e}", file=sys.stderr)
        return EXIT_CONFIG
    if not isinstance(doc, dict):
        print(f"error: config {args.config!r} must be a JSON object, got "
              f"{type(doc).__name__}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        seed = resolve_seed(args.seed, doc)
    except (TypeError, ValueError, OverflowError) as e:
        print(f"error: bad seed: {e}", file=sys.stderr)
        return EXIT_CONFIG
    config = RunConfig(doc, args.experiment, seed)
    return run(config, threads=args.threads, timestamp=not args.no_timestamp,
               sample_grid=getattr(args, "sample_grid", None))


if __name__ == "__main__":
    sys.exit(main())
