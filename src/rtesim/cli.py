"""Command-line front end: rte-sim simulate|converge|local-error|diagnose.

Runs are described by a single JSON document (schema 1); every output file
carries the config hash and the effective seed so results can be traced
back to the exact run that produced them.  With --no-timestamp, outputs
are byte-identical across repeated runs at any --threads value.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analysis import fit_order, local_errors, martingale_check, strong_error
from .errors import (ConfigurationError, FitError, GridError,
                     ImplicitSolveError, ModelEvaluationError,
                     NegativeStateError, QueryError, RteSimError,
                     RunawayJumpError, UnsupportedModelError)
from .exact import ReferenceSpec, exact_trajectory
from .model import get_model
from .poisson import PathBundle
from .stepper import SolverConfig, grid_steps, solve_trajectory

DEFAULT_SEED = 0x5EED
EXPERIMENTS = ("simulate", "converge", "local-error", "diagnose")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MODEL = 2
EXIT_NUMERICAL = 3

_CONFIG_ERRORS = (ConfigurationError, GridError)
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


def _reject_unknown(block, allowed, where):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown {where} field(s): {', '.join(sorted(unknown))}")


class RunConfig:
    """Validated view of one run document."""

    def __init__(self, doc, experiment, seed):
        self.doc = doc
        self.experiment = experiment
        self.seed = seed
        model_block = doc.get("model", {})
        if not isinstance(model_block, dict):
            model_block = {}
        self.model_name = model_block.get("name")
        self.model_params = model_block.get("params", {})
        self.scaling = model_block.get("scaling")
        self.solver_entries = doc.get("solver", [])
        self.T = doc.get("T")
        self.x0 = doc.get("x0")
        self.M = doc.get("M", 1)
        self.reference = doc.get("reference", "exact")
        self.output = doc.get("output")
        self.error_norm = doc.get("error_norm", "euclidean")
        self.observable = doc.get("observable", {"kind": "component", "index": 0})

    def build_model(self):
        block = self.doc.get("model", {})
        if not isinstance(block, dict):
            raise ConfigurationError(
                f"model block must be an object, got {type(block).__name__}")
        _reject_unknown(block, _MODEL_KEYS, "model")
        if not isinstance(self.model_params, dict):
            raise ConfigurationError(
                f"model params must be an object, got {self.model_params!r}")
        if self.scaling is not None and not isinstance(self.scaling, dict):
            raise ConfigurationError(
                f"model scaling must be an object, got {self.scaling!r}")
        return get_model(self.model_name, self.model_params, self.scaling)

    def solver_configs(self, entry):
        """SolverConfig per h of one solver entry, h descending."""
        _reject_unknown(entry, _SOLVER_KEYS, "solver entry")
        kwargs = {k: entry[k] for k in
                  ("fp_tol", "fp_max_iter", "negativity", "clamp_phi3")
                  if k in entry}
        hs = entry["h"] if isinstance(entry["h"], list) else [entry["h"]]
        return [SolverConfig(theta=entry["theta"], h=h,
                             quadrature=entry.get("quadrature", "euler"), **kwargs)
                for h in sorted(hs, reverse=True)]

    def reference_spec(self):
        if self.reference == "exact":
            return "exact"
        if not isinstance(self.reference, dict):
            raise ConfigurationError(
                f"reference must be 'exact' or a fine-step block, "
                f"got {self.reference!r}")
        ref = dict(self.reference)
        _reject_unknown(ref, _REFERENCE_KEYS, "reference")
        h_ref = ref.pop("h_ref", 1.0 / 320.0)
        cfg = SolverConfig(h=h_ref, theta=ref.pop("theta", 0.0),
                           quadrature=ref.pop("quadrature", "euler"), **ref)
        return ReferenceSpec(h_ref=h_ref, config_ref=cfg)

    def config_hash(self):
        """Hash of every semantically meaningful field plus the effective seed."""
        semantic = {k: v for k, v in self.doc.items() if k not in ("output", "seed")}
        semantic["seed"] = self.seed
        semantic["experiment"] = self.experiment
        canon = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def resolve_seed(cli_seed, doc):
    """Precedence: --seed flag > RTE_SIM_SEED env > config field > default."""
    if cli_seed is not None:
        seed = int(cli_seed)
    elif os.environ.get("RTE_SIM_SEED") is not None:
        seed = int(os.environ["RTE_SIM_SEED"], 0)
    else:
        seed = int(doc.get("seed", DEFAULT_SEED))
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def _is_number(v):
    """A finite JSON number; bools and strings are not numbers."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def validate(config):
    """Collect findings as (level, message) pairs; never raises."""
    findings = []
    err = lambda m: findings.append(("error", m))
    warn = lambda m: findings.append(("warning", m))
    doc = config.doc
    if doc.get("schema") != 1:
        err(f"config schema must be 1, got {doc.get('schema')!r}")
    for key in sorted(set(doc) - _TOP_KEYS):
        warn(f"ignoring unknown config field {key!r}")
    if doc.get("experiment") not in (None, config.experiment):
        err(f"config names experiment {doc.get('experiment')!r} but "
            f"{config.experiment!r} was invoked")
    model = None
    try:
        model = config.build_model()
    except RteSimError as e:
        err(f"model: {e}")
    T_ok = _is_number(config.T) and config.T > 0
    if not T_ok:
        err(f"horizon T must be a positive number, got {config.T!r}")
    x0 = config.x0 if isinstance(config.x0, list) else [config.x0]
    if config.x0 is None:
        err("initial state x0 is required")
    elif not all(_is_number(v) for v in x0):
        err(f"initial state x0 must be a finite number or a list of them, "
            f"got {config.x0!r}")
    elif model is not None and len(x0) != model.dim:
        err(f"x0 has shape ({len(x0)},), model dim is {model.dim}")
    if (not isinstance(config.M, int) or isinstance(config.M, bool)
            or config.M < 1):
        err(f"replication count M must be a positive integer, got {config.M!r}")
    entries = config.solver_entries
    if not isinstance(entries, list):
        err(f"solver must be a list of entries, got {entries!r}")
        entries = []
    elif not entries and config.experiment != "diagnose":
        err("at least one solver entry is required")
    ref = None
    try:
        ref = config.reference_spec()
    except RteSimError as e:
        err(f"reference: {e}")
    if ref == "exact" and model is not None and model.analytic is None:
        err(f"reference 'exact' needs analytic hooks; model "
            f"{config.model_name!r} has none (use a fine-step reference)")
    for entry in entries:
        try:
            cfgs = config.solver_configs(entry)
        except (RteSimError, KeyError, TypeError) as e:
            err(f"solver entry {entry!r}: {e}")
            continue
        for cfg in cfgs:
            if T_ok:
                try:
                    grid_steps(config.T, cfg.h)
                except GridError:
                    err(f"step size h={cfg.h!r} does not divide T={config.T!r}")
            if isinstance(ref, ReferenceSpec):
                try:
                    ref.check_nesting([cfg.h])
                except GridError as e:
                    err(str(e))
            if (model is not None and cfg.theta > 0.0 and model.lipschitz_f
                    and cfg.h * cfg.theta * model.lipschitz_f >= 1.0):
                warn(f"h*theta*L_f = {cfg.h * cfg.theta * model.lipschitz_f:g} >= 1 "
                     f"for h={cfg.h!r}: implicit solve may not contract")
    if config.experiment in ("simulate", "converge", "local-error", "diagnose"):
        if not config.output:
            err("output directory is required")
        elif not isinstance(config.output, str):
            err(f"output directory must be a string, got {config.output!r}")
    if config.experiment == "local-error" and model is not None:
        if model.analytic is None or model.analytic.drift_integral is None:
            err(f"local-error needs analytic hooks with a drift integral; "
                f"model {config.model_name!r} lacks them")
    if config.experiment == "diagnose" and not isinstance(config.observable, dict):
        err(f"observable must be an object, got {config.observable!r}")
    if config.experiment == "diagnose" and model is not None:
        if model.analytic is None:
            err(f"diagnose runs on exact paths; model {config.model_name!r} "
                f"has no analytic hooks")
    return findings


# ---------------------------------------------------------------------------
# output helpers


def _meta_comments(config, timestamp):
    lines = [f"rte-sim v{__version__} experiment={config.experiment} "
             f"model={config.model_name}",
             f"config_hash={config.config_hash()}",
             f"seed={config.seed}"]
    if timestamp:
        lines.append(f"timestamp={timestamp}")
    return lines


def _write_meta_json(config, outdir, files, timestamp):
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
    path = os.path.join(outdir, "meta.json")
    with open(path, "w") as f:
        json.dump(meta, f, indent=2, sort_keys=True)
        f.write("\n")


def _observable(config, model):
    kind = config.observable.get("kind", "component")
    if kind == "component":
        i = config.observable.get("index", 0)
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < model.dim:
            raise ConfigurationError(f"observable component {i} out of range")
        F = lambda xs: np.asarray(xs, dtype=float)[..., i]

        def gradF(xs):
            g = np.zeros_like(np.asarray(xs, dtype=float))
            g[..., i] = 1.0
            return g
        return F, gradF
    if kind == "sum":
        F = lambda xs: np.asarray(xs, dtype=float).sum(axis=-1)
        gradF = lambda xs: np.ones_like(np.asarray(xs, dtype=float))
        return F, gradF
    raise ConfigurationError(f"unknown observable kind {kind!r}")


# ---------------------------------------------------------------------------
# experiments


def _run_converge(config, model, outdir, threads, comments):
    x0 = np.atleast_1d(np.asarray(config.x0, dtype=float))
    ref = config.reference_spec()
    variant_cfgs = [config.solver_configs(e) for e in config.solver_entries]
    flat = [c for cfgs in variant_cfgs for c in cfgs]
    report = strong_error(model, ref, flat, x0, config.T, config.M,
                          config.seed, threads=threads, norm=config.error_norm)
    files = []
    report_path = os.path.join(outdir, "report.csv")
    fit_lines = []
    with open(report_path, "w") as f:
        for line in comments:
            f.write(f"# {line}\n")
        f.write("h,mean_abs_error,std_error,M\n")
        i = 0
        for cfgs in variant_cfgs:
            variant = cfgs[0].variant()
            f.write(f"# variant={variant}\n")
            rows = report.rows[i:i + len(cfgs)]
            i += len(cfgs)
            for r in rows:
                f.write(f"{r.h!r},{r.mean_abs_error!r},{r.std_error!r},{r.M}\n")
            try:
                fit = fit_order(rows)
                f.write(f"# slope={fit.slope!r}, intercept={fit.intercept!r}, "
                        f"r2={fit.r_squared!r}\n")
                fit_lines.append(f"{variant}: slope={fit.slope!r} "
                                 f"intercept={fit.intercept!r} r2={fit.r_squared!r}")
            except FitError as e:
                fit_lines.append(f"{variant}: no fit ({e})")
    files.append("report.csv")
    with open(os.path.join(outdir, "fit.txt"), "w") as f:
        for line in comments:
            f.write(f"# {line}\n")
        for line in fit_lines:
            f.write(line + "\n")
    files.append("fit.txt")
    return files


def _run_simulate(config, model, outdir, threads, comments, sample_grid=None):
    x0 = np.atleast_1d(np.asarray(config.x0, dtype=float))
    bundle = PathBundle(config.seed, 0, model.jump_count)
    files = []
    for entry in config.solver_entries:
        for cfg in config.solver_configs(entry):
            traj = solve_trajectory(model, cfg, bundle, x0, config.T)
            name = f"traj_{cfg.label()}.csv"
            with open(os.path.join(outdir, name), "w") as f:
                traj.write_csv(f, comments=comments + [f"variant={cfg.label()}"])
            files.append(name)
    ref = config.reference_spec()
    if ref == "exact":
        traj = exact_trajectory(model, bundle, x0, config.T)
        with open(os.path.join(outdir, "exact_jumps.csv"), "w") as f:
            traj.write_jumps_csv(f, comments=comments)
        with open(os.path.join(outdir, "exact_segments.csv"), "w") as f:
            traj.write_segments_csv(f, comments=comments)
        files += ["exact_jumps.csv", "exact_segments.csv"]
        if sample_grid is not None:
            times, states = traj.sample_grid(sample_grid)
            with open(os.path.join(outdir, "exact_grid.csv"), "w") as f:
                for line in comments:
                    f.write(f"# {line}\n")
                cols = ["t"] + [f"x_{i + 1}" for i in range(model.dim)]
                f.write(",".join(cols) + "\n")
                for t, x in zip(times, states):
                    f.write(",".join([repr(float(t))] + [repr(float(v)) for v in x]))
                    f.write("\n")
            files.append("exact_grid.csv")
    else:
        traj = solve_trajectory(model, ref.resolve_config(), bundle, x0, config.T)
        with open(os.path.join(outdir, "traj_reference.csv"), "w") as f:
            traj.write_csv(f, comments=comments + ["variant=reference"])
        files.append("traj_reference.csv")
    return files


def _run_local_error(config, model, outdir, threads, comments):
    from .analysis import run_replications

    x0 = np.atleast_1d(np.asarray(config.x0, dtype=float))
    all_cfgs = [c for e in config.solver_entries for c in config.solver_configs(e)]
    labels = [c.label() for c in all_cfgs]

    def worker(j):
        bundle = PathBundle(config.seed, j, model.jump_count)
        traj = exact_trajectory(model, bundle, x0, config.T)
        return [local_errors(model, traj, cfg) for cfg in all_cfgs]

    per_rep = run_replications(worker, config.M, threads)
    files = []
    for i, label in enumerate(labels):
        name = f"local_{label}.csv"
        with open(os.path.join(outdir, name), "w") as f:
            for line in comments:
                f.write(f"# {line}\n")
            f.write(f"# variant={label}\n")
            f.write("n,L_abs,K_abs\n")
            for rep in per_rep:
                for s in rep[i]:
                    f.write(f"{s.n},{s.L_abs!r},{s.K_abs!r}\n")
        files.append(name)
    return files


def _run_diagnose(config, model, outdir, threads, comments):
    x0 = np.atleast_1d(np.asarray(config.x0, dtype=float))
    F, gradF = _observable(config, model)
    check = martingale_check(model, F, gradF, x0, config.T, config.M,
                             config.seed, threads=threads)
    name = "diagnose.csv"
    with open(os.path.join(outdir, name), "w") as f:
        for line in comments:
            f.write(f"# {line}\n")
        f.write("M,mean,abs_z,se_mean,second_moment_lhs,se_lhs,"
                "second_moment_rhs,se_rhs\n")
        f.write(f"{check.M},{check.mean!r},{check.abs_z!r},{check.se_mean!r},"
                f"{check.second_moment_lhs!r},{check.se_lhs!r},"
                f"{check.second_moment_rhs!r},{check.se_rhs!r}\n")
    return [name]


def run(config, threads=1, timestamp=True, sample_grid=None, log=print):
    """Execute one validated run; returns the exit status."""
    findings = validate(config)
    for level, message in findings:
        log(f"{level}: {message}")
    if any(level == "error" for level, _ in findings):
        return EXIT_CONFIG
    model = config.build_model()
    outdir = config.output
    os.makedirs(outdir, exist_ok=True)
    stamp = (datetime.now(timezone.utc).isoformat(timespec="seconds")
             if timestamp else None)
    comments = _meta_comments(config, stamp)
    try:
        if config.experiment == "converge":
            files = _run_converge(config, model, outdir, threads, comments)
        elif config.experiment == "simulate":
            files = _run_simulate(config, model, outdir, threads, comments,
                                  sample_grid=sample_grid)
        elif config.experiment == "local-error":
            files = _run_local_error(config, model, outdir, threads, comments)
        elif config.experiment == "diagnose":
            files = _run_diagnose(config, model, outdir, threads, comments)
        else:
            log(f"error: unknown experiment {config.experiment!r}")
            return EXIT_CONFIG
    except _CONFIG_ERRORS as e:
        log(f"error: {e}")
        return EXIT_CONFIG
    except _MODEL_ERRORS as e:
        log(f"error: {e}")
        return EXIT_MODEL
    except _NUMERICAL_ERRORS as e:
        log(f"error: {e}")
        return EXIT_NUMERICAL
    _write_meta_json(config, outdir, files, stamp)
    for name in files:
        log(f"wrote {os.path.join(outdir, name)}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
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
        s.add_argument("--seed", type=lambda v: int(v, 0), default=None,
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
    args = build_parser().parse_args(argv)
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
    except (TypeError, ValueError) as e:
        print(f"error: bad seed: {e}", file=sys.stderr)
        return EXIT_CONFIG
    config = RunConfig(doc, args.experiment, seed)
    return run(config, threads=args.threads, timestamp=not args.no_timestamp,
               sample_grid=getattr(args, "sample_grid", None))


if __name__ == "__main__":
    sys.exit(main())
