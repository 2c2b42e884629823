import contextlib
import copy
import io
import json
import numbers
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import rtesim as rs
from rtesim import analysis, cli
from rtesim.errors import (GridError, ImplicitSolveError, ModelEvaluationError,
                           NegativeStateError, RunawayJumpError,
                           UnsupportedModelError)

LINEAR = {"name": "linear-scalar",
          "params": {"alpha": 1.5, "lambda": 200.0, "epsilon": 0.007}}


def write_config(path, **overrides):
    doc = {
        "schema": 1,
        "model": LINEAR,
        "solver": [{"theta": 0.0, "quadrature": "euler", "h": [0.5, 0.25]}],
        "T": 2.0,
        "x0": 10.0,
        "M": 4,
        "seed": 11,
        "reference": "exact",
        "output": str(path.parent / "out"),
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return doc


def make_config(doc, experiment="converge", seed=None):
    return cli.RunConfig(doc, experiment, cli.resolve_seed(seed, doc))


def read_table(path):
    """Comment lines (without '# '), header cells and float rows of a CSV."""
    lines = path.read_text().splitlines()
    n = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[n + 1:]])
    return [line[2:] for line in lines[:n]], lines[n].split(","), rows


class TestValidate:
    def test_clean_config_has_no_findings(self, tmp_path):
        doc = write_config(tmp_path / "c.json")
        assert cli.validate(make_config(doc)) == []

    def test_step_size_restriction_warning(self, tmp_path):
        doc = write_config(tmp_path / "c.json",
                           solver=[{"theta": 1.0, "quadrature": "euler",
                                    "h": [1.0]}])
        findings = cli.validate(make_config(doc))
        assert [lvl for lvl, _ in findings] == ["warning"]
        assert "1.5" in findings[0][1]

    def test_explicit_method_never_warns(self, tmp_path):
        doc = write_config(tmp_path / "c.json",
                           solver=[{"theta": 0.0, "quadrature": "euler",
                                    "h": [1.0]}])
        assert cli.validate(make_config(doc)) == []

    def test_unknown_quadrature_is_error(self, tmp_path):
        doc = write_config(tmp_path / "c.json",
                           solver=[{"theta": 0.0, "quadrature": "simpson",
                                    "h": [0.5]}])
        findings = cli.validate(make_config(doc))
        assert any(lvl == "error" and "simpson" in msg for lvl, msg in findings)

    def test_non_divisor_step_named(self, tmp_path):
        doc = write_config(tmp_path / "c.json",
                           solver=[{"theta": 0.0, "h": [0.5, 0.3]}])
        findings = cli.validate(make_config(doc))
        assert any(lvl == "error" and "0.3" in msg for lvl, msg in findings)

    def test_reference_nesting_checked(self, tmp_path):
        doc = write_config(tmp_path / "c.json", reference={"h_ref": 0.4})
        findings = cli.validate(make_config(doc))
        assert any(lvl == "error" for lvl, _ in findings)

    def test_exact_reference_needs_hooks(self, tmp_path):
        doc = write_config(tmp_path / "c.json",
                           model={"name": "bacteriophage"},
                           x0=[20.0, 200.0, 10000.0],
                           solver=[{"theta": 0.0, "h": [0.5]}])
        findings = cli.validate(make_config(doc))
        assert any("hooks" in msg for _, msg in findings)

    def test_experiment_mismatch(self, tmp_path):
        doc = write_config(tmp_path / "c.json", experiment="simulate")
        findings = cli.validate(make_config(doc, experiment="converge"))
        assert any(lvl == "error" for lvl, _ in findings)

    def test_x0_shape_checked(self, tmp_path):
        doc = write_config(tmp_path / "c.json", x0=[1.0, 2.0])
        findings = cli.validate(make_config(doc))
        assert any("x0" in msg for lvl, msg in findings if lvl == "error")

    def test_typoed_solver_field_is_error(self, tmp_path):
        doc = write_config(tmp_path / "c.json",
                           solver=[{"theta": 0.0, "quad": "euler", "h": [0.5]}])
        findings = cli.validate(make_config(doc))
        assert any(lvl == "error" and "quad" in msg for lvl, msg in findings)

    def test_typoed_reference_field_is_error(self, tmp_path):
        doc = write_config(tmp_path / "c.json",
                           reference={"h_ref": 0.25, "thata": 1.0})
        findings = cli.validate(make_config(doc))
        assert any(lvl == "error" and "thata" in msg for lvl, msg in findings)

    def test_unknown_top_level_field_warns(self, tmp_path):
        doc = write_config(tmp_path / "c.json", comment="fig 1 rerun")
        findings = cli.validate(make_config(doc))
        assert findings == [("warning", "ignoring unknown config field 'comment'")]

    def test_diagnose_needs_hooks(self, tmp_path):
        doc = write_config(tmp_path / "c.json",
                           model={"name": "bacteriophage"},
                           x0=[20.0, 200.0, 10000.0], solver=[],
                           reference={"h_ref": 0.125})
        findings = cli.validate(make_config(doc, experiment="diagnose"))
        assert any(lvl == "error" and "hooks" in msg for lvl, msg in findings)

    def test_empty_reference_block_is_explicit_euler_at_1_320(self, tmp_path):
        doc = write_config(tmp_path / "c.json", reference={})
        config = make_config(doc)
        assert cli.validate(config) == []
        assert config.reference == rs.SolverConfig(
            theta=0.0, h=1.0 / 320.0, quadrature="euler")

    def test_schema_required(self, tmp_path):
        doc = write_config(tmp_path / "c.json", schema=2)
        findings = cli.validate(make_config(doc))
        assert any("schema" in msg for lvl, msg in findings if lvl == "error")


class TestSeedResolution:
    def test_default(self):
        assert cli.resolve_seed(None, {}) == 0x5EED

    def test_config_field(self):
        assert cli.resolve_seed(None, {"seed": 5}) == 5

    def test_env_overrides_config(self, monkeypatch):
        monkeypatch.setenv("RTE_SIM_SEED", "0x10")
        assert cli.resolve_seed(None, {"seed": 5}) == 16

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("RTE_SIM_SEED", "0x10")
        assert cli.resolve_seed(99, {"seed": 5}) == 99


class TestConfigHash:
    def test_replication_count_changes_hash(self, tmp_path):
        doc = write_config(tmp_path / "c.json")
        a = make_config(doc).config_hash()
        doc2 = dict(doc, M=doc["M"] + 1)
        assert make_config(doc2).config_hash() != a

    def test_output_location_does_not_change_hash(self, tmp_path):
        doc = write_config(tmp_path / "c.json")
        a = make_config(doc).config_hash()
        doc2 = dict(doc, output="elsewhere")
        assert make_config(doc2).config_hash() == a

    def test_seed_override_changes_hash(self, tmp_path):
        doc = write_config(tmp_path / "c.json")
        assert make_config(doc).config_hash() != \
            make_config(doc, seed=123).config_hash()


class TestExitCodes:
    def test_success(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, M=2)
        assert cli.main(["converge", "--config", str(cfg),
                         "--no-timestamp", "--threads", "1"]) == 0

    def test_config_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, solver=[{"theta": 0.0, "h": [0.3]}])
        assert cli.main(["converge", "--config", str(cfg)]) == 1

    def test_unreadable_config(self, tmp_path):
        bad = tmp_path / "nope.json"
        assert cli.main(["converge", "--config", str(bad)]) == 1
        bad.write_text("{not json")
        assert cli.main(["converge", "--config", str(bad)]) == 1

    def test_numerical_failure(self, tmp_path):
        # theta=1 with h*L_f = 2: the fixed-point map cannot contract
        cfg = tmp_path / "c.json"
        write_config(cfg,
                     model={"name": "quadratic-scalar",
                            "params": {"alpha": 2.0, "beta": 0.05, "eps": 0.01}},
                     solver=[{"theta": 1.0, "quadrature": "euler", "h": [1.0]}],
                     x0=1.0, M=1, T=2.0)
        assert cli.main(["converge", "--config", str(cfg), "--threads", "1"]) == 3

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_step_size_warning_is_one_line(self, tmp_path, threads):
        # h*theta*L_f = 1.5: validate warns, then the Picard solve stalls.
        # A fresh interpreter, so that Python prints its warnings as it
        # would for a user rather than handing them to pytest
        cfg = tmp_path / "c.json"
        write_config(cfg, solver=[{"theta": 1.0, "quadrature": "euler", "h": [1.0]}])
        src = os.path.dirname(os.path.dirname(rs.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "rtesim.cli", "converge", "--config", str(cfg),
             "--threads", threads, "--no-timestamp"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 3
        assert proc.stdout.startswith("warning: h*theta*L_f = 1.5 >= 1")
        assert [ln[:7] for ln in (proc.stdout + proc.stderr).splitlines()] == [
            "warning", "error: "]

    @pytest.mark.parametrize("argv,overrides", [
        (["--seed", "-1"], {}),
        ([], {"T": "1"}),
        ([], None),  # a top-level JSON array
        ([], {"model": ["linear-scalar"]}),
        ([], {"model": dict(LINEAR, params=[1.5])}),
        ([], {"model": {"name": ["linear-scalar"]}}),
        ([], {"model": dict(LINEAR, scaling={"N": "big", "alpha": [1.0]})}),
        ([], {"x0": "ten"}),
        ([], {"x0": [float("nan")]}),
        ([], {"x0": float("inf")}),
        ([], {"M": True}),
        ([], {"solver": 5}),
        ([], {"reference": 5}),
        ([], {"output": 5}),
        ([], {"solver": [{"theta": 1.0, "h": [0.5], "fp_max_iter": 2.5}]}),
        ([], {"reference": {"h_ref": "x"}}),
        ([], {"reference": {"h_ref": None}}),
        ([], {"reference": {"h_ref": 0.125, "theta": "a"}}),
        ([], {"solver": [{"theta": "0.5", "h": [0.5]}]}),
        ([], {"solver": [{"theta": 0.0, "h": [0.5]}, {"theta": 0.0, "h": []}]}),
        ([], {"solver": [{"theta": 0.0, "h": [5e-324]}]}),
        ([], {"reference": {"h_ref": 5e-324},
              "solver": [{"theta": 0.0, "h": 0.5}]}),
        ([], {"T": 10 ** 400}),
        ([], {"schema": True}),
        ([], {"schema": 1.0}),
        ([], {"solver": [{"theta": 0.0, "h": [1e-300]}]}),
        ([], {"reference": {"h_ref": 1e-300},
              "solver": [{"theta": 0.0, "h": 0.5}]}),
        ([], {"model": dict(LINEAR, scaling={"N": 1e300, "alpha": [2.0],
                                             "c": [0.0]})}),
        ([], {"seed": True}),
        ([], {"seed": 1.5}),
        ([], {"seed": "3"}),
    ], ids=["negative-seed", "string-horizon", "array-document",
            "array-model", "array-params", "array-name", "string-scaling",
            "string-x0", "nan-x0", "inf-x0",
            "bool-M", "number-solver", "number-reference", "number-output",
            "float-fp-max-iter", "string-h-ref", "null-h-ref",
            "string-reference-theta", "string-theta", "empty-h-list",
            "h-beyond-grid", "h-ref-beyond-grid", "huge-int-horizon",
            "bool-schema", "float-schema", "tiny-h", "tiny-h-ref",
            "overflowing-scaling", "bool-seed", "float-seed", "string-seed"])
    def test_malformed_document_is_one_error_line(self, tmp_path, capsys,
                                                  argv, overrides):
        cfg = tmp_path / "c.json"
        if overrides is None:
            cfg.write_text(json.dumps([1, 2]))
        else:
            write_config(cfg, **dict({"M": 2}, **overrides))
        assert cli.main(["converge", "--config", str(cfg), "--threads", "1",
                         "--no-timestamp"] + argv) == 1
        out = capsys.readouterr()
        lines = (out.out + out.err).splitlines()
        assert [ln for ln in lines if ln.startswith("error:")] == lines[:1]
        assert len(lines) == 1 and "Traceback" not in out.err

    @pytest.mark.parametrize("name", ["a\0b", "file"],
                             ids=["nul-byte", "existing-file"])
    def test_unusable_output_is_one_error_line(self, tmp_path, capsys, name):
        (tmp_path / "file").write_text("kept")
        cfg = tmp_path / "c.json"
        write_config(cfg, M=2, output=str(tmp_path / name))
        assert cli.main(["converge", "--config", str(cfg), "--threads", "1",
                         "--no-timestamp"]) == 1
        out = capsys.readouterr()
        lines = (out.out + out.err).splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert (tmp_path / "file").read_text() == "kept"

    @pytest.mark.parametrize("experiment,argv,overrides,prefix", [
        *[(e, [], {"error_norm": "l1"}, "error_norm: ") for e in cli.EXPERIMENTS],
        ("diagnose", [], {"M": 1}, "diagnose needs M >= 2"),
        *[("diagnose", [], {"observable": v}, "observable: ")
          for v in ([0], {"index": "0"}, {"index": True}, {"kind": "bogus"},
                    {"index": 5})],
        *[("simulate", ["--sample-grid", v], {}, "--sample-grid: ")
          for v in ("0", "-0.25", "nan", "0.3")],
        ("simulate", ["--sample-grid", "0.25"], {"reference": {"h_ref": 0.125}},
         "--sample-grid: "),
        # both configs would write local_theta0-euler-h0.25.csv
        ("local-error", [], {"solver": [
            {"theta": 0, "quadrature": "euler", "h": [0.25]},
            {"theta": 0, "quadrature": "euler", "h": [0.25], "negativity": "allow"}]},
         "solver configs share the label(s) theta0-euler-h0.25"),
    ], ids=[*(f"{e}-error-norm" for e in cli.EXPERIMENTS), "diagnose-M-1",
            "array-observable", "string-index", "bool-index", "unknown-kind",
            "index-out-of-range", "sample-grid-0", "negative-sample-grid",
            "nan-sample-grid", "non-divisor-sample-grid",
            "sample-grid-fine-step-reference", "repeated-label"])
    def test_bad_field_or_flag_writes_nothing(self, tmp_path, capsys, experiment,
                                              argv, overrides, prefix):
        cfg = tmp_path / "c.json"
        write_config(cfg, **dict({"M": 2}, **overrides))
        assert cli.main([experiment, "--config", str(cfg), "--threads", "1",
                         "--no-timestamp"] + argv) == 1
        out = capsys.readouterr()
        lines = (out.out + out.err).splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: " + prefix)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("exc,code", [
        (GridError("g"), 1),
        (UnsupportedModelError("u"), 2),
        (ModelEvaluationError("m"), 2),
        (RunawayJumpError("r"), 2),
        (ImplicitSolveError("i"), 3),
        (NegativeStateError("n"), 3),
    ])
    def test_error_mapping(self, tmp_path, monkeypatch, exc, code):
        cfg = tmp_path / "c.json"
        doc = write_config(cfg, M=2)
        monkeypatch.setattr(cli, "_run_converge",
                            lambda *a, **k: (_ for _ in ()).throw(exc))
        config = make_config(doc)
        assert cli.run(config, threads=1, timestamp=False, log=lambda *a: None) == code


class TestOutputs:
    @pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
    def test_model_is_built_once_per_run(self, tmp_path, monkeypatch, experiment):
        built = []
        monkeypatch.setattr(cli, "get_model",
                            lambda *a: built.append(a) or rs.get_model(*a))
        cfg = tmp_path / "c.json"
        write_config(cfg, M=2, T=0.5)
        assert cli.main([experiment, "--config", str(cfg), "--no-timestamp",
                         "--threads", "1"]) == 0
        assert len(built) == 1

    def test_converge_outputs(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, M=3)
        assert cli.main(["converge", "--config", str(cfg), "--no-timestamp",
                         "--threads", "1"]) == 0
        out = tmp_path / "out"
        report = (out / "report.csv").read_text().splitlines()
        assert "h,mean_abs_error,std_error,M" in report
        assert any(line.startswith("# variant=theta0-euler") for line in report)
        assert any(line.startswith("# slope=") for line in report)
        assert (out / "fit.txt").exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["seed"] == 11
        assert "timestamp" not in meta
        # rows are sorted by h descending inside the variant block
        data = [line for line in report if line and not line.startswith("#")]
        hs = [float(line.split(",")[0]) for line in data[1:]]
        assert hs == sorted(hs, reverse=True)

    def test_simulate_outputs(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, M=1, solver=[{"theta": 0.5, "quadrature": "midpoint",
                                        "h": [0.5]}])
        assert cli.main(["simulate", "--config", str(cfg), "--no-timestamp",
                         "--sample-grid", "0.5", "--threads", "1"]) == 0
        out = tmp_path / "out"
        for name in ("traj_theta0.5-midpoint-h0.5.csv", "exact_jumps.csv",
                     "exact_segments.csv", "exact_grid.csv", "meta.json"):
            assert (out / name).exists(), name

    def test_simulate_with_reference_run(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, M=1, reference={"h_ref": 0.125},
                     solver=[{"theta": 0.0, "h": [0.5]}])
        assert cli.main(["simulate", "--config", str(cfg), "--no-timestamp",
                         "--threads", "1"]) == 0
        assert (tmp_path / "out" / "traj_reference.csv").exists()

    def test_local_error_outputs(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, M=2, T=1.0, solver=[{"theta": 0.0, "h": [0.25, 0.5]}])
        assert cli.main(["local-error", "--config", str(cfg), "--no-timestamp",
                         "--threads", "1"]) == 0
        for h, steps in ((0.25, 4), (0.5, 2)):
            path = tmp_path / "out" / f"local_theta0-euler-h{h}.csv"
            lines = path.read_text().splitlines()
            assert "n,L_abs,K_abs" in lines
            data = [line for line in lines if not line.startswith("#")]
            assert len(data) == 1 + 2 * steps  # header + M * (T/h) rows

    def test_diagnose_outputs(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, M=40, T=0.5, solver=[])
        assert cli.main(["diagnose", "--config", str(cfg), "--no-timestamp",
                         "--threads", "1"]) == 0
        lines = (tmp_path / "out" / "diagnose.csv").read_text().splitlines()
        header = [line for line in lines if not line.startswith("#")][0]
        assert header.startswith("M,mean,abs_z")

    @pytest.mark.parametrize("experiment,argv,overrides", [
        ("diagnose", [], {"M": 20, "T": 0.25, "solver": []}),
        ("simulate", ["--sample-grid", "0.25"], {"M": 1}),
        ("local-error", [], {"M": 3, "T": 1.0}),
    ])
    def test_outputs_identical_across_threads(self, tmp_path, monkeypatch,
                                              experiment, argv, overrides):
        # small blocks, so that diagnose's replications span several of them
        monkeypatch.setattr(analysis, "_BLOCK_ROWS", 6)
        monkeypatch.setattr(analysis, "_MARTINGALE_BLOCK_ROWS", 6)
        cfg = tmp_path / "c.json"
        write_config(cfg, **overrides)
        out = tmp_path / "out"
        blobs = []
        for threads in ("1", "2"):
            shutil.rmtree(out, ignore_errors=True)
            assert cli.main([experiment, "--config", str(cfg), "--no-timestamp",
                             "--threads", threads] + argv) == 0
            blobs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert len(blobs[0]) >= 2 and blobs[0] == blobs[1]

    def test_simulate_tables_read_back_exactly(self, tmp_path):
        cfg = tmp_path / "c.json"
        doc = write_config(cfg, T=0.25, solver=[{"theta": 0.5, "h": [0.125]}])
        assert cli.main(["simulate", "--config", str(cfg), "--no-timestamp",
                         "--sample-grid", "0.125", "--threads", "1"]) == 0
        out = tmp_path / "out"
        model = rs.get_model(LINEAR["name"], LINEAR["params"])
        traj = rs.solve_trajectory(model, rs.SolverConfig(theta=0.5, h=0.125),
                                   rs.PathBundle(11, 0, 1), [10.0], 0.25)
        exact = rs.exact_trajectory(model, rs.PathBundle(11, 0, 1), [10.0], 0.25)
        assert exact.jump_count > 0

        comments, header, rows = read_table(out / "traj_theta0.5-euler-h0.125.csv")
        assert comments[0].startswith("rte-sim v")
        assert comments[-1] == "variant=theta0.5-euler-h0.125"
        assert header == ["t", "x_1", "tau_1"]
        assert np.array_equal(rows, np.column_stack([traj.grid, traj.states,
                                                     traj.clocks]))

        comments, header, rows = read_table(out / "exact_jumps.csv")
        assert comments[0].startswith("rte-sim v")
        assert header == ["jump_time", "process_id", "x_1"]
        assert len(rows) == exact.jump_count
        assert np.array_equal(rows[:, 0], exact.jump_times)
        assert np.array_equal(rows[:, 1], exact.jump_ids + 1)  # 1-based ids
        assert np.array_equal(rows[:, 2:], exact.states_post_jump)
        lines = (out / "exact_jumps.csv").read_text().splitlines()
        assert {line.split(",")[1] for line in lines[len(comments) + 1:]} == {"1"}

        comments, header, rows = read_table(out / "exact_segments.csv")
        assert header == ["seg_start", "duration", "x_1"]
        assert len(rows) == len(exact.seg_starts) == exact.jump_count + 1
        assert np.array_equal(rows, np.column_stack(
            [exact.seg_starts, exact.seg_durations, exact.seg_states]))

        comments, header, rows = read_table(out / "exact_grid.csv")
        times, states = exact.sample_grid(0.125)
        assert header == ["t", "x_1"]
        assert np.array_equal(rows, np.column_stack([times, states]))

    def test_report_rows_and_slope_trailer(self, tmp_path):
        cfg = tmp_path / "c.json"
        doc = write_config(cfg, M=3, solver=[{"theta": 0.0, "h": [1, 0.5, 0.25]}])
        assert cli.main(["converge", "--config", str(cfg), "--no-timestamp",
                         "--threads", "1"]) == 0
        lines = (tmp_path / "out" / "report.csv").read_text().splitlines()
        assert lines[0].startswith("# rte-sim v")
        assert lines[3:5] == ["h,mean_abs_error,std_error,M",
                              "# variant=theta0-euler"]
        cells = [line.split(",") for line in lines[5:8]]
        assert [c[0] for c in cells] == ["1", "0.5", "0.25"]  # JSON ints stay
        assert [c[3] for c in cells] == ["3", "3", "3"]
        config = make_config(doc)
        assert cli.validate(config) == []
        report = rs.strong_error(config.model, "exact", config.variants[0],
                                 [10.0], 2.0, 3, 11)
        assert [tuple(float(v) for v in c) for c in cells] == report.rows
        fit = rs.fit_order(report)
        assert lines[8:] == [f"# slope={fit.slope!r}, intercept={fit.intercept!r}, "
                             f"r2={fit.r_squared!r}"]

    def test_converge_on_scaled_hybrid_model(self, tmp_path):
        # desk-scale version of the hybrid-model study: fine-step reference,
        # nested coarse grids, vector-valued endpoint errors
        cfg = tmp_path / "c.json"
        write_config(cfg,
                     model={"name": "bacteriophage-scaled"},
                     x0=[2.0, 2.0, 1.0], T=1.0, M=2,
                     reference={"h_ref": 0.003125},
                     solver=[{"theta": 0.5, "quadrature": "trapezoidal",
                              "h": [0.1, 0.05]}])
        assert cli.main(["converge", "--config", str(cfg), "--no-timestamp",
                         "--threads", "1"]) == 0
        report = (tmp_path / "out" / "report.csv").read_text().splitlines()
        data = [line for line in report if line and not line.startswith("#")]
        rows = [line.split(",") for line in data[1:]]
        assert [float(r[0]) for r in rows] == [0.1, 0.05]
        assert all(float(r[1]) > 0.0 for r in rows)

    def test_timestamp_present_by_default(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, M=2)
        assert cli.main(["converge", "--config", str(cfg), "--threads", "1"]) == 0
        meta = json.loads((tmp_path / "out" / "meta.json").read_text())
        assert "timestamp" in meta


# A small valid document whose every field, nested ones included, the fuzz
# test below replaces in turn.
FUZZ_DOC = {
    "schema": 1,
    "model": {"name": "linear-scalar",
              "params": {"alpha": 1.5, "lambda": 200.0, "epsilon": 0.007},
              "scaling": {"N": 100.0, "alpha": [1.0], "c": [0.0]}},
    "solver": [{"theta": 0.5, "quadrature": "trapezoidal", "h": [0.5, 0.25],
                "fp_tol": 1e-12, "fp_max_iter": 50, "negativity": "allow",
                "clamp_phi3": True}],
    "T": 1.0,
    "x0": [10.0],
    "M": 2,
    "seed": 1,
    "reference": {"h_ref": 0.125, "theta": 0.0, "quadrature": "euler",
                  "fp_tol": 1e-12, "fp_max_iter": 100,
                  "negativity": "reset-to-zero", "clamp_phi3": True},
    "output": "out",
    "error_norm": "euclidean",
    "observable": {"kind": "component", "index": 0},
}


def _field_paths(node, prefix=()):
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=5)


def _is_real(v):
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and np.isfinite(v))


def _assert_typed(cfg):
    assert isinstance(cfg, rs.SolverConfig)
    assert all(_is_real(getattr(cfg, name)) for name in ("theta", "h", "fp_tol"))
    assert isinstance(cfg.fp_max_iter, int) and not isinstance(cfg.fp_max_iter, bool)
    assert isinstance(cfg.clamp_phi3, bool)
    assert cfg.quadrature in rs.QUADRATURES
    assert 0.0 <= cfg.theta <= 1.0 and cfg.h > 0.0 and cfg.fp_tol > 0.0


class TestConfigFuzz:
    """Any one field of a valid document replaced by any JSON value.

    Only validation runs, never a simulation: a valid document with a huge
    T or M would run for a very long time.
    """

    def test_base_document_is_valid(self):
        for experiment in cli.EXPERIMENTS:
            assert cli.validate(cli.RunConfig(FUZZ_DOC, experiment, 1)) == []

    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(path=st.sampled_from(list(_field_paths(FUZZ_DOC))),
           value=JSON_VALUES, experiment=st.sampled_from(cli.EXPERIMENTS))
    def test_validate_never_raises(self, path, value, experiment):
        doc = copy.deepcopy(FUZZ_DOC)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        config = cli.RunConfig(doc, experiment, 1)
        findings = cli.validate(config)
        if any(level == "error" for level, _ in findings):
            return
        assert isinstance(config.model, rs.RteModel)
        assert _is_real(config.T) and config.T > 0
        assert isinstance(config.M, int) and not isinstance(config.M, bool)
        assert config.x0.dtype == float and config.x0.shape == (config.model.dim,)
        assert np.isfinite(config.x0).all()
        assert len(config.variants) == len(config.solver_entries)
        for cfgs in config.variants:
            for cfg in cfgs:
                _assert_typed(cfg)
        if config.reference != "exact":
            _assert_typed(config.reference)
        if experiment == "diagnose":
            assert config.M >= 2
            F, gradF = config.observable
            assert callable(F) and callable(gradF)


# Documents light enough to run in milliseconds (lambda * x0 * T = 100),
# one per reference kind; the fine-step one also runs the scaled hooks.
_RUN_BASE = {
    "schema": 1,
    "model": {"name": "linear-scalar",
              "params": {"alpha": 1.5, "lambda": 20.0, "epsilon": 0.05}},
    "solver": [{"theta": 0.5, "quadrature": "trapezoidal", "h": [0.25, 0.125],
                "fp_tol": 1e-12, "fp_max_iter": 50, "negativity": "allow",
                "clamp_phi3": True}],
    "T": 0.5,
    "x0": [10.0],
    "M": 3,
    "seed": 1,
    "reference": "exact",
    "error_norm": "euclidean",
    "observable": {"kind": "component", "index": 0},
}
RUN_DOCS = {
    "exact": _RUN_BASE,
    "fine-step": dict(
        _RUN_BASE, x0=[0.1],
        model=dict(_RUN_BASE["model"],
                   scaling={"N": 100.0, "alpha": [1.0], "c": [0.0]}),
        reference={"h_ref": 0.03125, "theta": 0.0, "quadrature": "euler",
                   "fp_tol": 1e-12, "fp_max_iter": 100,
                   "negativity": "reset-to-zero", "clamp_phi3": True}),
}
# every field but the model, which the validate fuzz covers, and output
RUN_FIELDS = [(kind, path) for kind, doc in RUN_DOCS.items()
              for path in _field_paths(doc) if path[0] != "model"]


def _reals(value):
    values = value if isinstance(value, list) else [value]
    return [v for v in values
            if isinstance(v, numbers.Real) and not isinstance(v, bool)]


def _asks_unbounded_work(doc):
    """M > 3, T > 1, an h or h_ref below 1/64, or |x0| > 100."""
    steps = []
    for entry in doc["solver"] if isinstance(doc["solver"], list) else []:
        if isinstance(entry, dict):
            steps += _reals(entry.get("h"))
    if isinstance(doc["reference"], dict):
        steps += _reals(doc["reference"].get("h_ref"))
    return (any(m > 3 for m in _reals(doc["M"]))
            or any(t > 1 for t in _reals(doc["T"]))
            or any(0 < h < 1 / 64 for h in steps)
            or any(abs(x) > 100 for x in _reals(doc["x0"])))


class TestRunFuzz:
    """Small documents with one field replaced by any JSON value, run end to end."""

    @pytest.mark.parametrize("kind", list(RUN_DOCS))
    @pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
    def test_base_documents_run(self, tmp_path, kind, experiment):
        doc = dict(RUN_DOCS[kind], output=str(tmp_path / "out"))
        (tmp_path / "c.json").write_text(json.dumps(doc))
        assert cli.main([experiment, "--config", str(tmp_path / "c.json"),
                         "--threads", "1", "--no-timestamp"]) == 0

    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(RUN_FIELDS), value=JSON_VALUES,
           experiment=st.sampled_from(cli.EXPERIMENTS))
    def test_run_exits_with_a_code_and_at_most_one_error(self, tmp_path, field,
                                                         experiment, value):
        kind, path = field
        doc = copy.deepcopy(RUN_DOCS[kind])
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        assume(not _asks_unbounded_work(doc))
        where = tempfile.mkdtemp(dir=tmp_path)
        doc["output"] = os.path.join(where, "out")
        cfg = os.path.join(where, "c.json")
        with open(cfg, "w") as f:
            json.dump(doc, f)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([experiment, "--config", cfg, "--threads", "1",
                             "--no-timestamp"])
        lines = (out.getvalue() + err.getvalue()).splitlines()
        assert code in (0, 1, 2, 3)
        assert sum(line.startswith("error:") for line in lines) <= 1
        assert code == 0 or not os.path.exists(doc["output"])
