import json
import os

import numpy as np
import pytest

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
    ], ids=["negative-seed", "string-horizon", "array-document",
            "array-model", "array-params", "array-name", "string-scaling",
            "string-x0", "nan-x0", "inf-x0",
            "bool-M", "number-solver", "number-reference", "number-output"])
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

    @pytest.mark.parametrize("observable", [[0], {"index": "0"}, {"index": True}])
    def test_malformed_observable_is_one_error_line(self, tmp_path, capsys,
                                                    observable):
        cfg = tmp_path / "c.json"
        write_config(cfg, M=2, solver=[], observable=observable)
        assert cli.main(["diagnose", "--config", str(cfg), "--threads", "1",
                         "--no-timestamp"]) == 1
        out = capsys.readouterr()
        lines = (out.out + out.err).splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

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
        write_config(cfg, M=2, T=1.0, solver=[{"theta": 0.0, "h": [0.25]}])
        assert cli.main(["local-error", "--config", str(cfg), "--no-timestamp",
                         "--threads", "1"]) == 0
        lines = (tmp_path / "out" / "local_theta0-euler-h0.25.csv").read_text().splitlines()
        assert "n,L_abs,K_abs" in lines
        data = [line for line in lines if not line.startswith("#")]
        assert len(data) == 1 + 2 * 4  # header + M * (T/h) rows

    def test_diagnose_outputs(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, M=40, T=0.5, solver=[])
        assert cli.main(["diagnose", "--config", str(cfg), "--no-timestamp",
                         "--threads", "1"]) == 0
        lines = (tmp_path / "out" / "diagnose.csv").read_text().splitlines()
        header = [line for line in lines if not line.startswith("#")][0]
        assert header.startswith("M,mean,abs_z")

    def test_diagnose_outputs_identical_across_threads(self, tmp_path,
                                                       monkeypatch):
        # small blocks, so that the replications span several of them
        monkeypatch.setattr(analysis, "_BLOCK_ROWS", 6)
        cfg = tmp_path / "c.json"
        write_config(cfg, M=20, T=0.25, solver=[])
        blobs = []
        for threads in ("1", "2"):
            assert cli.main(["diagnose", "--config", str(cfg), "--no-timestamp",
                             "--threads", threads]) == 0
            out = tmp_path / "out"
            blobs.append([(out / n).read_bytes()
                          for n in ("diagnose.csv", "meta.json")])
        assert blobs[0] == blobs[1]

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
