"""The benchmark's smoke run passes against the current package.

The benchmark's tracer and probe reach into the package by name, so a
rename or deletion fails here rather than in a benchmark run.  They read:
- ``cli.run``, and the span names looked up on ``analysis``:
  ``strong_error``, ``martingale_check``, ``local_errors``,
  ``integrate_along_path``, ``run_replications``, ``solve_trajectory``
  and ``exact_trajectory``;
- ``PoissonPath.count_at`` / ``increment`` / ``next_epoch_after`` and
  ``PoissonPath.epochs``;
- ``model.get_model``, ``eval_drift`` / ``eval_rate`` / ``eval_rates``
  and ``RteModel.clamp_diag.count``;
- ``cli.main``, ``cli.build_parser``, ``cli.RunConfig`` with its
  ``solver_entries`` and ``solver_configs``, ``LocalErrorSample(n, L_abs,
  K_abs)`` and ``stepper.grid_steps``.
These names stay while the benchmark reads them, even where only tests
call them otherwise.  The smoke run writes only to the ignored
``.perfbench_work/`` directory.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "smoke.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
