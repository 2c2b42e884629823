"""The benchmark's smoke run passes against the current package.

The benchmark's tracer and probe reach into the package by name
(``analysis.local_errors``, ``LocalErrorSample(n, L_abs, K_abs)``,
``model.eval_drift`` / ``eval_rate`` / ``eval_rates``,
``RteModel.clamp_diag.count``, ``stepper.grid_steps``), so a rename fails
here rather than in a benchmark run.  The smoke run writes only to the
ignored ``.perfbench_work/`` directory.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "smoke.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
