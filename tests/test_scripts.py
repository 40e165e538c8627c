"""Each script under scripts/ runs to completion on tiny inputs."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,args,header",
    [
        ("run_de_sitter.py", ["--segments", "2"], "sup|H - H0|"),
        (
            "mass_sweep.py",
            ["{tmp}", "--masses", "0.5", "--horizon", "0.0005", "--threads", "1"],
            "# semiflrw sweep aggregate",
        ),
    ],
)
def test_script_runs(tmp_path, script, args, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)]
        + [arg.format(tmp=tmp_path) for arg in args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert any(header in line for line in proc.stdout.splitlines()), proc.stdout
