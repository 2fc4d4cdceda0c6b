"""The shared ``python -m repro.<tool>`` exit path (:mod:`repro.cli`)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def test_reader_closing_the_pipe_early_ends_the_cli_quietly(tmp_path):
    """``query --list | head -1``: the listing (~170 kB) outgrows the
    pipe, so the CLI is still writing when the reader goes away."""
    store = tmp_path / "store"
    subprocess.run(
        [sys.executable, "-m", "repro.store", "synth", "--cells", "2000",
         "--store", str(store)],
        check=True, capture_output=True, env=_env(),
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", "query",
         "--store", str(store), "--list"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first.startswith(b"scenario=")
    assert "Traceback" not in stderr
    assert stderr == ""
