"""The package's start-up path: no quanvaudio module imports SciPy, and
importing the CLI, the harness or a seed child loads no YAML parser.

Importing scipy.signal and scipy.io costs every process well over a second
and about 70 MB; SciPy stays a test-only oracle. ``yaml`` costs about 20 ms,
which every seed child would pay without reading any YAML."""

import os
import subprocess
import sys
from pathlib import Path

import quanvaudio

PACKAGE_DIR = Path(quanvaudio.__file__).resolve().parent

_PROBE = """
import sys
import numpy as np
import quanvaudio.cli, quanvaudio.harness, quanvaudio.toydata
from quanvaudio import corrupt
from quanvaudio.audio import Waveform, load_wav, write_wav

t = np.arange(8000) / 16000.0
tone = Waveform(0.5 * np.sin(2 * np.pi * 440.0 * t), 16000)
shifted = corrupt.pitch_shift_by(tone, 1.3)
write_wav(sys.argv[1], shifted)
assert len(load_wav(sys.argv[1])) == len(tone)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_package_runs_without_importing_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(tmp_path / "shifted.wav")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]", out.stdout


def test_start_up_imports_no_yaml():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, quanvaudio.cli, quanvaudio.harness, quanvaudio._seedchild; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] in ('yaml', '_yaml')))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]", out.stdout


def test_no_package_source_mentions_scipy():
    offenders = [p.name for p in sorted(PACKAGE_DIR.rglob("*.py")) if "scipy" in p.read_text()]
    assert offenders == []
