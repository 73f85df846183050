"""perfbench/tracer.py wraps `dde` functions by rebinding module attributes
by name, so a rename in `dde` breaks the benchmark's trace without failing
any other test.  These checks pin every name that it patches."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from dde.spectral import conv_singular_values

ROOT = Path(__file__).resolve().parents[1]


def _tracer():
    """perfbench/tracer.py as a module; importing it has no side effects."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_patched_name_is_a_callable():
    for mod_name, attr, span, _ in _tracer().PATCHES:
        fn = getattr(importlib.import_module(mod_name), attr, None)
        assert callable(fn), (mod_name, attr, span)


def test_conv_spectrum_note_reads_values():
    # the tracer's note on conv_singular_values counts `result.values`
    report = conv_singular_values(np.ones((2, 2, 3, 3)), (4, 4))
    assert report.values.size == 4 * 4 * 2


def test_install_succeeds_in_a_fresh_process():
    # in a subprocess, so that the rebinding does not leak into this one
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.Tracer().install()"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
