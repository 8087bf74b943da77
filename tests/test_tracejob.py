"""What perfbench's `--trace 1` runs rely on: tracejob.py wraps the engines by
name, changes no byte of a job's output, and records each call of an engine
it wraps as one span with the sizes the cost model reads.  The tail engine
behind `count` and `compare` is not wrapped yet, so those jobs record no
engine span."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import paritylab

SRC = str(Path(paritylab.__file__).resolve().parent.parent)
TRACEJOB = Path(__file__).resolve().parent.parent / "perfbench" / "tracejob.py"


def run(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "argv, engine_spans",
    [
        # count and compare run the tail engine, which no span wraps yet
        (["count", "--n-range", "50:60", "--c", "0"], []),
        (["count", "--n-range", "50:60:5", "--c", "0"], []),
        (["dist", "--n", "60"], [("exact.pd_distribution", {"n": 60, "out": 1})]),
    ],
    ids=["sweep", "strided-sweep", "single"],
)
def test_tracejob_keeps_stdout_and_spans_the_engine(tmp_path, argv, engine_spans):
    spans_path = tmp_path / "spans.json"
    assert run(str(TRACEJOB), str(spans_path), *argv) == run("-m", "paritylab", *argv)
    spans = json.loads(spans_path.read_text())["spans"]
    engine = [s for s in spans if s[2].startswith("exact.")]
    assert [(s[2], s[5]) for s in engine] == engine_spans


def test_every_traced_name_resolves():
    # Tracer.install wraps each (module, attr) by getattr, so a name that
    # went missing would end every traced job in AttributeError
    spec = importlib.util.spec_from_file_location("tracejob", TRACEJOB)
    tracejob = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracejob)
    for module_name, attr, _ in tracejob.SPANNED + tracejob.COUNTED:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)
