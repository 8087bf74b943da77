"""Each job imports only what it computes.

scipy and numpy are test oracles only, so no job loads either, and the CLI
loads the estimate, distribution, check and quadrature layers only for the
subcommands that call them.  The pytest process has imported
all of these already, so each probe runs in a fresh interpreter and reports
what `sys.modules` holds after the import, or after one
`paritylab.cli.main(argv)` call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import paritylab

SRC = str(Path(paritylab.__file__).resolve().parent.parent)
HEAVY = {"scipy", "numpy"}

PROBE = """
import contextlib, io, json, sys
import paritylab, paritylab.cli
argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = paritylab.cli.main(argv)
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def probe(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    modules = set(report["modules"])
    return report["code"], HEAVY & {m.split(".")[0] for m in modules}, modules


def test_import_loads_neither():
    code, loaded, modules = probe(None)
    assert code is None
    assert loaded == set()
    # the package namespace resolves its names on first access
    assert {m for m in modules if m.startswith("paritylab.")} == {"paritylab.cli", "paritylab.exact"}


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "40", "--c", "1"],
        ["dist", "--n", "40"],
        ["bias", "--n", "40"],
        ["compare", "--n", "200", "--c0", "0.5"],
        ["compare", "--n-range", "100:140:20", "--c0", "0.5"],
        ["verify", "--only", "check_sy_taylor"],
        ["verify", "--only", "check_lambda_identity"],
        ["verify", "--only", "check_emf"],
        ["verify", "--only", "check_sy_negativity"],
        ["verify", "--only", "check_nr_expansion"],
        ["verify"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_job_loads_neither(argv):
    code, loaded, modules = probe(argv)
    assert code == 0
    assert loaded == set()
    # only euler_maclaurin integrates, and only check_emf calls it; this is
    # also the probe's positive control, a lazily imported layer it does see
    calls_emf = argv in (["verify"], ["verify", "--only", "check_emf"])
    assert ("paritylab.quadrature" in modules) == calls_emf


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "40", "--c", "1"],
        ["count", "--n", "-1"],
        ["compare", "--n", "100", "--N", "3"],
        ["bias", "--n", "100", "--N", "3"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_count_and_usage_errors_load_only_the_exact_layer(argv):
    _, _, modules = probe(argv)
    layers = {m for m in modules if m.startswith("paritylab.")}
    assert layers == {"paritylab.cli", "paritylab.exact"}

