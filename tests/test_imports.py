"""Each job imports only what it computes.

scipy and numpy are test oracles only, so no job loads either, and the CLI
loads the estimate, distribution, check and quadrature layers only for the
subcommands that call them.  No job loads the dataclass machinery (inspect,
ast, dis), fractions (which loads decimal) unless it builds rationals, or
json unless it writes JSON.  The pytest process has imported all of these
already, so each probe runs in a fresh interpreter and reports what
`sys.modules` holds after the import, or after one `paritylab.cli.main(argv)`
call, and which of those modules the probe itself loaded.  The probe passes
argv as plain arguments and reports in plain lines, so it loads no json of
its own.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import paritylab

SRC = str(Path(paritylab.__file__).resolve().parent.parent)
HEAVY = {"scipy", "numpy"}
RECORD_MACHINERY = {"dataclasses", "inspect"}

PROBE = """
import contextlib, io, sys
before = set(sys.modules)
import paritylab, paritylab.cli
argv = sys.argv[1:]
code = None
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = paritylab.cli.main(argv)
print(code)
print(" ".join(sorted(sys.modules)))
print(" ".join(sorted(set(sys.modules) - before)))
"""


def probe(argv):
    """(exit code or None, heavy packages loaded, all modules, modules the probe loaded)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *(argv or [])],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    code, modules, added = proc.stdout.splitlines()[-3:]
    modules, added = set(modules.split()), set(added.split())
    code = None if code == "None" else int(code)
    return code, HEAVY & {m.split(".")[0] for m in modules}, modules, added


def test_import_loads_neither():
    code, loaded, modules, added = probe(None)
    assert code is None
    assert loaded == set()
    assert added.isdisjoint(RECORD_MACHINERY | {"fractions", "json"})
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
    code, loaded, modules, added = probe(argv)
    assert code == 0
    assert loaded == set()
    assert added.isdisjoint(RECORD_MACHINERY)
    # only euler_maclaurin integrates, and only check_emf calls it; this is
    # also the probe's positive control, a lazily imported layer it does see
    calls_emf = argv in (["verify"], ["verify", "--only", "check_emf"])
    assert ("paritylab.quadrature" in modules) == calls_emf
    # euler_maclaurin's Bernoulli numbers are the only rationals a job builds
    assert ("fractions" in added) == calls_emf
    # verify writes JSON lines; every other job here writes csv
    assert ("json" in added) == (argv[0] == "verify")


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
    _, _, modules, added = probe(argv)
    layers = {m for m in modules if m.startswith("paritylab.")}
    assert layers == {"paritylab.cli", "paritylab.exact"}
    assert added.isdisjoint(RECORD_MACHINERY | {"fractions", "json"})

