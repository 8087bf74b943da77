"""Every job of the benchmark pool, replayed in process through `cli.main`.

`perfbench/reference.json` holds the rows each pool job printed when the
reference was made.  Each job must exit with the code the CLI contract
gives it and, when it succeeds, print (or write to its --out file) exactly
those bytes, judged by the benchmark's own `run.problem`.  So a change that
moves one byte of CLI output fails here, not only in a benchmark run.  The
pool, the judge and the reference are only read.
"""

import contextlib
import importlib
import io
import json
import traceback
from pathlib import Path

from paritylab import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


def test_every_pool_job_matches_the_reference(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    pool, run = importlib.import_module("pool"), importlib.import_module("run")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.CEILING_ENV_VAR, raising=False)
    (tmp_path / pool.OUT_DIR).mkdir()
    jobs = pool.full_pool()
    problems = []
    for job in jobs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(list(job.argv))
            except Exception:  # what a real job would print before exiting 1
                traceback.print_exc()
                code = 1
        written = None
        if job.out is not None:
            path = tmp_path / job.out
            written = path.read_bytes() if path.exists() else None
            path.unlink(missing_ok=True)
        fin = run.Finished(
            code, 0.0, 0.0, 0.0, stdout.getvalue().encode(), stderr.getvalue().encode()
        )
        problem = run.problem(job, fin, written, REFERENCE["outputs"])
        if problem:
            problems.append(f"{' '.join(job.argv)}: {problem}")
    # every reference output was compared, and nothing else was
    assert {job.ref for job in jobs if job.exit_code == 0} == set(REFERENCE["outputs"])
    assert problems == []
