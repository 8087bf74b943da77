"""Write reference.json: the expected rows of every job in the pool.

    python3 perfbench/make_reference.py

Run it from the root of a checkout.  Every pool job goes through the CLI as
run.py runs it, and its rows are kept only after they pass checks by routes
that do not share the CLI's code path:

* totals: sum_k f_n(k) equals count_distinct(n), a one-variable recurrence
  that does not use the parity DP, for every weight a job reads;
* reflection: f_{a,b}(k) = f_{b,a}(-k), against the DP run with the classes
  swapped (the same computation as the job with the swapped spec);
* brute force: for n <= 60, f_n is the histogram of pd over
  enumerate_distinct(n);
* the integer columns of every row (count, pb, exact_d_ab, exact_d_ba, k)
  follow from the checked f_n; JSON rows equal CSV rows; verify passes.

Error jobs must exit with the code the contract requires and without a
traceback.  A job pool.py marks as a known defect must still fail; if it
passes, the mark is stale and the script says so.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from collections import Counter

import pool
import run

sys.path.insert(0, str(run.SRC))

from paritylab import (  # noqa: E402
    ParitySpec,
    count_distinct,
    enumerate_distinct,
    guarded_ceil,
    pd,
    pd_distribution,
    pd_distribution_family,
)

BRUTE_FORCE_MAX = 60


class Mismatch(Exception):
    """A cross-check between the CLI's rows and an independent route failed."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def option(argv: tuple[str, ...], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


def spec_of(argv: tuple[str, ...]) -> ParitySpec:
    return ParitySpec(
        int(option(argv, "--N", "2")), int(option(argv, "--alpha", "1")), int(option(argv, "--beta", "2"))
    )


def weights_of(argv: tuple[str, ...]) -> list[int]:
    if "--n" in argv:
        return [int(option(argv, "--n"))]
    start, end, *step = (int(x) for x in option(argv, "--n-range").split(":"))
    return list(range(start, end + 1, step[0] if step else 1))


def distinct_table(limit: int) -> list[int]:
    """d(0..limit), each part used at most once."""
    table = [1] + [0] * limit
    for part in range(1, limit + 1):
        for s in range(limit, part - 1, -1):
            table[s] += table[s - part]
    return table


class Oracle:
    """Distributions f_n of the weights jobs read, each checked once."""

    def __init__(self, top: int) -> None:
        self.distinct = distinct_table(top)
        expect(self.distinct[top] == count_distinct(top), "distinct_table disagrees with count_distinct")
        self.checked: dict[tuple[int, ParitySpec], dict[int, int]] = {}

    def counts(self, n: int, spec: ParitySpec, sweep: bool) -> dict[int, int]:
        if (n, spec) not in self.checked:
            if sweep:
                top = n
                family = pd_distribution_family(top, spec)
                swapped = pd_distribution_family(top, spec.swapped())
                pairs = [(s, family[s].counts, swapped[s].counts) for s in range(top + 1)]
            else:
                counts = pd_distribution(n, spec).counts
                pairs = [(n, counts, pd_distribution(n, spec.swapped()).counts)]
                expect(sum(counts.values()) == count_distinct(n), f"count_distinct at n={n}")
            for s, counts, mirrored in pairs:
                self._check(s, spec, counts, mirrored)
        return self.checked[(n, spec)]

    def _check(self, n: int, spec: ParitySpec, counts: dict[int, int], mirrored: dict[int, int]) -> None:
        expect(sum(counts.values()) == self.distinct[n], f"total at n={n} {spec}")
        expect(counts == {-k: v for k, v in mirrored.items()}, f"reflection at n={n} {spec}")
        if n <= BRUTE_FORCE_MAX:
            brute = Counter(pd(p, spec) for p in enumerate_distinct(n))
            expect(counts == dict(brute), f"brute force at n={n} {spec}")
        self.checked[(n, spec)] = counts


def parse_rows(text: str, is_json: bool) -> list[dict[str, str]]:
    if is_json:
        return json.loads(text)
    return list(csv.DictReader(io.StringIO(text)))


def check_rows(job: pool.Job, text: str, oracle: Oracle) -> None:
    argv = job.argv
    command = argv[0]
    if command == "verify":
        lines = [json.loads(line) for line in text.splitlines()]
        expect(lines and all(line["passed"] for line in lines), "verify check failed")
        return
    spec = spec_of(argv)
    ns = weights_of(argv)
    sweep = len(ns) > 1
    if sweep:
        oracle.counts(max(ns), spec, sweep=True)
    rows = parse_rows(text, job.out is not None)
    if command in ("count", "compare"):
        expect([int(r["n"]) for r in rows] == ns, "rows do not follow the requested weights")
    for row in rows:
        n = int(row["n"]) if "n" in row else ns[0]
        f = oracle.counts(n, spec, sweep)
        if command == "count":
            kc = math.ceil(float(row["c"]))
            expect(int(row["count"]) == sum(v for k, v in f.items() if k >= kc), "row disagrees with the checked distribution")
        elif command == "compare":
            c_int, _ = guarded_ceil(float(option(argv, "--c0", "0")) * n**0.25)
            expect(int(row["exact_d_ab"]) == sum(v for k, v in f.items() if k >= c_int), "row disagrees with the checked distribution")
            expect(int(row["exact_d_ba"]) == sum(v for k, v in f.items() if k <= -c_int), "row disagrees with the checked distribution")
        elif command == "bias":
            c = int(row["c"])
            expect(int(row["pb"]) == f.get(c, 0) - f.get(-c, 0), "row disagrees with the checked distribution")
    if command == "dist":
        support = sorted(oracle.counts(ns[0], spec, sweep))
        expect([int(r["k"]) for r in rows] == support, "dist rows do not cover the support")


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    env = run.child_env()
    jobs = pool.full_pool()
    top = max(max(weights_of(j.argv)) for j in jobs if j.exit_code == 0 and j.argv[0] != "verify")
    oracle = Oracle(top)
    outputs: dict[str, str] = {}
    csv_rows: dict[str, list] = {}
    ok = True
    for job in jobs:
        fin = run.spawn([sys.executable, "-m", "paritylab", *job.argv], env)
        written = None
        if job.out is not None:
            path = run.ROOT / job.out
            written = path.read_bytes() if path.exists() else None
            path.unlink(missing_ok=True)
        reason = run.problem(job, fin, written, {job.ref: (written or fin.stdout).decode("utf-8")})
        status = "ok"
        if job.known_defect:
            status = "still fails (known defect)" if reason else "PASSES: the known-defect mark is stale"
        elif reason:
            status, ok = f"FAILED: {reason}", False
        elif job.exit_code == 0:
            text = (written or fin.stdout).decode("utf-8")
            try:
                check_rows(job, text, oracle)
            except Mismatch as exc:
                status, ok = f"WRONG ROWS: {exc}", False
            outputs[job.ref] = text
            if job.ref.endswith((":csv", ":json")):
                rows = parse_rows(text, job.out is not None)
                if csv_rows.setdefault(job.ref.rsplit(":", 1)[0], rows) != rows:
                    status, ok = "JSON rows differ from CSV rows", False
        print(f"{fin.wall_s:7.2f}s exit {fin.exit_code}  {' '.join(job.argv)}: {status}", flush=True)
    if not ok:
        print("error: reference not written", file=sys.stderr)
        return 1
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump({"python": sys.version.split()[0], "outputs": outputs}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(outputs)} reference outputs; {len(oracle.checked)} distributions checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
