"""The benchmark's committed job pool and the seeded choice of jobs from it.

A job is one `paritylab` command line.  Each workload is a list of slots.
The variants of a slot cost about the same, so a seed changes the inputs
(which variant, which class pair, which order, which output path) but not
the amount of work in a pass.  The expected stdout of every variant that
must succeed is in `reference.json`, written by `make_reference.py`.  An
error job instead carries the exit code the CLI contract requires:
0 success, 1 verify failed, 2 usage error, 3 exact-compute budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("single", "sweep", "startup")

# where jobs that write rows with --out put them; relative to the checkout
OUT_DIR = ".perfbench_work"
MISSING_DIR = OUT_DIR + "/no-such-dir"


@dataclass(frozen=True)
class Job:
    ref: str  # key of the expected output in reference.json
    argv: tuple[str, ...]  # arguments after `python -m paritylab`
    exit_code: int = 0
    out: str | None = None  # file the rows go to instead of stdout
    # why the program breaks the contract on this job at the seed commit
    known_defect: str = ""

    def with_options(self, threads: int, json_out: str | None) -> "Job":
        argv = self.argv + ("--threads", str(threads))
        if json_out is None:
            return Job(self.ref + ":csv", argv, self.exit_code)
        argv += ("--format", "json", "--out", json_out)
        return Job(self.ref + ":json", argv, self.exit_code, out=json_out)


def _spec(N: int, alpha: int, beta: int) -> tuple[str, ...]:
    return ("--N", str(N), "--alpha", str(alpha), "--beta", str(beta))


def _spec_tag(N: int, alpha: int, beta: int) -> str:
    return f"{N}-{alpha}-{beta}"


# ---------------------------------------------------------------------------
# single: one weight per job from the ROADMAP band 1000-3000.  The bands are
# set per class pair so that the packed DP is at least 85% of every job.
# ---------------------------------------------------------------------------

SINGLE_SPECS = {
    (2, 1, 2): range(2000, 2041, 10),
    (5, 1, 2): range(2300, 2341, 10),
    (3, 2, 3): range(2200, 2241, 10),
}
SINGLE_COMMANDS = ("count", "dist", "bias")


def _single_job(command: str, spec: tuple[int, int, int], n: int) -> Job:
    argv = (command, "--n", str(n)) + _spec(*spec)
    if command == "count":
        argv += ("--c", str(n % 7 - 2))
    return Job(f"single/{command}/{_spec_tag(*spec)}/{n}", argv)


def single_pool() -> list[Job]:
    return [
        _single_job(command, spec, n)
        for command in SINGLE_COMMANDS
        for spec, weights in SINGLE_SPECS.items()
        for n in weights
    ]


# ---------------------------------------------------------------------------
# sweep: one family DP per job, read at every weight of the range.  The top
# weight sets the cost; it stays in a 30-wide band per slot (higher for N = 5,
# whose DP is cheaper), so three passes fit in a run.  The rows vary.
# ---------------------------------------------------------------------------

SWEEP_SLOTS: list[tuple[str, tuple[int, int, int], list[tuple[str, str]]]] = [
    (
        "compare",
        (2, 1, 2),
        [("800:1200:10", "1.0"), ("900:1210:5", "0.5"), ("1000:1220:4", "1.5"), ("700:1230:15", "0.75")],
    ),
    (
        "compare",
        (5, 1, 2),
        [("1000:1400:20", "1.0"), ("1150:1410:5", "0.5"), ("1050:1420:10", "1.25"), ("1200:1430:6", "0.75")],
    ),
    (
        "count",
        (2, 1, 2),
        [("800:1200", "3"), ("810:1210", "0"), ("820:1220", "5"), ("830:1230", "2")],
    ),
    (
        "count",
        (3, 2, 3),
        [("800:1200:2", "1"), ("910:1210:3", "4"), ("1020:1220:2", "0"), ("1130:1230:4", "2")],
    ),
]


def _sweep_job(command: str, spec: tuple[int, int, int], n_range: str, threshold: str) -> Job:
    flag = "--c0" if command == "compare" else "--c"
    argv = (command, "--n-range", n_range) + _spec(*spec) + (flag, threshold)
    return Job(f"sweep/{command}/{_spec_tag(*spec)}/{n_range}/{threshold}", argv)


def sweep_slots() -> list[list[Job]]:
    return [
        [_sweep_job(command, spec, r, t) for r, t in variants]
        for command, spec, variants in SWEEP_SLOTS
    ]


def sweep_pool() -> list[Job]:
    """Every sweep variant in both output formats (threads do not change output)."""
    jobs = []
    for slot in sweep_slots():
        for job in slot:
            jobs.append(job.with_options(1, None))
            jobs.append(job.with_options(1, f"{OUT_DIR}/ref.json"))
    return jobs


# ---------------------------------------------------------------------------
# startup: ~1 s jobs dominated by import and the check suite.  Each pass runs
# every error slot once, so the share of contract failures is fixed.
# ---------------------------------------------------------------------------


def _small(command: str, n: int, spec: tuple[int, int, int], *extra: str) -> Job:
    argv = (command, "--n", str(n)) + _spec(*spec) + extra
    tail = "/" + ",".join(extra) if extra else ""
    return Job(f"startup/{command}/{_spec_tag(*spec)}/{n}{tail}", argv)


def _error(name: str, exit_code: int, argv: tuple[str, ...], defect: str = "") -> Job:
    return Job(f"startup/error/{name}/{' '.join(argv)}", argv, exit_code, known_defect=defect)


VERIFY_PREFIXES = (
    "check_sy_negativity",
    "check_sy_taylor",
    "check_nr_expansion",
    "check_emf",
    "check_lambda_identity",
    "check_sy",
)

C_INF = "--c inf: math.ceil(inf) raises OverflowError, uncaught (exit 1, traceback)"
C0_INF = "--c0 inf: guarded_ceil(inf) raises OverflowError, uncaught (exit 1, traceback)"
OUT_MISSING = "--out in a missing directory: open() raises FileNotFoundError, uncaught (exit 1, traceback)"


def startup_slots() -> list[list[Job]]:
    return [
        [Job("startup/verify", ("verify",))],
        [Job(f"startup/verify-only/{p}", ("verify", "--only", p)) for p in VERIFY_PREFIXES],
        # n <= 60 is also checked against brute-force enumeration
        [
            _small("count", 40, (2, 1, 2), "--c", "1"),
            _small("count", 55, (5, 1, 2), "--c", "0"),
            _small("count", 60, (6, 1, 5), "--c", "2"),
            _small("count", 48, (2, 2, 1), "--c", "-1"),
            _small("count", 52, (6, 3, 4), "--c", "1"),
            _small("count", 36, (5, 4, 2), "--c", "0"),
            _small("count", 150, (2, 1, 2), "--c", "3"),
            _small("count", 200, (5, 2, 3), "--c", "1"),
            _small("count", 180, (6, 2, 6), "--c", "0"),
            _small("count", 120, (5, 5, 1), "--c", "-2"),
            _small("count", 199, (6, 1, 2), "--c", "2.5"),
        ],
        [
            _small("dist", 200, (2, 1, 2)),
            _small("dist", 160, (5, 1, 2)),
            _small("dist", 190, (6, 3, 5)),
            _small("dist", 140, (2, 2, 1)),
            _small("dist", 175, (5, 3, 5)),
        ],
        [
            _small("bias", 60, (2, 1, 2)),
            _small("bias", 45, (5, 1, 2)),
            _small("bias", 58, (6, 1, 6)),
            _small("bias", 50, (2, 2, 1)),
            _small("bias", 200, (2, 1, 2)),
            _small("bias", 170, (6, 1, 2)),
            _small("bias", 185, (5, 2, 4)),
            _small("bias", 130, (5, 4, 1)),
        ],
        [
            Job("startup/compare/2-1-2/100:200:10", ("compare", "--n-range", "100:200:10", "--c0", "1.0")),
            Job("startup/compare/5-1-2/180", ("compare", "--n", "180", "--c0", "0.5") + _spec(5, 1, 2)),
            Job("startup/compare/6-1-2/150:200:5", ("compare", "--n-range", "150:200:5", "--c0", "0.75") + _spec(6, 1, 2)),
            Job("startup/compare/6-5-6/200", ("compare", "--n", "200") + _spec(6, 5, 6)),
            Job("startup/compare/2-2-1/20:60:4", ("compare", "--n-range", "20:60:4", "--c0", "1.5") + _spec(2, 2, 1)),
        ],
        # error paths with the exit codes the contract requires
        [
            _error("negative-n", 2, ("count", "--n", "-1")),
            _error("negative-n", 2, ("count", "--n", "-3")),
            _error("negative-n", 2, ("bias", "--n", "-2")),
        ],
        [
            _error("compare-N", 2, ("compare", "--n", "100", "--N", "3")),
            _error("compare-N", 2, ("compare", "--n-range", "50:100:10", "--N", "4", "--beta", "3")),
            _error("compare-N", 2, ("compare", "--n", "150", "--N", "3", "--alpha", "2", "--beta", "3")),
        ],
        [
            _error("no-huge", 2, ("count", "--n", "3500")),
            _error("no-huge", 2, ("count", "--n", "4200", "--N", "5")),
            _error("no-huge", 2, ("dist", "--n", "3001")),
        ],
        [
            _error("ceiling", 3, ("count", "--n", "6000")),
            _error("ceiling", 3, ("count", "--n", "5001")),
            _error("ceiling", 3, ("bias", "--n", "8000")),
        ],
        [
            _error("c-inf", 2, ("count", "--n", "100", "--c", "inf"), C_INF),
            _error("c-inf", 2, ("count", "--n", "60", "--N", "5", "--c", "inf"), C_INF),
            _error("c-inf", 2, ("count", "--n", "150", "--c=-inf"), C_INF),
        ],
        [
            _error("c0-inf", 2, ("compare", "--n", "100", "--c0", "inf"), C0_INF),
            _error("c0-inf", 2, ("compare", "--n-range", "50:80:10", "--c0", "inf"), C0_INF),
            _error("c0-inf", 2, ("compare", "--n", "120", "--N", "5", "--c0", "inf"), C0_INF),
        ],
        [
            _error("out-missing", 2, ("count", "--n", "50", "--out", MISSING_DIR + "/rows.csv"), OUT_MISSING),
            _error("out-missing", 2, ("dist", "--n", "80", "--out", MISSING_DIR + "/rows.csv"), OUT_MISSING),
            _error("out-missing", 2, ("bias", "--n", "70", "--out", MISSING_DIR + "/rows.csv"), OUT_MISSING),
        ],
    ]


def startup_pool() -> list[Job]:
    return [job for slot in startup_slots() for job in slot]


def full_pool() -> list[Job]:
    return single_pool() + sweep_pool() + startup_pool()


# ---------------------------------------------------------------------------
# seeded choice
# ---------------------------------------------------------------------------


def choose(workload: str, seed: int, threads_max: int) -> list[Job]:
    """The job list of one run: the same seed gives the same argv lists."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "single":
        # each class pair once, so every seed gives a pass of about the same DP work
        specs = list(SINGLE_SPECS)
        rng.shuffle(specs)
        jobs = [
            _single_job(command, spec, rng.choice(SINGLE_SPECS[spec]))
            for command, spec in zip(SINGLE_COMMANDS, specs)
        ]
    elif workload == "sweep":
        slots = sweep_slots()
        threads = [1, 2] * (len(slots) // 2)
        json_out = [True, False] * (len(slots) // 2)
        rng.shuffle(threads)
        rng.shuffle(json_out)
        jobs = [
            rng.choice(slot).with_options(
                min(t, threads_max), f"{OUT_DIR}/rows-{i}.json" if j else None
            )
            for i, (slot, t, j) in enumerate(zip(slots, threads, json_out))
        ]
    elif workload == "startup":
        jobs = [rng.choice(slot) for slot in startup_slots()]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs
