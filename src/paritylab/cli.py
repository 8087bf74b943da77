"""Command-line front end: exact counts, estimate comparisons, figure data, checks.

Subcommands
    count    exact tail counts (n, c, count)
    compare  exact counts vs the two-term estimates, both class orders
    dist     normalized histogram of one weight vs the limiting Gaussian
    bias     bias profile of one weight vs the limiting bias density
    verify   run the verification suite; JSON-line verdicts on stdout

All outputs are deterministic for a fixed configuration: fixed column order,
repr-formatted floats, full decimal strings for exact counts, line-feed
terminated rows.  Exit codes: 0 success, 1 check failure, 2 usage error,
3 budget refusal (exact-compute ceiling).

Configuration file (--config): flat `key=value` lines, `#` comments; keys are
the long flag names with underscores (e.g. n_range=100:2000:50), and any other
key is a usage error.  Flags win over the file; `tol.<check_family>=<bound>`
overrides a verify bound.  The environment variable PARITY_LAB_CEILING, and
nothing else, overrides the default exact ceiling (5000).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence, TextIO

from . import checks as checks_mod
from .asymptotics import estimate_thm2, guarded_ceil
from .distribution import (
    bias_density,
    bias_profile_of,
    gaussian_density,
    histogram_of,
)
from .exact import (
    CEILING_ENV_VAR,
    CeilingExceeded,
    ParitySpec,
    PdDistribution,
    count_at_least_of,
    exact_ceiling,
    m_max,
    pd_distribution,
    pd_distribution_family,
)

__all__ = ["RunConfig", "UsageError", "main"]

# above this weight a sweep's family engine runs for tens of seconds (measured
# for N = 2: ~6 s at 3000, ~28 s at 5000, time ~n^3; larger N is faster, and
# the state is only ~9 MB at 3000 and ~26 MB at 5000), while one weight takes
# about 2 s even at 5000; require explicit opt-in
HUGE_THRESHOLD = 3000
OUTPUT_FORMATS = ("csv", "json")
# the long flag names a config file may set, besides the tol.<check> keys
CONFIG_KEYS = (
    "n", "n_range", "N", "alpha", "beta", "c", "c0",
    "format", "out", "threads", "huge", "only",
)


class UsageError(Exception):
    """Invalid flag/config combination; maps to exit code 2."""


@dataclass
class RunConfig:
    """Resolved run configuration (defaults < config file < flags)."""

    spec: ParitySpec
    n: int | None = None
    n_range: tuple[int, int, int] | None = None
    c0: float = 0.0
    c: float = 0.0
    output_format: str = "csv"
    output_path: str | None = None
    tolerances: dict[str, float] = field(default_factory=dict)
    huge: bool = False
    only: str | None = None


# ---------------------------------------------------------------------------
# argument and config-file parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=None, help="single weight n")
    common.add_argument(
        "--n-range",
        default=None,
        metavar="A:B:S",
        help="sweep weights A..B inclusive with step S (S defaults to 1)",
    )
    common.add_argument("--N", type=int, default=None, help="modulus (default 2)")
    common.add_argument(
        "--alpha", type=int, default=None, help="first residue class, 1..N (default 1)"
    )
    common.add_argument(
        "--beta", type=int, default=None, help="second residue class, 1..N (default 2)"
    )
    common.add_argument(
        "--c0", type=float, default=None, help="threshold scale: cut at c0 * n^(1/4)"
    )
    common.add_argument(
        "--c", type=float, default=None, help="fixed threshold / bias level"
    )
    common.add_argument("--format", choices=OUTPUT_FORMATS, default=None)
    common.add_argument("--out", default=None, metavar="PATH")
    common.add_argument(
        "--threads",
        type=int,
        default=None,
        metavar="K",
        help="accepted for compatibility (K >= 1) and ignored: rows are computed serially",
    )
    common.add_argument("--config", default=None, metavar="PATH")
    common.add_argument(
        "--huge",
        action="store_const",
        const=True,
        default=None,
        help=f"acknowledge a weight above {HUGE_THRESHOLD} "
        "(a sweep takes ~6 s at 3000 and ~28 s at 5000 for N = 2)",
    )
    common.add_argument(
        "--only", default=None, metavar="NAME", help="verify: run checks whose name starts with NAME"
    )

    parser = argparse.ArgumentParser(
        prog="paritylab",
        description="exact and asymptotic parity-difference computations "
        "for partitions into distinct parts",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("count", parents=[common], help="exact tail counts")
    sub.add_parser("compare", parents=[common], help="exact vs two-term estimates")
    sub.add_parser("dist", parents=[common], help="normalized histogram data")
    sub.add_parser("bias", parents=[common], help="bias profile data")
    sub.add_parser("verify", parents=[common], help="run the verification suite")
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in CONFIG_KEYS and not key.startswith("tol."):
                    raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


def _parse_n_range(text: str) -> tuple[int, int, int]:
    fields = text.split(":")
    if len(fields) not in (2, 3):
        raise UsageError(f"--n-range wants A:B or A:B:S, got {text!r}")
    try:
        start, end = int(fields[0]), int(fields[1])
        step = int(fields[2]) if len(fields) == 3 else 1
    except ValueError as exc:
        raise UsageError(f"--n-range fields must be integers: {text!r}") from exc
    if start > end:
        raise UsageError(f"--n-range start {start} exceeds end {end}")
    if step < 1:
        raise UsageError(f"--n-range step must be >= 1, got {step}")
    return start, end, step


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {text!r}")


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = _read_config_file(args.config) if args.config else {}

    def pick(flag_value, key: str, convert: Callable, default):
        if flag_value is not None:
            return flag_value
        if key in cfg:
            try:
                return convert(cfg[key])
            except (ValueError, TypeError) as exc:
                raise UsageError(f"config key {key}: {exc}") from exc
        return default

    n_range_text = pick(args.n_range, "n_range", str, None)
    tolerances = {}
    for key, value in cfg.items():
        if key.startswith("tol."):
            try:
                tolerances[key[4:]] = float(value)
            except ValueError as exc:
                raise UsageError(f"config key {key}: {exc}") from exc

    try:
        spec = ParitySpec(
            N=pick(args.N, "N", int, 2),
            alpha=pick(args.alpha, "alpha", int, 1),
            beta=pick(args.beta, "beta", int, 2),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    c0 = pick(args.c0, "c0", float, 0.0)
    c = pick(args.c, "c", float, 0.0)
    for name, value in (("c0", c0), ("c", c)):
        if not math.isfinite(value):
            raise UsageError(f"{name} must be finite, got {value!r}")
    output_format = pick(args.format, "format", str, "csv")
    if output_format not in OUTPUT_FORMATS:
        raise UsageError(
            f"format must be one of {', '.join(OUTPUT_FORMATS)}, got {output_format!r}"
        )
    # --threads is a validated no-op: rows are cheap sums over one computed
    # distribution, and the interpreter lock serialises them anyway
    threads = pick(args.threads, "threads", int, 1)
    if threads < 1:
        raise UsageError(f"threads must be >= 1, got {threads}")

    return RunConfig(
        spec=spec,
        n=pick(args.n, "n", int, None),
        n_range=_parse_n_range(n_range_text) if n_range_text is not None else None,
        c0=c0,
        c=c,
        output_format=output_format,
        output_path=pick(args.out, "out", str, None),
        tolerances=tolerances,
        huge=bool(pick(args.huge, "huge", _parse_bool, False)),
        only=pick(args.only, "only", str, None),
    )


# ---------------------------------------------------------------------------
# shared row plumbing
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _fmt_threshold(c: float) -> str:
    # print integral thresholds without a trailing .0 so rows read "8,1,4"
    if float(c).is_integer():
        return str(int(c))
    return repr(float(c))


def _resolve_weights(config: RunConfig, single_only: bool = False) -> list[int]:
    if config.n is not None and config.n_range is not None:
        raise UsageError("give either --n or --n-range, not both")
    if single_only:
        if config.n is None:
            raise UsageError("this subcommand needs a single --n")
        ns = [config.n]
    elif config.n is not None:
        ns = [config.n]
    elif config.n_range is not None:
        start, end, step = config.n_range
        ns = list(range(start, end + 1, step))
    else:
        raise UsageError("give --n or --n-range")
    if any(n < 0 for n in ns):
        raise UsageError("weights must be >= 0")
    top = max(ns)
    # checked here, ahead of the --huge gate, so an over-budget weight is a
    # budget refusal (exit 3) whether or not --huge is given
    ceiling = exact_ceiling()
    if top > ceiling:
        raise CeilingExceeded(
            f"n = {top} exceeds the exact-compute ceiling {ceiling} "
            f"(budget; raise {CEILING_ENV_VAR} to lift it)"
        )
    if top > HUGE_THRESHOLD and not config.huge:
        raise UsageError(
            f"n = {top} is above the desk-scale threshold {HUGE_THRESHOLD}; "
            "pass --huge to acknowledge.  One weight takes about 2 s even at "
            "n = 5000, but a sweep runs the family engine, whose time grows like "
            "n^3 (about 6 s at n = 3000 and 28 s at n = 5000 for N = 2, less for "
            "larger N) and whose state is about "
            f"{_dp_state_estimate(top)} here"
        )
    return ns


def _dp_state_estimate(n: int) -> str:
    width = 2 * m_max(n) + 1
    limb_bits = math.pi * math.sqrt(n / 3.0) / math.log(2.0) + 16
    total = width * (n + 1) * (limb_bits / 8.0)
    if total >= 1e9:
        return f"{total / 1e9:.1f} GB"
    return f"{total / 1e6:.0f} MB"


def _distributions_for(
    config: RunConfig, ns: list[int]
) -> dict[int, PdDistribution]:
    """One family pass when sweeping, a single-weight pass otherwise."""
    if len(ns) == 1:
        n = ns[0]
        return {n: pd_distribution(n, config.spec)}
    family = pd_distribution_family(max(ns), config.spec)
    return {n: family[n] for n in ns}


def _write(config: RunConfig, text: str, out: TextIO) -> None:
    if not config.output_path:
        out.write(text)
        return
    try:
        with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --out {config.output_path}: {exc}") from exc


def _emit(config: RunConfig, header: list[str], rows: list[dict[str, str]], out: TextIO) -> None:
    if config.output_format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        lines = [",".join(header)]
        lines.extend(",".join(row[col] for col in header) for row in rows)
        text = "\n".join(lines) + "\n"
    _write(config, text, out)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_count(config: RunConfig, out: TextIO) -> int:
    ns = _resolve_weights(config)
    dists = _distributions_for(config, ns)

    def row(n: int) -> dict[str, str]:
        count = count_at_least_of(dists[n], config.c)
        return {"n": str(n), "c": _fmt_threshold(config.c), "count": str(count)}

    _emit(config, ["n", "c", "count"], [row(n) for n in ns], out)
    return 0


def cmd_compare(config: RunConfig, out: TextIO) -> int:
    if config.spec.N not in (2, 5, 6):
        raise UsageError(
            "compare uses the aggregated two-term form, which needs N = 2, 5 or 6"
        )
    ns = _resolve_weights(config)
    if any(n < 1 for n in ns):
        raise UsageError("compare needs weights >= 1")
    if not math.isfinite(config.c0 * max(ns) ** 0.25):
        raise UsageError(f"c0 * n^(1/4) overflows at c0 = {config.c0!r}")
    dists = _distributions_for(config, ns)
    swapped = config.spec.swapped()

    def row(n: int) -> dict[str, str]:
        # the exact threshold uses the same near-integer-guarded ceiling as
        # the estimates, so both columns cut at the identical integer
        c_int, _ = guarded_ceil(config.c0 * n**0.25)
        exact_ab = count_at_least_of(dists[n], c_int)
        # reflected distribution: swapping the classes negates every pd
        exact_ba = sum(v for k, v in dists[n].counts.items() if k <= -c_int)
        est_ab = estimate_thm2(n, config.spec, config.c0)
        est_ba = estimate_thm2(n, swapped, config.c0)

        def ratio(est, exact: int) -> float:
            return est.ratio_to(exact) if exact > 0 else math.inf

        return {
            "n": str(n),
            "exact_d_ab": str(exact_ab),
            "exact_d_ba": str(exact_ba),
            "ratio_main_ab": _fmt_float(ratio(est_ab.main, exact_ab)),
            "ratio_main_ba": _fmt_float(ratio(est_ba.main, exact_ba)),
            "ratio_two_ab": _fmt_float(ratio(est_ab.total, exact_ab)),
            "ratio_two_ba": _fmt_float(ratio(est_ba.total, exact_ba)),
        }

    header = [
        "n",
        "exact_d_ab",
        "exact_d_ba",
        "ratio_main_ab",
        "ratio_main_ba",
        "ratio_two_ab",
        "ratio_two_ba",
    ]
    _emit(config, header, [row(n) for n in ns], out)
    return 0


def cmd_dist(config: RunConfig, out: TextIO) -> int:
    ns = _resolve_weights(config, single_only=True)
    n = ns[0]
    if n < 1:
        raise UsageError("dist needs n >= 1")
    dist = pd_distribution(n, config.spec)
    hist = histogram_of(dist)
    peak = max(d for _, d in hist.points)
    rows = []
    for (x, density), k in zip(hist.points, sorted(dist.counts)):
        rows.append(
            {
                "k": str(k),
                "x": _fmt_float(x),
                "density_area1": _fmt_float(density),
                "density_peak1": _fmt_float(density / peak),
                "gaussian": _fmt_float(gaussian_density(x, config.spec.N)),
            }
        )
    _emit(config, ["k", "x", "density_area1", "density_peak1", "gaussian"], rows, out)
    return 0


def cmd_bias(config: RunConfig, out: TextIO) -> int:
    ns = _resolve_weights(config, single_only=True)
    n = ns[0]
    if n < 1:
        raise UsageError("bias needs n >= 1")
    profile = bias_profile_of(pd_distribution(n, config.spec))
    scale = n**-0.25
    rows = []
    for c, pb in profile.points:
        x = c * scale
        if profile.normalizer != 0:
            normalized = pb / profile.normalizer
        else:
            normalized = math.nan
        rows.append(
            {
                "c": str(c),
                "x": _fmt_float(x),
                "pb": str(pb),
                "pb_normalized": _fmt_float(normalized),
                "density": _fmt_float(bias_density(x, config.spec.N)),
            }
        )
    _emit(config, ["c", "x", "pb", "pb_normalized", "density"], rows, out)
    return 0


def cmd_verify(config: RunConfig, out: TextIO) -> int:
    results = checks_mod.run_suite(only=config.only)
    if config.only is not None and not results:
        raise UsageError(f"no check name starts with {config.only!r}")
    adjusted = []
    for result in results:
        family = result.name.split("[")[0]
        if family in config.tolerances:
            bound = config.tolerances[family]
            direction = checks_mod.CHECK_COMPARISONS.get(family, "leq")
            passed = (
                result.observed > bound
                if direction == "greater"
                else result.observed <= bound
            )
            result = replace(result, bound=bound, passed=passed)
        adjusted.append(result)
    _write(config, "".join(r.to_json_line() + "\n" for r in adjusted), out)
    return 0 if all(r.passed for r in adjusted) else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_DISPATCH: dict[str, Callable[[RunConfig, TextIO], int]] = {
    "count": cmd_count,
    "compare": cmd_compare,
    "dist": cmd_dist,
    "bias": cmd_bias,
    "verify": cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)
    try:
        config = _build_config(args)
        return _DISPATCH[args.command](config, sys.stdout)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CeilingExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
