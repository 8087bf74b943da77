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
import importlib
import math
import os
import sys
from typing import TYPE_CHECKING, Callable, Sequence, TextIO

from .exact import (
    ParitySpec,
    PdDistribution,
    _Record,
    count_at_least_of,
    lattice_span,
    pd_distribution,
    pd_distribution_family,
)

if TYPE_CHECKING:
    from .asymptotics import estimate_thm2, guarded_ceil
    from .distribution import bias_density, bias_profile_of, gaussian_density, histogram_of

__all__ = ["CeilingExceeded", "RunConfig", "UsageError", "main"]

# the names this module calls from the estimate and distribution layers, and
# the layer of each.  A subcommand binds them here once its arguments are
# checked (`_bind`), so `count` and the usage errors never import those
# layers; read from outside, they load on first access (module __getattr__).
_LAYER_OF = {
    "estimate_thm2": ".asymptotics",
    "guarded_ceil": ".asymptotics",
    "bias_density": ".distribution",
    "bias_profile_of": ".distribution",
    "gaussian_density": ".distribution",
    "histogram_of": ".distribution",
}


def _bind(layer: str) -> None:
    """Import `layer` and bind the names above that it defines, unless bound."""
    module = importlib.import_module(layer, __package__)
    namespace = globals()
    for name, home in _LAYER_OF.items():
        if home == layer:
            namespace.setdefault(name, getattr(module, name))


def __getattr__(name: str):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_LAYER_OF[name])
    return globals()[name]

# a weight above this needs explicit opt-in.  Measured end to end, import
# included, for N = 2 (2-CPU VM, CPython 3.11): one weight (class-factored
# engine) takes ~0.1 s at 3000 and ~0.2 s at 5000 with a peak RSS of ~20 MB
# (a little less for N = 5); a sweep (family engine, time ~n^2.5, larger N is
# faster) that prints 11 weights ~0.43 s and 17 MB at 3000 and ~1.6 s and
# 22 MB at 5000, and one that prints every weight ~0.52 s and 34 MB at 3000
# and ~1.95 s and 57 MB at 5000.
# The threshold is the command-line contract, not a cost either engine needs
HUGE_THRESHOLD = 3000
# the exact-compute budget: no weight above it runs, whatever the flags
DEFAULT_CEILING = 5000
CEILING_ENV_VAR = "PARITY_LAB_CEILING"
OUTPUT_FORMATS = ("csv", "json")
# the long flag names a config file may set, besides the tol.<check> keys
CONFIG_KEYS = (
    "n", "n_range", "N", "alpha", "beta", "c", "c0",
    "format", "out", "threads", "huge", "only",
)


class UsageError(Exception):
    """Invalid flag/config combination; maps to exit code 2."""


class CeilingExceeded(Exception):
    """A requested weight is above the exact-compute ceiling; maps to exit code 3."""


def _exact_ceiling() -> int:
    """The ceiling: PARITY_LAB_CEILING if set, else DEFAULT_CEILING.

    The variable must hold a positive integer; anything else is a usage
    error that names the variable and the value.
    """
    env = os.environ.get(CEILING_ENV_VAR)
    if env is None:
        return DEFAULT_CEILING
    try:
        ceiling = int(env)
    except ValueError:
        ceiling = 0
    if ceiling < 1:
        raise UsageError(f"{CEILING_ENV_VAR} must be a positive integer, got {env!r}")
    return ceiling


class RunConfig(_Record):
    """Resolved run configuration (defaults < config file < flags)."""

    __slots__ = (
        "spec", "n", "n_range", "c0", "c",
        "output_format", "output_path", "tolerances", "huge", "only",
    )
    spec: ParitySpec
    n: int | None
    n_range: tuple[int, int, int] | None
    c0: float
    c: float
    output_format: str
    output_path: str | None
    tolerances: dict[str, float]
    huge: bool
    only: str | None
    _defaults = {
        "n": None, "n_range": None, "c0": 0.0, "c": 0.0,
        "output_format": "csv", "output_path": None, "huge": False, "only": None,
    }
    _factories = {"tolerances": dict}


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
        "(for N = 2 a sweep takes ~0.5 s at 3000 and 1.6-2 s at 5000, "
        "one weight ~0.2 s at 5000)",
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
    bias_help = (
        "bias profile data: pb_normalized is a mass per level c, density is "
        "per unit x = c n^(-1/4), so the two differ by a factor n^(1/4)"
    )
    sub.add_parser("bias", parents=[common], help=bias_help, description=bias_help)
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


def _resolve_weights(config: RunConfig, single_only: bool = False) -> range:
    """The requested weights, ascending: one for --n, the sweep for --n-range."""
    if config.n is not None and config.n_range is not None:
        raise UsageError("give either --n or --n-range, not both")
    if single_only and config.n is None:
        raise UsageError("this subcommand needs a single --n")
    if config.n is not None:
        ns = range(config.n, config.n + 1)
    elif config.n_range is not None:
        start, end, step = config.n_range
        ns = range(start, end + 1, step)
    else:
        raise UsageError("give --n or --n-range")
    if ns[0] < 0:
        raise UsageError("weights must be >= 0")
    top = ns[-1]
    # checked here, ahead of the --huge gate, so an over-budget weight is a
    # budget refusal (exit 3) whether or not --huge is given
    ceiling = _exact_ceiling()
    if top > ceiling:
        raise CeilingExceeded(
            f"n = {top} exceeds the exact-compute ceiling {ceiling} "
            f"(budget; raise {CEILING_ENV_VAR} to lift it)"
        )
    if top > HUGE_THRESHOLD and not config.huge:
        # name the engine _distributions_for will run for these weights
        if len(ns) == 1:
            cost = (
                "One weight runs the class-factored engine, which keeps no "
                "per-weight state: about 0.2 s and 20 MB peak RSS at n = 5000 for "
                "N = 2, import included"
            )
        else:
            cost = (
                "A sweep runs the family engine, whose time grows like n^2.5: "
                "for N = 2, import included, about 0.43 s and 17 MB peak RSS at "
                "n = 3000 and 1.6 s and 22 MB at n = 5000 when it prints 11 "
                "weights, and 0.52 s and 34 MB at n = 3000 and 1.95 s and 57 MB "
                "at n = 5000 when it prints every weight; less for larger N"
            )
        raise UsageError(
            f"n = {top} is above the desk-scale threshold {HUGE_THRESHOLD}; "
            f"pass --huge to acknowledge.  {cost}"
        )
    return ns


def _distributions_for(config: RunConfig, ns: range) -> dict[int, PdDistribution]:
    """One family pass when sweeping, unpacked at ns only; a single-weight pass otherwise."""
    if len(ns) == 1:
        n = ns[0]
        return {n: pd_distribution(n, config.spec)}
    return dict(zip(ns, pd_distribution_family(ns[-1], config.spec, ns)))


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
        import json

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
    _bind(".asymptotics")
    dists = _distributions_for(config, ns)
    swapped = config.spec.swapped()

    def row(n: int) -> dict[str, str]:
        # the exact threshold uses the same near-integer-guarded ceiling as
        # the estimates, so both columns cut at the identical integer
        c_int, _ = guarded_ceil(config.c0 * n**0.25)
        exact_ab = count_at_least_of(dists[n], c_int)
        # reflected distribution: swapping the classes negates every pd, so
        # the (beta, alpha) tail k >= c is the (alpha, beta) tail k <= -c
        exact_ba = dists[n].total() - count_at_least_of(dists[n], 1 - c_int)
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
    _bind(".distribution")
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
    spec = config.spec
    span = lattice_span(spec)
    if span > 1:
        raise UsageError(
            f"bias needs a class pair whose parity differences have span 1; "
            f"(N, alpha, beta) = ({spec.N}, {spec.alpha}, {spec.beta}) keeps "
            f"every pd at weight n in one residue class mod {span}, where the "
            f"bias law does not hold"
        )
    ns = _resolve_weights(config, single_only=True)
    n = ns[0]
    if n < 1:
        raise UsageError("bias needs n >= 1")
    _bind(".distribution")
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
    from . import checks as checks_mod

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
            result = checks_mod.CheckResult(
                name=result.name,
                passed=passed,
                observed=result.observed,
                bound=bound,
                samples=result.samples,
                notes=result.notes,
            )
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
