"""Command-line front end: exact counts, estimate comparisons, figure data, checks.

One parser takes the command (listed in `_DESCRIPTION`, which --help prints)
and every option, before or after it.  Each command writes its rows to
stdout, or to the file --out names.  All outputs are deterministic for a
fixed configuration: fixed column order, repr-formatted floats, full decimal
strings for exact counts, line-feed terminated rows.  Exit codes: 0 success,
1 check failure, 2 usage error, 3 budget refusal (exact-compute ceiling).

Configuration file (--config): flat `key=value` lines, `#` comments; keys are
the long flag names with underscores.  Each line is read as its flag
(n_range=100:2000:50 as --n-range=100:2000:50, huge=true as --huge), and the
file's flags are parsed ahead of the command line's, so a flag wins over the
file and the file over the built-in defaults.  Any other key is a usage
error, except `tol.<check_family>=<bound>`, a finite bound the checks of that
family run against in verify.
The environment variable PARITY_LAB_CEILING, and nothing else, overrides the
default exact ceiling (5000).
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys
from typing import TYPE_CHECKING, Callable, Sequence

from .exact import (
    ParitySpec,
    PdDistribution,
    _require_span_one,
    pd_distribution,
    # not called here: perfbench/tracejob.py wraps this name, until ROADMAP item 1
    # spans the tail engine instead
    pd_distribution_family,
    tail_counts,
)

if TYPE_CHECKING:
    from .asymptotics import estimate_thm2, guarded_ceil
    from .distribution import bias_density, bias_profile_of, gaussian_density, histogram_of

__all__ = ["CeilingExceeded", "UsageError", "main"]

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

# a weight above this needs explicit opt-in (--huge).  The threshold is the
# command-line contract, not a cost any engine needs; README's "Resource
# guards" gives the measured costs
HUGE_THRESHOLD = 3000
# the exact-compute budget: no weight above it runs, whatever the flags
DEFAULT_CEILING = 5000
CEILING_ENV_VAR = "PARITY_LAB_CEILING"
OUTPUT_FORMATS = ("csv", "json")


class UsageError(ValueError):
    """Invalid flag/config combination; maps to exit code 2, as every ValueError."""


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


# ---------------------------------------------------------------------------
# argument and config-file parsing
# ---------------------------------------------------------------------------

_DESCRIPTION = """\
exact and asymptotic parity-difference computations for partitions into
distinct parts

commands:
  count    exact tail counts (n, c, count)
  compare  exact counts vs the two-term estimates, both class orders
  dist     normalized histogram of one weight vs the limiting Gaussian
  bias     bias profile of one weight vs the limiting bias density:
           pb_normalized is a mass per level c, density is per unit
           x = c n^(-1/4), so the two differ by a factor n^(1/4)
  verify   run the verification suite; JSON-line verdicts on stdout
"""


def _n_range(text: str) -> tuple[int, int, int]:
    """A:B or A:B:S as (start, end, step); the step defaults to 1."""
    fields = text.split(":")
    if len(fields) not in (2, 3):
        raise argparse.ArgumentTypeError(f"wants A:B or A:B:S, got {text!r}")
    try:
        start, end = int(fields[0]), int(fields[1])
        step = int(fields[2]) if len(fields) == 3 else 1
    except ValueError:
        raise argparse.ArgumentTypeError(f"fields must be integers: {text!r}") from None
    if start > end:
        raise argparse.ArgumentTypeError(f"start {start} exceeds end {end}")
    if step < 1:
        raise argparse.ArgumentTypeError(f"step must be >= 1, got {step}")
    return start, end, step


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paritylab",
        description=_DESCRIPTION,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_DISPATCH, help="one of the commands above")
    parser.add_argument("--n", type=int, help="single weight n")
    parser.add_argument(
        "--n-range",
        type=_n_range,
        metavar="A:B:S",
        help="sweep weights A..B inclusive with step S (S defaults to 1)",
    )
    parser.add_argument("--N", type=int, default=2, help="modulus (default %(default)s)")
    parser.add_argument(
        "--alpha", type=int, default=1, help="first residue class, 1..N (default %(default)s)"
    )
    parser.add_argument(
        "--beta", type=int, default=2, help="second residue class, 1..N (default %(default)s)"
    )
    parser.add_argument(
        "--c0", type=float, default=0.0, help="threshold scale: cut at c0 * n^(1/4)"
    )
    parser.add_argument("--c", type=float, default=0.0, help="count's threshold: difference >= c")
    parser.add_argument("--format", choices=OUTPUT_FORMATS, default="csv")
    parser.add_argument("--out", metavar="PATH")
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        metavar="K",
        help="accepted for compatibility (K >= 1) and ignored: rows are computed serially",
    )
    parser.add_argument(
        "--config", metavar="PATH", help="read key=value lines as flags; flags given here win"
    )
    parser.add_argument(
        "--huge",
        action="store_true",
        help=f"acknowledge a weight above {HUGE_THRESHOLD}",
    )
    parser.add_argument(
        "--only", metavar="NAME", help="verify: run checks whose name starts with NAME"
    )
    return parser


def _read_config(path: str, keys: set[str]) -> tuple[list[str], dict[str, float]]:
    """The flags the file's `key=value` lines stand for, and its tol. bounds.

    `keys` are the option names a line may set; the value is left for the
    parser to convert and check, as it would be on the command line.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    flags: list[str] = []
    tolerances: dict[str, float] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, equals, value = line.partition("=")
        key, value = key.strip(), value.strip()
        where = f"{path}:{lineno}"
        if not equals:
            raise UsageError(f"{where}: expected key=value, got {line!r}")
        if key.startswith("tol."):
            try:
                bound = float(value)
                if not math.isfinite(bound):
                    raise ValueError(f"a bound must be finite, got {value!r}")
            except ValueError as exc:
                raise UsageError(f"{where}: config key {key}: {exc}") from exc
            tolerances[key[4:]] = bound
        elif key not in keys:
            raise UsageError(f"{where}: unknown config key {key!r}")
        elif key == "huge":  # a switch: true gives the flag, false leaves it out
            if value.lower() in ("1", "true", "yes", "on"):
                flags.append("--huge")
            elif value.lower() not in ("0", "false", "no", "off"):
                raise UsageError(f"{where}: huge wants a boolean, got {value!r}")
        else:
            flags.append(f"--{key.replace('_', '-')}={value}")
    return flags, tolerances


def _parse(argv: list[str]) -> argparse.Namespace:
    """The parsed flags, the config file's under them, plus `spec` and `tolerances`."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    tolerances: dict[str, float] = {}
    if args.config:
        keys = vars(args).keys() - {"command", "config"}
        flags, tolerances = _read_config(args.config, keys)
        # later flags win, so the command line overrides the file
        args = parser.parse_args(flags + argv)
    args.tolerances = tolerances
    args.spec = ParitySpec(N=args.N, alpha=args.alpha, beta=args.beta)
    for name in ("c0", "c"):
        value = getattr(args, name)
        if not math.isfinite(value):
            raise UsageError(f"{name} must be finite, got {value!r}")
    # --threads is a validated no-op: rows are cheap reads of one exact pass,
    # and the interpreter lock serialises them anyway
    if args.threads < 1:
        raise UsageError(f"threads must be >= 1, got {args.threads}")
    return args


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


def _resolve_weights(args: argparse.Namespace) -> range:
    """The requested weights, ascending: one for --n, the sweep for --n-range."""
    if args.n is not None and args.n_range is not None:
        raise UsageError("give either --n or --n-range, not both")
    if args.n is not None:
        ns = range(args.n, args.n + 1)
    elif args.n_range is not None:
        start, end, step = args.n_range
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
    if top > HUGE_THRESHOLD and not args.huge:
        raise UsageError(
            f"n = {top} is above the desk-scale threshold {HUGE_THRESHOLD}; "
            "pass --huge to acknowledge"
        )
    return ns


def _one_weight(args: argparse.Namespace) -> PdDistribution:
    """The exact distribution at the single --n of dist and bias.

    The limit laws' guard runs first, so a modulus they refuse (pi * N
    overflows a float) exits before the exact pass runs.
    """
    if args.n is None:
        raise UsageError("this subcommand needs a single --n")
    n = _resolve_weights(args)[0]
    if n < 1:
        raise UsageError(f"{args.command} needs n >= 1")
    _bind(".distribution")
    # distribution has loaded specialfn, home of the guard
    importlib.import_module(".specialfn", __package__)._pi_n(args.spec.N)
    return pd_distribution(n, args.spec)


def _write(args: argparse.Namespace, text: str) -> None:
    if not args.out:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --out {args.out}: {exc}") from exc


def _emit(args: argparse.Namespace, rows: list[dict[str, str]]) -> None:
    """Write the rows as JSON or as CSV under the first row's keys."""
    if args.format == "json":
        import json

        text = json.dumps(rows, indent=2) + "\n"
    else:
        lines = [",".join(rows[0])]
        lines.extend(",".join(row.values()) for row in rows)
        text = "\n".join(lines) + "\n"
    _write(args, text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_count(args: argparse.Namespace) -> int:
    ns = _resolve_weights(args)
    counts = tail_counts(args.spec, ns, [args.c] * len(ns))
    c = _fmt_threshold(args.c)
    _emit(args, [{"n": str(n), "c": c, "count": str(v)} for n, v in zip(ns, counts)])
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    # pinned by the benchmark pool's three compare-N error jobs until the CLI step of
    # ROADMAP's item "Every class pair in `compare` and in `estimate_bias`"
    if args.spec.N not in (2, 5, 6):
        raise UsageError(
            "compare serves only N = 2, 5 or 6 so far, although its two-term "
            "form holds for every class pair of span 1"
        )
    ns = _resolve_weights(args)
    if any(n < 1 for n in ns):
        raise UsageError("compare needs weights >= 1")
    _bind(".asymptotics")
    swapped = args.spec.swapped()
    # the exact threshold uses the same near-integer-guarded ceiling as the
    # estimates, so both columns cut at the identical integer
    c_ints = [guarded_ceil(args.c0 * n**0.25)[0] for n in ns]
    tails_ab = tail_counts(args.spec, ns, c_ints)
    tails_ba = tail_counts(swapped, ns, c_ints)

    def row(n: int, exact_ab: int, exact_ba: int) -> dict[str, str]:
        est_ab = estimate_thm2(n, args.spec, args.c0)
        est_ba = estimate_thm2(n, swapped, args.c0)

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

    _emit(args, [row(*r) for r in zip(ns, tails_ab, tails_ba)])
    return 0


def cmd_dist(args: argparse.Namespace) -> int:
    dist = _one_weight(args)
    hist = histogram_of(dist)
    peak = max(d for _, d in hist.points)
    rows = []
    for (x, density), k in zip(hist.points, dist.counts):
        rows.append(
            {
                "k": str(k),
                "x": _fmt_float(x),
                "density_area1": _fmt_float(density),
                "density_peak1": _fmt_float(density / peak),
                "gaussian": _fmt_float(gaussian_density(x, args.spec.N)),
            }
        )
    _emit(args, rows)
    return 0


def cmd_bias(args: argparse.Namespace) -> int:
    _require_span_one(args.spec, "the bias law")
    dist = _one_weight(args)
    profile = bias_profile_of(dist)
    scale = dist.n**-0.25
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
                "density": _fmt_float(bias_density(x, args.spec.N)),
            }
        )
    _emit(args, rows)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import checks as checks_mod

    results = checks_mod.run_suite(only=args.only, bounds=args.tolerances)
    if args.only is not None and not results:
        raise UsageError(f"no check name starts with {args.only!r}")
    _write(args, "".join(r.to_json_line() + "\n" for r in results))
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_DISPATCH: dict[str, Callable[[argparse.Namespace], int]] = {
    "count": cmd_count,
    "compare": cmd_compare,
    "dist": cmd_dist,
    "bias": cmd_bias,
    "verify": cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        return _DISPATCH[args.command](args)
    except SystemExit as exc:  # argparse: --help exits 0, a usage error 2
        return int(exc.code or 0)
    except CeilingExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
