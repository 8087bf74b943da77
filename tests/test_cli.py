import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import paritylab
import paritylab.checks as checks
import paritylab.specialfn as specialfn
from paritylab.cli import _build_parser, main

SRC = str(Path(paritylab.__file__).resolve().parent.parent)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def test_count_single_row(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "8", "--c", "1")
    assert code == 0
    assert out == "n,c,count\n8,1,4\n"


def test_count_n0(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "0", "--c", "0")
    assert code == 0
    assert out == "n,c,count\n0,0,1\n"


def test_count_negative_threshold(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "40", "--c", "-999")
    assert code == 0
    assert out.splitlines()[1] == "40,-999,1113"


def test_count_sweep_rows_in_order(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--n-range", "10:40:10", "--c", "0", "--threads", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,c,count"
    assert [row.split(",")[0] for row in lines[1:]] == ["10", "20", "30", "40"]


def test_count_json_format(capsys):
    code, out, _ = run_cli(capsys, "count", "--n", "8", "--c", "1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows == [{"n": "8", "c": "1", "count": "4"}]
    assert isinstance(rows[0]["count"], str)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

COMPARE_HEADER = (
    "n,exact_d_ab,exact_d_ba,ratio_main_ab,ratio_main_ba,ratio_two_ab,ratio_two_ba"
)


def test_compare_header_and_finite_ratios(capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--n-range", "100:300:100", "--c0", "1"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == COMPARE_HEADER
    assert len(lines) == 4
    for row in lines[1:]:
        fields = row.split(",")
        assert int(fields[1]) > 0 and int(fields[2]) > 0
        assert all(math.isfinite(float(v)) for v in fields[3:])


def test_compare_rejects_unsupported_modulus(capsys):
    code, _, err = run_cli(capsys, "compare", "--n", "100", "--N", "3")
    assert code == 2
    assert "N = 2, 5 or 6" in err


def test_compare_far_thresholds_exit_0(capsys):
    # c0 = 50: erfc underflows to 0 and the threshold exceeds m_max(60), so no
    # partition reaches it and every ratio is inf
    code, out, err = run_cli(capsys, "compare", "--n", "60", "--c0=50")
    assert code == 0, err
    assert out.splitlines()[1] == "60,0,0,inf,inf,inf,inf"
    # c0 = -1e300: every partition counts, and the second term's log magnitude
    # is -inf, so the term is zero and the two-term ratios equal the main ones
    code, out, err = run_cli(capsys, "compare", "--n", "60", "--c0=-1e300")
    assert code == 0, err
    fields = out.splitlines()[1].split(",")
    assert fields[1:3] == ["10880", "10880"]
    assert all(math.isfinite(float(v)) for v in fields[3:])
    assert fields[3:5] == fields[5:7]


def test_compare_exact_column_matches_count(capsys, family2):
    # c0=1 at n=256: threshold is exactly 4, so exact_d_ab must equal the
    # tail count at c=4
    code, out, _ = run_cli(capsys, "compare", "--n", "256", "--c0", "1")
    assert code == 0
    fields = out.splitlines()[1].split(",")
    expected = sum(v for k, v in family2[256].counts.items() if k >= 4)
    assert fields[1] == str(expected)


# ---------------------------------------------------------------------------
# dist
# ---------------------------------------------------------------------------


def test_dist_rows_n8(capsys):
    code, out, _ = run_cli(capsys, "dist", "--n", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,x,density_area1,density_peak1,gaussian"
    ks = [row.split(",")[0] for row in lines[1:]]
    assert ks == ["-2", "-1", "1", "2"]
    mass = sum(float(row.split(",")[2]) for row in lines[1:]) * 8**-0.25
    assert mass == pytest.approx(1.0, abs=1e-12)
    assert max(float(row.split(",")[3]) for row in lines[1:]) == 1.0


def test_dist_requires_single_n(capsys):
    code, _, err = run_cli(capsys, "dist", "--n-range", "10:20:5")
    assert code == 2
    assert "single --n" in err


# ---------------------------------------------------------------------------
# bias
# ---------------------------------------------------------------------------


def test_bias_rows_n8(capsys):
    code, out, _ = run_cli(capsys, "bias", "--n", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "c,x,pb,pb_normalized,density"
    rows = [row.split(",") for row in lines[1:]]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    assert [r[2] for r in rows] == ["0", "1", "1"]
    assert sum(float(r[3]) for r in rows[1:]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("N, alpha, beta", [(3, 1, 2), (3, 2, 1), (4, 1, 3), (4, 3, 1)])
def test_bias_refuses_lattice_pairs(capsys, N, alpha, beta):
    # pd keeps one residue mod 3 or mod 2 at each weight, so the bias law fails
    span = {3: 3, 4: 2}[N]
    code, out, err = run_cli(
        capsys, "bias", "--n", "200", "--N", str(N), "--alpha", str(alpha), "--beta", str(beta)
    )
    assert (code, out) == (2, "")
    assert err == (
        f"error: the bias law does not hold for (N, alpha, beta) = ({N}, {alpha}, {beta}), "
        f"whose parity differences have span {span}\n"
    )


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "check_lambda_identity")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    decoded = json.loads(lines[0])
    assert decoded["name"] == "check_lambda_identity"
    assert decoded["passed"] is True


def test_verify_unknown_prefix(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "nope")
    assert code == 2
    assert "no check name starts with" in err


def test_verify_mutation_fails(capsys, monkeypatch):
    real = specialfn.bernoulli_number

    def wrong(r):
        return Fraction(1, 5) if r == 2 else real(r)

    monkeypatch.setattr(specialfn, "bernoulli_number", wrong)
    code, out, _ = run_cli(capsys, "verify", "--only", "check_emf")
    assert code == 1
    assert json.loads(out.splitlines()[0])["passed"] is False


def test_verify_tolerance_override(capsys, tmp_path):
    cfg = tmp_path / "tight.cfg"
    cfg.write_text("tol.check_sy_taylor=1e-9\n")
    code, out, _ = run_cli(
        capsys, "verify", "--only", "check_sy_taylor", "--config", str(cfg)
    )
    assert code == 1
    for line in out.splitlines():
        decoded = json.loads(line)
        assert decoded["bound"] == 1e-9
        assert decoded["passed"] is False


def test_verify_loosened_tolerance_passes_a_value_failure(capsys, tmp_path, monkeypatch):
    real = specialfn.bernoulli_number
    monkeypatch.setattr(
        specialfn, "bernoulli_number", lambda r: Fraction(1, 5) if r == 2 else real(r)
    )
    cfg = tmp_path / "loose.cfg"
    cfg.write_text("tol.check_emf=1e300\n")
    code, out, _ = run_cli(capsys, "verify", "--only", "check_emf", "--config", str(cfg))
    line = json.loads(out)
    assert (code, line["passed"], line["bound"]) == (0, True, 1e300)


def test_verify_tolerance_keeps_a_failure_on_another_condition(capsys, tmp_path, monkeypatch):
    # Im Lambda(0) = 1e-6 fails the check's Im <= 1e-12 condition, which no
    # tol. bound relaxes: neither the default bound, which the value is within,
    # nor a bound of 1, which also covers a value off by 1e-6
    real = checks.lambda_y
    for shift, bound in ((1e-6j, "1e-10"), (1e-6 + 1e-6j, "1")):
        monkeypatch.setattr(checks, "lambda_y", lambda y, N: real(y, N) + shift)
        code, out, _ = run_cli(capsys, "verify", "--only", "check_lambda_identity")
        assert code == 1
        cfg = tmp_path / "tol.cfg"
        cfg.write_text(f"tol.check_lambda_identity={bound}\n")
        code, out, _ = run_cli(
            capsys, "verify", "--only", "check_lambda_identity", "--config", str(cfg)
        )
        line = json.loads(out)
        assert (code, line["passed"], line["bound"]) == (1, False, float(bound))
        assert line["observed"] <= float(bound)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_verify_non_finite_tolerance_is_usage_error(capsys, tmp_path, value):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"tol.check_emf={value}\n")
    code, out, err = run_cli(capsys, "verify", "--only", "check_emf", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "tol.check_emf" in err and "finite" in err
    assert "Traceback" not in err


def test_verify_misspelled_tolerance_key_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("tol.check_sy_taylr=1e-9\n")
    code, out, err = run_cli(
        capsys, "verify", "--only", "check_sy_taylor", "--config", str(cfg)
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "tol.check_sy_taylr" in err


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


COMMANDS = ("count", "compare", "dist", "bias", "verify")


@pytest.mark.parametrize("argv", [("--help",), ("bias", "--help")])
def test_one_help_lists_every_command(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    for command in COMMANDS:
        assert f"\n  {command} " in out
    assert (
        "pb_normalized is a mass per level c, density is per unit x = c n^(-1/4), "
        "so the two differ by a factor n^(1/4)"
    ) in " ".join(out.split())


def test_options_before_or_after_the_command(capsys):
    code, out, _ = run_cli(capsys, "--n", "8", "count", "--c", "1")
    assert (code, out) == (0, "n,c,count\n8,1,4\n")


# one invalid value per config key: (key, value, the command line it joins)
INVALID_VALUES = [
    ("n", "eight", ("count",)),
    ("n_range", "10:5", ("count",)),
    ("N", "two", ("count", "--n", "8")),
    ("alpha", "1.5", ("count", "--n", "8")),
    ("beta", "1", ("count", "--n", "8")),
    ("c0", "inf", ("compare", "--n", "8")),
    ("c", "nan", ("count", "--n", "8")),
    ("format", "xml", ("count", "--n", "8")),
    ("out", "{tmp}/no-such-dir/rows.csv", ("count", "--n", "8")),
    ("threads", "0", ("count", "--n", "8")),
    ("huge", "maybe", ("count", "--n", "8")),
    ("only", "nope", ("verify",)),
]


def test_invalid_values_cover_every_config_key():
    keys = vars(_build_parser().parse_args(["count"])).keys() - {"command", "config"}
    assert {key for key, _, _ in INVALID_VALUES} == keys


@pytest.mark.parametrize("source", ["config", "flag"])
@pytest.mark.parametrize("key, value, argv", INVALID_VALUES, ids=[k for k, _, _ in INVALID_VALUES])
def test_config_value_is_parsed_as_its_flag(capsys, tmp_path, source, key, value, argv):
    value = value.format(tmp=tmp_path)
    if source == "config":
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key}={value}\n")
        extra = ("--config", str(cfg))
    else:
        extra = (f"--{key.replace('_', '-')}={value}",)
    code, out, err = run_cli(capsys, *argv, *extra)
    assert (code, out) == (2, "")
    assert "error: " in err


def test_out_file(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "count", "--n", "8", "--c", "1", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "n,c,count\n8,1,4\n"


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep defaults\nn=8\nc=1\n")
    code, out, _ = run_cli(capsys, "count", "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[1] == "8,1,4"


def test_flags_beat_config(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=8\nc=1\n")
    code, out, _ = run_cli(capsys, "count", "--config", str(cfg), "--c", "2")
    assert code == 0
    assert out.splitlines()[1] == "8,2,2"


def test_config_file_errors(capsys, tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("this line has no equals sign\n")
    code, _, err = run_cli(capsys, "count", "--n", "8", "--config", str(cfg))
    assert code == 2
    assert "key=value" in err
    code, _, err = run_cli(capsys, "count", "--n", "8", "--config", str(tmp_path / "missing.cfg"))
    assert code == 2


def test_config_file_saved_with_a_byte_order_mark_reads_as_without(capsys, tmp_path):
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_bytes(b"n=8\nc=1\n")
    bom.write_bytes(b"\xef\xbb\xbfn=8\nc=1\n")
    expected = run_cli(capsys, "count", "--config", str(plain))
    assert expected == (0, "n,c,count\n8,1,4\n", "")
    assert run_cli(capsys, "count", "--config", str(bom)) == expected


def test_config_file_that_is_not_utf8_is_a_usage_error_naming_it(capsys, tmp_path):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"n=8\xff\n")
    code, out, err = run_cli(capsys, "count", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read config file {cfg}: 'utf-8' codec can't decode")


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n-range", "bad"),
        ("count", "--n-range", "50:10"),
        ("count", "--n-range", "10:50:0"),
        ("count", "--n", "8", "--n-range", "10:20"),
        ("count",),
        ("count", "--n", "-5"),
    ],
)
def test_usage_errors(capsys, argv):
    code, _, _ = run_cli(capsys, *argv)
    assert code == 2


def test_argparse_usage_error_is_exit_2(capsys):
    assert main(["count", "--format", "xml"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--n", "100", "--c", "inf"),
        ("count", "--n", "150", "--c=-inf"),
        ("count", "--n", "40", "--c", "nan"),
        ("compare", "--n", "100", "--c0", "inf"),
        ("compare", "--n-range", "50:80:10", "--c0", "nan"),
    ],
)
def test_non_finite_threshold_is_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_usage_error(capsys, threads):
    code, _, err = run_cli(capsys, "count", "--n", "8", "--threads", threads)
    assert code == 2
    assert "threads" in err


@pytest.mark.parametrize(
    "line, word",
    [
        ("format=xml", "format"),
        ("threads=0", "threads"),
        ("c=inf", "finite"),
        # unknown keys, e.g. a typo or the dropped ceiling key, are not ignored
        ("fromat=json", "fromat"),
        ("exact_ceiling=100", "exact_ceiling"),
    ],
)
def test_config_values_are_validated(capsys, tmp_path, line, word):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code, out, err = run_cli(capsys, "count", "--n", "8", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert word in err


@pytest.mark.parametrize(
    "argv", [("count", "--n", "8"), ("verify", "--only", "check_lambda_identity")]
)
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv):
    target = tmp_path / "no-such-dir" / "rows.csv"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write --out")


def test_huge_modulus_at_small_weight_exits_at_once():
    # only residues r <= n are visited, so N = 10^12 costs what N = 5 does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "paritylab", "count", "--n", "5", "--N", str(10**12), "--c", "0"],
        env=env,
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "n,c,count\n5,0,2\n", "")


@pytest.mark.parametrize("N", [10**308, 10**309])
@pytest.mark.parametrize("command", ["dist", "bias"])
def test_limit_law_of_a_modulus_whose_pi_n_overflows_is_usage_error(capsys, command, N):
    code, out, err = run_cli(capsys, command, "--n", "40", "--N", str(N))
    assert (code, out) == (2, "")
    assert err == "error: N is too large: pi * N overflows a float\n"
    # count reads no limit law, so the same modulus runs
    code, out, err = run_cli(capsys, "count", "--n", "5", "--N", str(N))
    assert (code, out, err) == (0, "n,c,count\n5,0,2\n", "")


@pytest.mark.parametrize("command", ["dist", "bias"])
def test_limit_law_guard_refuses_before_the_exact_pass(capsys, monkeypatch, command):
    def exact_pass(*args):
        raise AssertionError("the exact pass ran before the limit-law guard")

    monkeypatch.setattr("paritylab.cli.pd_distribution", exact_pass)
    code, out, err = run_cli(capsys, command, "--n", "3000", "--N", str(10**309))
    assert (code, out) == (2, "")
    assert err == "error: N is too large: pi * N overflows a float\n"


def test_ceiling_refusal_names_budget(capsys):
    code, _, err = run_cli(capsys, "count", "--n", "6000", "--c", "0")
    assert code == 3
    assert "ceiling" in err and "5000" in err


def test_env_ceiling(capsys, monkeypatch):
    monkeypatch.setenv("PARITY_LAB_CEILING", "30")
    code, _, err = run_cli(capsys, "count", "--n", "40", "--c", "0")
    assert code == 3
    assert "30" in err


@pytest.mark.parametrize("value", ["abc", "1.5", "", "0", "-5"])
def test_env_ceiling_rejects_non_positive_or_non_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("PARITY_LAB_CEILING", value)
    code, out, err = run_cli(capsys, "count", "--n", "5", "--c", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "PARITY_LAB_CEILING" in err and f"'{value}'" in err


def test_huge_gate(capsys):
    code, _, err = run_cli(capsys, "count", "--n", "3200", "--c", "0")
    assert code == 2
    assert "--huge" in err
    code, out, _ = run_cli(capsys, "count", "--n", "3200", "--c", "0", "--huge")
    assert code == 0
    assert out.startswith("n,c,count\n3200,0,")


def test_huge_config_line_is_the_flag(capsys, tmp_path):
    argv = ("count", "--n", "3200", "--c", "0")
    _, flag_out, _ = run_cli(capsys, *argv, "--huge")
    cfg = tmp_path / "run.cfg"
    for value in ("true", "yes", "on", "1"):
        cfg.write_text(f"huge={value}\n")
        assert run_cli(capsys, *argv, "--config", str(cfg)) == (0, flag_out, ""), value
    cfg.write_text("huge=false\n")
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert "--huge" in err


@pytest.mark.parametrize(
    "argv, top",
    [
        (("count", "--n-range", "3000:4000:100", "--c", "0"), 4000),
        (("count", "--n", "4000", "--c", "0"), 4000),
        (("compare", "--n-range", "3000:4000", "--c0", "1"), 4000),
        (("dist", "--n", "4000"), 4000),
    ],
    ids=["sweep", "one-weight", "compare", "dist"],
)
def test_huge_refusal_is_one_rule_for_every_command(capsys, argv, top):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        f"error: n = {top} is above the desk-scale threshold 3000; pass --huge to acknowledge\n"
    )


# ---------------------------------------------------------------------------
# fuzz: every input ends in a contract exit code, never a traceback
# ---------------------------------------------------------------------------


def _maybe(flag, values):
    # the flag is absent, or present as --flag=VALUE (so "-inf" is not an option)
    return st.one_of(st.just(()), values.map(lambda v: (f"{flag}={v}",)))


_N_RANGES = st.one_of(
    # a step past every weight, as large as 10**21, reads one weight
    st.tuples(
        st.integers(-3, 60), st.integers(-3, 60), st.one_of(st.integers(-1, 20), st.just(10**21))
    ).map(
        lambda t: "%d:%d:%d" % (min(t[:2]), max(t[:2]), t[2])
    ),
    st.tuples(st.integers(-3, 60), st.integers(-3, 60)).map(lambda t: "%d:%d" % t),
    st.text(max_size=8),
)


@st.composite
def _class_pair(draw):
    if draw(st.booleans()):
        N = draw(st.integers(2, 7))
        alpha, beta = draw(st.permutations(range(1, N + 1)))[:2]
        return ("--N=%d" % N, "--alpha=%d" % alpha, "--beta=%d" % beta)
    return sum((draw(_maybe(f, st.integers(-1, 7))) for f in ("--N", "--alpha", "--beta")), ())


@st.composite
def _cli_argv(draw):
    argv = [draw(st.sampled_from(["count", "compare", "dist", "bias"]))]
    # one weight flag twice as often as both or neither, so most draws get past
    # weight parsing and reach the exact engine and the row formatting
    weights = draw(st.sampled_from(["n", "n", "n-range", "n-range", "both", "neither"]))
    if weights in ("n", "both"):
        argv.append("--n=%d" % draw(st.integers(-3, 60)))
    if weights in ("n-range", "both"):
        argv.append("--n-range=" + draw(_N_RANGES))
    argv += draw(_class_pair())
    for flag in ("--c", "--c0"):
        argv += draw(_maybe(flag, st.one_of(st.floats(-10, 10), st.floats()).map(repr)))
    argv += draw(_maybe("--threads", st.integers(-2, 4)))
    argv += draw(_maybe("--format", st.sampled_from(["csv", "json", "xml"])))
    return argv


@given(_cli_argv())
@example(["compare", "--n=60", "--c0=1e308"])  # c0 * n^(1/4) overflows to inf
@example(["count", "--n-range=5:5:1000000000000000000000"])  # no buffer sized by the step
@example(["compare", "--n=60", "--c0=50"])  # erfc underflows to 0
@example(["compare", "--n=60", "--c0=-1e300"])  # c0^2 overflows to inf
@settings(max_examples=60, deadline=None)
def test_fuzz_exit_codes_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
