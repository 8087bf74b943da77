import contextlib
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import paritylab.specialfn as specialfn
from paritylab.cli import main


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


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


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


def test_ceiling_refusal_names_budget(capsys):
    code, _, err = run_cli(capsys, "count", "--n", "6000", "--c", "0")
    assert code == 3
    assert "ceiling" in err and "5000" in err


def test_env_ceiling(capsys, monkeypatch):
    monkeypatch.setenv("PARITY_LAB_CEILING", "30")
    code, _, err = run_cli(capsys, "count", "--n", "40", "--c", "0")
    assert code == 3
    assert "30" in err


def test_huge_gate(capsys):
    code, _, err = run_cli(capsys, "count", "--n", "3200", "--c", "0")
    assert code == 2
    assert "--huge" in err and "MB" in err


# ---------------------------------------------------------------------------
# fuzz: every input ends in a contract exit code, never a traceback
# ---------------------------------------------------------------------------


def _maybe(flag, values):
    # the flag is absent, or present as --flag=VALUE (so "-inf" is not an option)
    return st.one_of(st.just(()), values.map(lambda v: (f"{flag}={v}",)))


_N_RANGES = st.one_of(
    st.tuples(st.integers(-3, 60), st.integers(-3, 60), st.integers(-1, 20)).map(
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
@example(["compare", "--n=60", "--c0=50"])  # erfc underflows to 0
@example(["compare", "--n=60", "--c0=-1e300"])  # c0^2 overflows to inf
@settings(max_examples=60, deadline=None)
def test_fuzz_exit_codes_and_no_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
