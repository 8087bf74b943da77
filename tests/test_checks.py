import json
from fractions import Fraction

import pytest

import paritylab.checks as checks
import paritylab.specialfn as specialfn
from paritylab.checks import (
    CheckResult,
    check_emf,
    check_lambda_identity,
    check_nr_expansion,
    check_sy_negativity,
    check_sy_taylor,
    default_suite,
    run_suite,
)

EXPECTED_SUITE = [
    "check_sy_negativity[N=2]",
    "check_sy_negativity[N=3]",
    "check_sy_negativity[N=4]",
    "check_sy_negativity[N=5]",
    "check_sy_negativity[N=6]",
    "check_sy_negativity[N=2,tail]",
    "check_sy_taylor[N=2]",
    "check_sy_taylor[N=3]",
    "check_sy_taylor[N=4]",
    "check_sy_taylor[N=5]",
    "check_sy_taylor[N=6]",
    "check_nr_expansion[A=0.0,R=0]",
    "check_nr_expansion[A=0.0,R=1]",
    "check_nr_expansion[A=0.0,R=2]",
    "check_nr_expansion[A=0.5,R=1]",
    "check_nr_expansion[A=0.5,R=2]",
    "check_emf",
    "check_lambda_identity",
]


def test_default_suite_names_and_order():
    assert [name for name, _ in default_suite()] == EXPECTED_SUITE


def test_run_suite_all_green():
    results = run_suite()
    assert [r.name for r in results] == EXPECTED_SUITE
    assert all(r.passed for r in results)


def test_run_suite_prefix_filter():
    only_emf = run_suite(only="check_emf")
    assert [r.name for r in only_emf] == ["check_emf"]
    taylor = run_suite(only="check_sy_taylor")
    assert len(taylor) == 5
    assert run_suite(only="does_not_exist") == []


def test_json_line_shape():
    line = CheckResult("demo", True, 0.5, 1.0, 3, "note").to_json_line()
    decoded = json.loads(line)
    assert list(decoded) == ["name", "passed", "observed", "bound", "samples", "notes"]
    assert decoded["passed"] is True
    assert decoded["observed"] == 0.5


FAMILIES = ("check_sy_negativity", "check_sy_taylor", "check_nr_expansion", "check_emf",
            "check_lambda_identity")


@pytest.mark.parametrize("family", FAMILIES)
def test_run_suite_bounds_reach_every_check_of_the_family_only(family):
    defaults = {r.name: r.bound for r in run_suite()}
    results = run_suite(bounds={family: 0.125})
    assert [r.name for r in results] == EXPECTED_SUITE
    for r in results:
        # the R = 0 check_nr_expansion, whose default is 2 T_{A,B,0}, included
        expected = 0.125 if r.name.split("[")[0] == family else defaults[r.name]
        assert r.bound == expected, r.name
    assert sum(r.name.split("[")[0] == family for r in results) >= 1


def test_run_suite_rejects_a_bound_for_no_family(monkeypatch):
    ran = []
    monkeypatch.setattr(checks, "euler_maclaurin", lambda *a, **kw: ran.append(a))
    with pytest.raises(ValueError, match=r"tol\.check_emff names no check family") as exc:
        run_suite(only="check_emf", bounds={"check_emf": 1.0, "check_emff": 1.0})
    assert all(family in str(exc.value) for family in FAMILIES)
    assert ran == []


def test_a_check_judges_its_own_bound():
    # the same observed value, judged against the bound the check is given
    taylor = check_sy_taylor(3)
    assert not check_sy_taylor(3, bound=taylor.observed / 2).passed
    assert check_sy_taylor(3, bound=taylor.observed).passed
    negativity = check_sy_negativity(2)
    assert not check_sy_negativity(2, bound=negativity.observed).passed  # strict >
    r0 = check_nr_expansion(0.0, 0, bound=1e-300)
    assert (r0.passed, r0.bound) == (False, 1e-300)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def test_sy_negativity_details():
    res = check_sy_negativity(2)
    assert res.passed and res.observed > 0.0
    assert res.samples == 400  # 200 log-spaced points, both signs
    tail = check_sy_negativity(2, y_min=0.5)
    assert tail.name == "check_sy_negativity[N=2,tail]"
    assert tail.passed
    with pytest.raises(ValueError, match="empty grid"):
        check_sy_negativity(2, y_min=100.0)


def test_sy_taylor_bound():
    res = check_sy_taylor(3)
    assert res.passed
    assert res.observed <= res.bound == 10.0


def test_nr_expansion_degenerate_r0():
    res = check_nr_expansion(0.0, 0)
    assert res.passed
    assert res.bound > 0.0  # 2 T_{A,B,0}
    assert res.notes == "degenerate R=0: rescaled integral bounded by 2 T_{A,B,0}"
    # a given bound replaces 2 T_{A,B,0}, and the note names it
    res = check_nr_expansion(0.0, 0, bound=5.0)
    assert (res.passed, res.bound) == (True, 5.0)
    assert res.notes == "degenerate R=0: rescaled integral bounded by 5.0"


def test_nr_expansion_flags_fast_decay():
    res = check_nr_expansion(0.5, 2)
    assert res.passed
    assert "faster than the generic rate" in res.notes


def test_emf_check_green():
    res = check_emf()
    assert res.passed
    assert res.observed <= 1e-8
    assert "gaussian" in res.notes


def test_lambda_identity_check():
    res = check_lambda_identity()
    assert res.passed
    assert res.observed <= 1e-10


# ---------------------------------------------------------------------------
# mutation sanity: a wrong Bernoulli number must be caught
# ---------------------------------------------------------------------------


def test_emf_check_catches_wrong_bernoulli(monkeypatch):
    real = specialfn.bernoulli_number

    def wrong(r):
        if r == 2:
            return Fraction(1, 5)
        return real(r)

    monkeypatch.setattr(specialfn, "bernoulli_number", wrong)
    res = check_emf()
    assert not res.passed
    assert res.observed > res.bound
