"""Each output check passes real qzeta outputs and rejects perturbed ones.

    python3 -m pytest perfbench/test_checks.py
"""
from __future__ import annotations

import copy
import math
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import qzeta  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

POINTS = [Fraction(2), Fraction(1, 3), Fraction(-3, 2)]


@pytest.fixture(scope="module")
def table():
    return workloads.BetaTable().export(
        qzeta, None, [qzeta.beta(n).value for n in range(13)], seed=0)


def test_bernoulli_recurrence():
    b = checks.bernoulli_numbers(12)
    assert b[:5] == [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30)]
    assert b[12] == Fraction(-691, 2730)


def test_beta_table_passes(table):
    assert checks.check_beta_table(table, POINTS, 12) == [None] * 13


@pytest.mark.parametrize("n", [2, 7, 12])
def test_beta_with_one_coefficient_changed_is_rejected(table, n):
    bad = copy.deepcopy(table)
    num = bad[n]["num"]
    i = next(i for i, c in enumerate(num) if c != "0")
    num[i] = str(Fraction(num[i]) + 1)
    assert checks.check_beta_table(bad, POINTS, 12)[n] is not None


def test_palindromic_but_wrong_beta_is_rejected(table):
    bad = copy.deepcopy(table)
    num = bad[10]["num"]
    lo = next(i for i, c in enumerate(num) if c != "0")
    for i in (lo, len(num) - 1):  # keeps the numerator palindromic
        num[i] = str(Fraction(num[i]) * 2)
    assert "explicit formula" in checks.check_beta_table(bad, POINTS, 12)[10]


def test_beta_value_at_one_is_checked(table):
    bad = copy.deepcopy(table)
    assert checks.check_beta(bad[4], [], checks.bernoulli_numbers(4)) is None
    bad[4]["num"] = [str(-Fraction(c)) for c in bad[4]["num"]]
    assert "B_4" in checks.check_beta(bad[4], [], checks.bernoulli_numbers(4))


def _sample(op, point):
    kind = op[0]
    if kind == "theorem":
        n, spec = op[1], qzeta.OperatorSpec.riemann(1 - op[1])
    elif kind == "hurwitz":
        n, spec = op[1], qzeta.OperatorSpec.hurwitz(1 - op[1], Fraction(op[2]))
    else:
        n = op[3]
        spec = qzeta.OperatorSpec.dirichlet_l(1 - n, qzeta.character(op[1], op[2]))
    return qzeta.apply_geometric(spec, qzeta.Poly([0, 1, -(n + 1)])).value.to_json()


@pytest.mark.parametrize("op,point", [
    (["theorem", 5, "geometric"], Fraction(1, 3)),
    (["hurwitz", 3, "2/3", "geometric"], Fraction(-2, 5)),
    (["chi", 7, 3, 3, "geometric"], Fraction(1, 2)),
    (["chi", 5, 1, 2, "geometric"], Fraction(1, 3)),
    (["chi", 7, 5, 2, "geometric"], Fraction(-1, 3)),
])
def test_l_value_off_by_one_ulp_is_rejected(op, point):
    with mp.workdps(80):
        exact = checks.ratfunc_at(_sample(op, point), point)
        assert checks.check_sample_value(op, point, exact) is None
        ulp = mp.mpf(math.ulp(float(abs(exact))))
        assert checks.check_sample_value(op, point, exact + ulp) is not None


def test_character_values_match_known_ones():
    chi = checks.character_values(5, 1)  # chi(2) = i for the least root 2
    assert abs(chi[2] - 1j) < 1e-30 and abs(chi[4] + 1) < 1e-30 and chi[0] == 0


def test_relation_reports_must_pass():
    ops = workloads.relation_ops()[:3]
    reports = [{"op": list(op), "passed": True} for op in ops]
    export = {"reports": reports, "samples": []}
    assert checks.check_relations(export, ops) == [None] * 3
    reports[1]["passed"] = None
    reports[2] = {"op": list(ops[2]), "error": "DomainError()"}
    verdict = checks.check_relations(export, ops)
    assert verdict[0] is None and verdict[1] and verdict[2]
    assert isinstance(verdict[2], checks.Raised) and not isinstance(verdict[1], checks.Raised)


@pytest.fixture(scope="module")
def survey():
    return workloads.RootSurvey().export(qzeta, None, qzeta.beta_root_survey(9), seed=0)


def test_root_survey_passes(survey):
    assert checks.check_root_survey(survey, 9) == [None] * 8


def test_dropped_root_is_rejected(survey):
    bad = copy.deepcopy(survey)
    bad[6]["roots"].pop()
    assert checks.check_root_survey(bad, 9)[6] is not None


def test_moved_root_is_rejected(survey):
    bad = copy.deepcopy(survey)
    i = max(range(len(bad[7]["roots"])), key=lambda k: abs(bad[7]["roots"][k][1]))
    bad[7]["roots"][i][0] += 1e-6  # its conjugate no longer matches
    assert checks.check_root_survey(bad, 9)[7] is not None
