"""The command-line surface: parsing, output formats, exit statuses."""
import json
from fractions import Fraction

import pytest

from qzeta.cli import ParseError, main, parse_poly
from qzeta.poly import Poly
from qzeta.ratfunc import RatFunc


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_poly_examples():
    assert parse_poly("q-3*q^2").coeffs == (0, 1, -3)
    assert parse_poly("q").coeffs == (0, 1)
    assert parse_poly("(1+q)^2 - 1").coeffs == (0, 2, 1)
    assert parse_poly("3/2*q").coeffs == (0, Fraction(3, 2))
    assert parse_poly("-q + q").is_zero()


def test_parse_poly_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_poly("q + $")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_poly("q / q")  # non-constant divisor
    with pytest.raises(ParseError):
        parse_poly("(q")


def test_constant_term_rejected_for_apply(capsys):
    code, out, errtext = run(capsys, "zeta", "apply", "--s", "0", "--poly", "1+q")
    assert code == 2
    assert "constant term" in errtext


def test_beta_factored_json(capsys):
    code, out, _ = run(
        capsys, "carlitz", "beta", "--n", "2", "--factored", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"n": 2, "num": "q", "den_cyclotomic": [2, 3]}


def test_beta_json_round_trip(capsys):
    for n in (1, 3, 4, 6):
        code, out, _ = run(capsys, "carlitz", "beta", "--n", str(n), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        from qzeta.carlitz import beta

        rebuilt = RatFunc(parse_poly(doc["num"]), parse_poly(doc["den"]))
        assert rebuilt == beta(n).value


def test_beta_factored_round_trip(capsys):
    from qzeta.carlitz import beta
    from qzeta.poly import cyclotomic

    code, out, _ = run(
        capsys, "carlitz", "beta", "--n", "4", "--factored", "--format", "json"
    )
    doc = json.loads(out)
    den = Poly.one()
    for k in doc["den_cyclotomic"]:
        den = den * cyclotomic(k)
    assert RatFunc(parse_poly(doc["num"]), den) == beta(4).value


def test_verify_theorem_exit_zero(capsys):
    code, out, _ = run(
        capsys, "carlitz", "verify-theorem", "--max-n", "6", "--method", "geometric"
    )
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_theorem_json_mode(capsys):
    code, out, _ = run(
        capsys,
        "carlitz",
        "verify-theorem",
        "--n",
        "3",
        "--method",
        "delta",
        "--format",
        "json",
    )
    doc = json.loads(out)
    assert code == 0 and doc["passed"] is True


def test_euler_check_failure_exits_one(capsys):
    # prime bound below the order misses prime indices: a genuine failure
    code, out, _ = run(
        capsys, "zeta", "euler-check", "--s", "0", "--prime-bound", "2", "--order", "10"
    )
    assert code == 1


def test_euler_check_pass(capsys):
    code, _, _ = run(
        capsys, "zeta", "euler-check", "--s", "-1", "--prime-bound", "11", "--order", "10"
    )
    assert code == 0


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["carlitz", "nonsense"])
    assert exc.value.code == 2


def test_runtime_error_json_record(capsys):
    code, out, _ = run(
        capsys,
        "zeta",
        "apply",
        "--s",
        "0",
        "--poly",
        "1+q",
        "--format",
        "json",
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["type"] == "DomainError"


def test_roots_survey_csv(capsys):
    code, out, _ = run(capsys, "roots", "survey", "--max-n", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,re,im,abs,class,residual"
    ns = {line.split(",")[0] for line in lines[1:]}
    assert ns == {"3", "4"}  # n=2 has no roots after stripping q


def test_dirichlet_list_json(capsys):
    code, out, _ = run(capsys, "dirichlet", "list", "--modulus", "4", "--format", "json")
    docs = json.loads(out)
    assert code == 0 and len(docs) == 2
    assert docs[1]["order"] == 2 and docs[1]["primitive"] is True


def test_dirichlet_verify(capsys):
    code, out, _ = run(
        capsys, "dirichlet", "verify", "--modulus", "3", "--index", "1", "--max-n", "3"
    )
    assert code == 0


def test_hurwitz_verify_includes_skip(capsys):
    code, out, _ = run(
        capsys, "hurwitz", "verify", "--x", "1/2", "--max-n", "2"
    )
    assert code == 0
    assert "SKIP" in out  # n = 0 reported as outside exact mode


def test_zeta_apply_series(capsys):
    code, out, _ = run(
        capsys,
        "zeta",
        "apply",
        "--s",
        "0",
        "--poly",
        "q",
        "--method",
        "series",
        "--order",
        "4",
        "--format",
        "json",
    )
    doc = json.loads(out)
    assert doc == {"branch": 1, "order": 4, "coeffs": ["0", "1", "1", "1", "1"]}


def test_zeta_numeric(capsys):
    code, out, _ = run(
        capsys,
        "zeta",
        "numeric",
        "--s",
        "-1",
        "--q0",
        "0.5",
        "--poly",
        "q",
        "--eps",
        "1e-12",
        "--format",
        "json",
    )
    doc = json.loads(out)
    assert code == 0
    assert abs(doc["re"] - 4 / 3) < 1e-11 and abs(doc["im"]) < 1e-12


def test_zeta_numeric_refuses_an_eps_it_cannot_certify(capsys):
    code, out, err = run(
        capsys, "zeta", "numeric", "--s", "0", "--q0", "0.4", "--poly", "q", "--eps", "1e-300"
    )
    assert code != 0 and out == "" and "rounding bound" in err


def test_lemma_commute(capsys):
    code, out, _ = run(
        capsys, "lemma", "commute-check", "--max-mn", "3", "--s", "-2", "--r-max", "2"
    )
    assert code == 0


@pytest.mark.parametrize("tol", ["0", "-1e-12", "nan"])
def test_roots_survey_rejects_a_tol_that_is_not_positive_and_finite(capsys, tol):
    message = "tol must be a positive finite number"
    code, out, err = run(capsys, "roots", "survey", "--max-n", "4", f"--tol={tol}")
    assert (code, out, err) == (2, "", f"error: {message}\n")
    code, out, _ = run(
        capsys, "roots", "survey", "--max-n", "4", f"--tol={tol}", "--format", "json"
    )
    assert code == 2
    assert json.loads(out) == {"error": {"type": "ValueError", "message": message}}
