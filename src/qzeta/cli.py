"""Command-line surface: computation, verification, and reporting.

Exit status contract: 0 = success / all identities hold, 1 = a
verification found a failing identity, 2 = usage or runtime error.  All
exact values print as fractions; floats appear only under ``zeta
numeric`` and ``roots``.  JSON mode emits a single machine-parsable
document, and errors become one-line JSON records.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .carlitz import (
    BetaFraction,
    beta,
    beta_chi,
    beta_poly,
    genfun_check,
    verify_chi,
    verify_hurwitz,
    verify_theorem,
)
from .characters import character, characters
from .operators import (
    CheckReport,
    DomainError,
    OperatorSpec,
    apply_delta,
    apply_geometric,
    apply_series,
    check_commute,
    check_distribution,
    euler_product_apply,
    numeric_apply,
)
from .poly import Poly, branch_var
from .ratfunc import PoleError
from .roots import beta_root_survey


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


def parse_poly(expr: str) -> Poly:
    """Parse a polynomial in q with integer/rational coefficients and
    +, -, *, /, ^ and parentheses; '/' needs a nonzero constant divisor.

    >>> parse_poly("q-3*q^2").coeffs
    (0, 1, -3)
    """
    tokens = _tokenize(expr)
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take(kind=None):
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of expression", len(expr))
        tok, at = tokens[pos]
        if kind is not None and not (tok == kind or (kind == "num" and isinstance(tok, Fraction))):
            raise ParseError(f"expected {kind!r}, found {tok!r}", at)
        pos += 1
        return tok, at

    def parse_expr():
        sign = 1
        while peek() in ("+", "-"):
            tok, _ = take()
            if tok == "-":
                sign = -sign
        node = parse_term()
        if sign < 0:
            node = -node
        while peek() in ("+", "-"):
            op, _ = take()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term():
        node = parse_factor()
        while peek() in ("*", "/"):
            op, at = take()
            rhs = parse_factor()
            if op == "*":
                node = node * rhs
            else:
                if rhs.degree > 0 or rhs.is_zero():
                    raise ParseError("'/' needs a nonzero constant divisor", at)
                node = node.scale(Fraction(1) / Fraction(rhs.constant_term()))
        return node

    def parse_factor():
        node = parse_atom()
        if peek() == "^":
            _, at = take()
            e, _ = take("num")
            if not isinstance(e, Fraction) or e.denominator != 1 or e < 0:
                raise ParseError("exponent must be a non-negative integer", at)
            node = node**int(e)
        return node

    def parse_atom():
        tok, at = take()
        if tok == "(":
            node = parse_expr()
            take(")")
            return node
        if tok == "-":
            return -parse_factor()
        if tok == "q":
            return Poly.variable()
        if isinstance(tok, Fraction):
            return Poly([tok])
        raise ParseError(f"unexpected {tok!r}", at)

    node = parse_expr()
    if pos != len(tokens):
        raise ParseError(f"unexpected {tokens[pos][0]!r}", tokens[pos][1])
    return node


def _tokenize(expr: str):
    out = []
    i = 0
    while i < len(expr):
        c = expr[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            out.append((c, i))
            i += 1
            continue
        if c == "q":
            out.append(("q", i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < len(expr) and expr[j].isdigit():
                j += 1
            out.append((Fraction(expr[i:j]), i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    return out


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _report_doc(rep: CheckReport) -> dict:
    return {
        "name": rep.name,
        "passed": rep.passed,
        "note": rep.note,
        "items": [{"name": n, "passed": ok} for n, ok in rep.items],
    }


def _print_reports(reports: list[CheckReport], fmt: str) -> int:
    failed = any(r.passed is False for r in reports)
    if fmt == "json":
        print(
            json.dumps(
                {"passed": not failed, "checks": [_report_doc(r) for r in reports]}
            )
        )
    else:
        for r in reports:
            print(r.summary())
        print("all checks passed" if not failed else "CHECKS FAILED")
    return 1 if failed else 0


def _beta_json(b: BetaFraction, factored: bool) -> dict:
    if factored:
        num = b.value.num
        indices = []
        for k, mult in b.factored_denominator():
            indices.extend([k] * mult)
        return {"n": b.n, "num": str(num), "den_cyclotomic": indices}
    return {"n": b.n, "num": str(b.value.num), "den": str(b.value.den)}


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational number: {text!r}") from exc


def _parse_complex(text: str) -> complex:
    if "," in text:
        re_s, im_s = text.split(",", 1)
        return complex(float(re_s), float(im_s))
    return complex(text)


def _spec_from_args(args, s: int) -> OperatorSpec:
    if getattr(args, "x", None) is not None:
        return OperatorSpec.hurwitz(s, _parse_fraction(args.x))
    if getattr(args, "modulus", None) is not None:
        chi = character(args.modulus, args.index or 0)
        return OperatorSpec.dirichlet_l(s, chi)
    return OperatorSpec.riemann(s)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_carlitz_beta(args) -> int:
    ns = [args.n] if args.n is not None else list(range(0, args.max_n + 1))
    rows = [_beta_json(beta(k), args.factored) for k in ns]
    if args.format == "json":
        print(json.dumps(rows[0] if args.n is not None else rows))
    else:
        for row in rows:
            if args.factored:
                phis = " ".join(f"Phi_{k}" for k in row["den_cyclotomic"]) or "1"
                print(f"beta_{row['n']} = ({row['num']}) / ({phis})")
            else:
                print(f"beta_{row['n']} = ({row['num']}) / ({row['den']})")
    return 0


def _cmd_carlitz_verify_theorem(args) -> int:
    ns = [args.n] if args.n is not None else list(range(2, args.max_n + 1))
    reports = [
        verify_theorem(k, backend=args.method, series_order=args.order) for k in ns
    ]
    return _print_reports(reports, args.format)


def _cmd_carlitz_genfun(args) -> int:
    return _print_reports([genfun_check(args.order)], args.format)


def _cmd_hurwitz_beta(args) -> int:
    bp = beta_poly(args.n, _parse_fraction(args.x))
    doc = {
        "n": bp.n,
        "x": str(bp.x),
        "branch": bp.branch,
        "num": str(bp.value.num),
        "den": str(bp.value.den),
    }
    if args.format == "json":
        print(json.dumps(doc))
    else:
        note = f"  (in {branch_var(bp.branch)} = q^(1/{bp.branch}))" if bp.branch > 1 else ""
        print(f"beta_{bp.n}({bp.x}) = ({doc['num']}) / ({doc['den']}){note}")
    return 0


def _cmd_hurwitz_verify(args) -> int:
    x = _parse_fraction(args.x)
    ns = [args.n] if args.n is not None else list(range(0, args.max_n + 1))
    reports = [verify_hurwitz(k, x, backend=args.method) for k in ns]
    return _print_reports(reports, args.format)


def _cmd_hurwitz_distribution(args) -> int:
    rep = check_distribution(args.modulus, _parse_fraction(args.x), args.s, args.r)
    return _print_reports([rep], args.format)


def _cmd_dirichlet_list(args) -> int:
    chars = characters(args.modulus)
    if args.format == "json":
        print(json.dumps([chi.to_json() for chi in chars]))
    else:
        for chi in chars:
            values = ", ".join(
                f"chi({n})={chi(n)}" for n in range(1, min(chi.modulus + 1, 8))
            )
            prim = "primitive" if chi.to_json()["primitive"] else "imprimitive"
            print(
                f"modulus {chi.modulus} index {chi.index}: order {chi.order}, {prim}; {values}"
            )
    return 0


def _cmd_dirichlet_beta_chi(args) -> int:
    chi = character(args.modulus, args.index)
    b = beta_chi(chi, args.n)
    doc = {
        "modulus": args.modulus,
        "index": args.index,
        "n": args.n,
        "num": b.value.num.json_coeffs(),
        "den": b.value.den.json_coeffs(),
    }
    if args.format == "json":
        print(json.dumps(doc))
    else:
        print(f"beta_chi(mod {args.modulus} #{args.index}, n={args.n}) = {b.value}")
    return 0


def _cmd_dirichlet_verify(args) -> int:
    chi = character(args.modulus, args.index)
    ns = [args.n] if args.n is not None else list(range(1, args.max_n + 1))
    reports = [verify_chi(chi, k, backend=args.method) for k in ns]
    return _print_reports(reports, args.format)


def _cmd_zeta_apply(args) -> int:
    P = parse_poly(args.poly)
    spec = _spec_from_args(args, args.s)
    if args.method == "series":
        series = apply_series(spec, P, args.order)
        doc = series.to_json()
        if args.format == "json":
            print(json.dumps(doc))
        else:
            print(series)
        return 0
    result = (apply_geometric if args.method == "geometric" else apply_delta)(spec, P)
    doc = {
        "operator": str(spec),
        "branch": result.branch,
        "backend": result.backend,
        "num": result.value.num.json_coeffs(),
        "den": result.value.den.json_coeffs(),
    }
    if args.format == "json":
        print(json.dumps(doc))
    else:
        print(f"{spec} applied to {P}:")
        print(f"  {result.value}")
        if result.branch > 1:
            print(f"  (in {branch_var(result.branch)} = q^(1/{result.branch}))")
    return 0


def _cmd_zeta_euler(args) -> int:
    P = parse_poly(args.poly)
    lhs = euler_product_apply(args.s, P, args.prime_bound, args.order)
    rhs = apply_series(OperatorSpec.riemann(args.s), P, args.order)
    ok = lhs == rhs
    rep = CheckReport(
        f"Euler product = direct series (s={args.s}, primes<={args.prime_bound}, order {args.order})",
        ok,
    )
    return _print_reports([rep], args.format)


def _cmd_zeta_numeric(args) -> int:
    P = parse_poly(args.poly)
    x = _parse_fraction(args.x) if args.x is not None else None
    chi = character(args.modulus, args.index or 0) if args.modulus is not None else None
    value = numeric_apply(
        _parse_complex(args.s), _parse_complex(args.q0), P, args.eps, x=x, chi=chi
    )
    if args.format == "json":
        print(json.dumps({"re": value.real, "im": value.imag, "eps": args.eps}))
    else:
        print(f"{value.real!r} + {value.imag!r}i   (tail bound < {args.eps})")
    return 0


def _cmd_lemma_commute(args) -> int:
    reports = [
        check_commute(m, n, args.s, args.r_max)
        for m in range(1, args.max_mn + 1)
        for n in range(1, args.max_mn + 1)
    ]
    return _print_reports(reports, args.format)


def _cmd_roots_survey(args) -> int:
    chi = character(args.modulus, args.index or 0) if args.modulus is not None else None
    reports = beta_root_survey(
        args.max_n,
        tol=args.tol,
        chi=chi,
        tol_circle=args.tol_circle,
        tol_real=args.tol_real,
    )
    if args.format == "csv":
        print("n,re,im,abs,class,residual")
        for rep in reports:
            for entry in rep.to_json()["roots"]:
                print(
                    f"{rep.n},{entry['re']!r},{entry['im']!r},{entry['abs']!r},"
                    f"{entry['class']},{entry['residual']!r}"
                )
    elif args.format == "json":
        print(json.dumps([rep.to_json() for rep in reports]))
    else:
        for rep in reports:
            c = rep.counts
            print(
                f"n={rep.n}: degree {rep.degree}, "
                f"{c['real_positive']} real positive, "
                f"{c['on_unit_circle']} on the unit circle, "
                f"{c['complex_pairs_off_circle']} in off-circle complex pairs, "
                f"{c['other_real']} other real"
            )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qzeta",
        description="Exact q-deformed zeta/L operators and Bernoulli-Carlitz fractions.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    def add_format(p, csv=False):
        choices = ["text", "json", "csv"] if csv else ["text", "json"]
        p.add_argument("--format", choices=choices, default="text")

    # carlitz -----------------------------------------------------------------
    carlitz = top.add_parser("carlitz", help="Bernoulli-Carlitz fractions")
    sub = carlitz.add_subparsers(dest="command", required=True)

    p = sub.add_parser("beta", help="print beta_n")
    p.add_argument("--n", type=int)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--factored", action="store_true", help="cyclotomic denominator")
    add_format(p)
    p.set_defaults(func=_cmd_carlitz_beta)

    p = sub.add_parser("verify-theorem", help="beta_n = zeta_q(1-n)(q-(n+1)q^2)")
    p.add_argument("--n", type=int)
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--method", choices=["geometric", "delta", "series"], default="geometric")
    p.add_argument("--order", type=int, default=60, help="series comparison order")
    add_format(p)
    p.set_defaults(func=_cmd_carlitz_verify_theorem)

    p = sub.add_parser("genfun-check", help="functional equation of the generating function")
    p.add_argument("--order", type=int, default=12)
    add_format(p)
    p.set_defaults(func=_cmd_carlitz_genfun)

    # hurwitz -----------------------------------------------------------------
    hurwitz = top.add_parser("hurwitz", help="Hurwitz operator and q-Bernoulli polynomials")
    sub = hurwitz.add_subparsers(dest="command", required=True)

    p = sub.add_parser("beta", help="print beta_n(x)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", required=True, help='rational, e.g. "1/2"')
    add_format(p)
    p.set_defaults(func=_cmd_hurwitz_beta)

    p = sub.add_parser("verify", help="q^x beta_n(x) = zeta_q(1-n,x)(q-(n+1)q^2)")
    p.add_argument("--n", type=int)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--x", required=True)
    p.add_argument("--method", choices=["geometric", "delta", "series"], default="geometric")
    add_format(p)
    p.set_defaults(func=_cmd_hurwitz_verify)

    p = sub.add_parser("distribution-check", help="the distribution relation")
    p.add_argument("--modulus", type=int, required=True, help="N")
    p.add_argument("--x", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    add_format(p)
    p.set_defaults(func=_cmd_hurwitz_distribution)

    # dirichlet ----------------------------------------------------------------
    dirichlet = top.add_parser("dirichlet", help="Dirichlet characters and beta_chi")
    sub = dirichlet.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="enumerate characters mod N")
    p.add_argument("--modulus", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_dirichlet_list)

    p = sub.add_parser("beta-chi", help="print beta_{chi,n}")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_dirichlet_beta_chi)

    p = sub.add_parser("verify", help="beta_{chi,n} = L_q(chi,1-n)(q-(n+1)q^2)")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--method", choices=["geometric", "delta", "series"], default="geometric")
    add_format(p)
    p.set_defaults(func=_cmd_dirichlet_verify)

    # zeta ----------------------------------------------------------------------
    zeta = top.add_parser("zeta", help="apply the operators directly")
    sub = zeta.add_subparsers(dest="command", required=True)

    p = sub.add_parser("apply", help="apply zeta_q / zeta_q(.,x) / L_q(chi,.) to a polynomial")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--poly", required=True, help='e.g. "q-3*q^2" (no constant term)')
    p.add_argument("--method", choices=["geometric", "delta", "series"], default="geometric")
    p.add_argument("--order", type=int, default=20, help="series truncation order")
    p.add_argument("--x", help="Hurwitz parameter (rational)")
    p.add_argument("--modulus", type=int, help="character modulus")
    p.add_argument("--index", type=int, help="character index")
    add_format(p)
    p.set_defaults(func=_cmd_zeta_apply)

    p = sub.add_parser("euler-check", help="Euler product vs direct series")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--poly", default="q")
    p.add_argument("--prime-bound", type=int, required=True)
    p.add_argument("--order", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_zeta_euler)

    p = sub.add_parser("numeric", help="floating-point mode for complex s, |q0| < 1")
    p.add_argument("--s", required=True, help='complex: "re" or "re,im"')
    p.add_argument("--q0", required=True, help='complex: "re" or "re,im"')
    p.add_argument("--poly", required=True)
    p.add_argument("--eps", type=float, default=1e-12)
    p.add_argument("--x", help="Hurwitz parameter")
    p.add_argument("--modulus", type=int)
    p.add_argument("--index", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_zeta_numeric)

    # lemma -----------------------------------------------------------------------
    lemma = top.add_parser("lemma", help="operator identities")
    sub = lemma.add_subparsers(dest="command", required=True)

    p = sub.add_parser("commute-check", help="(F_m/[m]^s)(F_n/[n]^s) = F_mn/[mn]^s")
    p.add_argument("--max-mn", type=int, default=6)
    p.add_argument("--s", type=int, default=-1)
    p.add_argument("--r-max", type=int, default=3)
    add_format(p)
    p.set_defaults(func=_cmd_lemma_commute)

    # roots ----------------------------------------------------------------------
    roots = top.add_parser("roots", help="numerical root surveys")
    sub = roots.add_subparsers(dest="command", required=True)

    p = sub.add_parser("survey", help="root census of beta numerators")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--tol-circle", type=float, default=1e-6)
    p.add_argument("--tol-real", type=float, default=1e-6)
    p.add_argument("--modulus", type=int, help="survey beta_{chi,n} for a real character")
    p.add_argument("--index", type=int)
    add_format(p, csv=True)
    p.set_defaults(func=_cmd_roots_survey)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = getattr(args, "format", "text")
    try:
        return args.func(args)
    except (
        DomainError,
        ParseError,
        PoleError,
        ZeroDivisionError,
        ValueError,
        ArithmeticError,
    ) as exc:
        record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        if fmt == "json":
            print(json.dumps(record))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
