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
from contextlib import contextmanager
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


def _emit(result, fmt: str) -> int:
    """Print a handler's result once: check reports with their verdict (exit
    1 if one failed), or a (document, text) pair's document in JSON mode,
    else its text unless empty."""
    failed = isinstance(result, list) and any(r.passed is False for r in result)
    if isinstance(result, list):
        verdict = "CHECKS FAILED" if failed else "all checks passed"
        doc = {"passed": not failed, "checks": [_report_doc(r) for r in result]}
        result = doc, "\n".join([r.summary() for r in result] + [verdict])
    doc, text = result
    if fmt == "json":
        print(json.dumps(doc))
    elif text:
        print(text)
    return 1 if failed else 0


def _beta_json(b: BetaFraction, factored: bool) -> dict:
    if factored:
        indices = []
        for k, mult in b.factored_denominator():
            indices.extend([k] * mult)
        return {"n": b.n, "num": str(b.value.num), "den_cyclotomic": indices}
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


def _ns(args, first: int) -> list[int]:
    """The indices asked for: --n alone, else first..--max-n."""
    return [args.n] if args.n is not None else list(range(first, args.max_n + 1))


def _chi_from_args(args):
    """The character --modulus/--index (index 0 if omitted), or None."""
    return character(args.modulus, args.index or 0) if args.modulus is not None else None


def _spec_from_args(args, s: int) -> OperatorSpec:
    if args.x is not None:
        return OperatorSpec.hurwitz(s, _parse_fraction(args.x))
    chi = _chi_from_args(args)
    return OperatorSpec.riemann(s) if chi is None else OperatorSpec.dirichlet_l(s, chi)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns check reports or a (document, text) pair
# ---------------------------------------------------------------------------


def _cmd_carlitz_beta(args):
    rows = [_beta_json(beta(k), args.factored) for k in _ns(args, 0)]
    lines = []
    for row in rows:
        den = row.get("den") or " ".join(f"Phi_{k}" for k in row["den_cyclotomic"]) or "1"
        lines.append(f"beta_{row['n']} = ({row['num']}) / ({den})")
    return rows[0] if args.n is not None else rows, "\n".join(lines)


def _cmd_carlitz_verify_theorem(args):
    return [
        verify_theorem(k, backend=args.method, series_order=args.order) for k in _ns(args, 2)
    ]


def _cmd_carlitz_genfun(args):
    return [genfun_check(args.order)]


def _cmd_hurwitz_beta(args):
    bp = beta_poly(args.n, _parse_fraction(args.x))
    doc = {
        "n": bp.n,
        "x": str(bp.x),
        "branch": bp.branch,
        "num": str(bp.value.num),
        "den": str(bp.value.den),
    }
    note = f"  (in {branch_var(bp.branch)} = q^(1/{bp.branch}))" if bp.branch > 1 else ""
    return doc, f"beta_{bp.n}({bp.x}) = ({doc['num']}) / ({doc['den']}){note}"


def _cmd_hurwitz_verify(args):
    x = _parse_fraction(args.x)
    return [verify_hurwitz(k, x, backend=args.method) for k in _ns(args, 0)]


def _cmd_hurwitz_distribution(args):
    return [check_distribution(args.modulus, _parse_fraction(args.x), args.s, args.r)]


def _cmd_dirichlet_list(args):
    chars = characters(args.modulus)
    docs = [chi.to_json() for chi in chars]
    lines = []
    for chi, doc in zip(chars, docs):
        values = ", ".join(
            f"chi({n})={chi(n)}" for n in range(1, min(chi.modulus + 1, 8))
        )
        prim = "primitive" if doc["primitive"] else "imprimitive"
        lines.append(
            f"modulus {chi.modulus} index {chi.index}: order {chi.order}, {prim}; {values}"
        )
    return docs, "\n".join(lines)


def _cmd_dirichlet_beta_chi(args):
    b = beta_chi(_chi_from_args(args), args.n)
    doc = {
        "modulus": args.modulus,
        "index": args.index,
        "n": args.n,
        "num": b.value.num.json_coeffs(),
        "den": b.value.den.json_coeffs(),
    }
    return doc, f"beta_chi(mod {args.modulus} #{args.index}, n={args.n}) = {b.value}"


def _cmd_dirichlet_verify(args):
    chi = _chi_from_args(args)
    return [verify_chi(chi, k, backend=args.method) for k in _ns(args, 1)]


def _cmd_zeta_apply(args):
    P = parse_poly(args.poly)
    spec = _spec_from_args(args, args.s)
    if args.method == "series":
        series = apply_series(spec, P, args.order)
        return series.to_json(), str(series)
    result = (apply_geometric if args.method == "geometric" else apply_delta)(spec, P)
    doc = {
        "operator": str(spec),
        "branch": result.branch,
        "backend": result.backend,
        "num": result.value.num.json_coeffs(),
        "den": result.value.den.json_coeffs(),
    }
    lines = [f"{spec} applied to {P}:", f"  {result.value}"]
    if result.branch > 1:
        lines.append(f"  (in {branch_var(result.branch)} = q^(1/{result.branch}))")
    return doc, "\n".join(lines)


def _cmd_zeta_euler(args):
    P = parse_poly(args.poly)
    lhs = euler_product_apply(args.s, P, args.prime_bound, args.order)
    rhs = apply_series(OperatorSpec.riemann(args.s), P, args.order)
    rep = CheckReport(
        f"Euler product = direct series (s={args.s}, primes<={args.prime_bound}, order {args.order})",
        lhs == rhs,
    )
    return [rep]


def _cmd_zeta_numeric(args):
    P = parse_poly(args.poly)
    x = _parse_fraction(args.x) if args.x is not None else None
    chi = _chi_from_args(args)
    value = numeric_apply(
        _parse_complex(args.s), _parse_complex(args.q0), P, args.eps, x=x, chi=chi
    )
    doc = {"re": value.real, "im": value.imag, "eps": args.eps}
    return doc, f"{value.real!r} + {value.imag!r}i   (tail bound < {args.eps})"


def _cmd_lemma_commute(args):
    return [
        check_commute(m, n, args.s, args.r_max)
        for m in range(1, args.max_mn + 1)
        for n in range(1, args.max_mn + 1)
    ]


def _cmd_roots_survey(args):
    reports = beta_root_survey(
        args.max_n,
        tol=args.tol,
        chi=_chi_from_args(args),
        tol_circle=args.tol_circle,
        tol_real=args.tol_real,
    )
    docs = [rep.to_json() for rep in reports]
    if args.format == "csv":
        lines = ["n,re,im,abs,class,residual"]
        for rep, doc in zip(reports, docs):
            for entry in doc["roots"]:
                lines.append(
                    f"{rep.n},{entry['re']!r},{entry['im']!r},{entry['abs']!r},"
                    f"{entry['class']},{entry['residual']!r}"
                )
    else:
        lines = []
        for rep in reports:
            c = rep.counts
            lines.append(
                f"n={rep.n}: degree {rep.degree}, "
                f"{c['real_positive']} real positive, "
                f"{c['on_unit_circle']} on the unit circle, "
                f"{c['complex_pairs_off_circle']} in off-circle complex pairs, "
                f"{c['other_real']} other real"
            )
    return docs, "\n".join(lines)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

METHODS = ["geometric", "delta", "series"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qzeta",
        description="Exact q-deformed zeta/L operators and Bernoulli-Carlitz fractions.",
    )
    top = parser.add_subparsers(dest="group", required=True)

    def group(name, help):
        p = top.add_parser(name, help=help)
        return p.add_subparsers(dest="command", required=True)

    @contextmanager
    def command(sub, name, help, func, formats=("text", "json")):
        # the block adds the command's own options; --format comes last
        p = sub.add_parser(name, help=help)
        yield p
        p.add_argument("--format", choices=list(formats), default="text")
        p.set_defaults(func=func)

    # carlitz -----------------------------------------------------------------
    sub = group("carlitz", "Bernoulli-Carlitz fractions")

    with command(sub, "beta", "print beta_n", _cmd_carlitz_beta) as p:
        p.add_argument("--n", type=int)
        p.add_argument("--max-n", type=int, default=4)
        p.add_argument("--factored", action="store_true", help="cyclotomic denominator")

    with command(sub, "verify-theorem", "beta_n = zeta_q(1-n)(q-(n+1)q^2)", _cmd_carlitz_verify_theorem) as p:
        p.add_argument("--n", type=int)
        p.add_argument("--max-n", type=int, default=6)
        p.add_argument("--method", choices=METHODS, default="geometric")
        p.add_argument("--order", type=int, default=60, help="series comparison order")

    with command(sub, "genfun-check", "functional equation of the generating function", _cmd_carlitz_genfun) as p:
        p.add_argument("--order", type=int, default=12)

    # hurwitz -----------------------------------------------------------------
    sub = group("hurwitz", "Hurwitz operator and q-Bernoulli polynomials")

    with command(sub, "beta", "print beta_n(x)", _cmd_hurwitz_beta) as p:
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--x", required=True, help='rational, e.g. "1/2"')

    with command(sub, "verify", "q^x beta_n(x) = zeta_q(1-n,x)(q-(n+1)q^2)", _cmd_hurwitz_verify) as p:
        p.add_argument("--n", type=int)
        p.add_argument("--max-n", type=int, default=4)
        p.add_argument("--x", required=True)
        p.add_argument("--method", choices=METHODS, default="geometric")

    with command(sub, "distribution-check", "the distribution relation", _cmd_hurwitz_distribution) as p:
        p.add_argument("--modulus", type=int, required=True, help="N")
        p.add_argument("--x", required=True)
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--r", type=int, default=1)

    # dirichlet ----------------------------------------------------------------
    sub = group("dirichlet", "Dirichlet characters and beta_chi")

    with command(sub, "list", "enumerate characters mod N", _cmd_dirichlet_list) as p:
        p.add_argument("--modulus", type=int, required=True)

    with command(sub, "beta-chi", "print beta_{chi,n}", _cmd_dirichlet_beta_chi) as p:
        p.add_argument("--modulus", type=int, required=True)
        p.add_argument("--index", type=int, required=True)
        p.add_argument("--n", type=int, required=True)

    with command(sub, "verify", "beta_{chi,n} = L_q(chi,1-n)(q-(n+1)q^2)", _cmd_dirichlet_verify) as p:
        p.add_argument("--modulus", type=int, required=True)
        p.add_argument("--index", type=int, required=True)
        p.add_argument("--n", type=int)
        p.add_argument("--max-n", type=int, default=4)
        p.add_argument("--method", choices=METHODS, default="geometric")

    # zeta ----------------------------------------------------------------------
    sub = group("zeta", "apply the operators directly")

    with command(sub, "apply", "apply zeta_q / zeta_q(.,x) / L_q(chi,.) to a polynomial", _cmd_zeta_apply) as p:
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--poly", required=True, help='e.g. "q-3*q^2" (no constant term)')
        p.add_argument("--method", choices=METHODS, default="geometric")
        p.add_argument("--order", type=int, default=20, help="series truncation order")
        p.add_argument("--x", help="Hurwitz parameter (rational)")
        p.add_argument("--modulus", type=int, help="character modulus")
        p.add_argument("--index", type=int, help="character index")

    with command(sub, "euler-check", "Euler product vs direct series", _cmd_zeta_euler) as p:
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--poly", default="q")
        p.add_argument("--prime-bound", type=int, required=True)
        p.add_argument("--order", type=int, required=True)

    with command(sub, "numeric", "floating-point mode for complex s, |q0| < 1", _cmd_zeta_numeric) as p:
        p.add_argument("--s", required=True, help='complex: "re" or "re,im"')
        p.add_argument("--q0", required=True, help='complex: "re" or "re,im"')
        p.add_argument("--poly", required=True)
        p.add_argument("--eps", type=float, default=1e-12)
        p.add_argument("--x", help="Hurwitz parameter")
        p.add_argument("--modulus", type=int)
        p.add_argument("--index", type=int)

    # lemma -----------------------------------------------------------------------
    sub = group("lemma", "operator identities")

    with command(sub, "commute-check", "(F_m/[m]^s)(F_n/[n]^s) = F_mn/[mn]^s", _cmd_lemma_commute) as p:
        p.add_argument("--max-mn", type=int, default=6)
        p.add_argument("--s", type=int, default=-1)
        p.add_argument("--r-max", type=int, default=3)

    # roots ----------------------------------------------------------------------
    sub = group("roots", "numerical root surveys")

    with command(sub, "survey", "root census of beta numerators", _cmd_roots_survey, ("text", "json", "csv")) as p:
        p.add_argument("--max-n", type=int, required=True)
        p.add_argument("--tol", type=float, default=1e-12)
        p.add_argument("--tol-circle", type=float, default=1e-6)
        p.add_argument("--tol-real", type=float, default=1e-6)
        p.add_argument("--modulus", type=int, help="survey beta_{chi,n} for a real character")
        p.add_argument("--index", type=int)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _emit(args.func(args), args.format)
    except (ValueError, ArithmeticError) as exc:  # DomainError, ParseError, PoleError among them
        record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        if args.format == "json":
            print(json.dumps(record))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
