"""Output checks, computed apart from qzeta.

Nothing here imports qzeta: the values a child exports are checked
against Carlitz's explicit formula, an Akiyama-Tanigawa Bernoulli
recurrence, the defining q-series summed in mpmath with a bounded tail,
character values computed from a primitive root, and the relations
between the roots of a polynomial and its coefficients.

Each ``check_*`` function returns one entry per operation: ``None`` when
its output passed, else a short reason (a ``Raised`` one when the
operation raised instead of returning an output).
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

import mpmath as mp

class Raised(str):
    """The reason for an operation that raised: it failed, but it did not
    produce a wrong output."""


SERIES_TAIL = mp.mpf("1e-55")   # the partial sum stops once its tail is below this
SERIES_TOL = mp.mpf("1e-50")    # exact value and partial sum must agree this closely
ROOT_RESIDUAL = 1e-8
ROOT_TOTALS_TOL = 1e-8
CONJ_TOL = 1e-8


# ---------------------------------------------------------------------------
# exact values
# ---------------------------------------------------------------------------


def parse_coeff(c):
    """A JSON coefficient as (conductor, coordinates): "p/q" -> (1, [p/q])."""
    if isinstance(c, str):
        return 1, [Fraction(c)]
    return c["conductor"], [Fraction(x) for x in c["coords"]]


def rational_coeffs(coeffs) -> list[Fraction]:
    out = []
    for c in coeffs:
        if not isinstance(c, str):
            raise ValueError(f"coefficient {c} is not rational")
        out.append(Fraction(c))
    return out


def horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def poly_at(coeffs, point: Fraction):
    """Exact value of a JSON polynomial at a rational point, as
    (conductor, coordinates over 1, z, z^2, ...)."""
    parsed = [parse_coeff(c) for c in coeffs]
    m = max((cond for cond, _ in parsed), default=1)
    if any(cond not in (1, m) for cond, _ in parsed):
        raise ValueError("coefficients from different cyclotomic fields")
    width = max((len(xs) for _, xs in parsed), default=1)
    columns = ([xs[j] if j < len(xs) else 0 for _, xs in parsed] for j in range(width))
    return m, [horner(column, point) for column in columns]


def to_mp(m: int, coords):
    zeta = mp.expjpi(mp.mpf(2) / m)
    return sum((mp.mpf(c.numerator) / c.denominator * zeta ** j
                for j, c in enumerate(coords)), mp.mpc(0))


def ratfunc_at(record, point: Fraction):
    """num(point) / den(point) of an exported rational function, in mpmath."""
    return to_mp(*poly_at(record["num"], point)) / to_mp(*poly_at(record["den"], point))


# ---------------------------------------------------------------------------
# beta_table
# ---------------------------------------------------------------------------


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """B_0..B_n_max by the Akiyama-Tanigawa algorithm, with B_1 = -1/2."""
    row = [Fraction(0)] * (n_max + 1)
    out = []
    for m in range(n_max + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if n_max >= 1:
        out[1] = -out[1]
    return out


def carlitz_explicit(n: int, q: Fraction) -> Fraction:
    """beta_n(q) = (1-q)^(-n) sum_j (-1)^j C(n,j) (j+1)/[j+1], [k] = (1-q^k)/(1-q)."""
    total = sum((-1) ** j * comb(n, j) * (j + 1) * (1 - q) / (1 - q ** (j + 1))
                for j in range(n + 1))
    return total / (1 - q) ** n


def check_beta(record, points, bernoulli) -> str | None:
    """One beta_n against the explicit formula at the points, against B_n
    from ``bernoulli_numbers`` at q = 1, and for (anti-)palindromy."""
    n = record["n"]
    if "error" in record:
        return Raised(f"beta_{n} raised {record['error']}")
    try:
        num, den = rational_coeffs(record["num"]), rational_coeffs(record["den"])
    except ValueError as exc:
        return f"beta_{n}: {exc}"
    for q0 in points:
        d = horner(den, q0)
        if d == 0 or horner(num, q0) / d != carlitz_explicit(n, q0):
            return f"beta_{n}({q0}) differs from Carlitz's explicit formula"
    if sum(den) == 0 or sum(num) / sum(den) != bernoulli[n]:
        return f"beta_{n}(1) differs from B_{n}"
    if not any(num):
        return f"beta_{n} is zero"
    if n >= 2:
        core = num[next(i for i, c in enumerate(num) if c):]
        sign = 1 if n % 2 == 0 else -1
        if any(c != sign * r for c, r in zip(core, reversed(core))):
            kind = "palindromic" if sign == 1 else "anti-palindromic"
            return f"numerator of beta_{n} is not {kind}"
    return None


def check_beta_table(export, points, n_max: int) -> list[str | None]:
    by_n = {r["n"]: r for r in export}
    bernoulli = bernoulli_numbers(n_max)
    return [check_beta(by_n[n], points, bernoulli) if n in by_n else f"beta_{n} missing"
            for n in range(n_max + 1)]


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------


def character_values(modulus: int, index: int) -> list:
    """chi(0..p-1) for prime p: chi(g^t) = exp(2 pi i index t/(p-1)), g the
    least primitive root, chi = 0 on multiples of p."""
    p = modulus
    g = next(g for g in range(2, p)
             if len({pow(g, t, p) for t in range(p - 1)}) == p - 1) if p > 2 else 1
    values = [mp.mpc(0)] * p
    for t in range(p - 1):
        values[pow(g, t, p)] = mp.expjpi(mp.mpf(2 * index * t) / (p - 1))
    return values


def operator_series(op, v0: Fraction):
    """(value, tail bound) of the defining series of the operator in op,
    applied to q - (n+1) q^2, at v = v0 (v = q^(1/b) for Hurwitz x = a/b).

    Sums a_k [k]^(n-1) (v^c - (n+1) v^(2c)) over the index set, with
    |a_k| <= 1 and |[k]| <= 2/(1 - |v|^step), until the tail is below
    SERIES_TAIL."""
    kind = op[0]
    n = op[3] if kind == "chi" else op[1]
    chi = character_values(op[1], op[2]) if kind == "chi" else None
    if kind == "hurwitz":
        x = Fraction(op[2])
        first, step = x.numerator, x.denominator
    else:
        first, step = 1, 1
    v = mp.mpf(v0.numerator) / v0.denominator
    r = abs(v)
    bound = (2 / (1 - r ** step)) ** (n - 1) * (n + 2) / (1 - r ** step)
    total, c = mp.mpc(0), first
    while True:
        weight = chi[c % len(chi)] if chi is not None else 1
        bracket = (1 - v ** c) / (1 - v ** step)
        total += weight * bracket ** (n - 1) * (v ** c - (n + 1) * v ** (2 * c))
        c += step
        tail = bound * r ** c
        if tail < SERIES_TAIL:
            return total, tail


def check_sample_value(op, v0: Fraction, exact) -> str | None:
    """An exact operator value at v0 against the summed defining series."""
    with mp.workdps(80):
        partial, tail = operator_series(op, v0)
        if abs(mp.mpc(exact) - partial) > SERIES_TOL + tail:
            return f"{op} at {v0}: exact value differs from the series"
    return None


def check_relations(export, ops) -> list[str | None]:
    """The reports of one unit, in the order of ``ops`` (JSON-form lists)."""
    reports = export["reports"]
    out = []
    for op, rep in zip(ops, reports):
        if rep["op"] != list(op):
            out.append(f"report for {rep['op']} where {op} was expected")
        elif "error" in rep:
            out.append(Raised(f"{op} raised {rep['error']}"))
        elif rep["passed"] is not True:
            out.append(f"{op} reported passed={rep['passed']}")
        else:
            out.append(None)
    out += [f"{op} missing" for op in ops[len(reports):]]
    for sample in export["samples"]:
        i = sample["index"]
        if out[i] is None:
            with mp.workdps(80):
                exact = ratfunc_at(sample, Fraction(sample["point"]))
            out[i] = check_sample_value(sample["op"], Fraction(sample["point"]), exact)
    return out


# ---------------------------------------------------------------------------
# root_survey
# ---------------------------------------------------------------------------


def check_roots(report) -> str | None:
    """Count, census, conjugate symmetry, residuals and root sum/product."""
    n = report["n"]
    num = rational_coeffs(report["num"])
    if not any(num):
        return f"n={n}: zero numerator"
    cs = num[next(i for i, c in enumerate(num) if c):]  # q^k removed
    d = len(cs) - 1
    roots = [complex(re, im) for re, im in report["roots"]]
    if report["degree"] != d or len(roots) != d:
        return f"n={n}: {len(roots)} roots for degree {d}"
    if sum(report["counts"].values()) != len(roots):
        return f"n={n}: census counts do not add up to {len(roots)}"
    pool = list(roots)
    for z in roots:
        j = min(range(len(pool)), key=lambda k: abs(pool[k] - z.conjugate()))
        if abs(pool[j] - z.conjugate()) > CONJ_TOL * max(1.0, abs(z)):
            return f"n={n}: the conjugate of {z} is not a root"
        pool.pop(j)
    if d == 0:
        return None
    with mp.workdps(50):
        mcs = [mp.mpf(c.numerator) / c.denominator for c in cs]
        for z in roots:
            w = mp.mpc(z)
            value = abs(horner(mcs, w))
            scale = sum(abs(c) * abs(w) ** i for i, c in enumerate(mcs))
            if value > ROOT_RESIDUAL * scale:
                return f"n={n}: residual {float(value / scale):.2e} at {z}"
        total = sum((mp.mpc(z) for z in roots), mp.mpc(0))
        if abs(total + mcs[d - 1] / mcs[d]) > ROOT_TOTALS_TOL * max(
                1, sum(abs(z) for z in roots)):
            return f"n={n}: root sum differs from -a_(d-1)/a_d"
        product = mp.fprod(mp.mpc(z) for z in roots)
        expected = (-1) ** d * mcs[0] / mcs[d]
        if abs(product - expected) > ROOT_TOTALS_TOL * abs(expected):
            return f"n={n}: root product differs from (-1)^d a_0/a_d"
    return None


def check_root_survey(export, n_max: int) -> list[str | None]:
    if isinstance(export, dict):
        return [Raised(f"survey raised {export['error']}")] * (n_max - 1)
    by_n = {r["n"]: r for r in export}
    return [check_roots(by_n[n]) if n in by_n else f"n={n} missing"
            for n in range(2, n_max + 1)]
