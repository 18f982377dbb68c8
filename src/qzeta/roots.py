"""Numerical root finding and classification for Bernoulli-Carlitz
numerators.

The solver is a simultaneous Aberth-Ehrlich iteration whose iterates and
polynomial values are held in fixed-point integers of well beyond 80
bits, warm-started from double-precision sweeps of the same iteration on
one table of powers, which stop once the largest correction has stalled,
since the fixed-point stage decides convergence.  Exact preprocessing
strips the monomial root at 0 and known cyclotomic content before
anything floating-point happens, so exactly-known unit-circle roots never
burden the solve.  Survey residuals come from the same fixed-point Horner
evaluation, three integer products a complex step.  Everything is
deterministic given (polynomial, tol); no sum goes through BLAS.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, inf, isqrt, ldexp, log10, pi

import numpy as np

from .poly import Poly, divide_out_cyclotomic
from .ratfunc import RatFunc


class RootFindingError(ArithmeticError):
    """Aberth iteration failed to converge; carries partial diagnostics."""

    def __init__(self, message: str, roots=None, max_update=None):
        super().__init__(message)
        self.roots = roots or []
        self.max_update = max_update


@dataclass
class RootReport:
    """Roots of one beta numerator with residuals and a circle/real census."""

    n: int
    degree: int
    roots: list[complex]
    residuals: list[float]
    counts: dict[str, int]
    tol_circle: float
    tol_real: float
    cyclotomic_factors: list[tuple[int, int]] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "degree": self.degree,
            "counts": self.counts,
            "tol_circle": self.tol_circle,
            "tol_real": self.tol_real,
            "cyclotomic_factors": [list(f) for f in self.cyclotomic_factors],
            "roots": [
                {
                    "re": z.real,
                    "im": z.imag,
                    "abs": abs(z),
                    "class": _classify_one(z, self.tol_circle, self.tol_real),
                    "residual": r,
                }
                for z, r in zip(self.roots, self.residuals)
            ],
        }


def find_roots(p: Poly, tol: float = 1e-12, max_iter: int = 400) -> list[complex]:
    """All complex roots of a rational-coefficient polynomial.

    Roots at 0 are stripped exactly and reported exactly; the rest come
    from the Aberth iteration, converged when the largest update drops
    below tol.  Raises RootFindingError (with partial roots) if the
    iteration does not settle within max_iter sweeps.
    """
    if not isinstance(p, Poly) or p.is_zero():
        raise ValueError("find_roots needs a nonzero polynomial")
    if p.m != 1:
        raise ValueError(f"find_roots needs rational coefficients, not Q(zeta_{p.m})")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    bits = _working_bits(tol)
    if p.degree < 1:
        return []
    coeffs = list(p.lanes[0])  # p times its denominator: the same roots
    nzeros = next(i for i, c in enumerate(coeffs) if c)
    coeffs, roots = coeffs[nzeros:], [0j] * nzeros
    deg = len(coeffs) - 1
    if deg == 0:
        return roots
    if deg == 1:
        roots.append(complex(Fraction(-coeffs[0], coeffs[1])))
        return roots
    start, _ = _warm_start(coeffs)
    roots.extend(_aberth_fixed(coeffs, start, tol, max_iter, bits))
    return roots


def _working_bits(tol: float) -> int:
    """Fixed-point fractional bits for a target tol: 25 decimal digits
    beyond tol and at least 40, converted with one guard digit at log2(10)
    bits per digit (3321928094887362 / 10^15), rounded to the nearest bit."""
    if not 0 < tol < inf:  # NaN fails the comparison too
        raise ValueError("tol must be a positive finite number")
    digits = max(40, int(-log10(tol)) + 25)
    return ((digits + 1) * 3321928094887362 + 5 * 10**14) // 10**15


_GOLDEN = 0.6180339887498949
_STALL_SWEEPS = 20  # warm-start sweeps without a new smallest correction


def _warm_start(coeffs: list[int]) -> tuple[list[complex], int]:
    """Double-precision Aberth sweeps from perturbed-circle starts: the
    seeds and the number of sweeps.  A sweep takes p and p' at every iterate
    from one table of powers z^k, built by doubling and contracted with the
    coefficients by einsum, which adds in order of k (BLAS, in its kernel's
    order).  Diverging iterates are reset deterministically.  The sweeps
    stop when the largest correction, relative to max(1, |z|), falls below
    1e-13, or when it has set no new minimum for _STALL_SWEEPS sweeps:
    doubles near a cluster of roots stop improving long before that bound,
    and the seeds only start the extended-precision stage, which owns it."""
    deg = len(coeffs) - 1
    scale = max(abs(c) for c in coeffs)
    cs = np.array([c / scale for c in coeffs])
    r0 = abs(cs[0]) ** (1.0 / deg) or 1.0  # 1 when p(0) = 0
    ks = np.arange(deg)
    wobble = 1.0 + 0.02 * (((ks * 37) % 11) - 5) / 11.0
    z = r0 * wobble * np.exp(1j * (2 * np.pi * (ks + 0.35) / deg))
    cols = np.array([cs, np.append(cs[1:] * np.arange(1, deg + 1), 0.0)])
    zk = np.ones((deg + 1, deg), complex)  # row k holds z^k
    zf = zk.view(float)  # cols are real: contract re and im parts alike
    diffs = np.empty((deg, deg), complex)  # z_i - z_j, then its reciprocal
    doublings = [1 << e for e in range((deg - 1).bit_length())]
    resets, best, stalled = 0, inf, 0
    with np.errstate(all="ignore"):
        for sweeps in range(1, 601):
            zk[1] = z
            for k in doublings:  # z^(k+1..2k) = z^(1..k) z^k
                np.multiply(zk[1 : min(k, deg - k) + 1], zk[k], out=zk[k + 1 : 2 * k + 1])
            pz, dz = np.einsum("ck,kj->cj", cols, zf).view(complex)  # p and p'
            w = pz / np.where(np.abs(dz) < 1e-300, 1.0, dz)
            np.subtract.outer(z, z, out=diffs)
            diffs.flat[:: deg + 1] = inf  # drops j = i from the Aberth sum
            S = np.divide(1.0, diffs, out=diffs).sum(axis=1)
            corr = w / (1.0 - w * S)
            corr = np.where(np.isfinite(corr), corr, w)
            corr = np.where(np.isfinite(corr), corr, 0.0)
            z = z - corr
            bad = ~np.isfinite(z) | (np.abs(z) > 1e9)
            if bad.any():
                for i in np.nonzero(bad)[0]:
                    resets += 1
                    z[i] = 1.5 * r0 * np.exp(2j * np.pi * _GOLDEN * resets)
                continue
            update = np.abs(corr).max() / max(1.0, np.abs(z).max())
            if update < 1e-13:
                break
            if update < best:
                best, stalled = update, 0
            else:
                stalled += 1
                if stalled >= _STALL_SWEEPS:
                    break
    z = np.where(np.isfinite(z), z, 0)
    return list(z), sweeps


def _aberth_fixed(coeffs: list[int], start, tol: float, max_iter: int, bits: int):
    """Aberth sweeps with the iterates held in fixed point, scaled by 2^bits.

    Only p(z) must be exact to many more bits than a double holds: it
    decides where the iteration stops.  It and p'(z) are evaluated in
    integer arithmetic; the Newton ratio, the Aberth sum and the correction
    need relative accuracy only, so they are doubles.  The sum takes each
    difference z_i - z_j from a double-double split of the iterates, which
    keeps it accurate for clustered roots.  Doubles enter fixed point by _fixed.
    """
    deg = len(coeffs) - 1
    one = 1 << bits
    zr = [_fixed(w.real, bits) for w in start]
    zi = [_fixed(w.imag, bits) for w in start]
    shifted = [c << bits for c in reversed(coeffs)]
    freeze = tol / 8  # roots this settled stop moving but keep repelling
    done = [False] * deg
    for _ in range(max_iter):
        (re_hi, re_lo), (im_hi, im_lo) = _split(zr, bits), _split(zi, bits)
        z_hi = re_hi + 1j * im_hi
        z_lo = re_lo + 1j * im_lo
        with np.errstate(all="ignore"):
            diffs = (z_hi[:, None] - z_hi[None, :]) + (z_lo[:, None] - z_lo[None, :])
            inv = np.where(diffs != 0, 1 / diffs, 0)
        sums = inv.sum(axis=1)
        max_update = 0.0
        steps = []
        for i in range(deg):
            if done[i]:
                continue
            pr, pi_, dr, di = _horner_fixed(shifted, zr[i], zi[i], bits)
            den = dr * dr + di * di
            try:
                if den == 0:  # p'(z) = 0: take a plain step w = p(z)
                    w = complex(pr / one, pi_ / one)
                else:
                    w = complex((pr * dr + pi_ * di) / den, (pi_ * dr - pr * di) / den)
                denom = 1 - w * complex(sums[i])
                corr = w / denom if denom != 0 else w
                steps.append((i, _fixed(corr.real, bits), _fixed(corr.imag, bits)))
            except (OverflowError, ValueError):  # Fraction(inf) and Fraction(NaN) raise too
                raise RootFindingError(
                    "Aberth iteration diverged",
                    roots=[complex(r / one, s / one) for r, s in zip(zr, zi)],
                    max_update=inf,
                ) from None
            au = abs(corr)
            if au < freeze:
                done[i] = True
            max_update = max(max_update, au)
        for i, sr, si in steps:
            zr[i] -= sr
            zi[i] -= si
        if max_update < tol:
            return [complex(r / one, s / one) for r, s in zip(zr, zi)]
    raise RootFindingError(
        f"Aberth iteration did not converge below {tol} in {max_iter} sweeps "
        f"(last update {max_update:.3e})",
        roots=[complex(r / one, s / one) for r, s in zip(zr, zi)],
        max_update=max_update,
    )


def _fixed(x: float, bits: int) -> int:
    """int(Fraction(x) * 2^bits): exactly ldexp while x 2^bits < 2^1024, Fraction past it."""
    return int(ldexp(x, bits)) if abs(x) < 2.0 ** (1024 - bits) else int(Fraction(x) * (1 << bits))


def _split(xs: list[int], bits: int) -> tuple[np.ndarray, np.ndarray]:
    """x / 2^bits as double-double pairs: hi rounded, lo = x / 2^bits - hi."""
    one = 1 << bits
    hi = [x / one for x in xs]
    lo = [(x - _fixed(h, bits)) / one for x, h in zip(xs, hi)]
    return np.array(hi), np.array(lo)


def _horner_fixed(shifted: list[int], xr: int, xi: int, bits: int):
    """p(x) and p'(x) at the fixed-point x = (xr + i xi) / 2^bits, both
    scaled by 2^bits, for p's integer coefficients times 2^bits, highest
    degree first.  A step (a + ib) x takes three products, k = xr (a + b),
    k - b (xr + xi) and k + a (xi - xr): the four-product form's integers."""
    s, t = xr + xi, xi - xr
    pr, pi_ = shifted[0], 0
    dr = di = 0
    for c in shifted[1:]:
        k = xr * (dr + di)
        dr, di = ((k - di * s) >> bits) + pr, ((k + dr * t) >> bits) + pi_
        k = xr * (pr + pi_)
        pr, pi_ = ((k - pi_ * s) >> bits) + c, (k + pr * t) >> bits
    return pr, pi_, dr, di


def _horner_value(shifted: list[int], xr: int, xi: int, bits: int):
    """p(x) alone, by the recurrence of _horner_fixed, scaled by 2^bits."""
    s, t = xr + xi, xi - xr
    pr, pi_ = shifted[0], 0
    for c in shifted[1:]:
        k = xr * (pr + pi_)
        pr, pi_ = ((k - pi_ * s) >> bits) + c, (k + pr * t) >> bits
    return pr, pi_


def _classify_one(z: complex, tol_circle: float, tol_real: float) -> str:
    if abs(abs(z) - 1) <= tol_circle:
        return "on_unit_circle"
    if abs(z.imag) <= tol_real:
        return "real_positive" if z.real > 0 else "other_real"
    return "complex_pairs_off_circle"


def classify_roots(
    roots, tol_circle: float = 1e-6, tol_real: float = 1e-6
) -> dict[str, int]:
    """Census of a root list: the circle test wins over the realness test
    (so -1 counts as on_unit_circle), and off-circle complex roots are
    counted individually, conjugate pairs contributing two."""
    counts = dict.fromkeys(
        ("real_positive", "on_unit_circle", "complex_pairs_off_circle", "other_real"), 0
    )
    for z in roots:
        counts[_classify_one(complex(z), tol_circle, tol_real)] += 1
    return counts


_RESIDUAL_BITS = _working_bits(1e-15)  # 136, the solver's bits at tol >= 1e-15


def _residuals(coeffs: list[int], roots: list[complex]) -> list[float]:
    """|p(z)| normalized by max|coeff| * max(1, |z|)^deg.

    p(z) comes from the value-only fixed-point Horner at _RESIDUAL_BITS
    fractional bits; the solver's roots are multiples of 2^-136, so _fixed
    converts them exactly.  The quotient is taken in
    integers: |p(z)| 2^bits to at least 120 bits by isqrt, then one
    correctly rounded integer division.
    """
    deg = len(coeffs) - 1
    scale = max(abs(c) for c in coeffs)
    bits = _RESIDUAL_BITS
    shifted = [c << bits for c in reversed(coeffs)]
    out = []
    for z in roots:
        pr, pi_ = _horner_value(shifted, _fixed(z.real, bits), _fixed(z.imag, bits), bits)
        sq = pr * pr + pi_ * pi_
        k = max(0, 121 - sq.bit_length() // 2)
        val = isqrt(sq << (2 * k))  # floor(|p(z)| 2^(bits + k))
        num, den = max(1.0, abs(z)).as_integer_ratio()
        out.append(val * den**deg / ((scale * num**deg) << (bits + k)))
    return out


def beta_root_survey(
    n_max: int,
    tol: float = 1e-12,
    chi=None,
    tol_circle: float = 1e-6,
    tol_real: float = 1e-6,
) -> list[RootReport]:
    """Root census of the numerators of beta_n (or beta_{chi,n} for a real
    character chi) for 2 <= n <= n_max.

    Known content is removed exactly before the numerical solve: the
    monomial q^k, then cyclotomic factors by trial division (their roots
    re-enter the report as exact roots of unity).  Reported degree is the
    numerator degree after stripping the monomial only.
    """
    if n_max < 2:
        raise ValueError("survey needs n_max >= 2")
    _working_bits(tol)  # rejects a tol that is not positive and finite
    from .carlitz import beta, beta_chi

    if chi is not None and not chi.is_real():
        raise ValueError("surveys of beta_{chi,n} support real characters only")
    reports = []
    for n in range(2, n_max + 1):
        value: RatFunc = (beta_chi(chi, n) if chi is not None else beta(n)).value
        coeffs = list(value.num.lanes[0])  # real characters: one rational lane
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
        stripped = Poly(coeffs)
        degree = stripped.degree
        if degree < 1:
            reports.append(
                RootReport(n, max(degree, 0), [], [], classify_roots([]), tol_circle, tol_real)
            )
            continue
        limits = dict.fromkeys(range(1, n + 2), inf)
        residual_poly, cyclo_factors = divide_out_cyclotomic(stripped, limits)
        roots: list[complex] = []
        for d, mult in cyclo_factors:
            unity = [cmath.exp(2j * pi * k / d) for k in range(d) if gcd(k, d) == 1]
            roots.extend(unity * mult)
        if residual_poly.degree >= 1:
            roots.extend(find_roots(residual_poly, tol))
        residuals = _residuals(coeffs, roots)
        reports.append(
            RootReport(
                n,
                degree,
                roots,
                residuals,
                classify_roots(roots, tol_circle, tol_real),
                tol_circle,
                tol_real,
                cyclo_factors,
            )
        )
    return reports
