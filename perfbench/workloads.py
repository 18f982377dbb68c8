"""The three workloads: what a child process sets up, times and exports.

Each workload is a fixed grid of inputs.  A *unit* is one pass over the
grid in a fresh child process; every item of the grid is one operation.
The seed never changes the timed work: it only picks the points and the
sample at which the outputs are checked, so two seeds time the same thing.

Everything here reaches qzeta through the module object handed in by the
child, and only through the package's public names.  ``check`` runs in the
parent, on the export alone.
"""
from __future__ import annotations

import random
from fractions import Fraction

import checks

# beta_table: beta_0 .. beta_N built from cold
BETA_N = 40

# relations: the rational half (Euler-type, Hurwitz, real characters) ...
THEOREM_N = range(2, 19)
THEOREM_BACKENDS = ("geometric", "delta", "series")
HURWITZ_X = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 4))
HURWITZ_N = range(1, 7)
EXACT_BACKENDS = ("geometric", "delta")
REAL_CHARS = ((5, 2), (7, 3))  # (modulus, index): the quadratic characters
REAL_N = range(1, 7)
# ... and the Q(zeta_m) half (characters of order 4 mod 5, 3 and 6 mod 7)
COMPLEX_CHARS = {(5, 1): range(1, 4), (5, 3): range(1, 4),
                 (7, 1): range(1, 3), (7, 2): range(1, 3),
                 (7, 4): range(1, 3), (7, 5): range(1, 3)}
RELATIONS_TABLE_N = max(THEOREM_N)

# root_survey: beta_root_survey(SURVEY_N) with beta_0 .. beta_SURVEY_N in set-up
SURVEY_N = 21

# rational check points: never 0 or +-1 (beta_n has poles only on |q| = 1),
# and |q0| <= 1/2 where a series must converge
CHECK_POINTS = tuple(Fraction(a, b) for a, b in
                     ((2, 1), (-2, 1), (3, 1), (-3, 2), (1, 3), (-1, 3),
                      (2, 5), (-2, 5), (1, 2), (-1, 2), (3, 7), (5, 4)))
SERIES_POINTS = tuple(p for p in CHECK_POINTS if abs(p) <= Fraction(1, 2))


def relation_ops() -> list[tuple]:
    """Every relation of one relations unit, in order:
    ("theorem", n, backend), ("hurwitz", n, x, backend),
    ("chi", modulus, index, n, backend)."""
    ops: list[tuple] = []
    for backend in THEOREM_BACKENDS:
        ops += [("theorem", n, backend) for n in THEOREM_N]
    for x in HURWITZ_X:
        for backend in EXACT_BACKENDS:
            ops += [("hurwitz", n, x, backend) for n in HURWITZ_N]
    chars = [(key, REAL_N) for key in REAL_CHARS] + list(COMPLEX_CHARS.items())
    for (modulus, index), ns in chars:
        for backend in EXACT_BACKENDS:
            ops += [("chi", modulus, index, n, backend) for n in ns]
    return ops


def beta_points(seed: int) -> list[Fraction]:
    """Three rational points at which beta_n is checked exactly."""
    return random.Random(seed).sample(CHECK_POINTS, 3)


def relation_sample(seed: int) -> list[tuple[tuple, Fraction]]:
    """One exactly-evaluated relation of each kind, with its point v0.

    Picks a theorem case, a Hurwitz case, a real-character case and a
    complex-character case, each with an exact backend; the point is the
    value of the operator's variable (q, or v = q^(1/b) on branch b)."""
    rng = random.Random(seed)
    ops = [op for op in relation_ops() if op[-1] in EXACT_BACKENDS]
    kinds = (
        [op for op in ops if op[0] == "theorem"],
        [op for op in ops if op[0] == "hurwitz"],
        [op for op in ops if op[0] == "chi" and (op[1], op[2]) in REAL_CHARS],
        [op for op in ops if op[0] == "chi" and (op[1], op[2]) in COMPLEX_CHARS],
    )
    return [(rng.choice(group), rng.choice(SERIES_POINTS)) for group in kinds]


# ---------------------------------------------------------------------------
# child side: set-up, the timed unit, and the export of its outputs
# ---------------------------------------------------------------------------


class BetaTable:
    name = "beta_table"
    ops = BETA_N + 1  # one per beta_n

    def setup(self, qz):
        return None

    def unit(self, qz, state):
        out = []
        for n in range(BETA_N + 1):
            try:
                out.append(qz.beta(n).value)
            except Exception as exc:  # counted as a failed operation
                out.append(exc)
        return out

    def export(self, qz, state, results, seed):
        return [{"n": n, "error": repr(r)} if isinstance(r, Exception)
                else {"n": n, **r.to_json()} for n, r in enumerate(results)]

    def check(self, export, seed):
        return checks.check_beta_table(export, beta_points(seed), BETA_N)


class Relations:
    name = "relations"
    ops = len(relation_ops())

    def setup(self, qz):
        qz.beta(RELATIONS_TABLE_N)
        chars = {key: qz.character(*key) for key in (*REAL_CHARS, *COMPLEX_CHARS)}
        return {"chars": chars, "ops": relation_ops()}

    def _call(self, qz, chars, op):
        if op[0] == "theorem":
            return qz.verify_theorem(op[1], op[2])
        if op[0] == "hurwitz":
            return qz.verify_hurwitz(op[1], op[2], op[3])
        return qz.verify_chi(chars[op[1], op[2]], op[3], op[4])

    def unit(self, qz, state):
        out = []
        for op in state["ops"]:
            try:
                out.append(self._call(qz, state["chars"], op).passed)
            except Exception as exc:  # counted as a failed operation
                out.append(exc)
        return out

    def export(self, qz, state, results, seed):
        reports = [{"op": _op_json(op), "passed": r} if not isinstance(r, Exception)
                   else {"op": _op_json(op), "error": repr(r)}
                   for op, r in zip(state["ops"], results)]
        samples = []
        for op, point in relation_sample(seed):
            if op[0] == "theorem":
                n, spec = op[1], qz.OperatorSpec.riemann(1 - op[1])
            elif op[0] == "hurwitz":
                n, spec = op[1], qz.OperatorSpec.hurwitz(1 - op[1], op[2])
            else:
                n = op[3]
                spec = qz.OperatorSpec.dirichlet_l(1 - n, state["chars"][op[1], op[2]])
            apply = qz.apply_geometric if op[-1] == "geometric" else qz.apply_delta
            value = apply(spec, qz.Poly([0, 1, -(n + 1)])).value
            samples.append({"op": _op_json(op), "point": str(point),
                            "index": state["ops"].index(op), **value.to_json()})
        return {"reports": reports, "samples": samples}

    def check(self, export, seed):
        return checks.check_relations(export, [_op_json(op) for op in relation_ops()])


def _op_json(op: tuple) -> list:
    return [str(x) if isinstance(x, Fraction) else x for x in op]


class RootSurvey:
    name = "root_survey"
    ops = SURVEY_N - 1  # one per n = 2..SURVEY_N

    def setup(self, qz):
        qz.beta(SURVEY_N)

    def unit(self, qz, state):
        try:
            return qz.beta_root_survey(SURVEY_N)
        except Exception as exc:  # every report of the unit fails
            return exc

    def export(self, qz, state, results, seed):
        if isinstance(results, Exception):
            return {"error": repr(results)}
        return [{"n": r.n, "degree": r.degree, "counts": r.counts,
                 "roots": [[z.real, z.imag] for z in r.roots],
                 "num": qz.beta(r.n).value.num.json_coeffs()} for r in results]

    def check(self, export, seed):
        return checks.check_root_survey(export, SURVEY_N)


WORKLOADS = {w.name: w for w in (BetaTable(), Relations(), RootSurvey())}
