"""The `qzeta` command's contracts: each command prints through one path
(one JSON document per command in JSON mode, one error record on a
failure), and the parser surface (options, defaults, types, choices,
required flags, help strings, their order) stays as pinned."""
import argparse
import json
import shlex

import pytest

from qzeta.cli import build_parser, main

# one small argv per command
COMMANDS = {
    "carlitz beta": "--max-n 2",
    "carlitz verify-theorem": "--n 2",
    "carlitz genfun-check": "--order 4",
    "hurwitz beta": "--n 1 --x 1/2",
    "hurwitz verify": "--x 1/2 --max-n 1",
    "hurwitz distribution-check": "--modulus 2 --x 1/2 --s -1",
    "dirichlet list": "--modulus 4",
    "dirichlet beta-chi": "--modulus 3 --index 1 --n 1",
    "dirichlet verify": "--modulus 3 --index 1 --n 1",
    "zeta apply": "--s -1 --poly q",
    "zeta euler-check": "--s -1 --prime-bound 5 --order 5",
    "zeta numeric": "--s -1 --q0 0.5 --poly q",
    "lemma commute-check": "--max-mn 2 --r-max 1",
    "roots survey": "--max-n 3",
}


def run(capsys, command):
    code = main(shlex.split(command))
    out = capsys.readouterr()
    return code, out.out, out.err


def parser_levels(parser, path=()):
    """(command path, parser) for the top level, each group and each command."""
    yield " ".join(path), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from parser_levels(sub, path + (name,))


def test_every_command_has_an_example():
    commands = {path for path, p in parser_levels(build_parser()) if path.count(" ") == 1}
    assert commands == set(COMMANDS)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_json_mode_prints_one_document(capsys, command):
    code, out, err = run(capsys, f"{command} {COMMANDS[command]} --format json")
    assert code == 0 and err == ""
    assert out.endswith("\n") and out.count("\n") == 1
    json.loads(out)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_failing_command_prints_one_error_record(capsys, fmt):
    code, out, err = run(capsys, f"carlitz beta --n -1 --format {fmt}")
    message = "beta index must be >= 0"
    assert code == 2
    if fmt == "json":
        record = {"error": {"type": "ValueError", "message": message}}
        assert (json.loads(out), out.count("\n"), err) == (record, 1, "")
    else:
        assert (out, err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("command, printed", [
    ("carlitz beta --max-n -1", ""),
    ("carlitz beta --max-n -1 --format json", "[]\n"),
    ("hurwitz verify --x 1/2 --max-n -1", "all checks passed\n"),
    ("hurwitz verify --x 1/2 --max-n -1 --format json", '{"passed": true, "checks": []}\n'),
])
def test_empty_ranges(capsys, command, printed):
    # no row prints no line, not an empty one; a check command still prints its verdict
    assert run(capsys, command) == (0, printed, "")


def surface(parser):
    """Each action but -h as (option strings, dest, default, type name,
    choices, required, help); a command group's choices are its commands
    with their help strings."""
    rows = []
    for a in parser._actions:
        if isinstance(a, argparse._HelpAction):
            continue
        if isinstance(a, argparse._SubParsersAction):
            choices = tuple((c.dest, c.help) for c in a._choices_actions)
        else:
            choices = None if a.choices is None else tuple(a.choices)
        rows.append((tuple(a.option_strings), a.dest, a.default, getattr(a.type, "__name__", None),
                     choices, a.required, a.help))
    return rows


def test_parser_surface_is_pinned():
    levels = [(path, surface(p)) for path, p in parser_levels(build_parser())]
    assert levels == list(SURFACE.items())


SURFACE = {
    '': [
        ((), 'group', None, None, (('carlitz', 'Bernoulli-Carlitz fractions'), ('hurwitz', 'Hurwitz operator and q-Bernoulli polynomials'), ('dirichlet', 'Dirichlet characters and beta_chi'), ('zeta', 'apply the operators directly'), ('lemma', 'operator identities'), ('roots', 'numerical root surveys')), True, None),
    ],
    'carlitz': [
        ((), 'command', None, None, (('beta', 'print beta_n'), ('verify-theorem', 'beta_n = zeta_q(1-n)(q-(n+1)q^2)'), ('genfun-check', 'functional equation of the generating function')), True, None),
    ],
    'carlitz beta': [
        (('--n',), 'n', None, 'int', None, False, None),
        (('--max-n',), 'max_n', 4, 'int', None, False, None),
        (('--factored',), 'factored', False, None, None, False, 'cyclotomic denominator'),
        (('--format',), 'format', 'text', None, ('text', 'json'), False, None),
    ],
    'carlitz verify-theorem': [
        (('--n',), 'n', None, 'int', None, False, None),
        (('--max-n',), 'max_n', 6, 'int', None, False, None),
        (('--method',), 'method', 'geometric', None, ('geometric', 'delta', 'series'), False, None),
        (('--order',), 'order', 60, 'int', None, False, 'series comparison order'),
        (('--format',), 'format', 'text', None, ('text', 'json'), False, None),
    ],
    'carlitz genfun-check': [
        (('--order',), 'order', 12, 'int', None, False, None),
        (('--format',), 'format', 'text', None, ('text', 'json'), False, None),
    ],
    'hurwitz': [
        ((), 'command', None, None, (('beta', 'print beta_n(x)'), ('verify', 'q^x beta_n(x) = zeta_q(1-n,x)(q-(n+1)q^2)'), ('distribution-check', 'the distribution relation')), True, None),
    ],
    'hurwitz beta': [
        (('--n',), 'n', None, 'int', None, True, None),
        (('--x',), 'x', None, None, None, True, 'rational, e.g. "1/2"'),
        (('--format',), 'format', 'text', None, ('text', 'json'), False, None),
    ],
    'hurwitz verify': [
        (('--n',), 'n', None, 'int', None, False, None),
        (('--max-n',), 'max_n', 4, 'int', None, False, None),
        (('--x',), 'x', None, None, None, True, None),
        (('--method',), 'method', 'geometric', None, ('geometric', 'delta', 'series'), False, None),
        (('--format',), 'format', 'text', None, ('text', 'json'), False, None),
    ],
    'hurwitz distribution-check': [
        (('--modulus',), 'modulus', None, 'int', None, True, 'N'),
        (('--x',), 'x', None, None, None, True, None),
        (('--s',), 's', None, 'int', None, True, None),
        (('--r',), 'r', 1, 'int', None, False, None),
        (('--format',), 'format', 'text', None, ('text', 'json'), False, None),
    ],
    'dirichlet': [
        ((), 'command', None, None, (('list', 'enumerate characters mod N'), ('beta-chi', 'print beta_{chi,n}'), ('verify', 'beta_{chi,n} = L_q(chi,1-n)(q-(n+1)q^2)')), True, None),
    ],
    'dirichlet list': [
        (('--modulus',), 'modulus', None, 'int', None, True, None),
        (('--format',), 'format', 'text', None, ('text', 'json'), False, None),
    ],
    'dirichlet beta-chi': [
        (('--modulus',), 'modulus', None, 'int', None, True, None),
        (('--index',), 'index', None, 'int', None, True, None),
        (('--n',), 'n', None, 'int', None, True, None),
        (('--format',), 'format', 'text', None, ('text', 'json'), False, None),
    ],
    'dirichlet verify': [
        (('--modulus',), 'modulus', None, 'int', None, True, None),
        (('--index',), 'index', None, 'int', None, True, None),
        (('--n',), 'n', None, 'int', None, False, None),
        (('--max-n',), 'max_n', 4, 'int', None, False, None),
        (('--method',), 'method', 'geometric', None, ('geometric', 'delta', 'series'), False, None),
        (('--format',), 'format', 'text', None, ('text', 'json'), False, None),
    ],
    'zeta': [
        ((), 'command', None, None, (('apply', 'apply zeta_q / zeta_q(.,x) / L_q(chi,.) to a polynomial'), ('euler-check', 'Euler product vs direct series'), ('numeric', 'floating-point mode for complex s, |q0| < 1')), True, None),
    ],
    'zeta apply': [
        (('--s',), 's', None, 'int', None, True, None),
        (('--poly',), 'poly', None, None, None, True, 'e.g. "q-3*q^2" (no constant term)'),
        (('--method',), 'method', 'geometric', None, ('geometric', 'delta', 'series'), False, None),
        (('--order',), 'order', 20, 'int', None, False, 'series truncation order'),
        (('--x',), 'x', None, None, None, False, 'Hurwitz parameter (rational)'),
        (('--modulus',), 'modulus', None, 'int', None, False, 'character modulus'),
        (('--index',), 'index', None, 'int', None, False, 'character index'),
        (('--format',), 'format', 'text', None, ('text', 'json'), False, None),
    ],
    'zeta euler-check': [
        (('--s',), 's', None, 'int', None, True, None),
        (('--poly',), 'poly', 'q', None, None, False, None),
        (('--prime-bound',), 'prime_bound', None, 'int', None, True, None),
        (('--order',), 'order', None, 'int', None, True, None),
        (('--format',), 'format', 'text', None, ('text', 'json'), False, None),
    ],
    'zeta numeric': [
        (('--s',), 's', None, None, None, True, 'complex: "re" or "re,im"'),
        (('--q0',), 'q0', None, None, None, True, 'complex: "re" or "re,im"'),
        (('--poly',), 'poly', None, None, None, True, None),
        (('--eps',), 'eps', 1e-12, 'float', None, False, None),
        (('--x',), 'x', None, None, None, False, 'Hurwitz parameter'),
        (('--modulus',), 'modulus', None, 'int', None, False, None),
        (('--index',), 'index', None, 'int', None, False, None),
        (('--format',), 'format', 'text', None, ('text', 'json'), False, None),
    ],
    'lemma': [
        ((), 'command', None, None, (('commute-check', '(F_m/[m]^s)(F_n/[n]^s) = F_mn/[mn]^s'),), True, None),
    ],
    'lemma commute-check': [
        (('--max-mn',), 'max_mn', 6, 'int', None, False, None),
        (('--s',), 's', -1, 'int', None, False, None),
        (('--r-max',), 'r_max', 3, 'int', None, False, None),
        (('--format',), 'format', 'text', None, ('text', 'json'), False, None),
    ],
    'roots': [
        ((), 'command', None, None, (('survey', 'root census of beta numerators'),), True, None),
    ],
    'roots survey': [
        (('--max-n',), 'max_n', None, 'int', None, True, None),
        (('--tol',), 'tol', 1e-12, 'float', None, False, None),
        (('--tol-circle',), 'tol_circle', 1e-06, 'float', None, False, None),
        (('--tol-real',), 'tol_real', 1e-06, 'float', None, False, None),
        (('--modulus',), 'modulus', None, 'int', None, False, 'survey beta_{chi,n} for a real character'),
        (('--index',), 'index', None, 'int', None, False, None),
        (('--format',), 'format', 'text', None, ('text', 'json', 'csv'), False, None),
    ],
}
