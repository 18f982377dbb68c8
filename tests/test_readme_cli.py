"""Every `qzeta ...` example in README.md prints exactly what it printed when
`readme_cli_golden.txt` was captured: stdout and exit status, byte for byte.

The README's `roots survey --max-n 30 --format csv` takes minutes, so the
survey example runs as `roots survey --max-n 10` (text format) here.
"""
import contextlib
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

from qzeta.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("readme_cli_golden.txt")
SUBSTITUTE = {
    "roots survey --max-n 30 --format csv": "roots survey --max-n 10",
}


def readme_commands():
    commands = []
    for line in (ROOT / "README.md").read_text().splitlines():
        if not line.startswith("qzeta "):
            continue
        argv = shlex.split(line, comments=True)[1:]
        if ">" in argv:
            argv = argv[: argv.index(">")]
        joined = " ".join(argv)
        commands.append(shlex.split(SUBSTITUTE.get(joined, joined)))
    return commands


def transcript():
    parts = []
    for argv in readme_commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        parts.append(f"$ qzeta {shlex.join(argv)}\n[exit {code}]\n{out.getvalue()}")
    return "".join(parts)


def test_readme_has_the_examples():
    assert len(readme_commands()) == 16


def test_readme_cli_output_matches_golden():
    assert transcript() == GOLDEN.read_text()


def golden_blocks():
    """The golden transcript as {command: its "[exit k]" line and output}."""
    blocks = GOLDEN.read_text().split("$ qzeta ")[1:]
    return dict(block.split("\n", 1) for block in blocks)


def test_optimized_interpreter_prints_the_same():
    # under `python -O` every assert is gone, so no result may depend on one
    golden = golden_blocks()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for command in (
        "carlitz beta --n 4 --factored",
        "hurwitz beta --n 2 --x 1/2",
        "dirichlet beta-chi --modulus 4 --index 1 --n 2",
        "zeta apply --s 0 --poly q --method series --order 10 --x 1/2",
        "zeta euler-check --s -1 --prime-bound 41 --order 40",
        "zeta apply --s -1 --poly 'q-3*q^2'",
        "hurwitz verify --x 1/3 --max-n 8",
        "dirichlet verify --modulus 5 --index 1 --max-n 6",
        "carlitz beta --n 2 --factored --format json",
        "dirichlet list --modulus 5 --format json",
        "roots survey --max-n 10",
    ):
        run = subprocess.run(
            [sys.executable, "-O", "-m", "qzeta.cli", *shlex.split(command)],
            capture_output=True, text=True, env=env, cwd=ROOT,
        )
        assert f"[exit {run.returncode}]\n{run.stdout}" == golden[command]
