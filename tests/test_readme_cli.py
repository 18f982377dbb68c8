"""Every `qzeta ...` example in README.md prints exactly what it printed when
`readme_cli_golden.txt` was captured: stdout and exit status, byte for byte.

The README's `roots survey --max-n 30 --format csv` takes minutes, so the
survey example runs as `roots survey --max-n 10` (text format) here.
"""
import contextlib
import io
import shlex
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
