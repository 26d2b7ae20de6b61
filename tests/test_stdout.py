"""The command line's output, byte for byte, against the committed corpus.

``tests/stdout/commands.txt`` lists the commands, one per line as ``name
argv...``.  Each command's stdout is ``<name>.out`` (``<name>.out.gz`` when
large); a command that exits other than 0, or writes to stderr, also has
``<name>.err``: ``exit <code>`` and then its stderr, numpy warnings included.
The test runs every command in process through ``solvgeom.cli.main``.

The corpus pins one numpy and OpenBLAS build, named in ``tests/stdout/BUILD``:
on another build the last digits of some float cells may differ, and the test
fails on them.  Regenerate the corpus with

    PYTHONPATH=src python tests/test_stdout.py --write

only for a deliberate change, and list each changed cell in CHANGES.md.
"""

import contextlib
import gzip
import io
import platform
import re
import shlex
import sys
import warnings
from pathlib import Path

import numpy as np

from solvgeom.cli import main

CORPUS = Path(__file__).resolve().parent / "stdout"
GZIP_ABOVE = 64 * 1024  # bytes of stdout stored gzipped


def _build() -> str:
    return f"numpy {np.__version__}, Python {platform.python_version()}\n"


def _commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of each command, {docs} expanded to the documents' directory."""
    commands = []
    for line in (CORPUS / "commands.txt").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, *argv = shlex.split(line)
            commands.append((name, [w.replace("{docs}", str(CORPUS / "docs")) for w in argv]))
    return commands


def _run(argv: list[str]) -> tuple[str, str]:
    """(stdout, "exit <code>" and stderr) of one in-process command line."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    shown = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return out.getvalue(), f"exit {rc}\n{err.getvalue()}{shown}"


def _read(path: Path) -> str:
    data = gzip.decompress(path.read_bytes()) if path.suffix == ".gz" else path.read_bytes()
    return data.decode("utf-8")


def _expected(name: str) -> tuple[str, str]:
    """The corpus' (stdout, status) of the command ``name``."""
    gz = CORPUS / f"{name}.out.gz"
    out = _read(gz if gz.exists() else CORPUS / f"{name}.out")
    err = CORPUS / f"{name}.err"
    return out, _read(err) if err.exists() else "exit 0\n"


def _first_differences(want: str, got: str, limit: int = 5) -> list[str]:
    """The first differing cell (split at commas and whitespace) of each of the
    first ``limit`` differing lines."""
    want_lines, got_lines = want.splitlines(), got.splitlines()
    found = []
    for n in range(max(len(want_lines), len(got_lines))):
        a = want_lines[n] if n < len(want_lines) else "<no line>"
        b = got_lines[n] if n < len(got_lines) else "<no line>"
        if a != b:
            cells = [re.split(r"[,\s]+", line.strip()) for line in (a, b)]
            c = next((c for c, pair in enumerate(zip(*cells)) if pair[0] != pair[1]),
                     min(map(len, cells)))
            cell = lambda row: row[c] if c < len(row) else "<no cell>"
            found.append(f"line {n + 1}, cell {c + 1}: expected {cell(cells[0])!r}, "
                         f"got {cell(cells[1])!r}")
            if len(found) == limit:
                break
    return found or ["the same lines, but not the same bytes (line endings?)"]


def test_stdout_matches_the_corpus():
    mismatches = []
    for name, argv in _commands():
        got = _run(argv)
        for stream, want, have in zip(("stdout", "exit code and stderr"), _expected(name), got):
            if have != want:
                mismatches.append(f"{name} ({shlex.join(argv)}), {stream}:\n    "
                                  + "\n    ".join(_first_differences(want, have)))
    recorded = (CORPUS / "BUILD").read_text(encoding="utf-8")
    assert not mismatches, (
        f"{len(mismatches)} outputs differ from the corpus in tests/stdout/.  The corpus "
        f"was recorded with {recorded.strip()}; this run has {_build().strip()}.  On "
        "another numpy or OpenBLAS build the last digits of float cells may differ "
        "without a fault in the program.\n" + "\n".join(mismatches)
    )


def _write() -> None:
    """Regenerate every output of the corpus, and drop outputs of no command."""
    commands = _commands()
    for path in CORPUS.glob("*"):
        if path.is_file() and path.name not in ("commands.txt", "BUILD"):
            path.unlink()
    for name, argv in commands:
        out, status = _run(argv)
        data = out.encode("utf-8")
        if len(data) > GZIP_ABOVE:
            (CORPUS / f"{name}.out.gz").write_bytes(gzip.compress(data, mtime=0))
        else:
            (CORPUS / f"{name}.out").write_bytes(data)
        if status != "exit 0\n":
            (CORPUS / f"{name}.err").write_bytes(status.encode("utf-8"))
    (CORPUS / "BUILD").write_text(_build(), encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_stdout.py --write")
    _write()
