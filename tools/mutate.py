"""A mutation sampler for the tier-1 suite, standard library only.

Each mutant flips one ``+``, ``-``, ``+=`` or ``-=`` token, or changes one
float literal among 0.5, 1.0 and 2.0 (0.5 -> 1.0 -> 2.0 -> 0.5), inside the
given line ranges of the given files.  The tree is copied once into a
temporary directory; each mutant is written into the copy, tier-1 runs there
with ``-x`` and a 60 s timeout (a timeout counts as killed), and the file is
put back before the next one.  ``src/`` itself is never edited, and mutants run
one at a time, each test run in its own process group, which is killed when
it times out.

Run from the root of the repository:

    python tools/mutate.py src/fcontact/structure.py:160-188 src/fcontact/nullity.py:440-560

Each result line reads ``killed``, ``timeout`` or ``SURVIVED``, the
mutant's place (file, line and column) and change, and for a killed mutant
the first test that failed.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

FLIPS = {"+": "-", "-": "+", "+=": "-=", "-=": "+="}
LITERALS = {0.5: "1.0", 1.0: "2.0", 2.0: "0.5"}
TIMEOUT = 60.0  # seconds per tier-1 run; the suite takes about 6 s
IGNORE = shutil.ignore_patterns(".git", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis", ".benchmarks")


def mutants(source: str, first: int, last: int):
    """``(line, col, old, new, mutated source)`` for every candidate token on lines ``first..last``."""
    lines = source.splitlines(keepends=True)
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        (row, col), (end_row, end_col) = tok.start, tok.end
        if not first <= row <= last or end_row != row:
            continue
        new = None
        if tok.type == tokenize.OP:
            new = FLIPS.get(tok.string)
        elif tok.type == tokenize.NUMBER and re.fullmatch(r"[0-9.]+(?:[eE][-+]?[0-9]+)?", tok.string) \
                and ("." in tok.string or "e" in tok.string.lower()):
            new = LITERALS.get(float(tok.string))
        if new is not None:
            line = lines[row - 1]
            mutated = lines[:row - 1] + [line[:col] + new + line[end_col:]] + lines[row:]
            yield row, col, tok.string, new, "".join(mutated)


def run_tier1(root: Path) -> tuple[str, str]:
    """``("passed" | "failed" | "timeout", first failing test)`` of tier-1 in ``root``."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode == 0:
        return "passed", ""
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", out, re.M)
    return "failed", failed[1] if failed else f"exit code {proc.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", metavar="FILE:FIRST-LAST")
    args = parser.parse_args(argv)

    root = Path.cwd()
    plan = []
    for target in args.targets:
        path, _, span = target.rpartition(":")
        first, _, last = span.partition("-")
        source = (root / path).read_text()
        plan += [(path, *m) for m in mutants(source, int(first), int(last or first))]
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(root, copy, ignore=IGNORE)
        status, test = run_tier1(copy)
        if status != "passed":
            print(f"tier-1 does not pass on the unmutated tree ({status} {test})", file=sys.stderr)
            return 2
        for path, row, col, old, new, mutated in plan:
            target = copy / path
            original = target.read_text()
            target.write_text(mutated)
            try:
                status, test = run_tier1(copy)
            finally:
                target.write_text(original)
            verdict = {"passed": "SURVIVED", "failed": "killed", "timeout": "timeout"}[status]
            survivors += status == "passed"
            print(f"{verdict:8s} {path}:{row}:{col}  {old} -> {new}  {test}", flush=True)
    print(f"{len(plan)} mutants, {survivors} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
