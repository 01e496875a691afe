"""Compare the regression corpus of another revision's src/ with the working tree's.

    python tests/corpus_diff.py REV

extracts src/ at the git revision REV with ``git archive``, writes
tests/sweep_corpus.py's corpus once against that tree and once against the
working tree's src/ (the two runs go side by side, about 10 s on a 2-vCPU
host), and compares the two byte for byte.  Both runs use this
checkout's sweep_corpus.py and scenarios, so only src/ differs.  It prints
every file that exists on one side only, and every file that differs with
the line and column where it first differs and that line's text there on
both sides; it exits 1 if there is any such file, else prints the number
of identical files and exits 0.  Not a test module: pytest does not collect it, and
tests/test_package.py tests its comparison.
"""

from __future__ import annotations

import filecmp
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "sweep_corpus.py"


def extract_src(rev: str, into: Path) -> Path:
    """src/ of the revision rev, unpacked under into."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             check=True, capture_output=True).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into / "src"


def write_corpora(sources: list[Path], into: Path) -> list[Path]:
    """Run sweep_corpus.py against each src tree, side by side; the corpus directories."""
    outs = [into / f"corpus_{i}" for i in range(len(sources))]
    runs = [subprocess.Popen([sys.executable, str(CORPUS), str(out)],
                             env={**os.environ, "PYTHONPATH": str(src)},
                             stdout=subprocess.DEVNULL)
            for src, out in zip(sources, outs)]
    if [run.wait() for run in runs] != [0] * len(runs):
        raise SystemExit("writing a corpus failed")
    return outs


# a differing line is shown from BEFORE characters ahead of its first
# differing character, at most WIDTH of them: an SVG polyline is one line
BEFORE, WIDTH = 40, 120


def first_difference(left: Path, right: Path, left_label: str, right_label: str) -> str:
    """Where two different files first differ: line, column and both lines' text there.

    A file that ends first shows "(end of file)" in place of that line.
    """
    pairs = zip_longest(*(path.read_bytes().splitlines(keepends=True) for path in (left, right)))
    number, texts = next((i, pair) for i, pair in enumerate(pairs, 1) if pair[0] != pair[1])
    texts = ["(end of file)" if text is None else text.decode(errors="replace").rstrip("\r\n")
             for text in texts]
    column = next((i for i, (x, y) in enumerate(zip(*texts)) if x != y), min(map(len, texts)))
    start = max(column - BEFORE, 0)
    left_text, right_text = (("..." if start else "") + text[start:start + WIDTH]
                             + ("..." if len(text) > start + WIDTH else "") for text in texts)
    return (f"first at line {number}, column {column + 1}\n    {left_label}: {left_text}\n"
            f"    {right_label}: {right_text}")


def differences(left: Path, right: Path, left_label: str, right_label: str) -> list[str]:
    """One entry per file that differs or exists in only one of the two directories.

    A differing file's entry also gives its first_difference.
    """
    names_left = {p.relative_to(left) for p in left.rglob("*") if p.is_file()}
    names_right = {p.relative_to(right) for p in right.rglob("*") if p.is_file()}
    lines = [f"only in {left_label}: {name}" for name in sorted(names_left - names_right)]
    lines += [f"only in {right_label}: {name}" for name in sorted(names_right - names_left)]
    lines += [f"differs: {name}, "
              + first_difference(left / name, right / name, left_label, right_label)
              for name in sorted(names_left & names_right)
              if not filecmp.cmp(left / name, right / name, shallow=False)]
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        raise SystemExit(__doc__)
    rev = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        old, new = write_corpora([extract_src(rev, tmp / "rev"), ROOT / "src"], tmp)
        lines = differences(old, new, rev, "working tree")
        for line in lines:
            print(line)
        if lines:
            return 1
        count = sum(1 for p in new.rglob("*") if p.is_file())
        print(f"{count} corpus files identical between {rev} and the working tree")
        return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
