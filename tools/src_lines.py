#!/usr/bin/env python3
"""Split the Python files of a source tree into code, docstring or comment, and blank lines.

    python3 tools/src_lines.py SRC [SRC2]

Each line of every ``*.py`` file under SRC counts once, by ``tokenize``:
``code`` if any token other than a comment or a docstring touches it,
``blank`` if it is otherwise empty or whitespace (inside a docstring too),
and ``doc`` (docstring or comment) otherwise.  A docstring is a string
literal that forms a whole statement.  With SRC2 the split of both trees is
printed, then SRC2 minus SRC, in total and for each file whose split
changed.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

KINDS = ("lines", "code", "doc", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def split(path: Path) -> dict[str, int]:
    """The line counts of one file, by kind."""
    with tokenize.open(path) as f:
        text = f.read()
    tokens = list(tokenize.generate_tokens(iter(text.splitlines(keepends=True)).__next__))
    code, doc = set(), set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        span = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT or \
                tok.type == tokenize.STRING and _whole_statement(tokens, i):
            doc.update(span)
        else:
            code.update(span)
    lines = text.splitlines()
    blank = {i for i, line in enumerate(lines, 1) if not line.strip()}
    n_doc = len(doc - code - blank)
    return {"lines": len(lines), "code": len(code), "doc": n_doc,
            "blank": len(lines) - len(code) - n_doc}


def _whole_statement(tokens: list, i: int) -> bool:
    """Whether the string token ``i`` stands alone as a statement."""
    before = next((t for t in reversed(tokens[:i]) if t.type != tokenize.COMMENT), None)
    after = next((t for t in tokens[i + 1:] if t.type != tokenize.COMMENT), None)
    return (before is None or before.type in _LAYOUT) and \
        (after is None or after.type in (tokenize.NEWLINE, tokenize.ENDMARKER))


def tree(root: Path) -> dict[str, dict[str, int]]:
    """The split of every ``*.py`` file under ``root``, keyed by its relative path."""
    return {str(p.relative_to(root)): split(p) for p in sorted(root.rglob("*.py"))}


def total(files: dict) -> dict[str, int]:
    return {k: sum(f[k] for f in files.values()) for k in KINDS}


def row(name: str, counts: dict, signed: bool = False) -> str:
    fmt = "{:>+8,}" if signed else "{:>8,}"
    return f"{name:<32}" + "".join(fmt.format(counts[k]) for k in KINDS)


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 1
    trees = [tree(Path(a)) for a in argv]
    print(f"{'':<32}" + "".join(f"{k:>8}" for k in KINDS))
    for name, files in zip(argv, trees):
        print(row(name, total(files)))
    if len(trees) == 2:
        a, b = trees
        zero = dict.fromkeys(KINDS, 0)
        changed = {p: {k: b.get(p, zero)[k] - a.get(p, zero)[k] for k in KINDS}
                   for p in sorted(a.keys() | b.keys()) if a.get(p) != b.get(p)}
        print(row("difference", {k: total(b)[k] - total(a)[k] for k in KINDS}, signed=True))
        for p, d in changed.items():
            print(row("  " + p, d, signed=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
