"""Count the code, docstring, comment and blank lines of algaeid's modules.

    python3 tools/code_lines.py [FILE ...]

With no arguments it counts `src/algaeid/*.py` under the checkout that
holds this script. A line is a docstring line when it lies in a module,
class or function docstring, blank ones included; otherwise a code line
when any token other than a comment touches it (a line of a multi-line
string or expression counts); otherwise a comment line when it holds a
comment; otherwise blank. Prints one line per file, then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def line_kinds(source):
    """The kind of each line of `source`, in order."""
    kinds = ["blank"] * len(source.splitlines())
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in LAYOUT:
            continue
        kind = "comment" if tok.type == tokenize.COMMENT else "code"
        for row in range(tok.start[0] - 1, tok.end[0]):
            if kinds[row] != "code":
                kinds[row] = kind
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            kinds[first.lineno - 1:first.end_lineno] = \
                ["docstring"] * (first.end_lineno - first.lineno + 1)
    return kinds


def count(paths):
    """{path: {kind: lines}} for each path, and the total under "total"."""
    counts = {}
    for path in paths:
        kinds = line_kinds(Path(path).read_text(encoding="utf-8"))
        counts[str(path)] = {k: kinds.count(k) for k in KINDS}
    counts["total"] = {k: sum(c[k] for c in counts.values()) for k in KINDS}
    return counts


def main(argv):
    paths = argv or sorted((Path(__file__).resolve().parent.parent
                            / "src" / "algaeid").glob("*.py"))
    for name, c in count(paths).items():
        print(f"{name}: " + " / ".join(f"{c[k]} {k}" for k in KINDS))


if __name__ == "__main__":
    main(sys.argv[1:])
