"""Count the code lines of the repository's Python files.

    python3 tools/code_lines.py [DIR ...]

A code line is a physical line of a ``.py`` file that holds a token of
code: blank lines, comment-only lines and the lines of module, class and
function docstrings (found with ``ast``) do not count.  A string that
spans lines counts every line it spans unless it is a docstring.  The
script prints one line per file, then one total per directory, for every
directory given relative to the repository root (default ``src``,
``tests`` and ``tools``), and ends with the sum.  It reads the checkout
that holds it.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_DIRS = ("src", "tests", "tools")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef,
               ast.AsyncFunctionDef)


def code_lines(text):
    """The number of code lines in the Python source ``text``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(argv):
    total = 0
    for name in argv or DEFAULT_DIRS:
        counted = 0
        for path in sorted((ROOT / name).rglob("*.py")):
            n = code_lines(path.read_text())
            print(f"{n:6d}  {path.relative_to(ROOT)}")
            counted += n
        print(f"{counted:6d}  {name.rstrip('/')}/  (total)\n")
        total += counted
    print(f"{total:6d}  all")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
