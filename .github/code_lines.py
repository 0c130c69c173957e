"""Print each src/auxcount module's lines of code: its lines apart from
docstring, comment and blank lines.  Given a git revision, print each
module's count there too, and the net change from it.

    python .github/code_lines.py [REV]

Docstrings are found with ``ast`` (the first string of a module, class
or function body), comment-only and blank lines with ``tokenize``.
"""

import ast
import io
import pathlib
import subprocess
import sys
import tokenize

SRC = "src/auxcount"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _BODIES) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstrings)


def _at(rev: str) -> dict[str, int]:
    names = subprocess.run(["git", "ls-tree", "--name-only", rev, f"{SRC}/"],
                           capture_output=True, text=True, check=True).stdout.split()
    return {name: code_lines(subprocess.run(["git", "show", f"{rev}:{name}"], capture_output=True,
                                            text=True, check=True).stdout)
            for name in names if name.endswith(".py")}


def main(argv: list[str]) -> None:
    now = {str(p): code_lines(p.read_text()) for p in sorted(pathlib.Path(SRC).glob("*.py"))}
    if len(argv) < 2:
        for name, count in now.items():
            print(f"{count:6d} {name}")
        print(f"{sum(now.values()):6d} lines of code in {SRC}")
        return
    base = _at(argv[1])
    for name in sorted(now.keys() | base.keys()):
        old, new = base.get(name, 0), now.get(name, 0)
        print(f"{old:6d} -> {new:6d} ({new - old:+d}) {name}")
    print(f"net {SRC} lines of code: {sum(now.values()) - sum(base.values()):+d}")


if __name__ == "__main__":
    main(sys.argv)
