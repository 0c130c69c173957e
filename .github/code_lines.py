"""Print each src/auxcount module's lines of code: its lines apart from
docstring, comment and blank lines.  Given a git revision, print each
module's count there too, and the net change from it.  Then print the ten
functions and classes with the most lines of code, a method or nested
function by its dotted path.

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


def _code_set(text: str) -> set[int]:
    """Numbers of the lines of ``text`` that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _BODIES) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return code - docstrings


def code_lines(text: str) -> int:
    return len(_code_set(text))


def largest(texts: dict[str, str], top: int = 10) -> list[tuple[int, str]]:
    """(lines of code, dotted name) of the ``top`` largest functions and
    classes in ``texts``, source by module name."""
    sizes = []
    for module, text in texts.items():
        code = _code_set(text)
        nodes = [(module, node) for node in ast.parse(text).body]
        while nodes:
            path, node = nodes.pop()
            if isinstance(node, _BODIES[1:]):  # a class or function
                name = f"{path}.{node.name}"
                sizes.append((len(code & set(range(node.lineno, node.end_lineno + 1))), name))
                nodes.extend((name, child) for child in node.body)
    return sorted(sizes, key=lambda size: (-size[0], size[1]))[:top]


def _at(rev: str) -> dict[str, int]:
    names = subprocess.run(["git", "ls-tree", "--name-only", rev, f"{SRC}/"],
                           capture_output=True, text=True, check=True).stdout.split()
    return {name: code_lines(subprocess.run(["git", "show", f"{rev}:{name}"], capture_output=True,
                                            text=True, check=True).stdout)
            for name in names if name.endswith(".py")}


def main(argv: list[str]) -> None:
    paths = sorted(pathlib.Path(SRC).glob("*.py"))
    now = {str(p): code_lines(p.read_text()) for p in paths}
    if len(argv) < 2:
        for name, count in now.items():
            print(f"{count:6d} {name}")
        print(f"{sum(now.values()):6d} lines of code in {SRC}")
    else:
        base = _at(argv[1])
        for name in sorted(now.keys() | base.keys()):
            old, new = base.get(name, 0), now.get(name, 0)
            print(f"{old:6d} -> {new:6d} ({new - old:+d}) {name}")
        print(f"net {SRC} lines of code: {sum(now.values()) - sum(base.values()):+d}")
    print("largest functions and classes, by lines of code:")
    for count, name in largest({p.stem: p.read_text() for p in paths}):
        print(f"{count:6d} {name}")


if __name__ == "__main__":
    main(sys.argv)
