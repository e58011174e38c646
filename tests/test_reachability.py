"""Every function defined in the package runs in some command.

The commands ring, verify (at the default horizon and at 0) and smatrix
(JSON and CSV) run in-process on one case of each family, each cold and
then warm on one product-cache directory, under a call-only tracer.  A
function or method defined under src/fusionq that none of them enters
fails the test unless ALLOWED names it with a reason: code that no
command runs belongs with the tests (tests/reference.py) or nowhere.
Lambdas and comprehensions are not counted.
"""

import ast
import sys
from pathlib import Path

import fusionq
from fusionq import cli

CASES = [
    ("A", 2, 3), ("B", 3, 2), ("C", 3, 3), ("D", 4, 2),
    ("E", 6, 2), ("F", 4, 2), ("G", 2, 3),
]  # fmt: skip
COMMANDS = [
    ("ring",),
    ("verify",),
    ("verify", "--horizon", "0"),
    ("smatrix",),
    ("smatrix", "--format", "csv", "--tol", "1e-9"),
]
# Entered by no command, each for its reason.
ALLOWED = {
    # Next to be wired into verify, with the default horizon it reads.
    "qsystem.check_unrestricted",
    "qsystem.WGrid.default_horizon",
    # The per-m reference of WGrid.fill.
    "qsystem.kr_element",
    # The benchmark's ring oracle imports it from fusionq.
    "smatrix.verlinde_coefficient",
    # Builds the text of failure messages only.
    "fusion._terms_text",
    # PEP 562 hooks of the package; the commands import modules directly.
    "__init__.__getattr__",
    "__init__.__dir__",
}


def _definitions():
    """{(file, first line): qualified name} of every def in the package; the
    first line is the first decorator's, as in the code object."""
    found = {}

    def visit(node, module, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first)] = f"{module}.{name}"
                visit(child, module, f"{name}.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.", path)
            else:
                visit(child, module, prefix, path)

    for path in sorted(Path(fusionq.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "", str(path))
    return found


def test_every_definition_is_entered(tmp_path, monkeypatch, capsys):
    defined = _definitions()
    entered = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno))

    monkeypatch.setenv("FUSIONQ_CACHE_DIR", str(tmp_path))
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        codes = {}
        for family, rank, level in CASES:
            case = ("--family", family, "--rank", str(rank), "--level", str(level))
            for command in COMMANDS:
                for run in ("cold", "warm"):
                    argv = [command[0], *case, *command[1:]]
                    codes[(*argv, run)] = cli.main(argv)
                    capsys.readouterr()
    finally:
        sys.settrace(previous)
    assert set(codes.values()) == {0}, codes
    missed = {name for key, name in defined.items() if key not in entered}
    never = sorted(missed - ALLOWED)
    assert not never, f"defined under src/fusionq, entered by no command: {never}"
    stale = sorted(ALLOWED - missed)
    assert not stale, f"allowed, but entered or no longer defined: {stale}"
