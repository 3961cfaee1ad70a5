"""The package keeps to the Python it declares in pyproject.toml: 3.10 and later.

The suite runs on one newer interpreter, where 3.11+ syntax and standard-library
names work, so every other test would pass while 3.10 breaks.  This check parses
each module with the 3.10 grammar (which refuses, say, `except*`) and walks it
for a hand-kept list of names that 3.10 lacks, the idea of minimum-version
checkers such as vermin.  The declared numpy >= 1.24 is not checked: that needs
numpy 1.24 installed.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "tomfn").glob("*.py")) + [ROOT / "tests" / "golden_docs.py"]

# Standard-library names added after 3.10, as (module, name); a whole module is (module, None).
NEWER_NAMES = {
    ("tomllib", None), ("contextlib", "chdir"), ("datetime", "UTC"), ("typing", "Self"),
    ("asyncio", "TaskGroup"), ("hashlib", "file_digest"), ("enum", "StrEnum"),
    ("math", "cbrt"), ("math", "exp2"),
}
NEWER_BUILTINS = {"ExceptionGroup", "BaseExceptionGroup"}
NEWER_KEYWORDS = {"strict_mode"}  # binascii.a2b_base64(strict_mode=...)


def newer_than_310(tree) -> list:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg in NEWER_KEYWORDS:
            found.append(f"{node.arg}=")
        elif isinstance(node, ast.Name) and node.id in NEWER_BUILTINS:
            found.append(node.id)
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if (a.name, None) in NEWER_NAMES]
        elif isinstance(node, ast.ImportFrom):
            found += [f"{node.module}.{a.name}" for a in node.names
                      if {(node.module, None), (node.module, a.name)} & NEWER_NAMES]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and (node.value.id, node.attr) in NEWER_NAMES):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_sources_keep_to_python_310():
    found = {path.name: newer_than_310(ast.parse(path.read_text(encoding="utf-8"), str(path),
                                                  feature_version=(3, 10))) for path in FILES}
    assert {name: names for name, names in found.items() if names} == {}
