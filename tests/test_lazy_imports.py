"""Each command executes only the modules it uses; `import qkspin` none.

`spinor`, `curvature`, `weitzenboeck` and `verify` are registered with
`importlib.util.LazyLoader`.  A lazy module turns into a plain
`types.ModuleType` once it has executed; reading any attribute of it,
`__class__` and `__spec__` included, executes it, so the probes below only
look at `type(...)`.  Each probe runs in a fresh interpreter.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qkspin

SRC = Path(qkspin.__file__).resolve().parent.parent
README = Path(__file__).resolve().parent.parent / "README.md"
LAZY = ("curvature", "spinor", "verify", "weitzenboeck")

REPORT_EXECUTED = f"""
import json, sys, types
print(json.dumps([name for name in {LAZY!r} if type(
    sys.modules.get("qkspin." + name)) is types.ModuleType]))
"""


def executed_after(code: str) -> list:
    """The lazy modules executed once `code` has run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code + REPORT_EXECUTED],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv, modules", [
    (["dims", "--n", "2"], ["spinor"]),
    (["bound", "--n", "2", "--kappa", "16"], ["weitzenboeck"]),
    (["weitzenboeck", "--n", "2", "--r", "1", "--oracle"], ["weitzenboeck"]),
    (["verify", "--n", "2", "--suite", "lemmas"], ["verify"]),
    (["verify", "--n", "2", "--suite", "clifford"], ["spinor", "verify"]),
    (["verify", "--n", "1", "--suite", "all"], list(LAZY)),
    (["verify", "--n", "2", "--suite", "weitzenboeck"],
     ["verify", "weitzenboeck"]),
    (["verify", "--n", "2", "--suite", "curvature"], ["curvature", "verify"]),
])
def test_a_command_executes_only_the_modules_it_uses(argv, modules):
    code = f"""
import contextlib, io
from qkspin import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({argv!r}) == 0
"""
    assert executed_after(code) == modules


def test_import_qkspin_executes_no_lazy_module():
    assert executed_after("import qkspin") == []


def test_public_names_are_the_defining_modules_objects():
    for name in qkspin.__all__:
        obj = getattr(qkspin, name)
        assert obj is getattr(sys.modules[obj.__module__], name), name
    assert set(qkspin.__all__) >= {"SpinorSpace", "estimate_bound", "w_full"}
    assert not hasattr(qkspin, "nope")
    with pytest.raises(AttributeError, match="nope"):
        qkspin.nope


def test_readme_snippet_runs():
    snippet = next(block for block in re.findall(
        r"```python\n(.*?)```", README.read_text(), re.S)
        if "from qkspin import" in block)
    assert "from qkspin import SpinorSpace, estimate_bound, w_full" in snippet
    proc = subprocess.run([sys.executable, "-c", snippet],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "5"
