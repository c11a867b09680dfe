"""The names the benchmark and the demos take from ``eraser`` all exist.

Both live outside ``tests/`` and run only in CI, so a deleted or renamed
name would otherwise first show there. Every ``import eraser...`` and
``from eraser... import ...`` statement in ``bench/*.py`` and
``demos/*.py`` is parsed with ``ast``, as is every attribute chain read
off the bare ``eraser`` package, and each name must resolve. Demo 01 also
has its stdout pinned.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def _eraser_names(tree):
    """(module, attribute or None) for every reference to eraser in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "eraser":
                    yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if (node.module or "").split(".")[0] == "eraser":
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Attribute):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id == "eraser":
                yield "eraser", ".".join(reversed(chain))


def _resolves(module, attrs):
    obj = importlib.import_module(module)
    for attr in attrs.split(".") if attrs else ():
        if not hasattr(obj, attr):
            # a submodule resolves once imported
            obj = importlib.import_module(f"{obj.__name__}.{attr}")
        else:
            obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_eraser_name_a_script_uses_resolves(path):
    names = set(_eraser_names(ast.parse(path.read_text(encoding="utf-8"))))
    missing = []
    for module, attrs in sorted(names, key=str):
        try:
            _resolves(module, attrs)
        except (ImportError, AttributeError):
            missing.append(f"{module}:{attrs}" if attrs else module)
    assert not missing, f"{path.name} uses names eraser lacks: {missing}"


def test_the_scan_sees_the_benchmark_imports():
    # guards the scan itself: these are names bench/ is known to import
    harness = ast.parse((ROOT / "bench" / "harness.py").read_text(encoding="utf-8"))
    names = set(_eraser_names(harness))
    assert ("eraser.certify", "certify_fine") in names
    assert ("eraser.workload", "INFERENCE") in names
    assert ("eraser", "simulator.run") in names
    with pytest.raises(ImportError):
        _resolves("eraser.oracle", "no_such_name")


DEMO_01_STDOUT = """\
serving votes : [0, 0, 0, 0, 1, 1, 2]
vote counts   : [4, 2, 1]
impacted      : [4, 6]

vs label 1: gamma1=0 gamma2=1 gamma3=1
vs label 2: gamma1=0 gamma2=1 gamma3=1

fine-grained check:
  challenger 1: 2*0 + 1 <= 2 -> ok
  challenger 2: 2*0 + 1 <= 3 -> ok
certified: True
exhaustive enumeration agrees: True

the coarse check ignores how impacted shards vote, so it gives up earlier:
votes [0, 0, 0, 1, 1] impacted [3, 4]
  coarse: False
  fine  : True
  truth : True
"""


def test_demo_01_prints_the_recorded_walkthrough():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "01_certified_consistency.py")],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout == DEMO_01_STDOUT
