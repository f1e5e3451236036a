"""Smoke test of the narrative scripts in demos/.

Demos 01-04 and 06 run to completion as scripts, in a scratch working
directory so that the files demo 01 writes stay out of the checkout.
Demo 05 (a level-7 reference solve, ~16 s) is only checked for the names it
takes from sparseoc.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
RUN = ["01_assembly_and_export.py", "02_constructed_problem.py",
       "03_solver_comparison.py", "04_saddle_preconditioner.py",
       "06_oracle_certification.py"]


@pytest.mark.parametrize("name", RUN)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_demo_05_names_exist():
    tree = ast.parse((DEMOS / "05_hard_benchmark.py").read_text())
    aliases = {}
    used = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("sparseoc"):
            used += [(node.module, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            aliases.update({a.asname or a.name: a.name for a in node.names
                            if a.name.startswith("sparseoc")})
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            used.append((aliases[node.value.id], node.attr))
    assert len(used) >= 5
    for module, attr in used:
        assert hasattr(importlib.import_module(module), attr), (module, attr)
