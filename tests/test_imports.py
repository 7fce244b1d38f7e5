import ast
import os
import subprocess
import sys
from pathlib import Path

import signseg


def test_import_signseg_loads_no_uuid_or_argparse():
    # a top-level import of either once cost the benchmark's processes peak
    # memory; the CLI imports argparse itself, when it runs
    code = "import sys, signseg; print(' '.join(m for m in ('uuid', 'argparse') if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(signseg.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == ""


def test_no_module_imports_another_ones_private_names_but_the_chunk_backward():
    # model.py owns the encoder's kernels and the activation layout they
    # share; gradients.py reaches them through these two entry points only
    found = set()
    for path in sorted(Path(signseg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("signseg")):
                found |= {(path.stem, alias.name) for alias in node.names if alias.name.startswith("_")}
    assert found == {("gradients", "_chunks"), ("gradients", "_backward_chunk")}
