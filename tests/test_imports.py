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
