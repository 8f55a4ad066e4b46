import os
import subprocess
import sys

import pytest


@pytest.fixture
def run_child():
    """Run Python code in a fresh interpreter that imports this tfcert and
    return its stdout; a process of its own starts with no module loaded."""
    import tfcert
    src = os.path.dirname(os.path.dirname(os.path.abspath(tfcert.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(code):
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=path)).stdout

    return run
