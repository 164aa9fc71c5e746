"""Package import: a light submodule loads without the heavy dependencies."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    return done.stdout.strip()


def test_dataset_import_skips_scipy_and_requests():
    out = _run("import sys, setclust.dataset; "
               "print(sorted(m for m in ('scipy.optimize', 'requests') if m in sys.modules))")
    assert out == "[]"


def test_reexported_names_resolve_on_use():
    out = _run("import setclust; from setclust import Penalties; "
               "print(Penalties.__module__, all(hasattr(setclust, n) for n in setclust.__all__))")
    assert out == "setclust.clustering True"
