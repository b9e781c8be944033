"""The package runs on numpy alone: importing it must not load scipy."""

import os
import subprocess
import sys

import attnga


def test_cli_and_metabbo_import_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(attnga.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = ("import sys, attnga.cli, attnga.metabbo; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] "
            "== 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
