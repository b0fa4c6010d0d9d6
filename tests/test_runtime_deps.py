"""ccsl needs only numpy at run time.

scipy is a test and reference dependency: importing the CLI must load no
scipy module, and with every scipy import blocked the default scan must
print the golden data rows and every bundled experiment must still give
its bounds. Both checks run in a fresh interpreter, since this test
process has imported scipy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import ccsl
from ccsl.cli import main
from ccsl.registry import list_bundled
from test_golden import DEFAULT_SCAN_DIGESTS, data_digest

SRC = str(Path(ccsl.__file__).resolve().parent.parent)
NOISES = ("white", "exp:1e4")


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports ccsl from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def bound_argv(exp: str, noise: str) -> list[str]:
    return ["bound", "--experiment", exp, "--rc-grid", "1e-9:1e-3:30", "--noise", noise]


def data_rows(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


def test_cli_import_loads_no_scipy():
    proc = run_python("-c", "import sys\nimport ccsl.cli\n"
                      "print(sorted(m for m in sys.modules\n"
                      "             if m == 'scipy' or m.startswith('scipy.')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_BLOCKED = """\
import contextlib, io, json, sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
from ccsl.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    results.append([code, buf.getvalue()])
print(json.dumps(results))
"""


def test_scan_and_bounds_run_with_scipy_blocked(tmp_path, capsys):
    bounds = [bound_argv(exp, noise) for exp in list_bundled() for noise in NOISES]
    argvs = [["scan", "--jobs", "1", "--out-dir", str(tmp_path)]] + bounds
    proc = run_python("-c", _BLOCKED, json.dumps(argvs))
    assert proc.returncode == 0, proc.stderr
    (scan_code, _), *results = json.loads(proc.stdout.splitlines()[-1])
    assert scan_code == 0
    for panel, digest in DEFAULT_SCAN_DIGESTS.items():
        assert data_digest(tmp_path / panel) == digest, panel
    for argv, (code, out) in zip(bounds, results, strict=True):
        assert code == 0, argv
        assert main(argv) == 0
        rows = data_rows(out)
        assert len(rows) > 1 and rows == data_rows(capsys.readouterr().out), argv
