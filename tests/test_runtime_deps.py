"""ccsl needs only numpy at run time, and its descriptor layer not even that.

scipy is a test and reference dependency: importing the CLI must load no
scipy module, and with every scipy import blocked the default scan must
print the golden data rows and every bundled experiment must still give
its bounds. With every numpy import blocked, ccsl imports and descriptors
load, parse and serialize. These checks run in a fresh interpreter, since
this test process has imported scipy and numpy already.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# numpy is needed by the compute layer only: with every numpy import blocked,
# ccsl imports, and descriptors load, parse, serialize and validate
_NUMPY_BLOCKED = """\
import json, sys
sys.modules["numpy"] = None  # every numpy import now raises ImportError
import ccsl
from ccsl import (CollapseParams, exponential, load, parse_config, serialize,
                  spectrum, list_bundled)
texts = [serialize(load(name)) for name in list_bundled()]
texts += json.loads(sys.argv[1])
for text in texts:
    desc = parse_config(text)
    assert parse_config(serialize(desc)) == desc, text
noise = exponential(1e4)
assert CollapseParams(lam=1e-16, rc=1e-7).rc == 1e-7
assert type(spectrum(noise, 1e4)) is float and spectrum(noise, 1e4) == 0.5
try:
    from ccsl import scan
except ImportError:
    pass
else:
    raise AssertionError("scan imported without numpy")
for module in ("bounds", "predict", "diffusion", "quadrature"):
    try:
        getattr(ccsl, module)
    except ImportError:
        pass
    else:
        raise AssertionError(f"ccsl.{module} imported without numpy")
print(json.dumps(sorted({desc.kind for desc in map(parse_config, texts)})))
"""

_SHAPES = {
    "sphere": "shape = sphere\nradius = 1e-5\ndensity = 7430.0\n",
    "cuboid": "shape = cuboid\nlx = 1e-5\nly = 2e-5\nlz = 3e-5\ndensity = 2200.0\n",
    "cylinder": "shape = cylinder\nradius = 0.3\nlength = 3.0\naxis = 0 0.6 0.8\n"
                "density = 2700.0\nmeasurement_axis = 0 0 1\n",
    "point_mass": "shape = point_mass\nmass = 0.1\nmeasurement_axis = 0 1 0\n",
    "composite": "shape = composite\n\n[[geometry.part]]\nshape = cuboid\nlx = 0.046\n"
                 "ly = 0.046\nlz = 0.046\ndensity = 19800.0\noffset = -0.171 0 0\n\n"
                 "[[geometry.part]]\nshape = sphere\nradius = 0.01\ndensity = 1000.0\n"
                 "offset = 0.171 0 0\n",
}


def _shape_config(shape: str, geometry: str) -> str:
    return (f"id = {shape}\nkind = optomechanical\n[geometry]\n{geometry}"
            "[ceiling]\nkind = force_psd\nvalue = 1e-30\nband_lo_hz = 10.0\nband_hi_hz = 20.0\n")


def test_descriptor_layer_runs_with_numpy_blocked():
    configs = [_shape_config(shape, geometry) for shape, geometry in _SHAPES.items()]
    proc = run_python("-c", _NUMPY_BLOCKED, json.dumps(configs))
    assert proc.returncode == 0, proc.stderr
    kinds = json.loads(proc.stdout.splitlines()[-1])
    assert kinds == ["bulk_heating", "cold_atom", "optomechanical", "xray"]


def test_compute_modules_are_attributes_of_a_fresh_ccsl():
    # importing ccsl imports no compute module; reading one as an attribute
    # of the package imports it
    proc = run_python("-c", "import sys, ccsl\n"
                      "names = ('bounds', 'predict', 'diffusion', 'quadrature', 'cli')\n"
                      "assert not any(f'ccsl.{m}' in sys.modules for m in names)\n"
                      "ccsl.bounds.scan, ccsl.predict.lambda_eff, ccsl.diffusion.eta\n"
                      "ccsl.quadrature.integrate, ccsl.cli.main\n"
                      "assert all(getattr(ccsl, m) is sys.modules[f'ccsl.{m}'] for m in names)\n")
    assert proc.returncode == 0, proc.stderr


def test_every_public_name_is_its_home_module_object():
    # the compute names resolve on first access to the object of the module
    # they live in; the others are bound when ccsl is imported, from modules
    # that need no numpy
    compute = {"diffusion", "predict", "bounds"}
    for name in ccsl.__all__:
        got = getattr(ccsl, name)
        home = ccsl._LAZY.get(name)
        assert home in compute if home else got.__module__.split(".")[-1] not in compute
        module = importlib.import_module(f"ccsl.{home}" if home else got.__module__)
        assert getattr(module, name) is got, name
    assert set(ccsl.__all__) <= set(dir(ccsl))
    assert len(ccsl.__all__) == len(set(ccsl.__all__))
    for module in ("bounds", "predict", "diffusion", "quadrature", "cli"):
        assert getattr(ccsl, module) is sys.modules[f"ccsl.{module}"]
    with pytest.raises(AttributeError):
        ccsl.not_a_name
