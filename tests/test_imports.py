"""The analyze path runs on numpy alone: scipy is a test dependency only."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# scipy set to None in sys.modules makes every scipy import raise
# ImportError, at the top of a module and inside a function alike
NO_SCIPY = """
import sys, tempfile, warnings
sys.modules["scipy"] = None
from conjscope import analysis, cli, jacobi, pair

out = tempfile.mkdtemp()
assert cli.main(["analyze", "--system", "harmonic", "--T", "7", "--out", out, "--json"]) == 0
assert cli.main(["catalog", "--json"]) == 0
pr = pair.GenericPair(coords=("a", "b", "c", "d"),
                      X=("c", "d", "-a - 0.1*b + 0.2*a*c", "-b + 0.3*a - 0.1*c*d"),
                      vframe=(("0", "0", "1", "0"), ("c", "0", "0", "1")))
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    res = analysis.analyze(pr, x0=(0.3, -0.2, 0.1, 0.4), T=5.0)
    oracle = jacobi.variational_oracle(pr, (0.3, -0.2, 0.1, 0.4), 5.0)
assert len(res.conjugate_times) == len(oracle)
assert not [name for name in sys.modules if name.startswith("scipy.")]
"""


def test_the_analyze_path_never_imports_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                                     os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", NO_SCIPY], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
