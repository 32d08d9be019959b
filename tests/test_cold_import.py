"""What a fresh interpreter imports: infodist loads scipy's HiGHS binding
from its file, without ``scipy.optimize``.

Each test runs in a new interpreter, since pytest's own process has
imported ``scipy.optimize`` already.
"""

import os
import subprocess
import sys
from pathlib import Path

import infodist as inf

SRC = Path(__file__).resolve().parent.parent / "src"
CORE = "scipy.optimize._highspy._core"


def _python(*args, cwd=None):
    """A fresh interpreter's run, with ``src`` on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done


def test_import_loads_no_scipy_module_but_the_binding():
    out = _python(
        "-c",
        "import sys, infodist\n"
        "print(*sorted(m for m in sys.modules if m.startswith('scipy')))",
    ).stdout
    assert CORE in out.split()
    assert all(name.startswith(CORE) for name in out.split())


def test_scipy_optimize_imported_later_reuses_the_binding():
    out = _python(
        "-c",
        "import sys\n"
        "from infodist import lp\n"
        "assert lp.solve_matrix_game([[1.0, 0.0], [0.0, 1.0]])[0] == 0.5\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "import scipy.optimize\n"
        "res = scipy.optimize.linprog([1, 1], A_ub=[[-1, -1]], b_ub=[-1], method='highs')\n"
        f"print(res.status, res.fun, sys.modules['{CORE}'] is lp._highs)",
    ).stdout
    assert out.split() == ["0", "1.0", "True"]


def test_infodist_reuses_a_binding_scipy_loaded():
    out = _python(
        "-c",
        "import sys, scipy.optimize\n"
        f"core = sys.modules['{CORE}']\n"
        "from infodist import lp\n"
        "value = lp.solve_matrix_game([[1.0, 0.0], [0.0, 1.0]])[0]\n"
        "print(lp._highs is core, lp._load_highs() is core, value)",
    ).stdout
    assert out.split() == ["True", "True", "0.5"]


def test_cli_distance_runs_without_scipy_optimize(tmp_path):
    examples = inf.canonical_examples()
    for name in ("u1", "u2"):
        (tmp_path / f"{name}.json").write_text(examples[name].to_json())
    # -X importtime lists every module the command imports on stderr.
    done = _python("-X", "importtime", "-m", "infodist.cli", "distance", "u1.json", "u2.json",
                   cwd=tmp_path)
    imported = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines() if "|" in line}
    assert done.stdout.strip() == "0.5"
    assert "infodist.lp" in imported
    assert "scipy.optimize" not in imported
