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
    # Nor do the hierarchy's decomposition and dnzs on a catalog pair.
    out = _python(
        "-c",
        "import sys, infodist\n"
        "u, v = infodist.email_game(0.1, 0.5, 5), infodist.common_knowledge([0.5, 0.5])\n"
        "assert len(infodist.ck_decompose(u).components) == 1\n"
        "assert infodist.dnzs(u, v) > 0\n"
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


def test_import_starts_no_thread_and_small_distances_start_none():
    # No thread starts on import or for small structures, and the helper
    # of a pair of large gap LPs has ended when the distance returns.
    out = _python(
        "-c",
        "import os, threading\n"
        "import numpy as np\n"
        "import infodist as inf\n"
        "counts = [threading.active_count()]\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "rng = np.random.default_rng(0)\n"
        "def pair(n_k, n):\n"
        "    return [inf.validate_structure(p / p.sum()) for p in rng.random((2, n_k, n, n))]\n"
        "for n in (2, 3, 4):\n"
        "    inf.value_distance(*pair(3, n))\n"
        "counts.append(threading.active_count())\n"
        "inf.value_distance(*pair(4, 6))\n"
        "counts.append(threading.active_count())\n"
        "print(*counts)",
    ).stdout
    assert out.split() == ["1", "1", "1"]


def test_a_forked_child_starts_its_own_pair_helpers():
    # A helper thread lives for one paired solve and none survives a fork:
    # after the parent's paired solves, the child's pairs must each start
    # their own helper and finish.
    out = _python(
        "-c",
        "import os, signal\n"
        "import numpy as np\n"
        "import infodist as inf\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "rng = np.random.default_rng(0)\n"
        "def pair():\n"
        "    return [inf.validate_structure(p / p.sum()) for p in rng.random((2, 4, 6, 6))]\n"
        "inf.value_distance(*pair())\n"
        "u, v = pair()\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    signal.alarm(60)\n"
        "    os._exit(0 if inf.value_distance(u, v) > 0 else 1)\n"
        "print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), inf.value_distance(u, v) > 0)",
    ).stdout
    assert out.split() == ["0", "True"]
