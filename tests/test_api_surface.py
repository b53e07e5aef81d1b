"""Every public name of adaptik has a caller outside the tests, and the
package namespace is its modules.

A name in the __all__ of an adaptik module counts as used when the
program mentions it: a file under src/, scripts/ or perfbench/.  Its own
definition, its __all__ entry and the package __init__'s re-export do
not count.  The scan is plain text, so a mention in a comment counts.

The program runs on numpy alone: importing it and running a sweep loads
no scipy module.
"""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import adaptik

ROOT = Path(__file__).resolve().parents[1]

# Public on purpose although only the tests call them.
ALLOWED = {
    # reference values the tests check the solvers and generators against:
    # the population Tikhonov solution, the constants of the rate theory
    # and the quadrature treatment rate
    "tikhonov_ideal", "holder_constant", "weak_lower_bound_constant",
    "treatment_rate",
    # bases the tests build small problems from
    "polynomial_basis", "custom_basis",
}


def public_names():
    """(module name, public name) for every adaptik module with __all__."""
    for info in pkgutil.iter_modules(adaptik.__path__):
        module = importlib.import_module(f"adaptik.{info.name}")
        for name in getattr(module, "__all__", ()):
            yield info.name, name


def program_files():
    src = ROOT / "src" / "adaptik"
    files = [p for p in src.glob("*.py") if p.name != "__init__.py"]
    for tree in ("scripts", "perfbench"):
        files += sorted((ROOT / tree).rglob("*.py"))
    return files


def referenced(module, name, texts):
    word = re.compile(rf"\b{re.escape(name)}\b")
    for path, text in texts.items():
        if path.name == f"{module}.py" and path.parent.name == "adaptik":
            text = re.sub(r"^__all__ = \[.*?\]", "", text, flags=re.M | re.S)
            text = re.sub(rf"^(?:def|class)\s+{re.escape(name)}\b", "", text,
                          flags=re.M)
        if word.search(text):
            return True
    return False


def test_no_public_name_is_called_only_by_tests():
    texts = {path: path.read_text() for path in program_files()}
    unused = {name for module, name in public_names()
              if not referenced(module, name, texts)}
    assert unused - ALLOWED == set()


def test_allow_list_names_public_names():
    assert ALLOWED <= {name for _, name in public_names()}


def test_benchmark_aliases_are_the_program_objects():
    # perfbench/tests wraps and reads these names; that suite is not in
    # testpaths, so a pruned alias would otherwise break it unseen
    from adaptik import cli, dgp, discrepancy, estimators, functional, harness, sieve

    assert harness.run_dp is discrepancy.run_dp
    assert adaptik.run_dp is discrepancy.run_dp
    assert harness.gen_proxy_nc is dgp.gen_proxy_nc
    assert functional.trae_fit is estimators.trae_fit
    assert functional.trae_dual_fit is estimators.trae_dual_fit
    # the tracer wraps only __all__ names, so these stay listed there
    assert {"trae_fit", "trae_dual_fit"} <= set(estimators.__all__)
    assert estimators.empirical_gram is sieve.empirical_gram
    assert cli.run_experiment is harness.run_experiment


def test_package_namespace_is_its_modules():
    # names are imported from their modules; the package binds only the
    # version and the run_dp alias the benchmark's tracer test reads
    tree = ast.parse((ROOT / "src" / "adaptik" / "__init__.py").read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            bound.add(node.name)
    assert bound == {"run_dp", "__version__"}


def test_program_imports_no_scipy():
    # scipy's import is most of a cold start; the tests' own scipy import
    # would hide it here, so a fresh interpreter checks
    code = (
        "import sys\n"
        "import adaptik.cli, adaptik.harness\n"
        "from adaptik.harness import ExperimentSpec, run_experiment\n"
        "spec = ExperimentSpec(dgp='npiv', estimator='trae', sizes=(200,), reps=1)\n"
        "assert not run_experiment(spec).failures\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_makes_no_choice_of_dgp_or_system():
    # the CLI acts on a config's cells through the harness, which alone
    # picks the DGP and builds the systems
    text = (ROOT / "src" / "adaptik" / "cli.py").read_text()
    imported = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):  # the module, and its submodules
            imported |= {node.module} | {f"{node.module}.{alias.name}"
                                         for alias in node.names}
    assert not {"adaptik.dgp", "adaptik.util"} & imported
    for word in ("spec.dgp", "spec.estimator", "Estimator", "system_from"):
        assert word not in text, word
