"""Every definition in src/ has a caller in the product, or a stated reason.

The product is the package itself, the scripts and the benchmark.  A
module-level function or class, or a public method, that none of them
names is test-only code: it should go, or earn an allowlist entry below.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PRODUCT = ("src/heavylab", "scripts", "perfbench")

# name -> reason it stays without a product caller:
#   acceptance: an acceptance-checklist entry point
#   oracle: a test oracle for code the product runs
#   paper: a paper object tested on its own
ALLOWED = {
    "lpp.last_passage": "acceptance",
    "lpp.enumerate_paths": "acceptance",
    "lpp.rate_L_consistency": "acceptance",
    "measures.sample_inverse_cdf": "acceptance",
    "specmeasures.distance_d": "acceptance",
    "specmeasures.wasserstein_p": "acceptance",
    "specmeasures.cp_constant": "acceptance",
    "matrixlab.HermitianMatrix.lp_norm": "acceptance",
    "measures.rearrangement": "oracle",
    "freeprob.all_pairings_count": "oracle",
    "specmeasures.fixed_point_residual": "oracle",
    "specmeasures.Measure1D.dirac": "oracle",
    "weights.split_enlargement": "paper",
    "weights.split_constant": "paper",
    "specmeasures.frac_integral": "paper",
    "matrixlab.HermitianMatrix.schatten": "paper",
    "ratefuncs.rate_I_symmetric": "paper",
    "ratefuncs.optimize_constant_c": "paper",
    "ratefuncs.optimize_constant_csigma": "paper",
}

_DOTTED = re.compile(r"[A-Za-z_][\w.]*\Z")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _product_trees():
    for top in PRODUCT:
        for path in sorted((ROOT / top).glob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _references(tree):
    """(name, line) of every Name, Attribute and dotted string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED.match(node.value):
            for part in node.value.split("."):
                yield part, node.lineno


def _definitions(path, tree):
    """(key, node): module-level functions and classes, public methods."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield f"{path.stem}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, _DEFS[:2]) and not sub.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{sub.name}", sub


def _uncalled():
    trees = list(_product_trees())
    refs = [(path, name, line) for path, tree in trees for name, line in _references(tree)]
    found = set()
    for path, tree in trees:
        if path.parent.name != "heavylab":
            continue
        for key, node in _definitions(path, tree):
            name = key.rsplit(".", 1)[-1]
            outside = (
                n == name and not (p == path and node.lineno <= line <= node.end_lineno)
                for p, n, line in refs
            )
            if not any(outside):
                found.add(key)
    return found


def test_every_src_definition_has_a_product_caller_or_a_reason():
    assert set(ALLOWED.values()) <= {"acceptance", "oracle", "paper"}
    uncalled = _uncalled()
    assert sorted(uncalled - ALLOWED.keys()) == [], "test-only code in src/"
    assert sorted(ALLOWED.keys() - uncalled) == [], "allowlist entries that now have callers or are gone"
