"""Every definition in src/ has a caller in the product, or a stated reason.

The product is the package itself, the scripts and the benchmark.  A
module-level function or class, or a public method of a public class, that
none of them names is test-only code: it should go, or earn an allowlist
entry below.

A name counts as a caller where it could reach the definition: an
attribute (``x.spectrum``), a bare name that no enclosing function binds as
a parameter or an assignment target, or a dotted string such as
``"lpp.passage_times"``.  So a local ``cdf = ...`` or a kind tag
``"truncated"`` calls nothing.  Names numpy shares (``trace``, ``mean``)
still count wherever an attribute spells them, which this guard cannot tell
apart.
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
    "measures.cdf_two_sided": "oracle",
    "measures.RearrangementMap.inverse": "oracle",
    "freeprob.all_pairings_count": "oracle",
    "specmeasures.fixed_point_residual": "oracle",
    "specmeasures.Measure1D.dirac": "oracle",
    "weights.split_enlargement": "paper",
    "weights.split_constant": "paper",
    "weights.talagrand": "paper",
    "weights.truncated": "paper",
    "specmeasures.frac_integral": "paper",
    "matrixlab.HermitianMatrix.schatten": "paper",
    "ratefuncs.rate_I_symmetric": "paper",
    "ratefuncs.optimize_constant_c": "paper",
    "ratefuncs.optimize_constant_csigma": "paper",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+\Z")
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _product_trees():
    for top in PRODUCT:
        for path in sorted((ROOT / top).glob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _binds(func):
    """Names a function binds: its parameters and its assignment targets."""
    a = func.args
    params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p}
    stores = (n for n in ast.walk(func) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return params | {n.id for n in stores}


def _references(node, bound=frozenset()):
    """(name, line) of every unbound Name, every Attribute and every dotted string."""
    if isinstance(node, _FUNCS):
        bound = bound | _binds(node)
    if isinstance(node, ast.Name):
        if node.id not in bound:
            yield node.id, node.lineno
    elif isinstance(node, ast.Attribute):
        yield node.attr, node.lineno
    elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED.match(node.value):
        for part in node.value.split("."):
            yield part, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _references(child, bound)


def _definitions(path, tree):
    """(key, node): module-level functions and classes, public methods of public classes."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield f"{path.stem}.{node.name}", node
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for sub in node.body:
                    if isinstance(sub, _DEFS[:2]) and not sub.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{sub.name}", sub


def _uncalled(src, others=()):
    """Keys of the definitions in the ``src`` trees that no tree names outside their own body.

    ``src`` and ``others`` hold (path, tree) pairs; both are searched for callers.
    """
    trees = [*src, *others]
    refs = [(path, name, line) for path, tree in trees for name, line in _references(tree)]
    found = set()
    for path, tree in src:
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
    trees = list(_product_trees())
    src = [(path, tree) for path, tree in trees if path.parent.name == "heavylab"]
    uncalled = _uncalled(src, [t for t in trees if t not in src])
    assert sorted(uncalled - ALLOWED.keys()) == [], "test-only code in src/"
    assert sorted(ALLOWED.keys() - uncalled) == [], "allowlist entries that now have callers or are gone"


_MODULE = """
def by_param(): pass
def by_local(): pass
def by_string(): pass
def by_attribute(): pass
def by_dotted_string(): pass
def by_bare_name(): pass
def by_lambda_param(): pass

class Public:
    def method(self): pass
    def called(self): pass

class _Private:
    def hook(self): pass

def user(by_param, x):
    by_local = by_param(x)
    f = lambda by_lambda_param: by_lambda_param
    x.called()
    x.by_attribute
    by_bare_name(Public(), _Private())
    return by_local, f, "by_string", "method", "mod.by_dotted_string"
"""


def test_guard_counts_attributes_unbound_names_and_dotted_strings_only():
    tree = ast.parse(_MODULE)
    assert _uncalled([(Path("mod.py"), tree)]) == {
        "mod.by_param", "mod.by_local", "mod.by_string", "mod.by_lambda_param",
        "mod.Public.method", "mod.user",
    }


def test_guard_reads_callers_in_other_trees():
    user = ast.parse("import mod\nmod.user(1, 2)\nprint('Public.method')\n")
    assert _uncalled([(Path("mod.py"), ast.parse(_MODULE))], [(Path("use.py"), user)]) == {
        "mod.by_param", "mod.by_local", "mod.by_string", "mod.by_lambda_param",
    }
