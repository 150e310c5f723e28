"""Every definition in src/ has a caller in the product, or a stated reason.

The product is the package itself and the benchmark.  A
module-level function or class, or a public method of a public class, that
none of them names is test-only code: it should go, or earn an allowlist
entry below.  There are two reasons: "acceptance" for an entry point of
the acceptance checklist, and "paper" for a paper object tested on its
own.  A test oracle has no place in src/; it lives in tests/oracles.py.

A name counts as a caller where it could reach the definition: an
attribute (``x.spectrum``), a bare name that no enclosing function binds as
a parameter or an assignment target, or a dotted string such as
``"lpp.passage_times"``.  So a local ``cdf = ...`` or a kind tag
``"truncated"`` calls nothing.  Names numpy shares (``trace``, ``mean``)
still count wherever an attribute spells them, which this guard cannot tell
apart.

Each optional parameter of a public function must likewise be set by some
product call, by keyword or by position, or carry a reason: a knob only
tests turn is test-only code too.  Calls are matched by the callee's name,
as references are.

The guard does not see everything.  It skips methods whose names start
with an underscore, dunder methods (``__add__``, ``__eq__``) among them.
It does not check CLI flags, which
`test_cli.test_every_declared_flag_is_read` covers, nor attributes that are
stored and never read.
"""

import ast
import math
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PRODUCT = ("src/heavylab", "perfbench")

# name -> reason it stays without a product caller:
#   acceptance: an acceptance-checklist entry point
#   paper: a paper object tested on its own
REASONS = {"acceptance", "paper"}
ALLOWED = {
    "lpp.last_passage": "acceptance",
    "lpp.enumerate_paths": "acceptance",
    "lpp.rate_L_consistency": "acceptance",
    "measures.sample_inverse_cdf": "acceptance",
    "specmeasures.distance_d": "acceptance",
    "specmeasures.wasserstein_p": "acceptance",
    "specmeasures.cp_constant": "acceptance",
    "matrixlab.HermitianMatrix.lp_norm": "acceptance",
    "ratefuncs.rate_I_symmetric": "paper",
    "ratefuncs.optimize_constant": "paper",
}

# optional parameter -> reason it stays though no product call sets it
# (functions on ALLOWED are exempt)
UNSET_ALLOWED = {
    # criteria 6-8 and the replica-loop oracles draw one matrix per stream
    "matrixlab.sample_wigner.stream": "acceptance",
    # the trace-polynomial speed n^(alpha (1/2 + 1/d)), read once the trace-tail estimator lands
    "experiments.speed.d": "paper",
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


def _calls(trees):
    """(path, callee name, line, positional count, keywords) of every call by name.

    A call that spreads ``*args`` or ``**kwargs`` may set any parameter, so
    it counts as infinitely many positions and every keyword (None).
    """
    for path, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            keywords = {k.arg for k in node.keywords}
            if None in keywords or any(isinstance(a, ast.Starred) for a in node.args):
                yield path, name, node.lineno, math.inf, None
            else:
                yield path, name, node.lineno, len(node.args), keywords


def _optional(func, method):
    """parameter -> position (None if keyword-only) of each parameter with a default.

    A method's positions are counted after ``self``, which a call through
    an instance does not pass; a static method has none.
    """
    a = func.args
    positional = a.posonlyargs + a.args
    skip = method and not any(getattr(d, "id", None) == "staticmethod" for d in func.decorator_list)
    first = len(positional) - len(a.defaults)
    out = {p.arg: i - skip for i, p in enumerate(positional) if i >= first}
    out.update({p.arg: None for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None})
    return out


def _unset_parameters(src, others=()):
    """``key.parameter`` of each optional parameter of a public function in the
    ``src`` trees that no call outside its own body sets, by position or by keyword."""
    calls = list(_calls([*src, *others]))
    found = set()
    for path, tree in src:
        for key, node in _definitions(path, tree):
            name = key.rsplit(".", 1)[-1]
            if name.startswith("_") or not isinstance(node, _DEFS[:2]):
                continue
            callers = [
                (count, keywords) for p, n, line, count, keywords in calls
                if n == name and not (p == path and node.lineno <= line <= node.end_lineno)
            ]
            for param, position in _optional(node, key.count(".") == 2).items():
                if not any(
                    keywords is None or param in keywords or (position is not None and position < count)
                    for count, keywords in callers
                ):
                    found.add(f"{key}.{param}")
    return found


def test_every_src_definition_has_a_product_caller_or_a_reason():
    assert set(ALLOWED.values()) <= REASONS
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


def test_every_optional_parameter_is_set_by_a_product_call_or_has_a_reason():
    assert set(UNSET_ALLOWED.values()) <= REASONS
    trees = list(_product_trees())
    src = [(path, tree) for path, tree in trees if path.parent.name == "heavylab"]
    unset = {
        key for key in _unset_parameters(src, [t for t in trees if t not in src])
        if key.rsplit(".", 1)[0] not in ALLOWED
    }
    assert sorted(unset - UNSET_ALLOWED.keys()) == [], "optional parameters only tests set"
    assert sorted(UNSET_ALLOWED.keys() - unset) == [], "allowlist entries that are now set or gone"


_PARAMS = """
def plain(a, b=1, c=2, *, d=3, e=4): pass
def spread(a=1, *, b=2): pass
def recursive(a=1):
    return recursive(a=2)
def _private(a=1): pass

class Public:
    def method(self, a=1, b=2): pass
    @staticmethod
    def static(a=1, b=2): pass

def user(x, args, kw):
    plain(0, 1, e=5)
    spread(*args, **kw)
    x.method(1)
    Public.static(1)
"""


def test_parameter_guard_counts_positions_keywords_and_spreads():
    assert _unset_parameters([(Path("mod.py"), ast.parse(_PARAMS))]) == {
        "mod.plain.c", "mod.plain.d", "mod.recursive.a", "mod.Public.method.b", "mod.Public.static.b",
    }


def test_guard_reads_callers_in_other_trees():
    user = ast.parse("import mod\nmod.user(1, 2)\nprint('Public.method')\n")
    assert _uncalled([(Path("mod.py"), ast.parse(_MODULE))], [(Path("use.py"), user)]) == {
        "mod.by_param", "mod.by_local", "mod.by_string", "mod.by_lambda_param",
    }
