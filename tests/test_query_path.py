"""The per-query path calls ufuncs and array methods, not numpy's Python-level wrappers.

Each wrapper below re-dispatches in Python before it reaches the ufunc or
method that does the work, and on the short arrays of one query that layer
costs more than the arithmetic: np.std alone took a fifth of an 8-agent
aEIGP round's weighing.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "eigp"

WRAPPERS = {
    ("np", "std"),
    ("np", "unique"),
    ("np", "flatnonzero"),
    ("np", "atleast_1d"),
    ("np", "nextafter"),
    ("np", "linalg", "norm"),
    ("np", "cumsum"),
    ("np", "any"),
    ("np", "sum"),
}

# every function a query round runs, by (module, qualified name); the *_rows
# row kernels of the aggregation module are added by their pattern
PER_QUERY = {
    ("kernels", "as_input"),
    ("kernels", "kernel_vec"),
    ("kernels", "gram"),
    ("kernels", "_scale_exp"),
    ("quality", "kernel_rows"),
    ("quality", "select_indices"),
    ("quality", "score_and_approx_mean"),
    ("quality", "RhoPolicy.constant_rho"),
    ("aggregation", "evaluate_round"),
    ("aggregation", "joint_predict"),
    ("aggregation", "_weigh"),
    ("aggregation", "_chosen"),
    ("aggregation", "_row_std"),
    ("aggregation", "_log_precision_gain"),
    ("aggregation", "AggregationPlan.weights"),
    ("model", "_solve"),
    ("model", "AgentModel._variance"),
    ("model", "AgentModel.posterior_var"),
    ("model", "AgentModel.classical_predict"),
    ("bounds", "tilde_eta"),
    ("sim", "predict_round"),
    ("sim", "_run"),
    ("sim", "_round_bounds"),
    ("sim", "_RunningSmse.update"),
}


def _functions(tree, prefix=""):
    """(qualified name, node) of every function, methods under their class name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node, prefix + node.name + ".")


def _dotted(node):
    """("np", "linalg", "norm") for the expression np.linalg.norm, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return (node.id, *reversed(parts))
    return None


def _per_query_functions():
    found = {}
    for module in ("kernels", "quality", "aggregation", "model", "bounds", "sim"):
        path = SRC / f"{module}.py"
        for name, node in _functions(ast.parse(path.read_text(), filename=str(path))):
            rows_kernel = name.startswith("_") and name.endswith("_rows")
            if (module, name) in PER_QUERY or (module == "aggregation" and rows_kernel):
                found[module, name] = node
    return found


def test_every_named_per_query_function_exists():
    found = _per_query_functions()
    assert PER_QUERY <= set(found)
    rows_kernels = {name for module, name in found if name.endswith("_rows")}
    assert {
        "_adaptive_rows", "_minmax_rows", "_normalize_rows", "_aeigp_rows", "_family_rows",
        "_generalized_rows", "_baseline_rows",
    } <= rows_kernels


def test_per_query_functions_call_no_numpy_wrapper():
    calls = []
    for (module, name), fn in sorted(_per_query_functions().items()):
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and _dotted(node.func) in WRAPPERS:
                calls.append(f"{module}.py:{node.lineno} {name} calls {ast.unparse(node.func)}")
    assert calls == []
