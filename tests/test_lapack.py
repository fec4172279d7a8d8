"""The model's solves call LAPACK directly: scipy's bytes, scipy's counts, typed failures."""

import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular

from eigp import AgentModel, InternalConsistencyError, KernelConfig, delete_and_reallocate, ingest
from eigp import model as model_module

SRC = Path(__file__).resolve().parents[1] / "src" / "eigp"
WRAPPERS = {"solve_triangular", "cho_solve"}


def _cfg(d):
    return KernelConfig(signal_variance=1.3, lengthscale=0.6, noise_variance=0.05, output_dim=d)


def _model(n, d, seed=0):
    rng = np.random.default_rng(seed)
    return AgentModel.from_data(_cfg(d), rng.normal(size=(n, 1)), rng.normal(size=(n, d)))


@pytest.fixture
def lapack_calls(monkeypatch):
    """Record every call through the model module's LAPACK bindings.

    Each entry is (routine name, copy of the factor, copy of the right-hand
    side, keyword arguments, solution): the factor buffer is overwritten by
    the append after its forward solve.
    """
    calls = []
    for name in ("dtrtrs", "dpotrs"):
        routine = getattr(model_module, name)

        def spy(L, b, _name=name, _routine=routine, **kwargs):
            x, info = _routine(L, b, **kwargs)
            calls.append((_name, L.copy(order="F"), np.array(b), kwargs, x.copy()))
            return x, info

        monkeypatch.setattr(model_module, name, spy)
    return calls


def _scipy_solution(name, L, b, kwargs):
    """scipy's wrapped solve of the same system, with its default checks."""
    assert kwargs.pop("lower") == 1
    if name == "dpotrs":
        assert kwargs == {}
        return cho_solve((L, True), b)
    return solve_triangular(L, b, lower=True, trans=kwargs.pop("trans", 0))


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 100])
def test_solves_equal_scipy_bit_for_bit(lapack_calls, n, d):
    model = _model(n, d)
    model.append_point([0.25], np.linspace(-1.0, 1.0, d))
    ingest(model, [-0.4], np.full(d, 0.3), capacity=n + 1)  # at capacity: delete, then append
    model.posterior_var([0.1])
    model.classical_predict([0.7])
    delete_and_reallocate(model, 0)
    model.alpha  # the bare deletion's re-solve
    kinds = [
        (name, b.shape[1] if b.ndim == 2 else 0, kw.get("trans", 0))
        for name, _, b, kw, _ in lapack_calls
    ]
    assert ("dtrtrs", d + 1, 0) in kinds  # the append's [k Y] forward solve
    assert ("dtrtrs", d, 1) in kinds  # alpha's backward solve
    assert ("dtrtrs", 0, 0) in kinds  # a query's variance solve
    assert kinds.count(("dpotrs", d, 0)) == 2  # from_data and the re-solve
    for name, L, b, kwargs, x in lapack_calls:
        ref = _scipy_solution(name, L, b, dict(kwargs))
        assert x.shape == ref.shape and x.tobytes() == ref.tobytes()


def test_lapack_call_counts_per_operation(lapack_calls):
    def counted(op, *args):
        lapack_calls.clear()
        result = op(*args)
        return result, Counter(name for name, *_ in lapack_calls)

    rng = np.random.default_rng(4)
    model, calls = counted(AgentModel.from_data, _cfg(1), rng.normal(size=(12, 1)), np.ones(12))
    assert calls == {"dpotrs": 1}
    assert counted(model.append_point, [0.3], [0.1])[1] == {"dtrtrs": 2}
    assert counted(ingest, model, [0.9], [0.2], 20)[1] == {"dtrtrs": 2}
    # at capacity: the deletion solves nothing, the append solves alpha once
    assert counted(ingest, model, [-0.9], [0.4], model.n)[1] == {"dtrtrs": 2}
    assert counted(model.posterior_var, [0.5])[1] == {"dtrtrs": 1}
    assert counted(model.classical_predict, [0.5])[1] == {"dtrtrs": 1}
    assert counted(model.posterior_mean, [0.5])[1] == {}
    assert model.refactor_fallbacks == 0
    # an empty model's alpha is the empty array: nothing to solve
    empty, calls = counted(AgentModel.from_data, _cfg(2), np.zeros((0, 1)), np.zeros((0, 2)))
    assert calls == {} and empty.alpha.shape == (0, 2) and empty.errors.shape == (2, 0)


def test_zero_on_the_factor_diagonal_is_an_internal_error():
    model = _model(6, 1)
    model.chol[2, 2] = 0.0
    with pytest.raises(InternalConsistencyError, match="info 3"):
        model.posterior_var([0.1])


def test_no_module_reaches_the_scipy_solve_wrappers():
    """The wrappers cost several times the solve itself at N = 100; keep them out of src/."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name.rsplit(".", 1)[-1] for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names & WRAPPERS]
    assert found == []
