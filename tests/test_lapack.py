"""The model's solves call ``dtrtrs`` directly: scipy's bytes, fixed counts, typed failures."""

import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_triangular

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
    """Record every call through the model module's ``dtrtrs`` binding.

    Each entry is (copy of the factor, copy of the right-hand side, keyword
    arguments, solution): the factor buffer is overwritten by the append
    after its forward solve.
    """
    calls = []
    routine = model_module.dtrtrs

    def spy(L, b, **kwargs):
        x, info = routine(L, b, **kwargs)
        calls.append((L.copy(order="F"), np.array(b), kwargs, x.copy()))
        return x, info

    monkeypatch.setattr(model_module, "dtrtrs", spy)
    return calls


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
    kinds = Counter((b.shape[1] if b.ndim == 2 else 0, kw["trans"]) for _, b, kw, _ in lapack_calls)
    # alpha's forward and backward solves: from_data, append, ingest and the re-solve
    assert kinds[d, 0] == kinds[d, 1] == 4
    # one-column forward solves: two appends' v = L^-1 k and two queries' variances
    assert kinds[0, 0] == 4 and len(lapack_calls) == 12
    for L, b, kwargs, x in lapack_calls:
        assert kwargs["lower"] == 1
        ref = solve_triangular(L, b, lower=True, trans=kwargs["trans"])
        assert x.shape == ref.shape and x.tobytes() == ref.tobytes()


def test_lapack_call_counts_per_operation(lapack_calls):
    def counted(op, *args):
        lapack_calls.clear()
        result = op(*args)
        return result, len(lapack_calls)

    rng = np.random.default_rng(4)
    model, calls = counted(AgentModel.from_data, _cfg(1), rng.normal(size=(12, 1)), np.ones(12))
    assert calls == 2  # alpha: forward, backward
    # v = L^-1 k, then alpha
    assert counted(model.append_point, [0.3], [0.1])[1] == 3
    assert counted(ingest, model, [0.9], [0.2], 20)[1] == 3
    # at capacity: the deletion solves nothing, the append as above
    assert counted(ingest, model, [-0.9], [0.4], model.n)[1] == 3
    assert counted(model.posterior_var, [0.5])[1] == 1
    assert counted(model.classical_predict, [0.5])[1] == 1
    assert counted(model.posterior_mean, [0.5])[1] == 0
    # a bare deletion solves nothing until a read re-solves alpha
    assert counted(delete_and_reallocate, model, 3)[1] == 0
    assert counted(lambda: model.alpha)[1] == 2
    assert model.refactor_fallbacks == 0
    # an empty model's alpha is the empty array: nothing to solve
    empty, calls = counted(AgentModel.from_data, _cfg(2), np.zeros((0, 1)), np.zeros((0, 2)))
    assert calls == 0 and empty.alpha.shape == (0, 2) and empty.errors.shape == (2, 0)


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
