"""The numpy assignment solver against SciPy's, which stays a test-only oracle.

:func:`repro.utils.assignment.linear_sum_assignment` must return exactly the
``(row_ind, col_ind)`` of ``scipy.optimize.linear_sum_assignment``, ties
included: integer contingency tables are full of ties, and the tie-break
decides the aligned labels and the accuracy mapping.  Four tie-break mutants
of the solver are built from its own source and must each disagree with
SciPy somewhere on a fixed corpus, so the corpus is known to exercise every
tie-break rule.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import accuracy
from repro.supervision import alignment
from repro.utils import assignment
from repro.utils.assignment import linear_sum_assignment


def _assert_same_as_scipy(cost) -> None:
    expected_rows, expected_cols = scipy.optimize.linear_sum_assignment(cost)
    rows, cols = linear_sum_assignment(cost)
    np.testing.assert_array_equal(rows, expected_rows)
    np.testing.assert_array_equal(cols, expected_cols)


def _cost_forms(table: np.ndarray) -> dict[str, np.ndarray]:
    """The table itself, the cost partition alignment builds (the negated
    table) and the one ``best_label_mapping`` builds (negated gain over each
    cluster's majority, on the transpose)."""
    return {
        "table": table,
        "negated": -table,
        "best_label_mapping": -(table.T - table.max(axis=0)[:, None]),
    }


@st.composite
def tables(draw) -> np.ndarray:
    shape = (draw(st.integers(1, 11)), draw(st.integers(1, 11)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(
        st.sampled_from(["ties", "counts", "float", "zero_rows", "all_equal"])
    )
    if kind == "ties":  # tiny integer range: most entries tie
        return rng.integers(0, 3, size=shape)
    if kind == "counts":
        return rng.integers(0, 40, size=shape)
    if kind == "float":
        return rng.random(shape)
    if kind == "zero_rows":
        table = rng.integers(0, 5, size=shape)
        table[rng.random(shape[0]) < 0.5] = 0
        return table
    return np.full(shape, draw(st.integers(0, 5)))


@given(tables())
@settings(max_examples=300, deadline=None)
def test_matches_scipy_on_random_tables(table):
    for form in _cost_forms(table).values():
        _assert_same_as_scipy(form)
        _assert_same_as_scipy(form.T)


EDGE_CASES = {
    "1x1": np.array([[3]]),
    "1xK": np.array([[2, 0, 2, 1, 0]]),
    "Kx1": np.array([[2], [0], [2], [1], [0]]),
    "all_zero": np.zeros((4, 4)),
    "all_zero_rows": np.array([[0, 0, 0], [3, 1, 3], [0, 0, 0]]),
    "all_equal_wide": np.full((3, 6), 7),
    "all_equal_tall": np.full((6, 3), 7),
    "identity_ties": np.eye(5, dtype=int),
    "negative": -np.arange(12).reshape(3, 4),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_matches_scipy_on_edge_cases(name):
    for form in _cost_forms(EDGE_CASES[name]).values():
        _assert_same_as_scipy(form)
        _assert_same_as_scipy(form.T)


def test_matches_scipy_with_forbidden_entries():
    cost = np.array([[np.inf, 1.0, 2.0, 1.0], [1.0, np.inf, 1.0, 0.0], [2.0, 1.0, np.inf, 1.0]])
    _assert_same_as_scipy(cost)
    _assert_same_as_scipy(cost.T)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_empty_matrix(shape):
    rows, cols = linear_sum_assignment(np.zeros(shape))
    assert rows.shape == cols.shape == (0,)


def test_returns_integer_index_arrays():
    rows, cols = linear_sum_assignment(np.array([[4.0, 1.0], [2.0, 0.0], [1.0, 3.0]]))
    assert rows.dtype.kind == cols.dtype.kind == "i"
    assert rows.tolist() == [1, 2] and cols.tolist() == [1, 0]


@pytest.mark.parametrize(
    "cost, message",
    [
        (np.array([1.0, 2.0]), "2-D"),
        (np.array([[1.0, np.nan], [0.0, 1.0]]), "invalid numeric entries"),
        (np.array([[1.0, -np.inf], [0.0, 1.0]]), "invalid numeric entries"),
        (np.array([[np.inf, np.inf], [0.0, 1.0]]), "infeasible"),
    ],
    ids=["1-D", "nan", "-inf", "infeasible"],
)
def test_rejects_what_scipy_rejects(cost, message):
    with pytest.raises(ValueError):
        scipy.optimize.linear_sum_assignment(cost)
    with pytest.raises(ValueError, match=message):
        linear_sum_assignment(cost)


@st.composite
def label_pairs(draw) -> tuple[np.ndarray, np.ndarray]:
    n_samples = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    first = rng.integers(0, draw(st.integers(1, 8)), size=n_samples)
    second = rng.integers(0, draw(st.integers(1, 8)), size=n_samples)
    return first, second


@given(label_pairs())
@settings(max_examples=150, deadline=None)
def test_call_sites_match_scipy(pair):
    """Alignment and the accuracy mapping give the same answer on either
    solver."""
    first, second = pair
    aligned = alignment.align_to_reference(first, second)
    mapping = accuracy.best_label_mapping(first, second)
    with pytest.MonkeyPatch.context() as patch:
        for module in (alignment, accuracy):
            patch.setattr(
                module, "linear_sum_assignment", scipy.optimize.linear_sum_assignment
            )
        np.testing.assert_array_equal(
            alignment.align_to_reference(first, second), aligned
        )
        assert accuracy.best_label_mapping(first, second) == mapping


# ---------------------------------------------------------------- mutants
SOURCE = inspect.getsource(assignment)

#: Each mutant replaces one line of the solver; the replaced text must occur
#: exactly once, so editing that line fails here until the mutant follows.
MUTANTS = {
    "forward-scan": (
        "remaining = list(range(n_cols - 1, -1, -1))",
        "remaining = list(range(n_cols))",
    ),
    "no-unassigned-preference": (
        "if candidate < lowest or (candidate == lowest and row4col[j] == -1):",
        "if candidate < lowest:",
    ),
    "first-unassigned-tie": (
        "if candidate < lowest or (candidate == lowest and row4col[j] == -1):",
        "if candidate < lowest or (candidate == lowest and row4col[j] == -1"
        " and row4col[remaining[index]] != -1):",
    ),
    "pop-remove": (
        "remaining[index] = remaining[-1]\n            remaining.pop()",
        "remaining.pop(index)",
    ),
}


def _build_solver(source: str):
    namespace: dict = {}
    exec(compile(source, assignment.__file__, "exec"), namespace)
    return namespace["linear_sum_assignment"]


def _mutant_corpus() -> list[np.ndarray]:
    """A fixed corpus of small tie-heavy tables in every cost form."""
    rng = np.random.default_rng(20160)
    corpus = []
    for _ in range(400):
        shape = tuple(rng.integers(1, 12, size=2))
        table = rng.integers(0, int(rng.choice([3, 6, 30])), size=shape)
        corpus.extend(_cost_forms(table).values())
    return corpus


@pytest.fixture(scope="module")
def corpus_with_scipy():
    corpus = _mutant_corpus()
    return [(cost, scipy.optimize.linear_sum_assignment(cost)) for cost in corpus]


def _n_differing(solver, corpus_with_scipy) -> int:
    differing = 0
    for cost, (expected_rows, expected_cols) in corpus_with_scipy:
        rows, cols = solver(cost)
        if not (
            np.array_equal(rows, expected_rows) and np.array_equal(cols, expected_cols)
        ):
            differing += 1
    return differing


def test_unmutated_source_matches_scipy_on_mutant_corpus(corpus_with_scipy):
    assert _n_differing(_build_solver(SOURCE), corpus_with_scipy) == 0


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_differs_from_scipy(name, corpus_with_scipy):
    old, new = MUTANTS[name]
    assert SOURCE.count(old) == 1, f"mutant {name!r} no longer applies"
    mutant = _build_solver(SOURCE.replace(old, new))
    assert _n_differing(mutant, corpus_with_scipy) > 0
