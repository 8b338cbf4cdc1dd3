import numpy as np
import pytest

from flowmoe.tensor import RngState, Tensor


@pytest.fixture
def rng():
    return RngState(1234)


def spaced_logits(rng: RngState, shape, min_gap: float = 1e-3) -> np.ndarray:
    """Random logit rows whose values are pairwise separated by min_gap,
    so finite-difference probes never flip a top-k or argmax selection."""
    while True:
        values = 3.0 * rng.normal(shape)
        flat = np.sort(values.reshape(values.shape[0], -1) if values.ndim > 1
                       else values.reshape(1, -1), axis=-1)
        if np.min(np.diff(flat, axis=-1)) > min_gap:
            return values


@pytest.fixture
def flow_rows():
    from csv_fixture import fixture_rows
    return fixture_rows()


@pytest.fixture
def flow_csv(tmp_path, flow_rows):
    from csv_fixture import write_flow_csv
    return write_flow_csv(tmp_path / "flows.csv", flow_rows)


def check_shared_incoming_gradient(branch, first, second, probe: np.ndarray) -> None:
    """Check that an op's closure leaves its incoming gradient untouched.

    ``branch(*leaves)`` builds the op's output from leaf tensors over a list
    of arrays; ``first`` and ``second`` are two such lists.  In
    ``branch(first) + branch(second)`` both outputs receive the same
    gradient array, so a closure that wrote into it would change what the
    other branch sees.  Each leaf's gradient must equal the one that branch
    gets backpropagated alone, from a gradient of its own.
    """
    def leaves(arrays):
        return [Tensor(a.copy(), requires_grad=True) for a in arrays]

    alone = []
    for arrays in (first, second):
        own = leaves(arrays)
        (branch(*own) * Tensor(probe)).sum().backward()
        alone.append([leaf.grad for leaf in own])
    shared = leaves(first), leaves(second)
    ((branch(*shared[0]) + branch(*shared[1])) * Tensor(probe)).sum().backward()
    for own, expected in zip(shared, alone):
        for leaf, grad in zip(own, expected):
            np.testing.assert_array_equal(leaf.grad, grad)
