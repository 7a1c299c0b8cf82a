import pytest

from specsamp import VariationOperator


class _CountingMatrix:
    """An operator's product matrix that records the columns of each product."""

    def __init__(self, matrix, products):
        self.matrix, self.products = matrix, products

    def __matmul__(self, v):
        self.products.append(1 if v.ndim == 1 else v.shape[1])
        return self.matrix @ v


@pytest.fixture
def products(monkeypatch):
    """The column count of every product with any operator's product_matrix
    made while the test runs, in order."""
    made = []
    chosen = VariationOperator.__dict__["product_matrix"]
    monkeypatch.setattr(VariationOperator, "product_matrix", property(
        lambda op: _CountingMatrix(chosen.__get__(op, VariationOperator), made)))
    return made
