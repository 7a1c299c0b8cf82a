import pytest

from specsamp import VariationOperator


class _Products(list):
    """The column count of each product, in order; ``rows`` holds each
    product's row count in the same order."""

    def __init__(self):
        super().__init__()
        self.rows = []


class _CountingMatrix:
    """An operator's product matrix, or a block of it, that records the rows
    and columns of each product."""

    def __init__(self, matrix, products):
        self.matrix, self.products = matrix, products

    def __getitem__(self, key):
        return _CountingMatrix(self.matrix[key], self.products)

    def __matmul__(self, v):
        self.products.append(1 if v.ndim == 1 else v.shape[1])
        self.products.rows.append(self.matrix.shape[0])
        return self.matrix @ v


@pytest.fixture
def products(monkeypatch):
    """The column count of every product with any operator's product_matrix,
    or a block of it, made while the test runs, in order; their row counts
    are in its ``rows``."""
    made = _Products()
    chosen = VariationOperator.__dict__["product_matrix"]
    monkeypatch.setattr(VariationOperator, "product_matrix", property(
        lambda op: _CountingMatrix(chosen.__get__(op, VariationOperator), made)))
    return made
