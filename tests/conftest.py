import pytest


class _Products(list):
    """The column count of each product, in order; ``rows`` holds each
    product's row count in the same order."""

    def __init__(self):
        super().__init__()
        self.rows = []

    def watch(self, op):
        """Count every product with ``op``'s matrix, or a block of it, from now
        on: the built operator's matrix is swapped for a counting wrapper."""
        object.__setattr__(op, "matrix", _CountingMatrix(op.matrix, self))
        return op


class _CountingMatrix:
    """An operator's matrix, or a block of it, that records the rows and
    columns of each product."""

    def __init__(self, matrix, products):
        self.matrix, self.products = matrix, products

    @property
    def shape(self):
        return self.matrix.shape

    def __getitem__(self, key):
        return _CountingMatrix(self.matrix[key], self.products)

    def __matmul__(self, v):
        self.products.append(1 if v.ndim == 1 else v.shape[1])
        self.products.rows.append(self.matrix.shape[0])
        return self.matrix @ v


@pytest.fixture
def products():
    """The column count of every product made with the matrix of an operator
    given to its ``watch``, or a block of it, in order; their row counts are
    in its ``rows``."""
    return _Products()
