"""Every order-sensitive product of the package, one function each.

A product sums many terms, and the order of that sum moves a result's
last bits. Where numpy hands the sum to BLAS or LAPACK, the order is the
one of the kernel that OpenBLAS picks from the CPU at run time, so the
same fit can write other bytes on another host. Every such product in
the package is one of the functions below, and no other module may form
one (``tests/test_kernels.py`` checks the source). This docstring is the
map of which pinned bytes depend on the host:

- Through BLAS or LAPACK today, so host-dependent:
  - ``sq_norm`` (a dot product): ``metrics.rmse``, so every report and
    bundle ``rmse``, and BLR's evidence updates;
  - ``gram``, ``gram_rhs``, ``matvec``, ``solve`` and ``inverse``: the
    normal equations of LR and BLR and BLR's evidence updates;
  - ``batched_matmul``: the network block's forward pass, its loss and
    its first- and second-layer gradients (numpy's matmul calls BLAS on
    each slice whose strides allow it).
- Not through BLAS:
  - ``outer_rows`` is exact: each element is one product, with no sum;
  - ``sum_rows`` sums in the order of numpy's own einsum loop.

Kept outside on purpose:

- ``np.tanh``, the one host-dependent ufunc: numpy picks its SIMD loop
  from the CPU, and the network's forward pass and ``predict`` both use
  it (see ROADMAP, Decisions).
- The row-by-row sums of ``predict`` (``linear._affine`` and
  ``NeuralNetRegressor.predict``) are numpy reductions, not products, so
  that a row's prediction does not depend on the other rows of its
  batch; they stay where they are.

Each body is the expression its call site used, so moving a product here
moved no byte.
"""

from __future__ import annotations

import numpy as np

LinAlgError = np.linalg.LinAlgError  # what ``solve`` and ``inverse`` raise for a singular matrix


def sq_norm(v: np.ndarray) -> float:
    """``v @ v`` of a vector."""
    return v @ v


def gram(Z: np.ndarray) -> np.ndarray:
    """``Z' Z``."""
    return Z.T @ Z


def gram_rhs(Z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``Z' y``."""
    return Z.T @ y


def matvec(Z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``Z m``."""
    return Z @ m


def solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The ``x`` of ``A x = b``; LinAlgError if ``A`` is singular."""
    return np.linalg.solve(A, b)


def inverse(A: np.ndarray) -> np.ndarray:
    """``A``'s inverse; LinAlgError if ``A`` is singular."""
    return np.linalg.inv(A)


def batched_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``a @ b`` for each stacked pair of matrices, written into ``out``."""
    np.matmul(a, b, out=out)


def outer_rows(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """``out[c, n, h] = a[c, n] * b[c, h]``: each row's outer product."""
    np.einsum("cn,ch->cnh", a, b, out=out)


def sum_rows(a: np.ndarray, out: np.ndarray) -> None:
    """``out[c, h]``, the sum of ``a[c, :, h]`` over the middle axis."""
    np.einsum("cnh->ch", a, out=out)
