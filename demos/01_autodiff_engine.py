"""Tour of the tensor engine: forward math, reverse-mode gradients, and a
finite-difference cross-check.

Run: python demos/01_autodiff_engine.py
"""

import numpy as np

from flowmoe import Tensor, RngState, matmul, softmax, softplus, coefficient_of_variation_sq

# Every value in the model is a Tensor: a float64 array plus an optional
# gradient. Operations record how to push gradients back to their inputs.
a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
b = Tensor([[1.0], [1.0]], requires_grad=True)
product = matmul(a, b)
print("A @ b =", product.data.ravel())

# backward() from a scalar fills .grad on the leaves that require it (a and b)
# and releases the graph as it goes: `product` keeps its values but no .grad,
# and backpropagating the same loss again raises GraphReleasedError.
loss = (product * product).sum()
loss.backward()
print("d(sum((A@b)^2))/dA =\n", a.grad)

# Cross-check one entry by central finite differences.
h = 1e-6
a.data[0, 0] += h
up = float((matmul(a, b) * matmul(a, b)).sum().data)
a.data[0, 0] -= 2 * h
down = float((matmul(a, b) * matmul(a, b)).sum().data)
a.data[0, 0] += h
print("finite difference:", (up - down) / (2 * h), " autodiff:", a.grad[0, 0])

# softmax treats -inf as "masked": those positions come out exactly 0.
# That is how the router silences non-top-k experts.
masked = Tensor([3.0, -np.inf, 2.0])
print("\nsoftmax([3, -inf, 2]) =", softmax(masked).data)

# softplus is the noise-scale nonlinearity: smooth, positive, overflow-safe.
print("softplus(-30, 0, 30) =",
      [float(softplus(Tensor(v)).data) for v in (-30.0, 0.0, 30.0)])

# The squared coefficient of variation powers both balancing losses:
# 0 for perfectly even statistics, 1 when one of two experts gets everything.
print("\nCV^2 of [5, 5, 5] =", float(coefficient_of_variation_sq(Tensor([5.0, 5.0, 5.0])).data))
print("CV^2 of [10, 0]   =", float(coefficient_of_variation_sq(Tensor([10.0, 0.0])).data))

# All randomness flows through an explicit seeded state; the same seed
# always reproduces the same stream, bit for bit.
print("\nsame seed, same draws:",
      np.array_equal(RngState(7).normal((3,)), RngState(7).normal((3,))))
