"""Dense float64 arrays with reverse-mode automatic differentiation.

Every value flowing through the model is a :class:`Tensor`: a numpy array
plus an optional gradient and a closure that knows how to push gradients to
the tensors it was computed from.  Calling ``backward()`` on a scalar walks
the recorded graph in reverse topological order and accumulates ``grad`` on
every leaf that requires it (parameters and user tensors made with
``requires_grad=True``).  The walk releases the graph as it goes: each op
output drops its gradient, its closure and its parents once its closure has
run, so a graph backpropagates once, and a second ``backward()`` that
reaches it raises :class:`~flowmoe.errors.GraphReleasedError`.

An op joins the graph one way: it defines its closure ``_backward(grad)``,
then ends with ``Tensor.result_of(data, parents, op).with_backward(_backward)``.
The output keeps its parents and the closure only when grad mode is on and
some parent requires grad.  The closure exists before its output, so it
cannot capture it, and graphs hold no reference cycles.

The engine is deliberately small: double precision only, no views into
shared storage, no in-place graph ops, and no global random state.  All
randomness goes through an explicit :class:`RngState`.  Inside
:func:`no_grad` no op records a graph, so inference is plain numpy.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import DegenerateInputError, DimensionError, GraphReleasedError

# Epsilon added to the mean in the coefficient-of-variation denominator so
# the balancing losses stay finite on all-zero statistics.
CV_EPSILON = 1e-10


# False inside no_grad(): op outputs then record no parents and no closure.
_grad_enabled = True


def _released(grad):
    """The closure of an op output whose backward has already run."""
    raise GraphReleasedError("this graph has already been backpropagated and released")


@contextlib.contextmanager
def no_grad():
    """Run ops without recording the autodiff graph.

    Outputs of ops run inside the context never require grad, whatever
    their inputs; leaves keep their own flag.  Nests, and restores the
    previous state on exit, exceptions included.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def is_grad_enabled() -> bool:
    """Whether ops currently record the autodiff graph."""
    return _grad_enabled


def _as_tensor(value) -> "Tensor":
    return value if isinstance(value, Tensor) else Tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A float64 array with optional gradient tracking.

    An op output that requires grad is a node of the autodiff graph; any
    other tensor is a leaf.  ``backward()`` leaves gradients on the leaves
    only and consumes the graph it walks, so each graph backpropagates once.

    Attributes:
        data: the values, always a contiguous-enough float64 ndarray.
        grad: accumulated partial derivatives, same shape as ``data``,
            or None before any backward pass.  Kept on leaves only: an op
            output's gradient is dropped once its closure has consumed it.
        grad_rows: boolean mask over axis 0 of the rows ``grad`` can be
            nonzero in, or None when the gradient is dense.  Optimizers
            leave the other rows (and their state) alone.
        requires_grad: whether backward passes accumulate into ``grad``.
    """

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.grad_rows = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents: tuple = ()
        self._op = ""

    # -- graph construction -------------------------------------------------

    @staticmethod
    def joins_graph(parents) -> bool:
        """Whether an op output computed from ``parents`` is a graph node:
        grad mode is on and some parent requires grad."""
        return _grad_enabled and any(p.requires_grad for p in parents)

    @classmethod
    def result_of(cls, data, parents, op: str = "") -> "Tensor":
        """The output ``data`` of op ``op`` on ``parents``.  It requires grad,
        and keeps its parents and op tag, exactly when it :meth:`joins_graph`;
        inside :func:`no_grad` it never does."""
        out = cls(data)
        out.requires_grad = cls.joins_graph(parents)
        if out.requires_grad:
            out._parents = tuple(parents)
            out._op = op
        return out

    def with_backward(self, backward) -> "Tensor":
        """This op output, with ``backward(grad)``, which pushes the output's
        gradient to the parents, as its closure if the output is a graph node;
        any other output drops ``backward`` unused."""
        if self.requires_grad:
            self._backward = backward
        return self

    def accumulate_grad(self, grad: np.ndarray, rows: np.ndarray | None = None) -> None:
        """Add ``grad`` into ``self.grad``.  ``rows`` is a boolean mask over
        axis 0 outside of which ``grad`` is zero by construction (rows that
        took no part in the forward pass); the masks of all contributions
        are OR-ed, and any dense contribution makes the gradient dense."""
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad, self.grad_rows = grad, rows
        else:
            self.grad = self.grad + grad
            self.grad_rows = None if rows is None or self.grad_rows is None \
                else self.grad_rows | rows

    # -- introspection -------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(
                f"item() needs a single-element tensor, got shape {self.data.shape}"
            )
        return float(self.data.item())

    def __repr__(self):
        op = f", op={self._op!r}" if self._op else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{op})"

    # -- backward pass -------------------------------------------------------

    def backward(self) -> None:
        """Reverse-mode gradient accumulation from this scalar into the
        leaves, releasing the graph as it goes: once an op output's closure
        has run, the output drops its closure, its parents and its gradient.
        Raises :class:`GraphReleasedError`, before any gradient moves, if
        the graph reaches an output an earlier backward released."""
        if self.data.size != 1:
            raise DimensionError(
                f"backward() starts from a scalar loss, got shape {self.data.shape}"
            )
        order = self._topo_order()
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node._backward, node._parents = _released, ()
                node.grad = node.grad_rows = None

    def _topo_order(self) -> list:
        """Iterative post-order over the graph: parents before children."""
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _released:
                raise GraphReleasedError(
                    f"backward() reached a {node._op!r} output whose graph an earlier "
                    "backward() released; recompute the forward pass to backpropagate again")
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return order

    def zero_grad(self) -> None:
        self.grad = None
        self.grad_rows = None

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other)
        def _backward(grad):
            self.accumulate_grad(grad)
            other.accumulate_grad(grad)
        return Tensor.result_of(self.data + other.data, (self, other), "+") \
            .with_backward(_backward)

    __radd__ = __add__

    def __mul__(self, other):
        other = _as_tensor(other)
        def _backward(grad):
            self.accumulate_grad(grad * other.data)
            other.accumulate_grad(grad * self.data)
        return Tensor.result_of(self.data * other.data, (self, other), "*") \
            .with_backward(_backward)

    __rmul__ = __mul__

    def __sub__(self, other):
        other = _as_tensor(other)
        def _backward(grad):
            self.accumulate_grad(grad)
            other.accumulate_grad(-grad)
        return Tensor.result_of(self.data - other.data, (self, other), "-") \
            .with_backward(_backward)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    # -- shape ops -----------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        def _backward(grad):
            self.accumulate_grad(grad.reshape(self.data.shape))
        return Tensor.result_of(self.data.reshape(shape), (self,), "reshape") \
            .with_backward(_backward)

    @property
    def T(self) -> "Tensor":
        if self.data.ndim != 2:
            raise DimensionError(f"transpose expects a matrix, got shape {self.data.shape}")
        def _backward(grad):
            self.accumulate_grad(grad.T)
        return Tensor.result_of(self.data.T, (self,), "T").with_backward(_backward)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def _backward(grad):
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self.accumulate_grad(np.broadcast_to(grad, self.data.shape))
        return Tensor.result_of(self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum") \
            .with_backward(_backward)


# -- elementwise functions ---------------------------------------------------


def softplus_and_sigmoid(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Overflow-safe ln(1 + e^x) and its derivative, the sigmoid of x.

    Computed as max(x, 0) + log1p(exp(-|x|)) with numpy's vectorised exp
    and log1p, within two ulps of ``np.logaddexp(0, x)`` (which calls scalar
    libm per element and is several times slower) and exact on 0, +-inf and
    NaN.  The sigmoid reuses exp(-|x|) without overflow: 1 / (1 + e^-|x|)
    for x >= 0 and e^-|x| / (1 + e^-|x|) below; exact on 0, +-inf and NaN.
    """
    decay = np.exp(-np.abs(x))
    sig = np.maximum(decay, x >= 0.0)
    sig /= 1.0 + decay
    data = np.log1p(decay)
    data += np.maximum(x, 0.0)
    return data, sig


def softplus(t: Tensor) -> Tensor:
    """ln(1 + e^x), strictly positive for finite input; see
    :func:`softplus_and_sigmoid`.  The node keeps the sigmoid for its
    backward."""
    t = _as_tensor(t)
    data, sig = softplus_and_sigmoid(t.data)
    def _backward(grad):
        t.accumulate_grad(grad * sig)
    return Tensor.result_of(data, (t,), "softplus").with_backward(_backward)


# The rational approximations of Cephes' erf and erfc (S. L. Moshier,
# ndtr.c), verbatim: T/U for erf on |x| < 1, P/Q for erfc on 1 <= |x| < 8,
# R/S beyond.  Highest power first; U, Q and S have a leading 1 not listed.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
# erfc(x) is 0 once x^2 exceeds the log of the largest double.
_MAXLOG = 7.09782712893383996843E2
_SQRT1_2 = 0.70710678118654752440


def _polevl(x: np.ndarray, coef: tuple, monic: bool = False, out=None) -> np.ndarray:
    """Horner's rule over ``coef``, highest power first, in place on ``out``
    (a new array if None); ``monic`` puts an implicit leading 1 before
    ``coef``."""
    if monic:
        out = np.add(x, coef[0], out=out)
        for c in coef[1:]:
            out *= x
            out += c
    else:
        out = np.multiply(x, coef[0], out=out)
        for c in coef[1:-1]:
            out += c
            out *= x
        out += coef[-1]
    return out


def _erf_ratio(x: np.ndarray) -> np.ndarray:
    """erf(x) for |x| < 1: x T(x^2) / U(x^2).  Overwrites ``x``."""
    z = np.square(x)
    out = _polevl(z, _ERF_T)
    out *= x
    out /= _polevl(z, _ERF_U, monic=True, out=x)
    return out


def _gather_abs(flat: np.ndarray, mask: np.ndarray):
    """The flat indices of ``mask``, |x| there (a new array) and x > 0."""
    index = np.flatnonzero(mask)
    w = flat[index]
    positive = w > 0.0
    return index, np.abs(w, out=w), positive


def _put_reflected(flat, index, erfc, positive) -> None:
    """Write the CDF from erfc(|x|) at ``index``: 1 - erfc/2 where x > 0 and
    erfc/2 below, as |(x > 0) - erfc/2|.  Overwrites ``erfc``."""
    erfc *= 0.5
    np.subtract(positive, erfc, out=erfc)
    flat[index] = np.abs(erfc, out=erfc)


def ndtr_and_gaussian(a) -> tuple[np.ndarray, np.ndarray]:
    """The standard normal CDF of ``a`` and the Gaussian factor exp(-a^2 / 2).

    A numpy port of Cephes' ``ndtr``: with x = a / sqrt(2), the CDF is
    (1 + erf(x)) / 2 for |x| < 1/sqrt(2) and erfc(|x|) / 2, reflected for
    x > 0, beyond.  erfc is 1 - erf below 1, exp(-x^2) times a rational
    function above, and exactly 0 once x^2 > MAXLOG, so +-inf give 1 and 0;
    NaN stays NaN.  Within a few ulps of Cephes' own C routine.  The factor
    exp(-x^2) is the one erfc uses, so phi(a) = factor / sqrt(2 pi) costs
    nothing more.

    Each region is gathered, evaluated in place and scattered back into the
    output, which holds x until then.  No other full-size float array is
    made: in a training step, fresh pages cost more than the arithmetic.
    """
    a = np.asarray(a, dtype=np.float64)
    y = np.multiply(a, _SQRT1_2, out=np.empty_like(a))
    gauss = np.abs(y, out=np.empty_like(a))
    beyond = gauss >= _SQRT1_2
    outer = gauss >= 1.0
    far = gauss >= 8.0
    with np.errstate(over="ignore"):
        np.square(y, out=gauss)
    under = gauss > _MAXLOG
    np.negative(gauss, out=gauss)
    np.exp(gauss, out=gauss)
    flat, flat_gauss = y.reshape(-1), gauss.reshape(-1)
    # 1/2 + erf(x)/2; NaN fails every comparison, lands here and stays NaN
    index = np.flatnonzero(~beyond)
    erf = _erf_ratio(flat[index])
    erf *= 0.5
    erf += 0.5
    flat[index] = erf
    index, w, positive = _gather_abs(flat, beyond & ~outer)
    erfc = _erf_ratio(w)
    np.subtract(1.0, erfc, out=erfc)
    _put_reflected(flat, index, erfc, positive)
    for mask, p, q in ((outer & ~far, _ERFC_P, _ERFC_Q), (far & ~under, _ERFC_R, _ERFC_S)):
        index, w, positive = _gather_abs(flat, mask)
        erfc = _polevl(w, p)
        g = flat_gauss[index]
        erfc *= g
        erfc /= _polevl(w, q, monic=True, out=g)
        _put_reflected(flat, index, erfc, positive)
    index = np.flatnonzero(under)
    flat[index] = flat[index] > 0.0
    return y, gauss


# -- linear algebra ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(
            f"matmul shape mismatch: {a.data.shape} x {b.data.shape}"
        )
    def _backward(grad):
        a.accumulate_grad(grad @ b.data.T)
        b.accumulate_grad(a.data.T @ grad)
    return Tensor.result_of(a.data @ b.data, (a, b), "matmul").with_backward(_backward)


def _exp_kept(data: np.ndarray, axis: int, keep: np.ndarray) -> np.ndarray:
    """exp(data - row peak) at the ``keep`` entries of a (batch, n) array,
    the peak taken over the kept entries, and exact zeros elsewhere."""
    if data.ndim != 2 or axis not in (1, -1) or keep.shape != data.shape:
        raise DimensionError(f"softmax keep= needs a (batch, n) input and mask along "
                             f"axis 1, got {data.shape}, {keep.shape}, axis {axis}")
    counts = np.count_nonzero(keep, axis=1)
    if not counts.all():
        raise DegenerateInputError("softmax keeps no entry of a row")
    flat = np.flatnonzero(keep)  # row-major: each row's kept entries together
    kept = data.reshape(-1)[flat]
    peak = np.maximum.reduceat(kept, np.cumsum(counts) - counts)
    if np.any(np.isneginf(peak)):
        raise DegenerateInputError("softmax input is -inf along the whole axis")
    kept -= np.repeat(peak, counts)
    np.exp(kept, out=kept)  # exp(-inf) == 0 exactly
    probs = np.zeros(data.shape)
    probs.reshape(-1)[flat] = kept
    return probs


def softmax(t: Tensor, axis: int = -1, keep: np.ndarray | None = None) -> Tensor:
    """Probability-normalized exponentials along `axis`.

    Inputs may contain -inf sentinels (masked entries): those map to exactly
    0 in the output.  A slice that is entirely -inf has no finite mass to
    normalize and raises :class:`DegenerateInputError`.  Stabilized by
    max-subtraction, so any finite logits are safe.

    ``keep``, a bool mask of a (batch, n) input softmaxed along axis 1,
    sets the entries outside it to 0 as well, and they get no gradient.
    Only the kept scores are exponentiated, less their row's peak, and
    scattered into a zero output, which is normalized by the same row sum;
    the zeros add nothing to it, so the output equals the softmax of a copy
    with -inf outside ``keep`` to the bit.  A row kept nowhere raises
    :class:`DegenerateInputError`.
    """
    t = _as_tensor(t)
    if keep is None:
        peak = np.max(t.data, axis=axis, keepdims=True)
        if np.any(np.isneginf(peak)):
            raise DegenerateInputError("softmax input is -inf along the whole axis")
        probs = t.data - peak
        np.exp(probs, out=probs)
    else:
        probs = _exp_kept(t.data, axis, keep)
    probs /= probs.sum(axis=axis, keepdims=True)
    def _backward(grad):
        inner = (grad * probs).sum(axis=axis, keepdims=True)
        d_t = grad - inner
        d_t *= probs
        if keep is not None:
            d_t *= keep
        t.accumulate_grad(d_t)
    return Tensor.result_of(probs, (t,), "softmax").with_backward(_backward)


def coefficient_of_variation_sq(t: Tensor) -> Tensor:
    """Squared coefficient of variation of a vector of batch statistics.

    Uses the population variance and guards the denominator with eps =
    ``CV_EPSILON``, so constant vectors (all-zero included) give zero and
    the result stays differentiable everywhere.  Equals
    (Std(v) / (Mean(v) + eps))^2.

    One ``cv_sq`` node.  With c = v - m and d = m + eps its backward is
    (2 / n) * grad * (c / d^2 - var / d^3).
    """
    t = _as_tensor(t)
    flat = t.data.reshape(-1)
    n = flat.size
    m = flat.sum() * (1.0 / n)
    centered = flat - m
    var = (centered ** 2).sum() * (1.0 / n)
    d = m + CV_EPSILON
    def _backward(grad):
        dv = (2.0 / n) * grad * (centered / d ** 2 - var / d ** 3)
        t.accumulate_grad(dv.reshape(t.data.shape))
    return Tensor.result_of(var / d ** 2, (t,), "cv_sq").with_backward(_backward)


# -- randomness --------------------------------------------------------------


class RngState:
    """Seeded PCG64 generator: the only source of randomness in the toolkit.

    The same seed always reproduces the same sample stream bit-exactly
    (numpy's PCG64 state transition is fixed and documented).  One state is
    threaded through initialization, shuffling, and gate-noise sampling so a
    whole run is a pure function of its seed.
    """

    algorithm = "pcg64"

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, shape=()) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def uniform(self, low: float, high: float, shape=()) -> np.ndarray:
        return self._gen.uniform(low, high, shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
