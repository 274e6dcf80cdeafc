"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything the encoders and the ranking loss need is a composition of the
primitives in this module: matrix products, strided 2-d convolution, the
max+min spatial reduction, l2 normalization, and a small elementwise suite.
All arithmetic is float64 so that finite-difference gradient checks are
decisive.

Graphs are built eagerly: each op returns a new ``Tensor`` holding the
result, references to its inputs and a closure that routes the incoming
gradient to them.  ``Tensor.backward()`` walks the recorded graph once in
reverse topological order.  Tensors are immutable after creation except for
gradient accumulation (and in-place parameter updates by an optimizer that
owns them exclusively); a graph is single-threaded, but independent graphs
share no mutable state and may run in parallel threads.

Dropout takes an explicit seed (an int or a tuple of ints), so a forward
pass is reproducible bit-for-bit from the seed alone.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DegenerateInputError, GraphError, ShapeError

NORM_EPSILON = 1e-12  # below this l2_normalize refuses to divide


class Tensor:
    """A dense n-d float64 array, optionally tracked for differentiation.

    ``data`` is the value, ``grad`` (same shape, allocated lazily) collects
    d(loss)/d(self) during backward.  ``requires_grad`` marks trainable
    leaves; it propagates automatically through ops.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op",
                 "_backward_ran")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        self._op = "leaf"
        self._backward_ran = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return sub(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def sum(self) -> "Tensor":
        return reduce_sum(self)

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every tracked ancestor.

        Only leaves keep their gradients: each interior node drops its
        gradient and its closure (with the buffers the closure holds, such as
        conv2d's im2col matrix) once it has run, so a graph can be
        back-propagated only once.  Raises GraphError for non-scalar tensors,
        for a second call on the same tensor, and for a graph that shares a
        node with one already back-propagated (rebuild it instead of
        replaying it).
        """
        if self.data.shape != ():
            raise GraphError(f"backward() requires a scalar, got shape {self.shape}")
        if self._backward_ran:
            raise GraphError("backward() already ran for this tensor; rebuild the graph")
        self._backward_ran = True
        if not self.requires_grad:
            return
        order = _toposort(self)
        if any(node._parents and node._backward is None for node in order):
            raise GraphError("backward() already ran through part of this graph; rebuild it")
        self.grad = np.ones((), dtype=np.float64)
        for node in reversed(order):
            if node._parents:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad = node._backward = None


def _toposort(root: Tensor) -> list[Tensor]:
    # Iterative post-order so deep recurrent chains don't hit the recursion limit.
    order: list[Tensor] = []
    seen = {id(root)}
    stack: list[tuple[Tensor, Iterable[Tensor]]] = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def _result(data: np.ndarray, parents: tuple[Tensor, ...], op: str,
            backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
        out._op = op
    return out


def _accum(t: Tensor, g) -> None:
    if t.requires_grad:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad += g


def _check_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def zero_grads(tensors: Iterable[Tensor]) -> None:
    """Drop accumulated gradients (an optimizer does this after each step)."""
    for t in tensors:
        t.grad = None


def fused_op(data: np.ndarray, parents: Sequence[Tensor], name: str,
             backward: "Callable[[np.ndarray, Callable[[Tensor, np.ndarray], None]], None]") -> Tensor:
    """Build one graph node around a hand-written kernel.

    ``backward(g, accumulate)`` receives the output gradient and a callback
    that routes a gradient array to one of the parents.  Lets composite
    kernels (e.g. a whole recurrent layer) run as a single node instead of
    dozens; their gradients must be validated against finite differences or
    the op-by-op formulation.
    """
    return _result(np.asarray(data, dtype=np.float64), tuple(parents), name,
                   lambda g: backward(g, _accum))


# ---------------------------------------------------------------------------
# elementwise suite
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)

    def backward(g):
        _accum(a, g)
        _accum(b, g)

    return _result(a.data + b.data, (a, b), "add", backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("sub", a, b)

    def backward(g):
        _accum(a, g)
        _accum(b, -g)

    return _result(a.data - b.data, (a, b), "sub", backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("mul", a, b)

    def backward(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _result(a.data * b.data, (a, b), "mul", backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g):
        _accum(a, g * c)

    return _result(a.data * c, (a,), "scale", backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0

    def backward(g):
        _accum(a, g * mask)

    # np.maximum (not where) so NaN poisoning propagates instead of being masked
    return _result(np.maximum(a.data, 0.0), (a,), "relu", backward)


def reduce_sum(a: Tensor) -> Tensor:
    def backward(g):
        _accum(a, np.full_like(a.data, float(g)))

    return _result(a.data.sum(), (a,), "reduce_sum", backward)


def add_const(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(g):
        _accum(a, g)

    return _result(a.data + c, (a,), "add_const", backward)


def transpose2d(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose2d needs a matrix, got shape {a.shape}")

    def backward(g):
        _accum(a, g.T)

    return _result(a.data.T.copy(), (a,), "transpose2d", backward)


def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack same-length vectors into a matrix, one tensor per row."""
    rows = tuple(rows)
    if not rows:
        raise ShapeError("stack_rows needs at least one row")
    width = rows[0].data.shape
    for r in rows:
        if r.data.ndim != 1 or r.data.shape != width:
            raise ShapeError(f"stack_rows: row shapes {width} and {r.data.shape} differ")

    def backward(g):
        for i, r in enumerate(rows):
            _accum(r, g[i])

    return _result(np.stack([r.data for r in rows]), rows, "stack_rows", backward)


def sub_col(a: Tensor, v: Tensor) -> Tensor:
    """Subtract v[i] from every entry of row i of a matrix."""
    if a.data.ndim != 2 or v.data.ndim != 1 or a.data.shape[0] != v.data.shape[0]:
        raise ShapeError(f"sub_col: shapes {a.shape} and {v.shape} do not line up")

    def backward(g):
        _accum(a, g)
        _accum(v, -g.sum(axis=1))

    return _result(a.data - v.data[:, None], (a, v), "sub_col", backward)


def reduce_max_rows(a: Tensor) -> Tensor:
    """Per-row maximum of a matrix; gradient to the first argmax of each row."""
    if a.data.ndim != 2:
        raise ShapeError(f"reduce_max_rows needs a matrix, got shape {a.shape}")
    idx = a.data.argmax(axis=1)
    n = a.data.shape[0]

    def backward(g):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            buf[np.arange(n), idx] = g
            _accum(a, buf)

    return _result(a.data[np.arange(n), idx], (a,), "reduce_max_rows", backward)


def reduce_sum_rows(a: Tensor) -> Tensor:
    """Per-row sum of a matrix."""
    if a.data.ndim != 2:
        raise ShapeError(f"reduce_sum_rows needs a matrix, got shape {a.shape}")

    def backward(g):
        _accum(a, np.broadcast_to(g[:, None], a.data.shape))

    return _result(a.data.sum(axis=1), (a,), "reduce_sum_rows", backward)


def dropout(a: Tensor, p: float, seed, training: bool = True) -> Tensor:
    """Zero entries independently with probability ``p``, scaling survivors by 1/(1-p).

    Returns ``a`` itself when ``training`` is false or ``p == 0``.  The mask
    is a pure function of ``seed`` (an int or tuple of ints), so repeated
    calls with the same seed reproduce the same mask bit-for-bit.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return a

    rng = np.random.default_rng(seed)
    keep = rng.random(a.shape) >= p
    factor = 1.0 / (1.0 - p)

    def backward(g):
        _accum(a, g * keep * factor)

    return _result(a.data * keep * factor, (a,), "dropout", backward)


# ---------------------------------------------------------------------------
# shape and indexing ops
# ---------------------------------------------------------------------------

def take_row(a: Tensor, index: int) -> Tensor:
    """Row ``index`` of a 2-d tensor as a vector; gradient scatters back to that row."""
    if a.data.ndim != 2:
        raise ShapeError(f"take_row needs a 2-d tensor, got shape {a.shape}")
    index = int(index)

    def backward(g):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            buf[index] += g
            _accum(a, buf)

    return _result(a.data[index].copy(), (a,), "take_row", backward)


def take_rows(a: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather rows of a 2-d tensor (repeats allowed); gradients scatter-add back."""
    if a.data.ndim != 2:
        raise ShapeError(f"take_rows needs a 2-d tensor, got shape {a.shape}")
    idx = np.asarray(indices, dtype=np.int64)

    def backward(g):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            np.add.at(buf, idx, g)
            _accum(a, buf)

    return _result(a.data[idx], (a,), "take_rows", backward)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product (m,k)@(k,n) -> (m,n), or matrix-vector (m,k)@(k,) -> (m,)."""
    if a.data.ndim != 2 or b.data.ndim not in (1, 2):
        raise ShapeError(f"matmul: unsupported ranks for shapes {a.shape} and {b.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree for {a.shape} and {b.shape}")

    if b.data.ndim == 2:
        def backward(g):
            _accum(a, g @ b.data.T)
            _accum(b, a.data.T @ g)
    else:
        def backward(g):
            _accum(a, np.outer(g, b.data))
            _accum(b, a.data.T @ g)

    return _result(a.data @ b.data, (a, b), "matmul", backward)


def dot(a: Tensor, b: Tensor) -> Tensor:
    """Inner product of two same-shape tensors, as a differentiable scalar."""
    return reduce_sum(mul(a, b))


def l2_normalize(a: Tensor) -> Tensor:
    """x / ||x||_2 for a vector; errors if the norm is below NORM_EPSILON."""
    if a.data.ndim != 1:
        raise ShapeError(f"l2_normalize needs a vector, got shape {a.shape}")
    norm = float(np.linalg.norm(a.data))
    if norm <= NORM_EPSILON:
        raise DegenerateInputError(f"l2_normalize: norm {norm:.3e} is too close to zero")
    out = a.data / norm

    def backward(g):
        _accum(a, (g - out * float(out @ g)) / norm)

    return _result(out, (a,), "l2_normalize", backward)


# ---------------------------------------------------------------------------
# spatial ops
# ---------------------------------------------------------------------------

def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, pad: int = 0) -> Tensor:
    """Strided 2-d cross-correlation (no kernel flip).

    ``x`` is (Cin, H, W), ``kernel`` is (Cout, Cin, kh, kw).  Output spatial
    size is floor((H + 2*pad - kh)/stride) + 1 (same for W); a zero-size
    output raises ShapeError.
    """
    if x.data.ndim != 3 or kernel.data.ndim != 4:
        raise ShapeError(f"conv2d: need (Cin,H,W) and (Cout,Cin,kh,kw), got {x.shape} and {kernel.shape}")
    if stride < 1:
        raise ValueError(f"conv2d: stride must be >= 1, got {stride}")
    if pad < 0:
        raise ValueError(f"conv2d: pad must be >= 0, got {pad}")
    cin, h, w = x.data.shape
    cout, cin_k, kh, kw = kernel.data.shape
    if cin != cin_k:
        raise ShapeError(f"conv2d: input channels {x.shape} do not match kernel {kernel.shape}")
    h_out = (h + 2 * pad - kh) // stride + 1
    w_out = (w + 2 * pad - kw) // stride + 1
    if h + 2 * pad < kh or w + 2 * pad < kw or h_out < 1 or w_out < 1:
        raise ShapeError(f"conv2d: kernel {kernel.shape} exceeds padded input {x.shape} (pad={pad})")

    if pad:
        xp = np.zeros((cin, h + 2 * pad, w + 2 * pad), dtype=np.float64)
        xp[:, pad:pad + h, pad:pad + w] = x.data
    else:
        xp = x.data
    # im2col: gather one strided view per kernel offset.
    cols = np.empty((cin, kh, kw, h_out, w_out), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, i:i + stride * h_out:stride, j:j + stride * w_out:stride]
    cols2 = cols.reshape(cin * kh * kw, h_out * w_out)
    k2 = kernel.data.reshape(cout, cin * kh * kw)
    out = (k2 @ cols2).reshape(cout, h_out, w_out)

    def backward(g):
        g2 = g.reshape(cout, h_out * w_out)
        if kernel.requires_grad:
            _accum(kernel, (g2 @ cols2.T).reshape(kernel.data.shape))
        if x.requires_grad:
            gcols = (k2.T @ g2).reshape(cin, kh, kw, h_out, w_out)
            gxp = np.zeros((cin, h + 2 * pad, w + 2 * pad), dtype=np.float64)
            for i in range(kh):
                for j in range(kw):
                    gxp[:, i:i + stride * h_out:stride, j:j + stride * w_out:stride] += gcols[:, i, j]
            _accum(x, gxp[:, pad:pad + h, pad:pad + w] if pad else gxp)

    return _result(out, (x, kernel), "conv2d", backward)


def add_channel_bias(x: Tensor, bias: Tensor) -> Tensor:
    """Add a per-channel bias (C,) to a (C, h, w) stack."""
    if x.data.ndim != 3 or bias.data.ndim != 1 or x.data.shape[0] != bias.data.shape[0]:
        raise ShapeError(f"add_channel_bias: shapes {x.shape} and {bias.shape} do not line up")

    def backward(g):
        _accum(x, g)
        _accum(bias, g.sum(axis=(1, 2)))

    return _result(x.data + bias.data[:, None, None], (x, bias), "add_channel_bias", backward)


def spatial_max_min(x: Tensor) -> Tensor:
    """Per-channel max + min over the spatial grid: (C, h, w) -> (C,).

    The backward pass routes a unit of gradient to the argmax cell and a
    unit to the argmin cell of each channel; ties go to the first cell in
    row-major order (a constant map therefore gets 2x on its first cell).
    """
    if x.data.ndim != 3:
        raise ShapeError(f"spatial_max_min needs (C,h,w), got shape {x.shape}")
    c = x.data.shape[0]
    flat = x.data.reshape(c, -1)
    imax = flat.argmax(axis=1)
    imin = flat.argmin(axis=1)
    out = flat[np.arange(c), imax] + flat[np.arange(c), imin]

    def backward(g):
        if x.requires_grad:
            buf = np.zeros_like(flat)
            np.add.at(buf, (np.arange(c), imax), g)
            np.add.at(buf, (np.arange(c), imin), g)
            _accum(x, buf.reshape(x.data.shape))

    return _result(out, (x,), "spatial_max_min", backward)


def spatial_mean(x: Tensor) -> Tensor:
    """Per-channel mean over the spatial grid: (C, h, w) -> (C,)."""
    if x.data.ndim != 3:
        raise ShapeError(f"spatial_mean needs (C,h,w), got shape {x.shape}")
    _, h, w = x.data.shape
    area = h * w

    def backward(g):
        _accum(x, np.broadcast_to(g[:, None, None] / area, x.data.shape))

    return _result(x.data.mean(axis=(1, 2)), (x,), "spatial_mean", backward)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor], step: float = 1e-6) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``f`` rebuilds and returns the scalar loss from the current parameter
    values; it must be deterministic (disable dropout).  Every coordinate of
    every parameter is perturbed by +-step; the relative error denominator
    is max(|analytic|, |numeric|, 1e-8).
    """
    for p in params:
        p.grad = None
    out = f()
    out.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]

    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        ana_flat = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = float(f().data)
            flat[i] = orig - step
            f_minus = float(f().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            denom = max(abs(ana_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(ana_flat[i] - numeric) / denom)
    return worst
