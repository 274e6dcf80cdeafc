"""Dense float64 tensors with reverse-mode automatic differentiation.

The encoders and the ranking loss are built from the primitives in this
module: strided 2-d convolution with a fused bias and ReLU, max+min and mean
spatial pooling, the affine map ``linear``, l2 normalization, dropout, row
gathers, and ``fused_op`` for hand-written kernels (the recurrent layer and
the loss).  All arithmetic is float64 so that finite-difference gradient
checks are decisive.

Image ops take a channel-major (C, N, H, W) batch, or one (C, H, W) image
as a batch of one; ``conv2d`` is one node per batch, gathers a chunk of
images' patches with one lookup through a cached index table and fuses its
channel bias and ReLU, so it keeps one activation alive.  It has one kernel:
the same chunks run on the calling thread alone or, for a large batch, shared
with a helper thread.
Pooling yields (N, C) rows, and the row-wise ops (``linear``,
``l2_normalize``, ``dropout``) treat a vector as a batch of one.  A batched
op computes each example with the same BLAS calls as a batch of one would,
and sums parameter gradients over the examples with ``sum_examples``, so a
batch gives the results of one graph per example bit for bit.

Graphs are built eagerly: each op returns a new ``Tensor`` holding the
result, references to its inputs and a closure that routes the incoming
gradient to them.  ``Tensor.backward()`` walks the recorded graph once in
reverse topological order.  Inside ``with no_grad():`` ops record nothing,
so evaluation keeps no closures or buffers alive.  Tensors are immutable
after creation except for gradient accumulation (and in-place parameter
updates by an optimizer that owns them exclusively).  A graph is built and
back-propagated by one user thread, but a large batched ``conv2d`` shares
its chunks with a helper thread (``_Share``), with the same results bit for
bit.  Independent graphs share no mutable state (the cached conv2d
tables are read-only, and the helper serves one call at a time while the
others run on their own threads) and may run in parallel threads.

Dropout takes an explicit seed (an int or a tuple of ints), so a forward
pass is reproducible bit-for-bit from the seed alone.  A batch's row keys
are hashed together: one vectorized pass of numpy's ``SeedSequence`` hash
gives every row's PCG64 seed words, and each row draws the mask that
``np.random.default_rng(key)`` would.
"""

from __future__ import annotations

import ctypes
import functools
import os
import queue
import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DegenerateInputError, GraphError, ShapeError

NORM_EPSILON = 1e-12  # below this l2_normalize refuses to divide


def _keep_freed_heap() -> None:
    """Have glibc keep freed memory for reuse instead of returning it to the kernel.

    A batched training step allocates and frees MB-sized arrays.  By default
    glibc trims the top of its heap once more than twice its largest freed
    block lies free there, and the next step faults the same pages back in;
    whether a trim happens depends on what else the process has allocated, so
    an epoch at the default batch faulted between 0 and ~7,000 pages back in,
    and one that faulted took about a sixth longer.  Fixed thresholds (arrays
    up to 32 MiB from the heap, trim only past 256 MiB free) make every step
    reuse the last one's pages.  Nothing happens where the C library has no
    ``mallopt``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)   # M_TRIM_THRESHOLD


_keep_freed_heap()


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

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        """Accumulate gradients of this scalar into every tracked ancestor.

        Only leaves keep their gradients: each interior node drops its
        gradient and its closure (with the buffers the closure holds, such as
        a ReLU mask's activation) once it has run, so a graph can be
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


class _Untracked(threading.local):
    on = False   # per thread, like the graphs


_untracked = _Untracked()


@contextmanager
def no_grad():
    """Within this scope results record no parents: nothing is tracked."""
    prior, _untracked.on = _untracked.on, True
    try:
        yield
    finally:
        _untracked.on = prior


def _result(data: np.ndarray, parents: tuple[Tensor, ...], op: str,
            backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents) and not _untracked.on:
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
        out._op = op
    return out


def _accum(t: Tensor, g) -> None:
    # The first gradient is adopted as it is; a later one is added out of
    # place, so an array shared by two inputs is never written through.
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


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


def sum_examples(n: int, part: Callable[[int], np.ndarray]) -> np.ndarray:
    """Sum ``part(k)`` over the n examples of a batch one at a time, the last first.

    That is the order in which one graph per example, joined by a loss,
    accumulates its gradients into a shared tensor; batched kernels reduce
    their parameter gradients this way, so a batch trains bit-for-bit as its
    examples would one graph each.
    """
    total = np.array(part(n - 1), dtype=np.float64)
    for k in range(n - 2, -1, -1):
        total += part(k)
    return total


# ---------------------------------------------------------------------------
# stacking and dropout
# ---------------------------------------------------------------------------

def stack_rows(rows: Sequence[Tensor]) -> Tensor:
    """Stack same-width vectors, or (n, d) blocks of rows, into one matrix."""
    rows = tuple(rows)
    if not rows:
        raise ShapeError("stack_rows needs at least one row")
    blocks = [np.atleast_2d(r.data) for r in rows]
    for r, b in zip(rows, blocks):
        if r.data.ndim not in (1, 2) or b.shape[1:] != blocks[0].shape[1:]:
            raise ShapeError(f"stack_rows: row shapes {rows[0].shape} and {r.shape} differ")
    splits = np.cumsum([b.shape[0] for b in blocks])[:-1]

    def backward(g):
        for r, part in zip(rows, np.split(g, splits)):
            _accum(r, part.reshape(r.data.shape))

    return _result(np.concatenate(blocks), rows, "stack_rows", backward)


def _key_words(key) -> list[int]:
    """A seed key's little-endian 32-bit words, as ``np.random.SeedSequence`` reads them."""
    if isinstance(key, (int, np.integer)):
        if key < 0:
            raise ValueError("expected non-negative integer")
        return [int(key) >> s & 0xFFFFFFFF for s in range(0, max(int(key).bit_length(), 1), 32)]
    if isinstance(key, (str, float, np.inexact)):
        raise (ValueError if isinstance(key, str) else TypeError)(f"seed must be integer: {key!r}")
    return [w for e in key for w in ([e] if type(e) is int and 0 <= e < 1 << 32 else _key_words(e))]


@functools.lru_cache(maxsize=16)
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """(n + 1, 1) uint32: ``init * mult**k`` mod 2**32 for k = 0..n."""
    return np.array([init * pow(mult, k, 1 << 32) % (1 << 32) for k in range(n + 1)],
                    np.uint32)[:, None]


def _hashmix(x: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    v = (x ^ xor) * mult
    return v ^ (v >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    v = x * np.uint32(0xca01f9dd) - y * np.uint32(0x4973f715)
    return v ^ (v >> np.uint32(16))


_A = _hash_consts(0x43b0d7e5, 0x931e8875, 16)
# The cross-mix hashes pool word s by calls 4 + 3s .. 4 + 3s + 2, one for each
# other word d in order; row s's constants are placeholders, as word s stays.
_CROSS = [(_A[c], _A[c + 1]) for c in (np.array(
    [4 + 3 * s + d - (d > s) if d != s else 0 for d in range(4)]) for s in range(4))]
_OUT = _hash_consts(0x8b51f9dd, 0x58f38ded, 8)


def _seed_words(keys: Sequence) -> np.ndarray:
    """(R, 4) uint64: row i is ``np.random.SeedSequence(keys[i]).generate_state(4, np.uint64)``.

    O'Neill's ``seed_seq_fe`` hash, run on all keys of one word count at once.
    Its constants do not depend on the data, so each step is one array operation.
    """
    entropy = [_key_words(key) for key in keys]
    out = np.empty((len(keys), 4), np.uint64)
    for n in set(map(len, entropy)):
        rows = [i for i, words in enumerate(entropy) if len(words) == n]
        words = np.zeros((max(n, 4), len(rows)), np.uint32)
        words[:n] = np.array([entropy[i] for i in rows], np.uint32).reshape(len(rows), n).T
        a = _hash_consts(0x43b0d7e5, 0x931e8875, 16 + 4 * max(n - 4, 0))
        pool = _hashmix(words[:4], a[0:4], a[1:5])
        for src, (xor, mult) in enumerate(_CROSS):
            pool, pool[src] = _mix(pool, _hashmix(pool[src], xor, mult)), pool[src]   # word s stays
        for w in range(4, n):   # each further word is mixed into every pool word
            pool = _mix(pool, _hashmix(words[w], a[4 * w:4 * w + 4], a[4 * w + 1:4 * w + 5]))
        state = _hashmix(pool, _OUT[:8].reshape(2, 4, 1), _OUT[1:].reshape(2, 4, 1))
        state = state.reshape(8, len(rows)).astype(np.uint64)
        out[rows] = (state[0::2] | state[1::2] << np.uint64(32)).T   # little-endian pairs
    return out


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Seed words computed ahead, handed to PCG64 as its seed sequence (it asks for 4 uint64)."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def dropout(a: Tensor, p: float, seed, training: bool = True) -> Tensor:
    """Zero entries independently with probability ``p``, scaling survivors by 1/(1-p).

    Returns ``a`` itself when ``training`` is false or ``p == 0``.  The mask
    is a pure function of ``seed`` (an int or tuple of ints), so repeated
    calls with the same seed reproduce the same mask bit-for-bit.  A list of
    seeds, one per row of ``a``, draws each row's mask as it would alone,
    ``np.random.default_rng(seed[i]).random(a.shape[1:])``: the rows' seed
    hashes run as one vectorized pass (``_seed_words``), and each row's PCG64
    starts from its precomputed words.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return a

    if isinstance(seed, list):
        if len(seed) != a.shape[0]:
            raise ShapeError(f"dropout: {len(seed)} row seeds for shape {a.shape}")
        draws = np.empty(a.shape)
        for i, words in enumerate(_seed_words(seed)):
            np.random.Generator(np.random.PCG64(_SeedWords(words))).random(out=draws[i, ...])
    else:
        draws = np.random.default_rng(seed).random(a.shape)
    keep = draws >= p
    factor = 1.0 / (1.0 - p)

    def backward(g):
        _accum(a, g * keep * factor)

    return _result(a.data * keep * factor, (a,), "dropout", backward)


def subkey(key, *site):
    """A dropout key extended by a site id; a list of row keys extends each one."""
    return [k + site for k in key] if isinstance(key, list) else key + site


# ---------------------------------------------------------------------------
# shape and indexing ops
# ---------------------------------------------------------------------------

def take_row(a: Tensor, index: int) -> Tensor:
    """Row ``index`` of the last two axes, ([N,] T, d) -> ([N,] d); gradient scatters back."""
    if a.data.ndim not in (2, 3):
        raise ShapeError(f"take_row needs a 2-d or 3-d tensor, got shape {a.shape}")
    index = int(index)

    def backward(g):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            buf[..., index, :] = g
            _accum(a, buf)

    return _result(a.data[..., index, :].copy(), (a,), "take_row", backward)


def take_rows(a: Tensor, indices) -> Tensor:
    """Gather rows of a 2-d tensor by an index array of any shape; gradients scatter-add
    back, per entry of the first axis of a 2-d ``indices`` (one sequence each)."""
    if a.data.ndim != 2:
        raise ShapeError(f"take_rows needs a 2-d tensor, got shape {a.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    seqs = idx.reshape(idx.shape[0] if idx.ndim > 1 else 1, -1)

    def backward(g):
        if a.requires_grad:
            rows = g.reshape(*seqs.shape, a.data.shape[1])

            def part(k):
                buf = np.zeros_like(a.data)
                np.add.at(buf, seqs[k], rows[k])
                return buf

            _accum(a, sum_examples(len(seqs), part))

    return _result(a.data[idx], (a,), "take_rows", backward)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map ``weight @ x + bias`` of a vector (in,) or of each row of (N, in).

    Each row is its own matrix-vector product, and the weight and bias
    gradients sum over rows with ``sum_examples``.
    """
    if (x.data.ndim not in (1, 2) or weight.data.ndim != 2 or x.shape[-1] != weight.shape[1]
            or bias.shape != weight.shape[:1]):
        raise ShapeError(f"linear: shapes {x.shape}, {weight.shape}, {bias.shape} do not line up")
    rows = x.data.reshape(-1, weight.shape[1])

    def backward(g):
        g2 = g.reshape(-1, weight.shape[0])
        if x.requires_grad:   # untracked rows, e.g. a frozen table's, need no product
            _accum(x, np.matmul(weight.data.T, g[..., None])[..., 0])
        _accum(weight, sum_examples(len(rows), lambda k: np.outer(g2[k], rows[k])))
        _accum(bias, sum_examples(len(rows), lambda k: g2[k]))

    out = np.matmul(weight.data, x.data[..., None])[..., 0] + bias.data
    return _result(out, (x, weight, bias), "linear", backward)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products of matching rows, one BLAS dot each, as (..., 1)."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0]


def l2_normalize(a: Tensor) -> Tensor:
    """x / ||x||_2 of a vector or of each matrix row; a norm <= NORM_EPSILON is an error."""
    if a.data.ndim not in (1, 2):
        raise ShapeError(f"l2_normalize needs a vector or a matrix, got shape {a.shape}")
    norm = np.sqrt(_row_dots(a.data, a.data))
    if norm.min() <= NORM_EPSILON:
        raise DegenerateInputError(f"l2_normalize: norm {norm.min():.3e} is too close to zero")
    out = a.data / norm

    def backward(g):
        _accum(a, (g - out * _row_dots(out, g)) / norm)

    return _result(out, (a,), "l2_normalize", backward)


# ---------------------------------------------------------------------------
# spatial ops
# ---------------------------------------------------------------------------

# conv2d runs a batch in chunks of about _CHUNK_BYTES of patch matrices and
# kernel-gradient partials, and shares a batch of at least _SPLIT_MIN_CHUNKS chunks.
_CHUNK_BYTES = 1 << 20
_SPLIT_MIN_CHUNKS = 4
_PARTIAL_WINDOW = 4   # chunks of kernel-gradient partials a split batch keeps alive


@functools.cache
def _blas_thread_count() -> Callable[[], int] | None:
    """OpenBLAS's thread-count function, from the libraries this process has loaded,
    or None where there is none or no /proc/self/maps to find it in."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            get = getattr(lib, name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                return get
    return None


def _split_engaged() -> bool:
    """Whether a large batched ``conv2d`` shares its per-image work with the helper
    thread: only where this process may run on two CPUs or more and BLAS runs one
    thread.  A threaded BLAS already spreads the larger per-image GEMMs over the
    cores, and a BLAS whose thread count cannot be read is taken to."""
    count = _blas_thread_count()
    return count is not None and count() == 1 and len(os.sched_getaffinity(0)) > 1


class _Share:
    """Items n-1, ..., 0 of one call, each run once by whichever thread claims it
    first: the calling thread, or the helper thread if it joins in time.

    ``item(j, t)`` does item j with thread t's scratch (0 the caller's, 1 the
    helper's).  With ``fold``, the caller calls ``fold(j)`` for j = n-1, ..., 0
    in turn, each once ``item(j)`` has ended, and no item is claimed ``window`` or
    more ahead of the fold, so ``window`` result slots (item j's is j % window)
    suffice.  The caller waits only on an item the helper has started: a helper
    that never starts costs nothing, and a stalled one at most the item it holds.
    """

    def __init__(self, n: int, item: Callable[[int, int], None],
                 fold: Callable[[int], None] | None = None, window: int = 0):
        self._item, self._fold = item, fold
        self._window = window if fold else n
        self._next = n - 1                       # the next item to claim
        self._unfolded = n - 1 if fold else -1   # the next item to fold
        self._done = [False] * n
        self._helping = 0                        # items the helper is running
        self._error: BaseException | None = None
        self._cond = threading.Condition(threading.Lock())

    def _claimable(self) -> bool:
        return self._next >= 0 and self._next + self._window > self._unfolded

    def _foldable(self) -> bool:
        return self._unfolded >= 0 and self._done[self._unfolded]

    def _caller_may_go(self) -> bool:
        return (self._error is not None or self._foldable() or self._claimable()
                or self._next < 0 and self._helping == 0 and self._unfolded < 0)

    def help(self) -> None:
        """The helper's side: run items until none is left to claim."""
        while True:
            with self._cond:
                self._cond.wait_for(lambda: self._next < 0 or self._claimable())
                if self._next < 0:
                    return
                j, self._next = self._next, self._next - 1
                self._helping += 1
                item = self._item
            error = None
            try:
                item(j, 1)
            except BaseException as exc:   # raised again on the calling thread
                error = exc
            with self._cond:
                self._helping -= 1
                self._done[j] = error is None
                if error is not None:
                    self._error, self._next = error, -1
                self._cond.notify_all()

    def run(self) -> None:
        """The caller's side: hand this share to the helper, then claim, run and
        fold items until all are done."""
        _helper.submit(self)
        try:
            while True:
                with self._cond:
                    self._cond.wait_for(self._caller_may_go)
                    if self._error is not None:
                        raise self._error
                    claimed = not self._foldable() and self._claimable()
                    if claimed:
                        j, self._next = self._next, self._next - 1
                    elif self._unfolded >= 0:
                        j = self._unfolded
                    else:
                        return
                if claimed:
                    self._item(j, 0)
                else:
                    self._fold(j)
                with self._cond:
                    if claimed:
                        self._done[j] = True
                    else:
                        self._unfolded -= 1
                        self._cond.notify_all()
        finally:
            with self._cond:   # stop the helper, and leave a late one no arrays
                self._next = -1
                self._item = self._fold = None
                self._cond.notify_all()


class _Helper:
    """One daemon thread that joins shares, one at a time.  It starts on first use,
    and again in a forked child, which inherits no threads."""

    def __init__(self):
        self._lock = threading.Lock()
        self._pid: int | None = None
        self._jobs: queue.SimpleQueue | None = None

    def submit(self, share: _Share) -> None:
        with self._lock:
            if self._pid != os.getpid():
                self._pid, self._jobs = os.getpid(), queue.SimpleQueue()
                threading.Thread(target=self._serve, args=(self._jobs,),
                                 name="semvis-conv2d", daemon=True).start()
            self._jobs.put(share)

    @staticmethod
    def _serve(jobs: queue.SimpleQueue) -> None:
        while True:
            jobs.get().help()


_helper = _Helper()


@functools.lru_cache(maxsize=32)
def _patch_index(cin: int, h: int, w: int, kh: int, kw: int, stride: int,
                 pad: int) -> np.ndarray:
    """The read-only im2col table of a (cin, h, w) image: entry ((ci, i, j), (y, x)) is
    the flat position of cell (ci, y*stride + i - pad, x*stride + j - pad), or cin*h*w,
    one past the image, where that cell lies in the padding."""
    ys = np.arange(kh)[:, None, None, None] + np.arange(-pad, h + pad - kh + 1, stride)[:, None]
    xs = np.arange(kw)[:, None, None] + np.arange(-pad, w + pad - kw + 1, stride)
    inside = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)   # (kh, kw, h_out, w_out)
    cells = np.arange(cin)[:, None, None, None, None] * (h * w) + ys * w + xs
    index = np.where(inside, cells, cin * h * w).reshape(cin * kh * kw, -1)
    index.flags.writeable = False
    return index


def _gather(images: np.ndarray, index: np.ndarray, flat: np.ndarray, cols: np.ndarray,
            lo: int, hi: int) -> np.ndarray:
    """The patch matrices of images lo..hi-1 of a (Cin, N, H, W) batch, as ``cols[:hi-lo]``:
    each image is copied into a row of ``flat`` that ends in the zero padding reads."""
    cin, _, h, w = images.shape
    flat[:hi - lo, :-1].reshape(hi - lo, cin, h, w)[...] = images[:, lo:hi].swapaxes(0, 1)
    return np.take(flat[:hi - lo], index, axis=1, out=cols[:hi - lo], mode="clip")


def _conv_scratch(images: np.ndarray, index: np.ndarray, chunk: int,
                  threads: int) -> tuple[np.ndarray, np.ndarray]:
    """Per thread, ``_gather``'s ``flat`` and ``cols`` for a chunk of images; each pass
    allocates its own on the calling thread, so none outlives it.  Only the last column
    of ``flat``, the zero that padding reads, is filled: ``_gather`` writes the rest."""
    cin, _, h, w = images.shape
    flat = np.empty((threads, chunk, cin * h * w + 1))
    flat[..., -1] = 0.0
    return flat, np.empty((threads, chunk, *index.shape))


def _run_items(n: int, item: Callable[[int, int], None], fold: Callable[[int], None] | None,
               window: int, split: bool) -> None:
    """Items n-1, ..., 0, each folded once it has run: shared with the helper thread
    where ``split`` (see ``_Share``), else run and folded in turn by the caller alone."""
    if split:
        _Share(n, item, fold, window).run()
        return
    for j in range(n - 1, -1, -1):
        item(j, 0)
        if fold is not None:
            fold(j)


def _conv_forward(images: np.ndarray, k2: np.ndarray, index: np.ndarray, chunk: int,
                  split: bool, out: np.ndarray) -> None:
    """``conv2d``'s GEMMs into ``out`` (Cout, N, positions), chunk by chunk: one ``take``
    per chunk, and one matmul call whose GEMMs are the per-image ones."""
    n = images.shape[1]
    spans = [(lo, min(n, lo + chunk)) for lo in range(0, n, chunk)]
    flat, cols = _conv_scratch(images, index, chunk, 2 if split else 1)

    def item(j: int, t: int) -> None:
        lo, hi = spans[j]
        np.matmul(k2, _gather(images, index, flat[t], cols[t], lo, hi),
                  out=out[:, lo:hi].swapaxes(0, 1))

    _run_items(len(spans), item, None, 0, split)


def _conv_backward(images: np.ndarray, k2: np.ndarray, index: np.ndarray, chunk: int,
                   split: bool, g: np.ndarray, relu_out: np.ndarray | None, bias_grad: bool,
                   kernel_grad: bool, input_grad: bool):
    """``conv2d``'s bias (Cout,), kernel (Cout, K) and input (Cin, N, H*W) gradients, each
    None where not wanted, chunk by chunk.  With ``relu_out``, the output gradient ``g``
    is masked where that output is not positive, a chunk at a time.  The per-image bias
    and kernel partials are summed on the calling thread last image first, as
    ``sum_examples`` sums them."""
    cin, n, h, w = images.shape
    cout, positions = g.shape[0], g.shape[2]
    spans = [(lo, min(n, lo + chunk)) for lo in range(0, n, chunk)]
    threads, window = (2, min(len(spans), _PARTIAL_WINDOW)) if split else (1, 1)
    flat, cols = _conv_scratch(images, index, chunk, threads)
    masked = np.empty((threads, chunk, cout, positions)) if relu_out is not None else None
    mask = np.empty(masked.shape, dtype=bool) if relu_out is not None else None
    parts = [np.empty((window, chunk, *shape)) if wanted else None
             for wanted, shape in ((bias_grad, (cout,)), (kernel_grad, k2.shape))]
    totals = [None, None]
    gx = np.empty((cin, n, h * w)) if input_grad else None

    def item(j: int, t: int) -> None:
        lo, hi = spans[j]
        gj = g[:, lo:hi].swapaxes(0, 1)
        if relu_out is not None:
            np.greater(relu_out[:, lo:hi].swapaxes(0, 1), 0.0, out=mask[t, :hi - lo])
            gj = np.multiply(gj, mask[t, :hi - lo], out=masked[t, :hi - lo])
        if bias_grad:
            gj.sum(axis=2, out=parts[0][j % window, :hi - lo])
        if kernel_grad:
            np.matmul(gj, _gather(images, index, flat[t], cols[t], lo, hi).swapaxes(1, 2),
                      out=parts[1][j % window, :hi - lo])
        if input_grad:
            gcols = np.matmul(k2.T, gj, out=cols[t, :hi - lo])
            for k in range(lo, hi):
                gx[:, k] = np.bincount(index.ravel(), gcols[k - lo].ravel(),
                                       flat.shape[2])[:-1].reshape(cin, h * w)

    def fold(j: int) -> None:
        lo, hi = spans[j]
        for k in range(hi - 1, lo - 1, -1):
            for i, part in enumerate(parts):
                if part is None:
                    continue
                if totals[i] is None:
                    totals[i] = part[j % window, k - lo].copy()
                else:
                    totals[i] += part[j % window, k - lo]

    _run_items(len(spans), item, fold if bias_grad or kernel_grad else None, window, split)
    return totals[0], totals[1], gx


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, pad: int = 0,
           bias: Tensor | None = None, relu: bool = False) -> Tensor:
    """Strided 2-d cross-correlation (no kernel flip), with an optional per-channel
    ``bias`` (Cout,) and ReLU fused into the same node.

    ``x`` is a channel-major batch (Cin, N, H, W) or one image (Cin, H, W), and
    ``kernel`` (Cout, Cin, kh, kw); the output keeps the layout.  The batch runs in
    chunks of a few images.  A chunk's patch matrices (im2col) are one ``take``
    through its geometry's cached index table from flat copies of its images that
    each end in the zero that padding reads, and each image's patch matrix meets the
    kernel in its own GEMM into the batch's output: BLAS may round one wide GEMM
    differently, and a chunk's patch matrices stay small.  The kernel gradient
    gathers the patches again instead of keeping them alive, and its per-image
    partials are summed last image first; the input gradient scatters back with one
    ``bincount`` per image over the table, which adds each cell's contributions in
    kernel-offset order, from 0.0.  A large batch shares its chunks with a helper
    thread where ``_split_engaged()`` (see ``_Share``); otherwise, as for a batch of
    one, the caller runs the same chunks alone, so either way gives the same bits.
    Output spatial size is floor((H + 2*pad - kh)/stride) + 1 (same for W); a
    zero-size output raises ShapeError.
    """
    if x.data.ndim not in (3, 4) or kernel.data.ndim != 4:
        raise ShapeError(f"conv2d: need (Cin,[N,]H,W) and (Cout,Cin,kh,kw), got {x.shape} "
                         f"and {kernel.shape}")
    if stride < 1:
        raise ValueError(f"conv2d: stride must be >= 1, got {stride}")
    if pad < 0:
        raise ValueError(f"conv2d: pad must be >= 0, got {pad}")
    cin, *batch, h, w = x.data.shape
    cout, cin_k, kh, kw = kernel.data.shape
    if cin != cin_k:
        raise ShapeError(f"conv2d: input channels {x.shape} do not match kernel {kernel.shape}")
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"conv2d: bias {bias.shape} does not match kernel {kernel.shape}")
    h_out = (h + 2 * pad - kh) // stride + 1
    w_out = (w + 2 * pad - kw) // stride + 1
    if h + 2 * pad < kh or w + 2 * pad < kw or h_out < 1 or w_out < 1:
        raise ShapeError(f"conv2d: kernel {kernel.shape} exceeds padded input {x.shape} (pad={pad})")
    n = batch[0] if batch else 1
    images = x.data.reshape(cin, n, h, w)
    k2 = kernel.data.reshape(cout, -1)
    index = _patch_index(cin, h, w, kh, kw, stride, pad)
    chunk = min(n, max(1, _CHUNK_BYTES // (8 * index.shape[0] * (index.shape[1] + cout))))
    split = n >= _SPLIT_MIN_CHUNKS * chunk and _split_engaged()

    out = np.empty((cout, n, h_out * w_out))
    _conv_forward(images, k2, index, chunk, split, out)
    if bias is not None:
        out += bias.data[:, None, None]
    if relu:
        np.maximum(out, 0.0, out=out)   # maximum, not where: NaN propagates

    def backward(g):
        grads = _conv_backward(images, k2, index, chunk, split, g.reshape(out.shape),
                               out if relu else None, bias is not None, kernel.requires_grad,
                               x.requires_grad)
        for t, grad in zip((bias, kernel, x), grads):
            if grad is not None:
                _accum(t, grad.reshape(t.data.shape))

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    return _result(out.reshape(cout, *batch, h_out, w_out), parents, "conv2d", backward)


def spatial_max_min(x: Tensor) -> Tensor:
    """Per-channel max + min over the spatial grid: (C, h, w) -> (C,), (C, N, h, w) -> (N, C).

    The backward pass routes a unit of gradient to the argmax cell and a
    unit to the argmin cell of each channel; ties go to the first cell in
    row-major order (a constant map therefore gets 2x on its first cell).
    """
    if x.data.ndim not in (3, 4):
        raise ShapeError(f"spatial_max_min needs (C,[N,]h,w), got shape {x.shape}")
    lead = x.data.shape[:-2]
    flat = x.data.reshape(int(np.prod(lead)), -1)
    rows = np.arange(flat.shape[0])
    imax = flat.argmax(axis=1)
    imin = flat.argmin(axis=1)
    out = (flat[rows, imax] + flat[rows, imin]).reshape(lead).T

    def backward(g):
        if x.requires_grad:
            g = g.T.reshape(-1)
            buf = np.zeros_like(flat)
            buf[rows, imax] = g
            buf[rows, imin] += g
            _accum(x, buf.reshape(x.data.shape))

    return _result(out, (x,), "spatial_max_min", backward)


def spatial_mean(x: Tensor) -> Tensor:
    """Per-channel mean over the spatial grid: (C, h, w) -> (C,), (C, N, h, w) -> (N, C)."""
    if x.data.ndim not in (3, 4):
        raise ShapeError(f"spatial_mean needs (C,[N,]h,w), got shape {x.shape}")
    area = x.data.shape[-2] * x.data.shape[-1]

    def backward(g):
        _accum(x, np.broadcast_to(g.T[..., None, None] / area, x.data.shape))

    return _result(x.data.mean(axis=(-2, -1)).T, (x,), "spatial_mean", backward)


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
