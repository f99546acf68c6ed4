"""Dense float64 tensors with reverse-mode automatic differentiation.

A Tensor wraps one numpy array in double precision. Applying an operation
to an input that requires gradients attaches an OpRecord describing how to
replay them; backward() walks the records in reverse topological order and
hands each leaf tensor that requested a gradient its sum as soon as the last
record that reads the leaf has run. Inside a ``no_grad()`` block no operation
records anything, so a forward pass that is never differentiated (evaluation)
builds no graph. Randomness (dropout) always comes from an explicitly passed
numpy Generator, never from global state.

Besides elementwise and matrix primitives there are fused ops for the
transformer's hot spots, each one record with a hand-written VJP: ``linear``
(matmul plus bias) and ``split_heads``/``merge_heads`` (the [L x d] <->
[n_heads x L x d_head] regrouping of attention heads). They compute exactly
the arrays their unfused compositions compute, bit for bit.

``linear``, ``layer_norm``, ``gather_rows``, the head ops and ``matmul`` take leading batch
axes too; each stacked row is bitwise its 2-D call (numpy multiplies matrix by matrix).

The GELU here is the exact-erf form, x * Phi(x). Its erf is Cephes' (``_erf``),
the algorithm ``scipy.special.erf`` runs, so NumPy is the one dependency.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, NumericError, ShapeError, UsageError

Array = np.ndarray

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Cephes' erf and erfc coefficients (ndtr.c), highest power first; a leading 1 is
# Cephes' p1evl. erf(t) = t*T(t^2)/U(t^2) for |t| <= 1, else 1 - exp(-t^2)*P(t)/Q(t).
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)

# False inside a no_grad() block: operations then record no OpRecord.
_recording = True


@dataclass
class OpRecord:
    """One recorded primitive: its inputs and a vector-Jacobian product.

    The backward pass materializes the topologically ordered list of these
    records reachable from the loss and replays them in reverse.
    """

    name: str
    inputs: tuple["Tensor", ...]
    vjp: Callable[[Array], tuple[Array | None, ...]]


class Tensor:
    """A dense float64 array, optionally tracked for gradients.

    Tensors are immutable once created, except that leaf tensors accumulate
    into ``grad`` during backward passes and optimizers update parameter
    ``data`` in place between steps.
    """

    __slots__ = ("data", "requires_grad", "grad", "op")

    def __init__(self, data, requires_grad: bool = False, op: OpRecord | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self.op = op

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def item(self) -> float:
        if self.data.size != 1:
            raise UsageError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other) -> "Tensor":
        return add(self, as_tensor(other))

    def __sub__(self, other) -> "Tensor":
        return sub(self, as_tensor(other))


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


@contextlib.contextmanager
def no_grad():
    """Run the block without recording: every result is a plain, graph-free tensor.

    The values are the same as with recording. Blocks nest, the previous mode comes
    back on exit, also when the block raises, and the mode is process-wide.
    """
    global _recording
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


def _result(name: str, out: Array, inputs: tuple[Tensor, ...], vjp) -> Tensor:
    if _recording and any(t.requires_grad for t in inputs):
        return Tensor(out, requires_grad=True, op=OpRecord(name, inputs, vjp))
    return Tensor(out)


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum a gradient over the axes the forward op broadcast along."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not broadcast") from None

    def vjp(g: Array):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _result("add", out, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError(f"sub: shapes {a.shape} and {b.shape} do not broadcast") from None

    def vjp(g: Array):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _result("sub", out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product with numpy broadcasting."""
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} do not broadcast") from None

    def vjp(g: Array):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return _result("mul", out, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    return _result("neg", -a.data, (a,), lambda g: (-g,))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _result("scale", a.data * c, (a,), lambda g: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors, or of two stacks with equal leading axes."""
    if (a.data.ndim != b.data.ndim or a.data.ndim < 2
            or a.data.shape[:-2] != b.data.shape[:-2] or a.data.shape[-1] != b.data.shape[-2]):
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}")
    out = a.data @ b.data

    def vjp(g: Array):
        return g @ np.swapaxes(b.data, -1, -2), np.swapaxes(a.data, -1, -2) @ g

    return _result("matmul", out, (a, b), vjp)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map ``x @ w + b`` of the rows of ``x`` (any leading axes), bias row broadcast.

    One record in place of a matmul and a bias add, with the same result.
    """
    if x.data.ndim < 2 or w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"linear: incompatible shapes {x.data.shape} and {w.data.shape}")
    n = w.data.shape[1]
    if b.data.shape not in ((n,), (1, n)):
        raise ShapeError(f"linear: bias {b.data.shape} is not one row of {n}")
    out = x.data @ w.data
    out += b.data

    def vjp(g: Array):
        rows = x.data.reshape(-1, w.data.shape[0])
        return g @ w.data.T, rows.T @ g.reshape(-1, n), _unbroadcast(g, b.data.shape)

    return _result("linear", out, (x, w, b), vjp)


def split_heads(x: Tensor, n_heads: int) -> Tensor:
    """[... x L x d] -> [... x n_heads x L x d/n_heads]: head h takes column block h."""
    if x.data.ndim < 2 or n_heads < 1 or x.data.shape[-1] % n_heads != 0:
        raise ShapeError(f"split_heads: cannot split shape {x.shape} into {n_heads} heads")
    shape = x.data.shape
    out = x.data.reshape(*shape[:-1], n_heads, shape[-1] // n_heads).swapaxes(-3, -2)
    return _result("split_heads", out, (x,), lambda g: (g.swapaxes(-3, -2).reshape(shape),))


def merge_heads(x: Tensor) -> Tensor:
    """[... x n_heads x L x d_head] -> [... x L x n_heads*d_head]; inverts ``split_heads``."""
    if x.data.ndim < 3:
        raise ShapeError(f"merge_heads needs at least 3 dimensions, got shape {x.shape}")
    *lead, n_heads, rows, dh = x.data.shape
    out = x.data.swapaxes(-3, -2).reshape(*lead, rows, n_heads * dh)
    return _result("merge_heads", out, (x,),
                   lambda g: (g.reshape(*lead, rows, n_heads, dh).swapaxes(-3, -2),))


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Permute the axes by ``axes``; without it, swap the two axes of a 2-D tensor."""
    axes = (1, 0) if axes is None else tuple(int(ax) for ax in axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ShapeError(f"transpose: {axes} is not a permutation of the axes of {a.shape}")
    inverse = tuple(np.argsort(axes))
    return _result("transpose", a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view shape {a.shape} as {shape}") from None
    return _result("reshape", out, (a,), lambda g: (g.reshape(a.data.shape),))


def concat_cols(ts: Sequence[Tensor]) -> Tensor:
    """Concatenate 2-D tensors along the column axis."""
    ts = list(ts)
    if not ts:
        raise UsageError("concat_cols needs at least one tensor")
    rows = ts[0].data.shape[0]
    for t in ts:
        if t.data.ndim != 2 or t.data.shape[0] != rows:
            raise ShapeError(f"concat_cols: row counts differ ({[t.shape for t in ts]})")
    out = np.concatenate([t.data for t in ts], axis=1)
    widths = [t.data.shape[1] for t in ts]
    offsets = np.cumsum([0] + widths)

    def vjp(g: Array):
        return tuple(g[:, offsets[i] : offsets[i + 1]] for i in range(len(ts)))

    return _result("concat_cols", out, tuple(ts), vjp)


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if a.data.ndim != 2 or not (0 <= start < stop <= a.data.shape[1]):
        raise ShapeError(f"slice_cols: [{start}:{stop}] invalid for shape {a.shape}")
    out = a.data[:, start:stop]

    def vjp(g: Array):
        full = np.zeros_like(a.data)
        full[:, start:stop] = g
        return (full,)

    return _result("slice_cols", out, (a,), vjp)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows of a 2-D tensor by integer index (with repetition), 1-D or 2-D."""
    idx = np.asarray(indices, dtype=np.int64)
    if a.data.ndim != 2 or idx.ndim not in (1, 2):
        raise ShapeError(f"gather_rows: need 2-D data and 1-D or 2-D indices, got {a.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise InputError(f"gather_rows: index out of range for {a.data.shape[0]} rows")
    out = a.data[idx]

    def vjp(g: Array):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return _result("gather_rows", out, (a,), vjp)


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis (2 or more dimensions), stabilized by max subtraction."""
    if x.data.ndim < 2:
        raise ShapeError(f"softmax_rows needs at least 2 dimensions, got shape {x.shape}")
    peak = x.data.max(axis=-1, keepdims=True)
    # max propagates NaN, so this catches NaN and +inf but lets -inf through.
    if not (peak < np.inf).all():
        raise NumericError("softmax_rows: NaN or +inf in input")
    y = x.data - peak
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def vjp(g: Array):
        dx = g * y
        np.subtract(g, dx.sum(axis=-1, keepdims=True), out=dx)
        return (np.multiply(dx, y, out=dx),)

    return _result("softmax_rows", y, (x,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row (last axis) to zero mean / unit variance, then apply gain and bias."""
    if eps <= 0.0:
        raise InputError(f"layer_norm: eps must be positive, got {eps}")
    if x.data.ndim < 2:
        raise ShapeError(f"layer_norm needs at least 2 dimensions, got shape {x.shape}")
    d = x.data.shape[-1]
    if gain.data.shape[-1] != d or bias.data.shape[-1] != d:
        raise ShapeError(
            f"layer_norm: gain/bias last dim must be {d}, got {gain.shape} and {bias.shape}"
        )
    # Each ``sum / d`` is numpy's mean, bit for bit, without its overhead.
    xhat = x.data - x.data.sum(axis=-1, keepdims=True) / d
    inv = (xhat * xhat).sum(axis=-1, keepdims=True) / d
    inv += eps
    np.divide(1.0, np.sqrt(inv, out=inv), out=inv)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

    def vjp(g: Array):
        dx = g * gain.data
        tmp = dx * xhat
        mean = tmp.sum(axis=-1, keepdims=True) / d
        dx -= dx.sum(axis=-1, keepdims=True) / d
        dx -= np.multiply(xhat, mean, out=tmp)
        dx *= inv
        return (dx, _unbroadcast(np.multiply(g, xhat, out=tmp), gain.data.shape),
                _unbroadcast(g, bias.data.shape))

    return _result("layer_norm", out, (x, gain, bias), vjp)


def _polevl(x: Array, coefs: tuple[float, ...], out: Array) -> Array:
    """Cephes' Horner loop ((c0*x + c1)*x + ...)*x + cn into ``out``; a c0 of 1 costs
    no multiply, as in Cephes' p1evl."""
    if coefs[0] == 1.0:
        np.add(x, coefs[1], out=out)
    else:
        np.multiply(x, coefs[0], out=out)
        out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _erf(t: Array, out: Array | None = None) -> Array:
    """erf(t) by Cephes' algorithm: bitwise ``scipy.special.erf`` for |t| <= 1 and
    within 1 ulp beyond (NumPy's exp is not libm's). ``out`` may be ``t``."""
    if out is None:
        out = t.copy()
    elif out is not t:
        np.copyto(out, t)
    t2 = np.abs(out)
    tail = None
    if not t2.max(initial=0.0) <= 1.0:  # a NaN gets here, and stays on the t*T/U pass
        tail = np.flatnonzero(t2 > 1.0)
        a = np.minimum(t2.flat[tail], 8.0)  # erf is 1.0 to the last bit from |t| = 6
        p = _polevl(a, _ERFC_P, np.empty_like(a))
        y = np.exp(-a * a)
        y *= p
        y /= _polevl(a, _ERFC_Q, p)
        values = np.copysign(np.subtract(1.0, y, out=y), out.flat[tail])
        out.flat[tail] = t2.flat[tail] = 0.0  # keeps the passes below finite
    np.square(t2, out=t2)
    p = _polevl(t2, _ERF_T, np.empty_like(t2))
    out *= p
    out /= _polevl(t2, _ERF_U, p)
    if tail is not None:
        out.flat[tail] = values
    return out


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GELU: x * Phi(x) with Phi the standard normal CDF."""
    cdf = x.data / _SQRT2
    _erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = x.data * cdf

    def vjp(g: Array):
        dx = x.data * -0.5
        dx *= x.data
        np.exp(dx, out=dx)
        dx *= _INV_SQRT_2PI
        dx *= x.data
        dx += cdf
        return (np.multiply(dx, g, out=dx),)

    return _result("gelu", out, (x,), vjp)


def dropout(
    x: Tensor,
    rate: float,
    rng: np.random.Generator | None = None,
    train_mode: bool = True,
    rows: tuple[int, Array] | None = None,
) -> Tensor:
    """Inverted dropout: kept entries scale by 1/(1-rate) so eval needs no rescale.

    Rate 0 (or eval mode) is the identity and returns the input unchanged.
    ``rows=(n, index)`` says ``x`` holds rows ``index`` of an [n x ...] input: the
    mask is drawn for all n rows and its rows ``index`` kept, so the rng advances,
    and each kept entry is drawn, exactly as for that whole input.
    """
    if not (0.0 <= rate < 1.0):
        raise InputError(f"dropout rate must be in [0, 1), got {rate}")
    if not train_mode or rate == 0.0:
        return x
    if rng is None:
        raise UsageError("dropout in train mode needs an explicit rng")
    mask = rng.random(x.data.shape if rows is None else (rows[0], *x.data.shape[1:]))
    if rows is not None:
        mask = mask[rows[1]]
    np.greater_equal(mask, rate, out=mask)
    mask /= 1.0 - rate
    return _result("dropout", x.data * mask, (x,), lambda g: (g * mask,))


def cross_entropy_rows(logits: Tensor, targets) -> Tensor:
    """Mean cross-entropy of each row against its integer target class."""
    t = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2 or t.ndim != 1 or t.shape[0] != logits.data.shape[0]:
        raise ShapeError(
            f"cross_entropy_rows: logits {logits.shape} vs {t.shape[0] if t.ndim == 1 else '?'} targets"
        )
    if t.size == 0:
        raise InputError("cross_entropy_rows: no target rows")
    n, v = logits.data.shape
    if t.min() < 0 or t.max() >= v:
        raise InputError(f"cross_entropy_rows: target id out of range [0, {v})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    out = np.asarray(-logp[np.arange(n), t].mean())

    def vjp(g: Array):
        p = np.exp(logp)
        p[np.arange(n), t] -= 1.0
        return (p * (float(g) / n),)

    return _result("cross_entropy_rows", out, (logits,), vjp)


def l1_loss(pred: Tensor, target) -> Tensor:
    """Mean absolute error against a fixed target array."""
    tgt = np.asarray(target, dtype=np.float64)
    if tgt.shape != pred.data.shape:
        raise ShapeError(f"l1_loss: target shape {tgt.shape} != prediction shape {pred.shape}")
    diff = pred.data - tgt
    out = np.asarray(np.abs(diff).mean())

    def vjp(g: Array):
        return (np.sign(diff) * (float(g) / diff.size),)

    return _result("l1_loss", out, (pred,), vjp)


def backward(loss: Tensor, add_leaf: Callable[[Tensor, Array], None] | None = None) -> None:
    """Populate grads of every requires_grad leaf reachable from a scalar loss.

    Gradients accumulate across calls; clear them between steps with
    zero_grads(). The traversal is iterative, so graph depth is not limited
    by the interpreter recursion limit. A leaf's gradient is final, and handed
    over, once the VJP of its last consumer has run: leaves near the loss come
    first and those near the inputs last. ``add_leaf(leaf, g)``, when given,
    takes each leaf's gradient in place of that accumulation; ``g`` may be shared
    with other leaves or graph arrays, so it is only to be read.
    """
    if loss.data.size != 1:
        raise UsageError(f"backward needs a scalar loss, got shape {loss.shape}")

    ordered: list[Tensor] = []
    seen: set[int] = set()
    consumers: dict[int, int] = {}  # per leaf: the records that read it, still to run
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            ordered.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if node.op is not None:
            for parent in node.op.inputs:
                if parent.requires_grad:
                    if parent.op is None:
                        consumers[id(parent)] = consumers.get(id(parent), 0) + 1
                    if id(parent) not in seen:
                        stack.append((parent, False))

    if add_leaf is None:
        def add_leaf(leaf: Tensor, g: Array) -> None:
            leaf.grad = (np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad) + g

    grads: dict[int, Array] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(ordered):
        g = grads.pop(id(node), None)
        if node.op is None:  # only a leaf loss still has its gradient here
            if g is not None and node.requires_grad:
                add_leaf(node, g)
            continue
        # The VJP's result tuple is not named, so a gradient handed over here is
        # freed before the next VJP runs.
        for parent, pg in zip(node.op.inputs, node.op.vjp(g) if g is not None
                              else (None,) * len(node.op.inputs)):
            if not parent.requires_grad:
                continue
            pid = id(parent)
            if pg is not None:
                grads[pid] = grads[pid] + pg if pid in grads else pg
            if parent.op is None:
                consumers[pid] -= 1
                if consumers[pid] == 0 and pid in grads:
                    add_leaf(parent, grads.pop(pid))


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None
