"""Minimal MLP stack: forward, exact reverse-mode gradients, Adam.

Three fixed-topology networks are all this project needs (policy, dynamics
surrogate, safety classifier).  Reverse mode is a one-call tape rather than a
general autodiff graph: a training caller creates a :class:`Tape`, passes it
to ``forward``, and hands the same tape to ``backward``, which reuses the
recorded activations and runs no forward pass of its own.  ``backward``
returns gradients with respect to the *inputs* as well as the parameters;
the input gradient is what lets a trainable policy receive gradient through
frozen downstream networks, and for such a frozen network ``backward`` can
skip the parameter gradients altogether.

Every network keeps its parameters in one contiguous float64 vector
(``MlpParams.flat``, layer by layer, each ``W`` row-major then its ``b``);
``MlpParams.weights`` are views into it and parameter gradients use the same
layout, so an Adam step is a handful of whole-vector operations.

Files.  ``save_weights`` writes one network as an ``.npz`` archive: an
uncompressed zip whose members are plain ``.npy`` arrays (NumPy NEP 1),
``flat`` (float64, the layout above), ``sizes`` (int64), ``head`` (unicode
scalar) and ``seed`` (int64 scalar).  Every hidden layer is tanh.  Every
member carries zip's fixed 1980 timestamp, so saving one network twice gives
the same bytes, and ``np.load(path, allow_pickle=False)`` reads every member.

Ownership.  Parameters are immutable values: nothing writes into an
``MlpParams`` after it is built, and ``adam_step`` returns a new one.  An
``OptState``'s moments and a ``Tape``'s buffers are workspaces owned by one
training loop: ``adam_step`` updates its ``OptState`` in place, and a tape
passed again at the same layer sizes and batch reuses its buffers.  So an
array returned by a taped ``forward`` or by ``backward`` is valid only until
that tape is next used; a caller that keeps one must copy it.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

_HEADS = ("identity", "tanh", "sigmoid")
_LOGIT_CLAMP = 30.0  # keeps sigmoid output strictly inside (0, 1)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's moment decay rates and denominator guard


def _layer_views(flat: np.ndarray, sizes: Sequence[int]) -> tuple:
    """``((W, b), ...)`` views into a flat parameter-layout vector."""
    views = []
    off = 0
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        W = flat[off:off + n_in * n_out].reshape(n_in, n_out)
        off += n_in * n_out
        views.append((W, flat[off:off + n_out]))
        off += n_out
    return tuple(views)


@dataclass(frozen=True)
class MlpParams:
    sizes: Tuple[int, ...]
    weights: tuple            # ((W, b), ...) with W of shape (n_in, n_out)
    head: str = "identity"
    seed: int = 0
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_head(self.head)
        if len(self.weights) != len(self.sizes) - 1:
            raise ValueError("weight count does not match layer sizes")
        for i, (W, b) in enumerate(self.weights):
            if np.shape(W) != (self.sizes[i], self.sizes[i + 1]) or \
                    np.shape(b) != (self.sizes[i + 1],):
                raise ValueError(f"layer {i} shape mismatch")
        flat = np.empty(sum(np.size(W) + np.size(b) for W, b in self.weights))
        for (W, b), (vW, vb) in zip(self.weights, _layer_views(flat, self.sizes)):
            vW[...] = W
            vb[...] = b
        self._adopt(flat)

    def _adopt(self, flat: np.ndarray) -> None:
        """Back this value by ``flat`` (not copied) after checking it is finite."""
        if not np.isfinite(flat).all():
            bad = next(i for i, (W, b) in enumerate(_layer_views(flat, self.sizes))
                       if not (np.isfinite(W).all() and np.isfinite(b).all()))
            raise ValueError(f"layer {bad} has non-finite values")
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "weights", _layer_views(flat, self.sizes))

    def with_flat(self, flat: np.ndarray) -> "MlpParams":
        """The same network backed by ``flat``, which the new value takes over."""
        return _from_flat(self.sizes, flat, self.head, self.seed)


def _check_head(head: str) -> None:
    if head not in _HEADS:
        raise ValueError(f"unknown head {head!r}")


def _from_flat(sizes: Tuple[int, ...], flat: np.ndarray, head: str, seed: int) -> MlpParams:
    """An ``MlpParams`` backed by ``flat`` (not copied), which has its layout."""
    new = object.__new__(MlpParams)
    for name, value in (("sizes", sizes), ("head", head), ("seed", seed)):
        object.__setattr__(new, name, value)
    new._adopt(flat)
    return new


def init_mlp(sizes: Sequence[int], head: str = "identity", seed: int = 0) -> MlpParams:
    """Glorot-uniform initialization, reproducible from the seed."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    weights = []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (n_in + n_out))
        W = rng.uniform(-bound, bound, size=(n_in, n_out))
        b = np.zeros(n_out)
        weights.append((W, b))
    return MlpParams(sizes=tuple(int(s) for s in sizes), weights=tuple(weights),
                     head=head, seed=seed)


def _apply_head(z: np.ndarray, head: str) -> np.ndarray:
    if head == "identity":
        return z
    if head == "tanh":
        return np.tanh(z)
    zc = np.clip(z, -_LOGIT_CLAMP, _LOGIT_CLAMP)
    return 1.0 / (1.0 + np.exp(-zc))


class ParamGrads(tuple):
    """Per-layer ``(dW, db)`` gradients: views into the one vector ``flat``,
    which has the layout of ``MlpParams.flat``."""

    def __new__(cls, flat: np.ndarray, sizes: Sequence[int]):
        self = super().__new__(cls, _layer_views(flat, sizes))
        self.flat = flat
        return self


class Tape:
    """Activations one ``forward`` call recorded for the matching ``backward``,
    and the buffers both write into.

    ``acts`` holds the input batch followed by every layer's output before
    the head, and ``out`` the head output.  The buffers are kept while the
    layer sizes and batch stay the same (``key``).  The two that only
    ``backward`` needs are made by its first call, and the parameter-gradient
    vector by its first call that forms parameter gradients.
    """

    __slots__ = ("key", "acts", "out", "_gin", "_dact", "_grads")

    def __init__(self):
        self.key = None

    def _fit(self, sizes: Tuple[int, ...], batch: int) -> None:
        """Make the buffers match ``sizes`` at ``batch`` rows, reusing them if they do."""
        if self.key == (sizes, batch):
            return
        self.key = (sizes, batch)
        self.acts = [None] + [np.empty((batch, n)) for n in sizes[1:]]
        self._gin = self._dact = self._grads = None

    def _fit_backward(self) -> None:
        sizes, batch = self.key
        # the input-gradient chain ping-pongs between two buffers: layer i
        # writes the gradient w.r.t. its input (width sizes[i]) into _gin[i],
        # and the tanh' it multiplies by into the other one, whose content
        # (the gradient layer i consumed) is dead once its matmul has run
        width = max(sizes[:-1])
        ping, pong = np.empty(batch * width), np.empty(batch * width)
        last = len(sizes) - 2
        self._gin, self._dact = [], []
        for i, n in enumerate(sizes[:-1]):
            mine, other = (ping, pong) if (last - i) % 2 == 0 else (pong, ping)
            self._gin.append(mine[:batch * n].reshape(batch, n))
            self._dact.append(other[:batch * n].reshape(batch, n))


def _forward_cached(p: MlpParams, x: np.ndarray, tape: Optional[Tape]) -> np.ndarray:
    """Run the network on a batch ``x`` (B, d), or untaped on one input (d,),
    and return the head output.

    With a ``tape`` every layer writes into the tape's buffers, which then
    hold the activations ``backward`` needs; without one each layer's output
    is a new array.
    """
    acts = None
    if tape is not None:
        tape._fit(p.sizes, len(x))
        acts = tape.acts
        acts[0] = x
    z = x
    last = len(p.weights) - 1
    for i, (W, b) in enumerate(p.weights):
        z = z @ W if acts is None else np.matmul(z, W, out=acts[i + 1])
        z += b
        if i < last:
            np.tanh(z, out=z)
    out = _apply_head(z, p.head)
    if tape is not None:
        tape.out = out
    return out


def forward(p: MlpParams, x: np.ndarray, tape: Optional[Tape] = None) -> np.ndarray:
    """Evaluate the network on a single input (d,) or a batch (B, d).

    With a ``tape``, ``x`` must be a batch, and the activations that
    ``backward`` needs are recorded; the result then lives in the tape's
    buffers (see the module's ownership rule).  Raises ``ValueError`` for a
    taped input that is not a batch.
    """
    x = np.asarray(x, dtype=float)
    if tape is not None and x.ndim != 2:
        raise ValueError(f"a taped forward takes a batch (B, d), got shape {x.shape}")
    # without a tape a single input (d,) runs as it is: every layer maps it to a vector
    return _forward_cached(p, x, tape)


def backward(p: MlpParams, tape: Tape, upstream: np.ndarray, param_grads: bool = True):
    """Exact gradients of ``upstream . forward(p, x)`` from the tape of that call.

    ``tape`` must come from ``forward(p, x, tape)`` with the same ``p``; no
    forward pass is re-run, and ``upstream`` has the shape of its output.
    Returns ``(param_grads, input_grad)`` where ``param_grads`` is a
    :class:`ParamGrads` mirroring ``p.weights``.  Parameter gradients
    accumulate over the batch; the input gradient keeps the batch dimension.
    With ``param_grads=False`` (a frozen network that only passes gradient on
    to its input) the parameter gradients are not computed and ``None`` is
    returned in their place; the input gradient is unchanged.  Both results
    live in the tape's buffers.
    """
    upstream = np.asarray(upstream, dtype=float)
    acts, out = tape.acts, tape.out

    if p.head == "identity":
        g = upstream
    elif p.head == "tanh":
        g = upstream * (1.0 - out * out)
    else:
        # clipped logits have zero gradient outside the clamp
        inside = (np.abs(acts[-1]) < _LOGIT_CLAMP).astype(float)
        g = upstream * out * (1.0 - out) * inside

    if tape._gin is None:
        tape._fit_backward()
    grads = None
    if param_grads:
        if tape._grads is None:
            tape._grads = ParamGrads(np.empty(p.flat.size), p.sizes)
        grads = tape._grads
    for i in range(len(p.weights) - 1, -1, -1):
        W, _ = p.weights[i]
        if grads is not None:
            gW, gb = grads[i]
            np.matmul(acts[i].T, g, out=gW)
            np.add.reduce(g, axis=0, out=gb)
        g = np.matmul(g, W.T, out=tape._gin[i])
        if i > 0:
            d = tape._dact[i]  # tanh'
            np.multiply(acts[i], acts[i], out=d)
            np.subtract(1.0, d, out=d)
            g *= d
    return grads, g


@dataclass(eq=False)
class OptState:
    """Adam state over a flat parameter vector: the moments ``m``/``v`` and a
    scratch vector, all updated in place by ``adam_step``."""

    m: np.ndarray
    v: np.ndarray
    t: int
    lr: float
    _scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._scratch = np.empty_like(self.m)


def init_opt(p: MlpParams, lr: float = 1e-3) -> OptState:
    return OptState(m=np.zeros_like(p.flat), v=np.zeros_like(p.flat), t=0, lr=lr)


def adam_step(p: MlpParams, grads, opt: OptState) -> Tuple[MlpParams, OptState]:
    """One Adam step: returns the new parameters and ``opt``, advanced in place.

    ``grads`` is a :class:`ParamGrads`; ``p`` itself is left unchanged.
    """
    g = grads.flat
    opt.t += 1
    c1 = 1.0 - _BETA1 ** opt.t
    c2 = 1.0 - _BETA2 ** opt.t
    m, v, s = opt.m, opt.v, opt._scratch
    # m = _BETA1 * m + (1 - _BETA1) * g;  v = _BETA2 * v + (1 - _BETA2) * g * g
    m *= _BETA1
    np.multiply(g, 1 - _BETA1, out=s)
    m += s
    v *= _BETA2
    np.multiply(g, 1 - _BETA2, out=s)
    s *= g
    v += s
    # p - lr * (m / c1) / (sqrt(v / c2) + eps), built in the new vector
    new = np.divide(v, c2)
    np.sqrt(new, out=new)
    new += _EPS
    np.divide(m, c1, out=s)
    s *= opt.lr
    np.divide(s, new, out=new)
    np.subtract(p.flat, new, out=new)
    return p.with_flat(new), opt


def save_weights(p: MlpParams, path) -> None:
    """Write ``p`` to ``path`` as the ``.npz`` archive the module docstring lays out.

    Each member is written by ``np.lib.format.write_array`` into a
    ``zipfile.ZipInfo`` that keeps its default timestamp; ``np.savez`` would
    stamp the current time into every member.
    """
    members = (("flat", p.flat), ("sizes", np.asarray(p.sizes, dtype=np.int64)),
               ("head", np.asarray(p.head)), ("seed", np.asarray(p.seed, dtype=np.int64)))
    with zipfile.ZipFile(path, "w") as zf:
        for name, value in members:
            with zf.open(zipfile.ZipInfo(f"{name}.npy"), "w") as fh:
                np.lib.format.write_array(fh, value, allow_pickle=False)


def load_weights(path) -> MlpParams:
    """Read a network that ``save_weights`` wrote; the result owns ``flat``.

    Raises ``ValueError`` when ``path`` is not a zip archive (weights saved
    as JSON text before the ``.npz`` format no longer load), when ``sizes``
    has fewer than two widths or one below 1, or when ``flat`` does not hold
    exactly the parameters ``sizes`` calls for, or holds a non-finite value.
    Older archives also carry an ``activation`` member, always ``tanh``; it
    is not read.
    """
    if not zipfile.is_zipfile(path):
        # np.load would report such a file as pickled data
        raise ValueError(f"{path} is not an .npz weight archive")
    with np.load(path, allow_pickle=False) as data:
        flat = data["flat"].astype(np.float64, copy=False)
        sizes = tuple(int(n) for n in data["sizes"])
        head = data["head"].item()
        seed = int(data["seed"])
    _check_head(head)
    if len(sizes) < 2 or min(sizes) < 1:
        raise ValueError(f"layer sizes {sizes} need two or more widths, each >= 1")
    n = sum((n_in + 1) * n_out for n_in, n_out in zip(sizes[:-1], sizes[1:]))
    if flat.shape != (n,):
        raise ValueError(f"flat has shape {flat.shape}; layer sizes {sizes} need ({n},)")
    return _from_flat(sizes, flat, head, seed)
