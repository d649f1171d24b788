"""Minimal MLP stack: forward, exact reverse-mode gradients, Adam, grad checks.

Three fixed-topology networks are all this project needs (policy, dynamics
surrogate, safety classifier).  Reverse mode is a one-call tape rather than a
general autodiff graph: a training caller creates a :class:`Tape`, passes it
to ``forward``, and hands the same tape to ``backward``, which reuses the
recorded activations and runs no forward pass of its own.  ``backward``
returns gradients with respect to the *inputs* as well as the parameters;
the input gradient is what lets a trainable policy receive gradient through
frozen downstream networks, and for such a frozen network ``backward`` can
skip the parameter gradients altogether.

Parameters and optimizer states are never mutated; a tape is written once by
the ``forward`` call it is passed to and belongs to the caller that made it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

_HEADS = ("identity", "tanh", "sigmoid")
_LOGIT_CLAMP = 30.0  # keeps sigmoid output strictly inside (0, 1)


@dataclass(frozen=True)
class MlpParams:
    sizes: Tuple[int, ...]
    weights: tuple            # ((W, b), ...) with W of shape (n_in, n_out)
    head: str = "identity"
    activation: str = "tanh"
    seed: int = 0

    def __post_init__(self):
        if self.head not in _HEADS:
            raise ValueError(f"unknown head {self.head!r}")
        if self.activation != "tanh":
            raise ValueError("only tanh hidden activation is supported")
        if len(self.weights) != len(self.sizes) - 1:
            raise ValueError("weight count does not match layer sizes")
        for i, (W, b) in enumerate(self.weights):
            if W.shape != (self.sizes[i], self.sizes[i + 1]) or b.shape != (self.sizes[i + 1],):
                raise ValueError(f"layer {i} shape mismatch")
            if not (np.isfinite(W).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i} has non-finite values")

    @property
    def n_in(self) -> int:
        return self.sizes[0]

    @property
    def n_out(self) -> int:
        return self.sizes[-1]


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


class Tape:
    """Activations one ``forward`` call recorded for the matching ``backward``.

    ``acts`` holds the (batched) input followed by every layer's output before
    the head, ``out`` the head output, and ``single`` whether the caller passed
    one unbatched input vector.
    """

    __slots__ = ("acts", "out", "single")


def _forward_cached(p: MlpParams, x: np.ndarray):
    acts = [x]
    z = x
    for i, (W, b) in enumerate(p.weights):
        z = z @ W + b
        if i < len(p.weights) - 1:
            z = np.tanh(z)
        acts.append(z)
    out = _apply_head(acts[-1], p.head)
    return out, acts


def forward(p: MlpParams, x: np.ndarray, tape: Optional[Tape] = None) -> np.ndarray:
    """Evaluate the network on a single input (d,) or a batch (B, d).

    With a ``tape``, also record the activations that ``backward`` needs.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    out, acts = _forward_cached(p, x[None, :] if single else x)
    if tape is not None:
        tape.acts, tape.out, tape.single = acts, out, single
    return out[0] if single else out


def backward(p: MlpParams, tape: Tape, upstream: np.ndarray, param_grads: bool = True):
    """Exact gradients of ``upstream . forward(p, x)`` from the tape of that call.

    ``tape`` must come from ``forward(p, x, tape)`` with the same ``p``; no
    forward pass is re-run.  Returns ``(param_grads, input_grad)`` where
    ``param_grads`` mirrors ``p.weights``.  Batched inputs accumulate parameter
    gradients over the batch; the input gradient keeps the batch dimension.
    With ``param_grads=False`` (a frozen network that only passes gradient on
    to its input) the per-layer parameter gradients are not computed and
    ``None`` is returned in their place; the input gradient is unchanged.
    """
    upstream = np.asarray(upstream, dtype=float)
    ub = upstream[None, :] if tape.single else upstream
    acts, out = tape.acts, tape.out

    if p.head == "identity":
        g = ub
    elif p.head == "tanh":
        g = ub * (1.0 - out * out)
    else:
        # clipped logits have zero gradient outside the clamp
        inside = (np.abs(acts[-1]) < _LOGIT_CLAMP).astype(float)
        g = ub * out * (1.0 - out) * inside

    grads: Optional[List[Tuple[np.ndarray, np.ndarray]]] = (
        [None] * len(p.weights) if param_grads else None)
    for i in range(len(p.weights) - 1, -1, -1):
        W, _ = p.weights[i]
        if grads is not None:
            grads[i] = (acts[i].T @ g, g.sum(axis=0))
        g = g @ W.T
        if i > 0:
            g = g * (1.0 - acts[i] * acts[i])  # tanh'
    input_grad = g[0] if tape.single else g
    return grads, input_grad


@dataclass(frozen=True)
class OptState:
    m: tuple
    v: tuple
    t: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_opt(p: MlpParams, lr: float = 1e-3, beta1: float = 0.9,
             beta2: float = 0.999, eps: float = 1e-8) -> OptState:
    zeros = tuple((np.zeros_like(W), np.zeros_like(b)) for W, b in p.weights)
    return OptState(m=zeros, v=tuple((np.zeros_like(W), np.zeros_like(b))
                                     for W, b in p.weights),
                    t=0, lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(p: MlpParams, grads, opt: OptState) -> Tuple[MlpParams, OptState]:
    t = opt.t + 1
    b1, b2 = opt.beta1, opt.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    new_w, new_m, new_v = [], [], []
    for (W, b), (gW, gb), (mW, mb), (vW, vb) in zip(p.weights, grads, opt.m, opt.v):
        mW2 = b1 * mW + (1 - b1) * gW
        mb2 = b1 * mb + (1 - b1) * gb
        vW2 = b2 * vW + (1 - b2) * gW * gW
        vb2 = b2 * vb + (1 - b2) * gb * gb
        W2 = W - opt.lr * (mW2 / c1) / (np.sqrt(vW2 / c2) + opt.eps)
        b2_ = b - opt.lr * (mb2 / c1) / (np.sqrt(vb2 / c2) + opt.eps)
        new_w.append((W2, b2_))
        new_m.append((mW2, mb2))
        new_v.append((vW2, vb2))
    p2 = MlpParams(sizes=p.sizes, weights=tuple(new_w), head=p.head,
                   activation=p.activation, seed=p.seed)
    return p2, OptState(m=tuple(new_m), v=tuple(new_v), t=t, lr=opt.lr,
                        beta1=b1, beta2=b2, eps=opt.eps)


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_err: float
    passed: bool
    n_checked: int


def _rel_err(a: float, b: float, atol: float, rtol: float) -> float:
    scale = max(abs(a), abs(b), atol / rtol)
    return abs(a - b) / scale


def grad_check(p: MlpParams, x: np.ndarray, tol: float = 1e-4,
               h: float = 1e-5, atol: float = 1e-6, seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Checks every parameter entry and every input entry for the scalar
    ``c . forward(p, x)`` with a fixed random probe vector ``c``.
    """
    x = np.asarray(x, dtype=float)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    c = rng.normal(size=p.n_out)

    def scalar(params: MlpParams, xv: np.ndarray) -> float:
        return float(c @ forward(params, xv))

    tape = Tape()
    forward(p, x, tape)
    grads, gx = backward(p, tape, c)
    worst = 0.0
    n = 0

    def perturbed(layer: int, which: int, idx, dv: float) -> MlpParams:
        new_weights = []
        for i, (W, b) in enumerate(p.weights):
            if i == layer:
                W = W.copy()
                b = b.copy()
                if which == 0:
                    W[idx] += dv
                else:
                    b[idx] += dv
            new_weights.append((W, b))
        return MlpParams(sizes=p.sizes, weights=tuple(new_weights), head=p.head,
                         activation=p.activation, seed=p.seed)

    for layer, (gW, gb) in enumerate(grads):
        for idx in np.ndindex(gW.shape):
            fd = (scalar(perturbed(layer, 0, idx, h), x)
                  - scalar(perturbed(layer, 0, idx, -h), x)) / (2 * h)
            worst = max(worst, _rel_err(gW[idx], fd, atol, tol))
            n += 1
        for idx in np.ndindex(gb.shape):
            fd = (scalar(perturbed(layer, 1, idx, h), x)
                  - scalar(perturbed(layer, 1, idx, -h), x)) / (2 * h)
            worst = max(worst, _rel_err(gb[idx], fd, atol, tol))
            n += 1
    for j in range(x.shape[-1]):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        fd = (scalar(p, xp) - scalar(p, xm)) / (2 * h)
        worst = max(worst, _rel_err(gx[j], fd, atol, tol))
        n += 1
    return GradCheckReport(max_rel_err=worst, passed=worst <= tol, n_checked=n)


def save_weights(p: MlpParams, path) -> None:
    obj = {
        "sizes": list(p.sizes),
        "activation": p.activation,
        "head": p.head,
        "layers": [{"W": W.tolist(), "b": b.tolist()} for W, b in p.weights],
        "seed": p.seed,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def load_weights(path) -> MlpParams:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    weights = tuple((np.asarray(layer["W"], dtype=float), np.asarray(layer["b"], dtype=float))
                    for layer in obj["layers"])
    return MlpParams(sizes=tuple(obj["sizes"]), weights=weights, head=obj["head"],
                     activation=obj["activation"], seed=int(obj.get("seed", 0)))
