"""Finite-difference check of ``cabc.nn``'s analytic gradients.

``forward`` and ``backward`` are looked up on the ``nn`` module at each call,
so a test that monkeypatches either one is checked against the patched code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cabc import nn


@dataclass(frozen=True)
class GradCheckReport:
    max_rel_err: float
    passed: bool
    n_checked: int


def _forward_from(p: nn.MlpParams, z: np.ndarray, layer: int) -> np.ndarray:
    """Head output for a batch ``z`` of pre-activations of layer ``layer``."""
    for W, b in p.weights[layer + 1:]:
        z = np.tanh(z) @ W + b
    return nn._apply_head(z, p.head)


def _central_differences(p: nn.MlpParams, x: np.ndarray, c: np.ndarray, h: float,
                         chunk: int = 2048) -> np.ndarray:
    """Central differences of ``c . forward(p, x)`` with step ``h``: one per
    parameter entry (in ``p.flat`` order), then one per entry of ``x`` (d,).

    Perturbing ``W[r, j]`` of a layer by ``h`` shifts only unit ``j`` of that
    layer's pre-activation, by ``h * a[r]`` (``a`` the layer's input), and
    perturbing ``b[j]`` shifts it by ``h``.  So all of one layer's differences
    come from batched forwards, ``chunk`` rows at a time, of the layers above.
    """
    fd = []
    a = x
    for i, (W, b) in enumerate(p.weights):
        z = a @ W + b
        n_in, n_out = W.shape
        units = np.concatenate([np.tile(np.arange(n_out), n_in), np.arange(n_out)])
        shifts = np.concatenate([np.repeat(h * a, n_out), np.full(n_out, h)])
        for lo in range(0, len(units), chunk):
            unit, shift = units[lo:lo + chunk], shifts[lo:lo + chunk]
            rows = np.arange(len(unit))
            z_plus = np.tile(z, (len(unit), 1))
            z_minus = z_plus.copy()
            z_plus[rows, unit] += shift
            z_minus[rows, unit] -= shift
            fd.append((_forward_from(p, z_plus, i) @ c - _forward_from(p, z_minus, i) @ c)
                      / (2 * h))
        a = np.tanh(z)
    step = h * np.eye(len(x))
    fd.append((nn.forward(p, x + step) @ c - nn.forward(p, x - step) @ c) / (2 * h))
    return np.concatenate(fd)


def grad_check(p: nn.MlpParams, x: np.ndarray, tol: float = 1e-4,
               h: float = 1e-5, atol: float = 1e-6, seed: int = 0) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Checks every parameter entry and every input entry of one input vector
    ``x`` for the scalar ``c . forward(p, x)`` with a fixed random probe
    vector ``c``.  The error of an entry is ``|g - fd|`` over the largest of
    ``|g|``, ``|fd|`` and ``atol / tol``; a non-finite difference fails.

    The parameter differences come from ``_forward_from``, not ``forward``,
    so the check also fails unless the two agree on the unperturbed output.
    """
    x = np.asarray(x, dtype=float)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    c = rng.normal(size=p.sizes[-1])
    tape = nn.Tape()
    y = nn.forward(p, x[None, :], tape)[0].copy()
    grads, gx = nn.backward(p, tape, c[None, :])
    g = np.concatenate([grads.flat, gx[0]])
    fd = _central_differences(p, x, c, h)
    scale = np.maximum(np.maximum(np.abs(g), np.abs(fd)), atol / tol)
    worst = float((np.abs(g - fd) / scale).max())
    W, b = p.weights[0]
    same_forward = np.allclose(_forward_from(p, (x @ W + b)[None], 0)[0], y,
                               rtol=1e-12, atol=1e-12)
    return GradCheckReport(max_rel_err=worst, passed=bool(same_forward and worst <= tol),
                           n_checked=len(g))
