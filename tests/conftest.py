"""Shared test helpers, chiefly the central finite-difference gradient oracle."""

import math
import os

import numpy as np
import pytest

from emofuse import lanes
from emofuse import tensor as T
from emofuse.training import BETA1, BETA2, EPS


def sum_all(a):
    """The sum of every entry of ``a`` as a 0-d tensor, with its VJP: the scalar
    loss most gradient tests reduce to."""
    out = np.asarray(a.data.sum())
    return T._result("sum_all", out, (a,), lambda g: (np.broadcast_to(g, a.data.shape).copy(),))


def copy_arrays(state):
    """A copy of each parameter array of an encoder state, by name."""
    return {name: p.data.copy() for name, p in state.params.items()}


def finite_diff_gradients(build_loss, leaf, h=1e-4):
    """Central finite differences of build_loss() w.r.t. one leaf tensor.

    build_loss must be a deterministic function of the current leaf data
    (eval mode, no dropout). The leaf's data is perturbed in place and
    restored. Nothing here is differentiated, so no graph is recorded.
    """
    flat = leaf.data.reshape(-1)
    num = np.zeros_like(flat)
    with T.no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = build_loss().item()
            flat[i] = orig - h
            down = build_loss().item()
            flat[i] = orig
            num[i] = (up - down) / (2.0 * h)
    return num.reshape(leaf.data.shape)


def assert_grads_match(build_loss, leaves, h=1e-4, rtol=1e-4, floor=1e-6):
    """Check autodiff gradients of build_loss against finite differences.

    Relative error uses max(|analytic|, |numeric|, floor) as denominator so
    near-zero gradients are compared absolutely.
    """
    T.zero_grads(leaves)
    loss = build_loss()
    T.backward(loss)
    for leaf in leaves:
        # A leaf the loss never touches has no grad; finite differences must
        # then agree that the true gradient is zero.
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        numeric = finite_diff_gradients(build_loss, leaf, h=h)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
        rel = np.abs(analytic - numeric) / denom
        assert rel.max() < rtol, f"gradient mismatch: max rel err {rel.max():.3e}"
    T.zero_grads(leaves)


def randomize_state(state, rng, scale=0.5):
    """Move an encoder state to a generic, well-conditioned parameter point.

    The default 0.02-scale init leaves layer-norm inputs with tiny variance,
    which blows up the truncation error of the finite-difference oracle at
    the stated step; gradients themselves are checked at an O(1) point.
    """
    for p in state.params.values():
        p.data = rng.normal(0.0, scale, size=p.data.shape)
    return state


def per_head_attention(x, kv, wq, bq, wk, bk, wv, bv, wo, bo, n_heads):
    """Reference oracle for multi-head attention: one 2-D loop body per head.

    Slices each head's columns out of the projections, attends, and
    concatenates the heads; returns the output and the [n_heads x Lq x Lkv]
    weights, like ``encoder.multi_head_attention``.
    """
    q = T.matmul(x, wq) + bq
    k = T.matmul(kv, wk) + bk
    v = T.matmul(kv, wv) + bv
    dh = q.data.shape[1] // n_heads
    heads, weights = [], []
    for h in range(n_heads):
        lo, hi = h * dh, (h + 1) * dh
        scores = T.scale(
            T.matmul(T.slice_cols(q, lo, hi), T.transpose(T.slice_cols(k, lo, hi))),
            1.0 / math.sqrt(dh),
        )
        attn = T.softmax_rows(scores)
        weights.append(attn.data)
        heads.append(T.matmul(attn, T.slice_cols(v, lo, hi)))
    return T.matmul(T.concat_cols(heads), wo) + bo, np.stack(weights)


def out_of_place_adam_step(params, grads, opt, lr):
    """Reference oracle for ``training.adam_step``: the textbook bias-corrected
    update, each step allocating new moment and parameter arrays."""
    opt.step += 1
    bc1 = 1.0 - BETA1 ** opt.step
    bc2 = 1.0 - BETA2 ** opt.step
    for name, p in params.items():
        g = grads[name]
        opt.m[name] = BETA1 * opt.m[name] + (1.0 - BETA1) * g
        opt.v[name] = BETA2 * opt.v[name] + (1.0 - BETA2) * g * g
        m_hat = opt.m[name] / bc1
        v_hat = opt.v[name] / bc2
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + EPS)


def full_tensor_nearest_centroid(frames, centroids):
    """Reference oracle for the nearest-centroid search: the argmin of the
    exact squared distances over one [N x K x D] difference tensor."""
    diff = frames[:, None, :] - centroids[None, :, :]
    return np.argmin(np.einsum("nkd,nkd->nk", diff, diff), axis=1)


def full_tensor_lloyd(frames, centroids, max_iters, tol):
    """Reference oracle for ``speech.train_codebook``'s Lloyd loop, from given
    initial centroids, over the full [N x K x D] distance tensor.

    Returns the final centroids and the number of empty clusters reseeded.
    """
    k = len(centroids)
    reseeded = 0
    for _ in range(max_iters):
        diff = frames[:, None, :] - centroids[None, :, :]
        d2 = np.einsum("nkd,nkd->nk", diff, diff)
        assign = np.argmin(d2, axis=1)
        new = centroids.copy()
        empties = []
        for j in range(k):
            members = frames[assign == j]
            if len(members):
                new[j] = members.mean(axis=0)
            else:
                empties.append(j)
        if empties:
            own = d2[np.arange(len(frames)), assign]
            order = np.argsort(-own, kind="stable")
            for rank, j in enumerate(empties):
                new[j] = frames[order[rank]]
            reseeded += len(empties)
        shift = np.sqrt(((new - centroids) ** 2).sum(axis=1)).max()
        centroids = new
        if shift < tol:
            break
    return centroids, reseeded


@pytest.fixture
def set_lanes(monkeypatch):
    """``set_lanes(n)`` runs the rest of the test on one lane or two, whatever the host."""
    return lambda n: monkeypatch.setattr(lanes, "LANES", n)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pytest_sessionfinish(session):
    """Fail the session when this process still has a child, alive or unreaped: every
    worker must be reaped by the call that forked it."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    writer = session.config.get_terminal_writer()
    writer.line()
    writer.line("a child process of the test session remains after the tests", red=True)
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
