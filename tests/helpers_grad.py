"""Gradient oracles shared by unit and acceptance tests.

``imitation_loss`` is the loss on plain point tuples, and
``fd_gradients`` a finite-difference oracle built on it.
``attention_weights`` reads each stage's softmax weights from the forward
pass's caches. ``ref_backward``
and ``ref_train`` are the training step as it was before gradients were
written in place and before its products went through ``np.dot``:
``_mlp_forward``, ``_mlp_backward``, ``_attention_forward``,
``_attention_backward``, ``_run_forward`` and ``_step`` with ``@`` and
``einsum`` (names prefixed ``ref_``), adding every gradient into a
zero-filled buffer, and ``train``'s loop with ``grad.fill(0.0)`` and
``theta -= lr * grad``. The package's step must match them bit for bit.

Adding into zeros turns a gradient of -0.0 into +0.0. Adding into a
buffer of -0.0 instead keeps every value's bits, since -0.0 + x is x
for every x; a stage with no keys adds its +0.0 weight gradients
explicitly, as the package's step writes them.
"""

import math

import numpy as np

from vecdrive.planner import (
    PlannerModel,
    _bind,
    _pack,
    _run_forward,
    _views,
)
from vecdrive.rng import SplitMix64
from vecdrive.scene import T_F


def imitation_loss(pred, gt) -> float:
    """Mean squared Euclidean waypoint distance."""
    if len(pred) != T_F or len(gt) != T_F:
        raise ValueError(f"trajectories must have {T_F} waypoints")
    total = 0.0
    for (px, py), (gx, gy) in zip(pred, gt):
        dx, dy = px - gx, py - gy
        total += dx * dx + dy * dy
    return total / T_F


def fd_gradients(model: PlannerModel, scenario, command, gt, eps=1e-5):
    """Central finite differences of the imitation loss w.r.t. every parameter.

    The scenario is packed once, and each loss runs ``_run_forward`` on
    ``model.bound``, as the public ``forward`` does. The bound arrays are
    views into the model's ``theta``, so every perturbation below reaches
    them.
    """
    packed = _pack(scenario, command)

    def loss():
        pred, _ = _run_forward(model.bound, model.config, packed)
        return imitation_loss(pred.tolist(), gt)

    grads = {}
    for name, arr in model.params.items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            hi = loss()
            flat[i] = original - eps
            lo = loss()
            flat[i] = original
            gflat[i] = (hi - lo) / (2.0 * eps)
        grads[name] = g
    return grads


def attention_weights(model: PlannerModel, scenario, command) -> dict[str, np.ndarray]:
    """Per-stage softmax weights over the valid keys, from ``_run_forward``'s caches.

    Arrays have shape (n_heads, n_valid_keys); empty key sets yield
    zero-column arrays.
    """
    _, caches = _run_forward(model.bound, model.config, _pack(scenario, command))
    return {name: np.zeros((model.config.n_heads, 0)) if cache is None else cache[6].copy()
            for name, cache in (("agents", caches[4]), ("map", caches[5]))}


def max_relative_error(analytic, numeric, loss, eps=1e-5):
    """max over components of |a - b| / max(|a|, |b|, floor).

    The difference quotient carries round-off noise of a few tens of
    ULPs of the loss divided by 2*eps (about 1e-9 absolute at loss ~50),
    so components near zero cannot be compared relatively. The floor is
    that noise bound divided by the 1e-4 target, keeping pure-noise
    discrepancies at ~1e-5 relative while leaving every component large
    enough to carry signal on the true relative scale.
    """
    floor = 5e4 * np.finfo(float).eps * max(1.0, abs(loss)) / eps
    worst = 0.0
    for name in analytic:
        a = analytic[name].ravel()
        b = numeric[name].ravel()
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
        err = np.abs(a - b) / denom
        if err.size:
            worst = max(worst, float(err.max()))
    return worst


# --- the accumulate-into-zeros step --------------------------------------------------

def ref_mlp_forward(weights, x):
    w1, b1, w2, b2 = weights
    h = np.tanh(x @ w1.T + b1)
    y = h @ w2.T + b2
    return y, (x, h)


def ref_mlp_backward(weights, grads, grad_y, cache):
    x, h = cache
    gw1, gb1, gw2, gb2 = grads
    gw2 += grad_y.T @ h
    gb2 += grad_y.sum(axis=0)
    gz = (grad_y @ weights[2]) * (1.0 - h * h)
    gw1 += gz.T @ x
    gb1 += gz.sum(axis=0)
    return gz


def ref_attention_forward(weights, config, q_in, k_src, q_pos, k_pos):
    n = k_src.shape[0]
    d = config.d_model
    if n == 0:
        return np.zeros(d), None
    wq, wk, wv, wo = weights
    n_heads = config.n_heads
    dh = d // n_heads
    q = q_in + q_pos
    keys = k_src + k_pos
    qp = wq @ q
    kp = keys @ wk.T
    vp = k_src @ wv.T
    qh = qp.reshape(n_heads, dh)
    kh = kp.reshape(n, n_heads, dh)
    vh = vp.reshape(n, n_heads, dh)
    logits = np.einsum("nhd,hd->hn", kh, qh) / math.sqrt(dh)
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    weights = expd / expd.sum(axis=1, keepdims=True)          # (n_heads, n)
    heads_out = np.einsum("hn,nhd->hd", weights, vh)
    cat = heads_out.reshape(d)
    out = wo @ cat
    cache = (q, keys, k_src, qp, kp, vp, weights, cat)
    return out, cache


def ref_attention_backward(weights, grads, config, grad_out, cache):
    d = config.d_model
    if cache is None:
        for g in grads:
            g += 0.0
        zero = np.zeros(d)
        return zero, zero, np.zeros((0, d)), np.zeros((0, d))
    wq, wk, wv, wo = weights
    gwq, gwk, gwv, gwo = grads
    q, keys, k_src, qp, kp, vp, attn, cat = cache
    n = k_src.shape[0]
    n_heads = config.n_heads
    dh = d // n_heads

    gwo += grad_out[:, None] * cat[None, :]
    g_cat = wo.T @ grad_out
    g_heads = g_cat.reshape(n_heads, dh)

    vh = vp.reshape(n, n_heads, dh)
    g_weights = np.einsum("hd,nhd->hn", g_heads, vh)
    g_vh = np.einsum("hn,hd->nhd", attn, g_heads)

    # Softmax backward per head.
    dot = (attn * g_weights).sum(axis=1, keepdims=True)
    g_logits = attn * (g_weights - dot)

    kh = kp.reshape(n, n_heads, dh)
    qh = qp.reshape(n_heads, dh)
    scale = 1.0 / math.sqrt(dh)
    g_qh = np.einsum("hn,nhd->hd", g_logits, kh) * scale
    g_kh = np.einsum("hn,hd->nhd", g_logits, qh) * scale

    g_qp = g_qh.reshape(d)
    g_kp = g_kh.reshape(n, d)
    g_vp = g_vh.reshape(n, d)

    gwq += g_qp[:, None] * q[None, :]
    g_q = wq.T @ g_qp
    gwk += g_kp.T @ keys
    g_keys = g_kp @ wk
    gwv += g_vp.T @ k_src
    g_k_src = g_vp @ wv + g_keys
    return g_q, g_q, g_k_src, g_keys


def ref_run_forward(bound, config, packed):
    a_feat, m_feat, pe1_in, pe2_in, tail, _ = packed
    q_a, agent_cache = ref_mlp_forward(bound["agent_enc"], a_feat)
    q_m, map_cache = ref_mlp_forward(bound["map_enc"], m_feat)
    pe1_out, pe1_cache = ref_mlp_forward(bound["pe1"], pe1_in)
    pe2_out, pe2_cache = ref_mlp_forward(bound["pe2"], pe2_in)

    q1, attn1_cache = ref_attention_forward(
        bound["attn1"], config, bound["ego_query"], q_a, pe1_out[0], pe1_out[1:])
    q2, attn2_cache = ref_attention_forward(
        bound["attn2"], config, q1, q_m, pe2_out[0], pe2_out[1:])

    head_in = np.concatenate([q1, q2, tail])[None, :]
    head_out, head_cache = ref_mlp_forward(bound["plan_head"], head_in)
    pred = head_out.reshape(T_F, 2)
    return pred, (agent_cache, map_cache, pe1_cache, pe2_cache,
                  attn1_cache, attn2_cache, head_cache)


def ref_step(bound, grads, config, packed):
    d = config.d_model
    pred, caches = ref_run_forward(bound, config, packed)
    agent_cache, map_cache, pe1_cache, pe2_cache, attn1_cache, attn2_cache, head_cache = caches
    gt = packed[5]

    diff = pred - gt
    total = 0.0
    for dx, dy in diff.tolist():      # summed as imitation_loss sums
        total += dx * dx + dy * dy
    loss = total / T_F

    g_out = (2.0 / T_F) * diff.reshape(1, T_F * 2)
    gz = ref_mlp_backward(bound["plan_head"], grads["plan_head"], g_out, head_cache)
    g_head_in = (gz @ bound["plan_head"][0])[0]

    g_q1 = g_head_in[:d]
    g_q2 = g_head_in[d:2 * d]

    g_q1_from_attn2, g_qpos2, g_qm, g_kpos2 = ref_attention_backward(
        bound["attn2"], grads["attn2"], config, g_q2, attn2_cache)
    g_q1 += g_q1_from_attn2

    g_ego_query, g_qpos1, g_qa, g_kpos1 = ref_attention_backward(
        bound["attn1"], grads["attn1"], config, g_q1, attn1_cache)
    grads["ego_query"] += g_ego_query

    ref_mlp_backward(bound["agent_enc"], grads["agent_enc"], g_qa, agent_cache)
    ref_mlp_backward(bound["pe1"], grads["pe1"],
                     np.concatenate([g_qpos1[None, :], g_kpos1]), pe1_cache)
    ref_mlp_backward(bound["map_enc"], grads["map_enc"], g_qm, map_cache)
    ref_mlp_backward(bound["pe2"], grads["pe2"],
                     np.concatenate([g_qpos2[None, :], g_kpos2]), pe2_cache)
    return loss


def ref_backward(model, scenario, command, gt):
    """``planner.backward`` through ``ref_step``: (loss, name -> gradient)."""
    config = model.config
    grads = _views(config, np.zeros_like(model.theta))
    loss = ref_step(model.bound, _bind(grads), config, _pack(scenario, command, gt))
    return loss, grads


def ref_train(model, scenarios, commands, epochs, lr, seed):
    """``planner.train``'s loop through ``ref_step``: zero, step, ``theta -= lr * grad``."""
    config = model.config
    trained = PlannerModel(config, model.theta.copy())
    theta, bound = trained.theta, trained.bound
    grad = np.zeros_like(theta)
    bound_grads = _bind(_views(config, grad))
    packed = [_pack(s, c, s.gt_future) for s, c in zip(scenarios, commands)]
    rng = SplitMix64(seed)
    order = list(range(len(scenarios)))
    curve = []
    for _ in range(epochs):
        rng.shuffle(order)
        total = 0.0
        for i in order:
            grad.fill(0.0)
            loss = ref_step(bound, bound_grads, config, packed[i])
            theta -= lr * grad
            total += loss
        curve.append(total / len(scenarios))
    return trained, curve
