"""Command-conditioned vectorized trajectory planner.

The model fuses a learnable ego query with agent and map features through
two single-layer cross-attention stages (ego-agent, then ego-map), and a
two-layer planning head decodes the fused features, the ego state and the
one-hot command into T_F future waypoints:

    q1  = attention(stage 1, ego_query, agent rows, positional terms)
    q2  = attention(stage 2, q1, map rows, positional terms)
    out = plan_head([q1, q2, s_ego, one-hot command])  ->  T_F x 2

Attention adds MLP positional embeddings to queries and keys before the
per-stage projections; values are the raw key rows projected. Each stage
attends over exactly the scenario's agents (or polylines): absent ones
never enter the computation, and a stage with no keys returns the zero
vector, so an empty scene gives its encoder and attention parameters
exactly zero gradient.

A model is ``PlannerModel(config, theta)``: all parameters live in one
contiguous float64 vector, ``theta``, in param_layout() order. The
read-only ``model.params`` maps each name to a reshaped view into it, and
``model.bound`` groups those views per layer, once, when the model is
built. Gradients are views into a vector of the same length. A
scenario's inputs are packed into arrays once, in one pass over its
agents and polylines (``_pack``); the positional-embedding rows are the
position columns of the agent and map rows, not a second read of the
scene. One inner step (``_step``) runs forward, loss and backward on a
packed sample. ``forward``, ``backward`` and ``train`` all go through
it. The step writes each gradient array in place, exactly once, so a
training step is: run the step, then ``grad *= lr; theta -= grad``, with
no zero-fill and no temporary.

The step is bound by per-call overhead on arrays of at most 64 x 64, not
by arithmetic. So every matrix product is the array's own method,
``a.dot(b)`` or ``a.dot(b, out)``, never ``@``, ``np.matmul`` or
``np.dot``: ``ndarray.dot`` runs the same C routine as ``np.dot``, and so
the same BLAS call and bits, but skips the Python-level
``__array_function__`` dispatch that ``np.dot`` runs on every call.
Biases are added and tanh applied in place, and the per-head outer
products are broadcasts, one exact product per element. The four einsums
that contract (over the head width or the keys) stay: a ``matmul`` or
multiply-and-sum form adds in another order and rounds differently. No
product is ``a.dot(a.T)`` on one buffer, which numpy sends to ``syrk``.
One exception to "the same bits": with d_model = 1, the product of two
one-element operands is the bare product, so an exact zero keeps its sign
where ``matmul``'s one-term sum gives +0.0. Only gradient zeros differ,
and ``theta -= grad`` never turns a weight into -0.0, so training from
``init_model`` gives the same weights, losses and predictions.

An MLP over zero rows (the agent encoder of a scene with no agents) runs
no product: its forward returns a (0, d_model) output and no cache, and
its backward writes +0.0 into its four gradients, the bytes the empty
products would give. The attention backward writes the query's and the
keys' positional gradients into one (n + 1, d_model) array, the rows the
positional MLP produced, so the step builds no array by concatenation.

A trajectory is a plain tuple of T_F points, and ``train`` takes its
commands from the caller, so this module does not import the oracle that
decides them.

This is the one module of the package that imports numpy. ``cli``
registers it lazily, so only ``train`` and ``eval-plan --predict model``
load it; its exceptions live in the numpy-free ``planner_errors`` and are
re-exported here.

Everything is float64 and single-threaded; forward, backward and training
are bit-deterministic. Gradients are hand-written reverse mode, checked
against central finite differences in the test suite.

Coordinate-like inputs (positions, speeds, extents) are scaled by
INPUT_SCALE = 0.1 before entering any MLP so that tanh hidden layers stay
in their active range at street-scale coordinates.
"""

from __future__ import annotations

import logging
import math
import os
import time
import types
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from . import jsonio
from .planner_errors import CheckpointError, PlannerError, TrainingDiverged
from .rng import GAMMA, MIX1, MIX2, SplitMix64
from .scene import A_MAX, M_MAX, POLYLINE_POINTS, T_F, MetaAction, Point, Scenario

log = logging.getLogger("vecdrive")

INPUT_SCALE = 0.1
AGENT_FEATURES = 7          # x, y, cos(h), sin(h), speed, length, width
MAP_FEATURES = POLYLINE_POINTS * 2
EGO_STATE_FEATURES = 3      # speed, accel, constant 1
N_COMMANDS = 3

_ONE_HOT = {
    MetaAction.GO_STRAIGHT: (1.0, 0.0, 0.0),
    MetaAction.TURN_LEFT: (0.0, 1.0, 0.0),
    MetaAction.TURN_RIGHT: (0.0, 0.0, 1.0),
}
#: Per-column input scale of an agent row; the heading's cos and sin are
#: not scaled (a product with 1.0 is exact).
_AGENT_SCALE = np.array([INPUT_SCALE, INPUT_SCALE, 1.0, 1.0,
                         INPUT_SCALE, INPUT_SCALE, INPUT_SCALE])


#: Most parameters a planner may have: 80 MB of float64 weights, ~400 times
#: the default model. A larger config is refused before anything is allocated.
MAX_PARAMS = 10_000_000


@dataclass(frozen=True)
class PlannerConfig:
    d_model: int = 32
    n_heads: int = 2
    hidden: int = 64

    def validate(self) -> None:
        for name, value in self.to_dict().items():
            if type(value) is not int:
                raise PlannerError(f"{name} must be an integer, got {value!r}")
        for name in ("d_model", "n_heads", "hidden"):
            if getattr(self, name) <= 0:
                raise PlannerError(f"{name} must be positive")
        if self.d_model % self.n_heads != 0:
            raise PlannerError(
                f"n_heads={self.n_heads} must divide d_model={self.d_model}"
            )
        n_params = param_count(self)
        if n_params > MAX_PARAMS:
            raise PlannerError(f"{self} has {n_params} parameters, more than "
                               f"the {MAX_PARAMS} allowed")

    def to_dict(self) -> dict:
        return {"d_model": self.d_model, "n_heads": self.n_heads, "hidden": self.hidden}


#: Scene schema limits that checkpoints record after the model fields; not
#: options. A checkpoint may omit them; another value means another schema.
_SCHEMA_CONFIG = {"t_f": T_F, "a_max": A_MAX, "m_max": M_MAX, "p_m": POLYLINE_POINTS}


def param_layout(config: PlannerConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Closed parameter set in the fixed initialization order.

    Two-layer tanh MLPs for the agent/map encoders, both positional
    embeddings and the planning head; four square projections per
    attention stage. Biases are the names ending in .b1/.b2.
    """
    d, h = config.d_model, config.hidden
    head_in = 2 * d + EGO_STATE_FEATURES + N_COMMANDS
    layout: list[tuple[str, tuple[int, ...]]] = [("ego_query", (d,))]
    for prefix, n_in in (("agent_enc", AGENT_FEATURES), ("map_enc", MAP_FEATURES),
                         ("pe1", 2), ("pe2", 2)):
        layout += [
            (f"{prefix}.w1", (h, n_in)),
            (f"{prefix}.b1", (h,)),
            (f"{prefix}.w2", (d, h)),
            (f"{prefix}.b2", (d,)),
        ]
    for stage in ("attn1", "attn2"):
        layout += [(f"{stage}.{w}", (d, d)) for w in ("wq", "wk", "wv", "wo")]
    layout += [
        ("plan_head.w1", (h, head_in)),
        ("plan_head.b1", (h,)),
        ("plan_head.w2", (T_F * 2, h)),
        ("plan_head.b2", (T_F * 2,)),
    ]
    return layout


def param_count(config: PlannerConfig) -> int:
    return sum(math.prod(shape) for _, shape in param_layout(config))


def _views(config: PlannerConfig, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Name -> reshaped view into ``flat``, in param_layout() order."""
    views = {}
    offset = 0
    for name, shape in param_layout(config):
        size = math.prod(shape)
        views[name] = flat[offset:offset + size].reshape(shape)
        offset += size
    return views


def _bind(arrays: Mapping[str, np.ndarray]) -> dict:
    """Per-layer tuples of parameter (or gradient) arrays, keeping name
    lookups out of the per-sample step.

    ``arrays`` is in param_layout() order, so grouping the names by their
    layer prefix gives an MLP's (w1, b1, w2, b2) and a stage's (wq, wk,
    wv, wo); ``ego_query`` stays a single array.
    """
    bound = {}
    for name, arr in arrays.items():
        layer, dot, _ = name.partition(".")
        bound[layer] = bound.get(layer, ()) + (arr,) if dot else arr
    return bound


@dataclass(frozen=True, eq=False)
class PlannerModel:
    """A config and its one parameter vector, ``theta``. ``params`` (read-only,
    name -> view) and ``bound`` (their ``_bind``) are views into it."""
    config: PlannerConfig
    theta: np.ndarray = field(repr=False)
    params: Mapping[str, np.ndarray] = field(init=False, repr=False)
    bound: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        theta, n = self.theta, param_count(self.config)
        if not (isinstance(theta, np.ndarray) and theta.dtype == np.float64
                and theta.shape == (n,) and theta.flags.c_contiguous):
            raise PlannerError(f"theta must be a 1-D C-contiguous float64 array of {n} values")
        params = types.MappingProxyType(_views(self.config, theta))
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "bound", _bind(params))

    def validate(self) -> None:
        self.config.validate()
        for name, arr in self.params.items():
            if not np.isfinite(arr).all():
                raise PlannerError(f"{name}: non-finite values")


def init_model(config: PlannerConfig, seed: int) -> PlannerModel:
    """Uniform(+-sqrt(1/fan_in)) weights, zero biases, fixed draw order.

    fan_in is the input width (last axis) of each weight; the ego query
    uses d_model. Values are drawn elementwise in row-major order, one
    parameter after another in param_layout() order, from a single
    splitmix64 stream.
    """
    config.validate()
    rng = SplitMix64(seed)
    model = PlannerModel(config, np.zeros(param_count(config)))
    for name, shape in param_layout(config):
        if name.endswith(".b1") or name.endswith(".b2"):
            continue
        fan_in = shape[-1] if len(shape) > 1 else config.d_model
        bound = math.sqrt(1.0 / fan_in)
        model.params[name][...] = uniform_array(rng, math.prod(shape), -bound, bound).reshape(shape)
    model.validate()
    return model


def uniform_array(stream: SplitMix64, n: int, lo: float, hi: float) -> np.ndarray:
    """The next ``n`` values of ``stream.uniform(lo, hi)`` in one numpy pass.

    Bit-identical to ``n`` calls of ``uniform`` and leaves the stream in
    the same state; uint64 arithmetic wraps mod 2^64 as the scalar path's
    masking does.
    """
    state = stream.skip(n)
    with np.errstate(over="ignore"):
        z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GAMMA) + np.uint64(state)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
    z ^= z >> np.uint64(31)
    floats = (z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
    return lo + (hi - lo) * floats


# --- MLP ------------------------------------------------------------------------

def _mlp_forward(weights, x: np.ndarray):
    """y = w2 @ tanh(w1 @ x + b1) + b2, rows of x independent.

    Zero rows give a (0, out) output and no cache, and no products run.
    """
    w1, b1, w2, b2 = weights
    if not x.shape[0]:
        return np.zeros((0, w2.shape[0])), None
    h = x.dot(w1.T)
    h += b1
    np.tanh(h, out=h)
    y = h.dot(w2.T)
    y += b2
    return y, (x, h)


def _mlp_backward(weights, grads, grad_y: np.ndarray, cache) -> np.ndarray | None:
    """Writes the weight gradients into ``grads``; returns the pre-tanh gradient.

    The input gradient is ``gz @ w1``, left to the one caller that needs it.
    With no cache (zero rows) the weight gradients are +0.0, as the empty
    products would give, and nothing is returned.
    """
    if cache is None:
        for g in grads:
            g.fill(0.0)
        return None
    x, h = cache
    gw1, gb1, gw2, gb2 = grads
    grad_y.T.dot(h, gw2)
    np.add.reduce(grad_y, axis=0, out=gb2)
    gz = grad_y.dot(weights[2])
    gz *= 1.0 - h * h
    gz.T.dot(x, gw1)
    np.add.reduce(gz, axis=0, out=gb1)
    return gz


# --- attention --------------------------------------------------------------------

def _attention_forward(weights, config, q_in, k_src, q_pos, k_pos):
    """Single-query multi-head attention over valid keys only.

    Returns (output vector, cache); with zero keys the output is exactly
    zero and the cache is None (skip-attention convention). The exit also
    saves time: a quarter of MIXED training samples have no agents.
    """
    n = k_src.shape[0]
    d = config.d_model
    if n == 0:
        return np.zeros(d), None
    wq, wk, wv, wo = weights
    n_heads = config.n_heads
    dh = d // n_heads
    q = q_in + q_pos
    keys = k_src + k_pos
    qh = wq.dot(q).reshape(n_heads, dh)
    kh = keys.dot(wk.T).reshape(n, n_heads, dh)
    vh = k_src.dot(wv.T).reshape(n, n_heads, dh)
    # The contracting einsums stay: matmul or mul+sum would add in another order.
    weights = np.einsum("nhd,hd->hn", kh, qh)                     # (n_heads, n)
    weights /= math.sqrt(dh)
    weights -= np.maximum.reduce(weights, axis=1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= np.add.reduce(weights, axis=1, keepdims=True)
    cat = np.einsum("hn,nhd->hd", weights, vh).reshape(d)
    out = wo.dot(cat)
    cache = (q, keys, k_src, qh, kh, vh, weights, cat)
    return out, cache


def _attention_backward(weights, grads, config, grad_out, cache):
    """Writes the stage's weight gradients into ``grads``; returns
    (grad_query, grad_pos, grad_k_src).

    grad_pos is the (n + 1, d_model) gradient of the positional rows, the
    query's first. The query is q_in + q_pos, so grad_query is its row 0.
    With no keys (cache None) the weight gradients are zero-filled,
    grad_pos is one zero row and grad_k_src has zero rows.
    """
    d = config.d_model
    if cache is None:
        for g in grads:
            g.fill(0.0)
        g_pos = np.zeros((1, d))
        return g_pos[0], g_pos, np.zeros((0, d))
    wq, wk, wv, wo = weights
    gwq, gwk, gwv, gwo = grads
    q, keys, k_src, qh, kh, vh, attn, cat = cache
    n = k_src.shape[0]

    np.multiply.outer(grad_out, cat, out=gwo)
    g_heads = wo.T.dot(grad_out).reshape(qh.shape)

    g_weights = np.einsum("hd,nhd->hn", g_heads, vh)
    g_vh = attn.T[:, :, None] * g_heads          # outer product per head, as a broadcast

    # Softmax backward per head.
    dot = np.add.reduce(attn * g_weights, axis=1, keepdims=True)
    g_logits = attn * (g_weights - dot)

    scale = 1.0 / math.sqrt(qh.shape[1])
    g_qh = np.einsum("hn,nhd->hd", g_logits, kh)
    g_qh *= scale
    g_kh = g_logits.T[:, :, None] * qh
    g_kh *= scale

    g_qp = g_qh.reshape(d)
    g_kp = g_kh.reshape(n, d)
    g_vp = g_vh.reshape(n, d)

    g_pos = np.empty((n + 1, d))
    np.multiply.outer(g_qp, q, out=gwq)
    wq.T.dot(g_qp, g_pos[0])
    g_kp.T.dot(keys, gwk)
    g_keys = g_kp.dot(wk, g_pos[1:])
    g_vp.T.dot(k_src, gwv)
    g_k_src = g_vp.dot(wv)
    g_k_src += g_keys
    return g_pos[0], g_pos, g_k_src


# --- forward / backward --------------------------------------------------------------

def _pack(scenario: Scenario, command: MetaAction,
          gt: tuple[Point, ...] | None = None) -> tuple:
    """One sample's model inputs as arrays, built in one pass and reused.

    (agent rows, map rows, pe1 input rows [ego; agents], pe2 input rows
    [ego; map], ego state + one-hot command, gt waypoints or None). An
    agent row is x, y, cos/sin heading, speed, length, width; a map row is
    the polyline's four points flattened; positions, speeds and extents
    are scaled by INPUT_SCALE. The positional rows after the ego's are the
    first two columns of the agent and map rows: each agent's position and
    each polyline's first point.
    """
    ego = scenario.ego
    ego_pos = np.array(ego.position, dtype=float) * INPUT_SCALE
    agents = np.array(
        [(a.position[0], a.position[1], math.cos(a.heading), math.sin(a.heading),
          a.speed, a.extent[0], a.extent[1]) for a in scenario.agents], dtype=float,
    ).reshape(-1, AGENT_FEATURES) * _AGENT_SCALE
    lines = np.array(
        [line.points for line in scenario.map], dtype=float,
    ).reshape(-1, MAP_FEATURES) * INPUT_SCALE
    gt_arr = None
    if gt is not None:
        gt_arr = np.array(gt, dtype=float).reshape(-1, 2)
        if gt_arr.shape[0] != T_F:
            raise ValueError(f"trajectories must have {T_F} waypoints")
    pe1_in = np.empty((agents.shape[0] + 1, 2))
    pe2_in = np.empty((lines.shape[0] + 1, 2))
    pe1_in[0] = pe2_in[0] = ego_pos
    pe1_in[1:] = agents[:, :2]
    pe2_in[1:] = lines[:, :2]
    return (
        agents,
        lines,
        pe1_in,
        pe2_in,
        np.array([ego.speed * INPUT_SCALE, ego.accel * INPUT_SCALE, 1.0, *_ONE_HOT[command]]),
        gt_arr,
    )


def _run_forward(bound: dict, config: PlannerConfig, packed: tuple):
    """Predicted (T_F, 2) waypoints and the per-layer caches for backward."""
    a_feat, m_feat, pe1_in, pe2_in, tail, _ = packed
    d = config.d_model
    q_a, agent_cache = _mlp_forward(bound["agent_enc"], a_feat)
    q_m, map_cache = _mlp_forward(bound["map_enc"], m_feat)
    pe1_out, pe1_cache = _mlp_forward(bound["pe1"], pe1_in)
    pe2_out, pe2_cache = _mlp_forward(bound["pe2"], pe2_in)

    q1, attn1_cache = _attention_forward(
        bound["attn1"], config, bound["ego_query"], q_a, pe1_out[0], pe1_out[1:])
    q2, attn2_cache = _attention_forward(
        bound["attn2"], config, q1, q_m, pe2_out[0], pe2_out[1:])

    head_in = np.empty((1, 2 * d + tail.shape[0]))          # [q1, q2, tail]
    head_in[0, :d] = q1
    head_in[0, d:2 * d] = q2
    head_in[0, 2 * d:] = tail
    head_out, head_cache = _mlp_forward(bound["plan_head"], head_in)
    pred = head_out.reshape(T_F, 2)
    return pred, (agent_cache, map_cache, pe1_cache, pe2_cache,
                  attn1_cache, attn2_cache, head_cache)


def _step(bound: dict, grads: dict, config: PlannerConfig, packed: tuple) -> float:
    """Loss of one packed sample; its gradients are written into ``grads``.

    ``grads`` is a ``_bind`` of gradient arrays. Every array is written
    once, whatever it held before, so callers need not zero it.
    """
    d = config.d_model
    pred, caches = _run_forward(bound, config, packed)
    agent_cache, map_cache, pe1_cache, pe2_cache, attn1_cache, attn2_cache, head_cache = caches
    gt = packed[5]

    diff = pred - gt
    total = 0.0
    for dx, dy in diff.tolist():      # as tests/helpers_grad.imitation_loss sums
        total += dx * dx + dy * dy
    loss = total / T_F

    g_out = (2.0 / T_F) * diff.reshape(1, T_F * 2)
    gz = _mlp_backward(bound["plan_head"], grads["plan_head"], g_out, head_cache)
    g_head_in = gz.dot(bound["plan_head"][0])[0]

    g_q1 = g_head_in[:d]
    g_q2 = g_head_in[d:2 * d]

    g_q1_from_attn2, g_pos2, g_qm = _attention_backward(
        bound["attn2"], grads["attn2"], config, g_q2, attn2_cache)
    g_q1 += g_q1_from_attn2

    g_ego_query, g_pos1, g_qa = _attention_backward(
        bound["attn1"], grads["attn1"], config, g_q1, attn1_cache)
    grads["ego_query"][...] = g_ego_query

    _mlp_backward(bound["agent_enc"], grads["agent_enc"], g_qa, agent_cache)
    _mlp_backward(bound["pe1"], grads["pe1"], g_pos1, pe1_cache)
    _mlp_backward(bound["map_enc"], grads["map_enc"], g_qm, map_cache)
    _mlp_backward(bound["pe2"], grads["pe2"], g_pos2, pe2_cache)
    return loss


def forward(model: PlannerModel, scenario: Scenario,
            command: MetaAction) -> tuple[Point, ...]:
    """Predict the T_F ego waypoints for a scenario and command.

    numpy's overflow and invalid warnings are off, as in ``train``: a
    non-finite prediction is the caller's to report.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        pred, _ = _run_forward(model.bound, model.config, _pack(scenario, command))
    return tuple(map(tuple, pred.tolist()))


def backward(model: PlannerModel, scenario: Scenario, command: MetaAction,
             gt: tuple[Point, ...]) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and exact reverse-mode gradients for every model parameter.

    The gradients are views into one new flat vector per call.
    """
    config = model.config
    grads = _views(config, np.zeros(param_count(config)))
    loss = _step(model.bound, _bind(grads), config, _pack(scenario, command, gt))
    return loss, grads


# --- training --------------------------------------------------------------------

def train(model: PlannerModel, scenarios: list[Scenario], commands: Iterable[MetaAction],
          epochs: int, lr: float, seed: int) -> tuple[PlannerModel, list[float]]:
    """Plain per-sample SGD with a seeded shuffle per epoch.

    ``commands`` holds one command per scenario, in order. It is read only
    after the other checks, and a count other than the scenario count is
    refused before the first step. Returns the trained copy and the
    per-epoch mean loss curve. Each epoch logs one INFO line to the
    ``vecdrive`` logger: its mean loss, as ``loss_curve.csv`` writes it,
    and its samples per second.

    A non-finite loss, or non-finite weights at the end of an epoch (the
    last update can overflow after a finite loss), raise
    ``TrainingDiverged``. The epochs run with numpy's floating-point
    warnings off, since those two checks report the divergence.
    """
    if not scenarios:
        raise PlannerError("cannot train on an empty scenario list")
    if epochs < 1:
        raise PlannerError(f"epochs must be at least 1, got {epochs}")
    if not (math.isfinite(lr) and lr >= 0.0):
        raise PlannerError(f"learning rate must be finite and non-negative, got {lr}")
    model.validate()
    commands = list(commands)
    if len(commands) != len(scenarios):
        raise PlannerError(f"{len(commands)} commands for {len(scenarios)} scenarios")
    config = model.config
    trained = PlannerModel(config, model.theta.copy())
    theta, bound = trained.theta, trained.bound
    grad = np.zeros_like(theta)
    bound_grads = _bind(_views(config, grad))
    packed = [_pack(s, command, s.gt_future) for s, command in zip(scenarios, commands)]
    rng = SplitMix64(seed)
    curve: list[float] = []
    order = list(range(len(scenarios)))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(epochs):
            rng.shuffle(order)
            total = 0.0
            start = time.perf_counter()
            for i in order:
                loss = _step(bound, bound_grads, config, packed[i])
                if not math.isfinite(loss):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, scenario {scenarios[i].id!r}; "
                        f"the learning rate {lr} is likely too high"
                    )
                grad *= lr
                theta -= grad
                total += loss
            if not np.isfinite(theta).all():
                raise TrainingDiverged(f"non-finite weights after epoch {epoch}; "
                                       f"the learning rate {lr} is likely too high")
            curve.append(total / len(scenarios))
            log.info("epoch %d: mean loss %.17g, %.0f samples/s", epoch, curve[-1],
                     len(order) / (time.perf_counter() - start))
    return trained, curve


# --- checkpoints -------------------------------------------------------------------

def save_checkpoint(model: PlannerModel, path: str | os.PathLike) -> None:
    """Single JSON object, sorted parameter names, canonical floats.

    The file is replaced atomically (``jsonio.write_atomic``), so a
    failure leaves any previous checkpoint intact.
    """
    model.validate()
    obj = {
        "version": 1,
        "config": {**model.config.to_dict(), **_SCHEMA_CONFIG},
        "params": {
            name: {
                "shape": list(model.params[name].shape),
                "data": model.params[name].ravel().tolist(),
            }
            for name in sorted(model.params)
        },
    }
    jsonio.write_atomic(path, jsonio.dumps(obj) + "\n")


def _number_vector(value) -> np.ndarray | None:
    """``value`` as a float64 vector if it is a flat list of numbers, else None.

    The set of element types refuses a JSON boolean, a string, a null or a
    nested list, and numpy's inferred dtype refuses integers past int64,
    both without a Python loop over the values.
    """
    if not isinstance(value, list) or not set(map(type, value)) <= {float, int}:
        return None
    arr = np.array(value)
    if arr.dtype.kind not in "fi":
        return None
    return arr.astype(float, copy=False)


def load_checkpoint(path: str | os.PathLike) -> PlannerModel:
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        try:
            obj = jsonio.loads(fh.read())
        except ValueError as e:
            raise CheckpointError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(obj, dict) or type(obj.get("version")) is not int or obj["version"] != 1:
        raise CheckpointError(f"{path}: unsupported checkpoint version")
    fields = obj.get("config")
    if not isinstance(fields, dict):
        raise CheckpointError(f"{path}: bad config: not an object")
    for name, expected in _SCHEMA_CONFIG.items():
        value = fields.get(name, expected)
        if type(value) is not int or value != expected:
            raise CheckpointError(f"{path}: bad config: {name} must be {expected}, got {value!r}")
    try:
        config = PlannerConfig(**{k: v for k, v in fields.items() if k not in _SCHEMA_CONFIG})
        config.validate()
    except (TypeError, PlannerError) as e:
        raise CheckpointError(f"{path}: bad config: {e}") from None
    expected = dict(param_layout(config))
    raw = obj.get("params")
    if not isinstance(raw, dict):
        raise CheckpointError(f"{path}: missing params object")
    if set(raw) != set(expected):
        missing = sorted(set(expected) - set(raw))
        extra = sorted(set(raw) - set(expected))
        raise CheckpointError(f"{path}: parameter names mismatch: "
                              f"missing={missing} extra={extra}")
    chunks = []
    for name, shape in expected.items():
        entry = raw[name]
        if not isinstance(entry, dict):
            raise CheckpointError(f"{path}: {name}: entry is not an object")
        shape_val = entry.get("shape")
        if (not isinstance(shape_val, list) or tuple(shape_val) != shape
                or not all(type(dim) is int for dim in shape_val)):
            raise CheckpointError(f"{path}: {name}: shape {shape_val!r} != {list(shape)}")
        data = _number_vector(entry.get("data"))
        if data is None:
            raise CheckpointError(f"{path}: {name}: data is not a list of numbers")
        if data.size != math.prod(shape):
            raise CheckpointError(f"{path}: {name}: data length {data.size}")
        chunks.append(data)
    model = PlannerModel(config, np.concatenate(chunks))
    try:
        model.validate()
    except PlannerError as e:
        raise CheckpointError(f"{path}: {e}") from None
    return model
