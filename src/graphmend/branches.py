"""Surrogate branch classifiers and their weighted training losses.

Each branch is a small linear-ReLU-linear-softmax network; the hidden
affine layer doubles as the feature embedding that the graphs are built
from.  Three losses drive training: confidence-weighted cross entropy on
corrected labels, complementary-weighted cross entropy on the original
noisy labels, and a graph smoothness penalty pulling the RBF kernel of
cross-class softmax outputs toward zero.  The noisy-label loss is the
corrected-label loss under agreement weights, so both full-data
branches step through grad_pseudo.  Training evaluates the smoothness
loss only together with its gradient (pair_prob_grads).  All parameters
of a model live in one flat vector; the layer matrices are reshaped
views into it (layer_views).

A model checkpoint ("MLCK") uses core's binary codec: the magic
"MLCK", then u32 little-endian dim, hidden and n_classes, then the
flat vector theta as float64 little-endian values.
"""

import dataclasses

import numpy as np

from .core import (
    TrainingError,
    ValidationError,
    cast_fields,
    load_binary,
    require_finite,
    save_binary,
)

EPS = 1e-12
MAGIC_MODEL = b"MLCK"


@dataclasses.dataclass
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    lr_decay: float = 0.1
    lr_decay_every: int = 5
    batch_size: int = 64
    l2_weight: float = 5e-3
    hidden_width: int = 64
    alpha_smooth: float = 1.0
    pair_sample_count: int = 256

    def __post_init__(self):
        require_finite(self)
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value <= 0 and field.name != "l2_weight" and field.name != "momentum":
                raise ValidationError("%s must be positive" % field.name)
        if self.momentum < 0 or self.l2_weight < 0:
            raise ValidationError("momentum and l2_weight must be nonnegative")
        cast_fields(self)


def param_count(dim, hidden, n_classes):
    """Length of the flat parameter vector of a model."""
    return dim * hidden + hidden + hidden * n_classes + n_classes


def layer_views(theta, dim, hidden, n_classes):
    """(w_embed, b_embed, w_head, b_head) as views into a flat vector."""
    a = dim * hidden
    b = a + hidden
    c = b + hidden * n_classes
    return (theta[:a].reshape(dim, hidden), theta[a:b],
            theta[b:c].reshape(hidden, n_classes), theta[c:])


class BranchModel:
    """Flat parameter vector with named views for each layer."""

    def __init__(self, dim, hidden, n_classes, theta=None):
        self.dim = int(dim)
        self.hidden = int(hidden)
        self.n_classes = int(n_classes)
        size = param_count(self.dim, self.hidden, self.n_classes)
        if theta is None:
            try:
                theta = np.zeros(size)
            except (MemoryError, ValueError):
                # ValueError: more entries than numpy's maximum dimension
                raise ValidationError(
                    "model has %d parameters, too many to allocate" % size
                ) from None
        else:
            theta = np.ascontiguousarray(theta, dtype=np.float64)
            if theta.shape != (size,):
                raise ValidationError(
                    "parameter vector has %d entries, model needs %d"
                    % (theta.size, size)
                )
        self.theta = theta
        self.w_embed, self.b_embed, self.w_head, self.b_head = layer_views(
            theta, self.dim, self.hidden, self.n_classes
        )
        self.velocity = np.zeros(size)

    def clone(self):
        return BranchModel(self.dim, self.hidden, self.n_classes, self.theta.copy())


class ModelSet:
    """The M ensemble branches plus the noisy and corrected branches."""

    def __init__(self, ensemble, noisy, corrected):
        self.ensemble = list(ensemble)
        self.noisy = noisy
        self.corrected = corrected


def init_model(dim, hidden, n_classes, rng):
    """He-style initialization; biases start at zero."""
    model = BranchModel(dim, hidden, n_classes)
    model.w_embed[:] = rng.normal(0.0, np.sqrt(2.0 / dim), (dim, hidden))
    model.w_head[:] = rng.normal(0.0, np.sqrt(2.0 / hidden), (hidden, n_classes))
    return model


def forward(model, X):
    """Return (hidden, probs): the embedding rows and softmax outputs."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.dim:
        raise ValidationError("input rows must have dimension %d" % model.dim)
    hidden = X @ model.w_embed + model.b_embed
    logits = np.maximum(hidden, 0.0) @ model.w_head + model.b_head
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    probs = e / e.sum(axis=1, keepdims=True)
    return hidden, probs


def loss_pseudo(probs, corrected, omega_bar):
    """Confidence-weighted cross entropy against corrected labels."""
    p = np.maximum(probs[np.arange(len(corrected)), corrected], EPS)
    return float(-(np.asarray(omega_bar) * np.log(p)).sum())


def _agreement_weights(noisy, corrected, omega_bar):
    """Per-sample weights of the noisy-label loss.

    Samples whose label survived correction weigh omega_bar; corrected
    samples weigh the complement.
    """
    omega_bar = np.asarray(omega_bar, dtype=np.float64)
    return np.where(np.asarray(noisy) == np.asarray(corrected), omega_bar, 1.0 - omega_bar)


def _softmax_backward(probs, dprobs):
    inner = (dprobs * probs).sum(axis=1, keepdims=True)
    return probs * (dprobs - inner)


def _backprop(model, X, hidden, dlogits):
    act = np.maximum(hidden, 0.0)
    grad = np.empty_like(model.theta)
    w_embed, b_embed, w_head, b_head = layer_views(
        grad, model.dim, model.hidden, model.n_classes
    )
    w_head[:] = act.T @ dlogits
    b_head[:] = dlogits.sum(axis=0)
    dact = dlogits @ model.w_head.T
    dhid = dact * (hidden > 0)
    w_embed[:] = X.T @ dhid
    b_embed[:] = dhid.sum(axis=0)
    return grad


def grad_pseudo(model, X, corrected, omega_bar):
    """Loss and flat analytic gradient of loss_pseudo."""
    X = np.asarray(X, dtype=np.float64)
    return _grad_pseudo_at(model, X, *forward(model, X), corrected, omega_bar)


def _grad_pseudo_at(model, X, hidden, probs, corrected, omega_bar):
    """grad_pseudo from the forward pass (hidden, probs) of X."""
    loss = loss_pseudo(probs, corrected, omega_bar)
    hot = np.zeros_like(probs)
    hot[np.arange(len(corrected)), corrected] = 1.0
    dlogits = np.asarray(omega_bar)[:, None] * (probs - hot)
    return loss, _backprop(model, X, hidden, dlogits)


def pair_prob_grads(probs, s_pos, t_pos, ws, wt, alpha):
    """Smoothness loss over index pairs plus its gradient in prob space."""
    diff = probs[s_pos] - probs[t_pos]
    dist = np.linalg.norm(diff, axis=1)
    coef = np.sqrt(ws * wt) * np.exp(-alpha * dist)
    # the norm is not differentiable at 0; identical outputs contribute
    # a flat maximum there, so the gradient is defined as 0
    live = dist > 1e-12
    scale = np.where(live, -alpha * coef / np.where(live, dist, 1.0), 0.0)
    g = scale[:, None] * diff
    dprobs = np.zeros_like(probs)
    np.add.at(dprobs, s_pos, g)
    np.add.at(dprobs, t_pos, -g)
    return float(coef.sum()), dprobs


def sgd_step(model, grad, lr, momentum, l2_weight):
    """One momentum SGD update with L2 regularization."""
    if not np.isfinite(grad).all():
        raise TrainingError("non-finite gradient")
    g = grad + l2_weight * model.theta
    model.velocity *= momentum
    model.velocity += g
    model.theta -= lr * model.velocity


def _check_loss(value, role, step):
    if not np.isfinite(value):
        raise TrainingError("non-finite %s loss at step %d" % (role, step))


def train_epoch(models, assignment, features, state, cfg, rng, epoch=1):
    """One pass of minibatch SGD over every branch role.

    The corrected branch trains on the full data with the pseudo-label
    loss, the noisy branch on the full data with the noisy-label loss.
    Ensemble branches walk their own subsets in lockstep; at each step
    the smoothness loss is evaluated on cross-class pairs sampled from
    the union of the live minibatches (only samples whose label survived
    correction), and during epoch 1 each ensemble branch additionally
    takes a plain cross-entropy term on its subset, from the same
    forward pass, to bootstrap its embedding.
    """
    X = features.data.astype(np.float64)
    n = state.n_samples
    M = len(models.ensemble)
    bs = cfg.batch_size
    lr = cfg.learning_rate * cfg.lr_decay ** ((epoch - 1) // cfg.lr_decay_every)
    eligible = state.noisy == state.corrected

    # (role, model, labels, weights, order) of the two full-data branches;
    # the noisy branch weighs the original labels by agreement
    noisy_weights = _agreement_weights(state.noisy, state.corrected, state.confidence)
    full_data = [
        ("corrected-branch", models.corrected, state.corrected, state.confidence,
         rng.permutation(n)),
        ("noisy-branch", models.noisy, state.noisy, noisy_weights, rng.permutation(n)),
    ]
    subset_orders = []
    for m in range(M):
        members = assignment.members_of(m)
        subset_orders.append(members[rng.permutation(members.shape[0])])

    steps = (n + bs - 1) // bs
    for step in range(steps):
        lo, hi = step * bs, (step + 1) * bs
        for role, model, labels, weights, order in full_data:
            batch = order[lo:hi]
            loss, grad = grad_pseudo(model, X[batch], labels[batch], weights[batch])
            _check_loss(loss, role, step)
            sgd_step(model, grad / batch.shape[0], lr, cfg.momentum, cfg.l2_weight)

        live = [(m, subset_orders[m][lo:hi]) for m in range(M)]
        live = [(models.ensemble[m], X[b], b) for m, b in live if b.shape[0] > 0]
        if not live:
            continue
        outputs = [forward(model, Xb) for model, Xb, _ in live]
        union = np.concatenate([b for _, _, b in live])
        probs_union = np.vstack([probs for _, probs in outputs])
        dprobs_union, pair_loss = _sample_pair_grads(
            union, probs_union, state, eligible, cfg, rng
        )
        _check_loss(pair_loss, "smoothness", step)
        ends = np.cumsum([b.shape[0] for _, _, b in live])[:-1]
        for (model, Xb, b), (hidden, probs), dprobs in zip(
            live, outputs, np.split(dprobs_union, ends)
        ):
            grad = _backprop(model, Xb, hidden, _softmax_backward(probs, dprobs))
            if epoch == 1:
                warm_loss, warm = _grad_pseudo_at(
                    model, Xb, hidden, probs, state.corrected[b], np.ones(b.shape[0])
                )
                _check_loss(warm_loss, "warm-up", step)
                grad = grad + warm / b.shape[0]
            sgd_step(model, grad, lr, cfg.momentum, cfg.l2_weight)
    for model in (models.corrected, models.noisy, *models.ensemble):
        if not np.isfinite(model.theta).all():
            raise TrainingError("non-finite parameters after training")
    return models


def _sample_pair_grads(union, probs_union, state, eligible, cfg, rng):
    """Sample cross-class pairs inside the live minibatch union."""
    ok = np.flatnonzero(eligible[union])
    dprobs = np.zeros_like(probs_union)
    if ok.shape[0] < 2:
        return dprobs, 0.0
    classes = state.corrected[union[ok]]
    if (classes == classes[0]).all():
        return dprobs, 0.0
    count = cfg.pair_sample_count
    try:
        s = ok[rng.integers(ok.shape[0], size=count)]
        t = ok[rng.integers(ok.shape[0], size=count)]
    except (MemoryError, ValueError):
        # ValueError: more entries than numpy's maximum array size
        raise ValidationError(
            "pair_sample_count %d: too many pairs to allocate" % count
        ) from None
    cross = state.corrected[union[s]] != state.corrected[union[t]]
    s, t = s[cross], t[cross]
    if s.shape[0] == 0:
        return dprobs, 0.0
    w = state.confidence[union]
    loss, dprobs = pair_prob_grads(
        probs_union, s, t, w[s], w[t], cfg.alpha_smooth
    )
    k = s.shape[0]
    return dprobs / k, loss / k


def save_model(path, model):
    """Write a model checkpoint (MLCK)."""
    save_binary(path, MAGIC_MODEL, (model.dim, model.hidden, model.n_classes), "<f8",
                model.theta)


def load_model(path):
    """Read a model checkpoint; a malformed file raises FormatError."""
    (dim, hidden, n_classes), theta = load_binary(
        path, MAGIC_MODEL, "<f8", lambda fields: param_count(*fields)
    )
    return BranchModel(dim, hidden, n_classes, theta.copy())
