"""Branch models: forward pass, losses, analytic gradients, training."""

import numpy as np
import pytest

from graphmend.branches import (
    BranchModel,
    ModelSet,
    TrainConfig,
    _agreement_weights,
    _backprop,
    _check_loss,
    _sample_pair_grads,
    _softmax_backward,
    forward,
    grad_pseudo,
    init_model,
    load_model,
    loss_pseudo,
    pair_prob_grads,
    save_model,
    sgd_step,
    train_epoch,
)
from graphmend.core import FeatureMatrix, LabelState, TrainingError, ValidationError
from graphmend.splitter import SplitAssignment, SplitConfig, mix_parameters, split_dataset


# Loss-only references for the analytic gradients; training never
# evaluates these losses on their own.


def loss_noisy(probs, noisy, corrected, omega_bar):
    """Cross entropy on original labels, weighted by agreement."""
    return loss_pseudo(probs, noisy, _agreement_weights(noisy, corrected, omega_bar))


def grad_noisy(model, X, noisy, corrected, omega_bar):
    """Loss and flat analytic gradient of the cross entropy on original
    labels, weighted by agreement."""
    return grad_pseudo(model, X, noisy, _agreement_weights(noisy, corrected, omega_bar))


def loss_graph_smooth(prob_pairs, alpha_smooth):
    """RBF smoothness penalty over cross-class sample pairs.

    prob_pairs is an iterable of (p_s, p_t, omega_s, omega_t) tuples with
    p_* softmax rows from the branch owning each sample.
    """
    total = 0.0
    for ps, pt, ws, wt in prob_pairs:
        diff = np.asarray(ps, dtype=np.float64) - np.asarray(pt, dtype=np.float64)
        total += np.sqrt(ws * wt) * np.exp(-alpha_smooth * np.linalg.norm(diff))
    return float(total)


def grad_graph_smooth(model, X, s_idx, t_idx, ws, wt, alpha):
    """Loss and flat gradient of the smoothness penalty on one model."""
    X = np.asarray(X, dtype=np.float64)
    hidden, probs = forward(model, X)
    loss, dprobs = pair_prob_grads(probs, s_idx, t_idx, ws, wt, alpha)
    dlogits = _softmax_backward(probs, dprobs)
    return loss, _backprop(model, X, hidden, dlogits)


def identity_model():
    m = BranchModel(2, 2, 2)
    m.w_embed[:] = np.eye(2)
    m.w_head[:] = np.eye(2)
    return m


def test_parameter_views_share_storage():
    m = BranchModel(3, 4, 2)
    assert m.theta.shape == (3 * 4 + 4 + 4 * 2 + 2,)
    m.w_embed[0, 0] = 5.0
    assert m.theta[0] == 5.0
    m.b_head[-1] = -2.0
    assert m.theta[-1] == -2.0


def test_parameter_vector_length_checked():
    with pytest.raises(ValidationError):
        BranchModel(3, 4, 2, np.zeros(7))


@pytest.mark.parametrize("hidden", [10**15, 2**60])
def test_model_too_large_to_allocate_rejected(hidden):
    # 10**15 hidden units ask for 80 PB and 2**60 for more entries than
    # numpy's maximum dimension; both fail before any page is touched
    size = 6 * hidden + hidden + hidden * 3 + 3
    with pytest.raises(ValidationError, match="%d parameters" % size):
        BranchModel(6, hidden, 3)


def test_forward_zero_model_is_uniform():
    m = BranchModel(3, 4, 5)
    hidden, probs = forward(m, np.ones((2, 3)))
    assert np.array_equal(hidden, np.zeros((2, 4)))
    assert np.allclose(probs, 0.2)


def test_forward_identity_example():
    m = identity_model()
    hidden, probs = forward(m, np.array([[1.0, -1.0]]))
    # embedding keeps the raw affine values, head sees relu of them
    assert np.array_equal(hidden, [[1.0, -1.0]])
    e = np.exp(1.0)
    assert probs[0, 0] == pytest.approx(e / (e + 1.0), abs=1e-12)
    assert probs[0, 1] == pytest.approx(1.0 / (e + 1.0), abs=1e-12)


def test_forward_rows_sum_to_one():
    rng = np.random.default_rng(0)
    m = init_model(5, 7, 4, rng)
    _, probs = forward(m, rng.standard_normal((9, 5)))
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert (probs > 0).all()


def test_forward_large_logits_stable():
    m = identity_model()
    _, probs = forward(m, np.array([[1e4, 0.0]]))
    assert np.isfinite(probs).all()
    assert probs[0, 0] == pytest.approx(1.0)


def test_forward_dimension_mismatch():
    m = BranchModel(3, 2, 2)
    with pytest.raises(ValidationError):
        forward(m, np.ones((2, 4)))


def test_loss_pseudo_examples():
    probs = np.array([[0.5, 0.5], [0.25, 0.75]])
    # -1.0*ln(0.5) - 0.5*ln(0.75)
    want = -np.log(0.5) - 0.5 * np.log(0.75)
    got = loss_pseudo(probs, np.array([0, 1]), np.array([1.0, 0.5]))
    assert got == pytest.approx(want, abs=1e-12)
    assert loss_pseudo(probs, np.array([0]), np.array([0.5])) == pytest.approx(
        0.34657359, abs=1e-7
    )


def test_loss_pseudo_zero_weight_is_free():
    probs = np.array([[0.01, 0.99]])
    assert loss_pseudo(probs, np.array([0]), np.array([0.0])) == 0.0


def test_loss_noisy_agreement_weighting():
    probs = np.array([[0.7, 0.3]])
    # label kept: weight omega_bar
    kept = loss_noisy(probs, np.array([0]), np.array([0]), np.array([0.6]))
    assert kept == pytest.approx(-0.6 * np.log(0.7), abs=1e-12)
    # label flipped by correction: weight 1 - omega_bar
    flipped = loss_noisy(probs, np.array([1]), np.array([0]), np.array([0.6]))
    assert flipped == pytest.approx(-0.4 * np.log(0.3), abs=1e-12)


def test_loss_graph_smooth_closed_forms():
    ps = np.array([1.0, 0.0])
    pt = np.array([0.0, 1.0])
    got = loss_graph_smooth([(ps, pt, 1.0, 1.0)], 1.0)
    assert got == pytest.approx(np.exp(-np.sqrt(2.0)), abs=1e-12)
    # identical outputs: distance 0, full weight
    got = loss_graph_smooth([(ps, ps, 0.25, 1.0)], 1.0)
    assert got == pytest.approx(0.5, abs=1e-12)
    # weight product enters under a square root
    a = loss_graph_smooth([(ps, pt, 0.16, 1.0)], 2.0)
    b = loss_graph_smooth([(ps, pt, 0.64, 1.0)], 2.0)
    assert b == pytest.approx(2.0 * a, abs=1e-12)


def test_loss_graph_smooth_matches_indexed_path():
    rng = np.random.default_rng(1)
    probs = rng.dirichlet(np.ones(3), size=6)
    w = rng.uniform(0.1, 1.0, 6)
    s = np.array([0, 2, 4])
    t = np.array([1, 3, 5])
    loss_idx, _ = pair_prob_grads(probs, s, t, w[s], w[t], 1.5)
    pairs = [(probs[a], probs[b], w[a], w[b]) for a, b in zip(s, t)]
    assert loss_idx == pytest.approx(loss_graph_smooth(pairs, 1.5), abs=1e-12)


def numeric_grad(f, theta, eps=1e-6):
    g = np.zeros_like(theta)
    for i in range(theta.shape[0]):
        save = theta[i]
        theta[i] = save + eps
        hi = f()
        theta[i] = save - eps
        lo = f()
        theta[i] = save
        g[i] = (hi - lo) / (2.0 * eps)
    return g


def safe_instance(seed, n=6, dim=3, hidden=4, n_classes=3):
    """Model and batch whose hidden units sit clear of the relu kink."""
    for trial in range(seed, seed + 50):
        rng = np.random.default_rng(trial)
        model = init_model(dim, hidden, n_classes, rng)
        X = rng.standard_normal((n, dim))
        h, _ = forward(model, X)
        if np.abs(h).min() > 1e-3:
            return model, X, rng
    raise AssertionError("no kink-free instance found")


def assert_grad_close(analytic, numeric, tol=1e-6):
    err = np.abs(analytic - numeric).max()
    scale = max(1.0, np.abs(numeric).max())
    assert err / scale < tol


def test_grad_pseudo_matches_finite_differences():
    model, X, rng = safe_instance(10)
    corrected = rng.integers(3, size=6)
    omega = rng.uniform(0.1, 1.0, 6)
    _, analytic = grad_pseudo(model, X, corrected, omega)
    numeric = numeric_grad(
        lambda: loss_pseudo(forward(model, X)[1], corrected, omega), model.theta
    )
    assert_grad_close(analytic, numeric)


def test_grad_noisy_matches_finite_differences():
    model, X, rng = safe_instance(20)
    noisy = rng.integers(3, size=6)
    corrected = rng.integers(3, size=6)
    omega = rng.uniform(0.1, 0.9, 6)
    _, analytic = grad_noisy(model, X, noisy, corrected, omega)
    numeric = numeric_grad(
        lambda: loss_noisy(forward(model, X)[1], noisy, corrected, omega), model.theta
    )
    assert_grad_close(analytic, numeric)


def test_grad_graph_smooth_matches_finite_differences():
    model, X, rng = safe_instance(30)
    s = np.array([0, 1, 2])
    t = np.array([3, 4, 5])
    ws = rng.uniform(0.2, 1.0, 3)
    wt = rng.uniform(0.2, 1.0, 3)
    _, analytic = grad_graph_smooth(model, X, s, t, ws, wt, 1.0)

    def value():
        probs = forward(model, X)[1]
        return loss_graph_smooth(
            [(probs[a], probs[b], ws[i], wt[i]) for i, (a, b) in enumerate(zip(s, t))],
            1.0,
        )

    numeric = numeric_grad(value, model.theta)
    assert_grad_close(analytic, numeric)


def test_grad_losses_reported_consistently():
    model, X, rng = safe_instance(40)
    corrected = rng.integers(3, size=6)
    omega = rng.uniform(0.1, 1.0, 6)
    loss, _ = grad_pseudo(model, X, corrected, omega)
    assert loss == pytest.approx(
        loss_pseudo(forward(model, X)[1], corrected, omega), abs=1e-12
    )


def test_sgd_step_plain():
    m = BranchModel(1, 1, 2)
    m.theta[:] = 1.0
    g = np.full(m.theta.shape, 2.0)
    sgd_step(m, g, lr=0.1, momentum=0.0, l2_weight=0.0)
    assert np.allclose(m.theta, 0.8)


def test_sgd_step_l2_pulls_to_zero():
    m = BranchModel(1, 1, 2)
    m.theta[:] = 1.0
    sgd_step(m, np.zeros_like(m.theta), lr=0.1, momentum=0.0, l2_weight=0.5)
    assert np.allclose(m.theta, 0.95)


def test_sgd_step_momentum_accumulates():
    m = BranchModel(1, 1, 2)
    g = np.ones_like(m.theta)
    sgd_step(m, g, lr=1.0, momentum=0.5, l2_weight=0.0)
    assert np.allclose(m.theta, -1.0)
    sgd_step(m, g, lr=1.0, momentum=0.5, l2_weight=0.0)
    # velocity 1 -> 1.5, total displacement 2.5
    assert np.allclose(m.theta, -2.5)


def test_sgd_step_zero_lr_keeps_theta():
    m = init_model(2, 3, 2, np.random.default_rng(0))
    before = m.theta.copy()
    sgd_step(m, np.ones_like(m.theta), lr=0.0, momentum=0.9, l2_weight=1e-2)
    assert np.array_equal(m.theta, before)


def test_sgd_step_rejects_nonfinite():
    m = BranchModel(1, 1, 2)
    bad = np.full(m.theta.shape, np.nan)
    with pytest.raises(TrainingError):
        sgd_step(m, bad, lr=0.1, momentum=0.0, l2_weight=0.0)


def test_mix_endpoints_reproduce_parents():
    rng = np.random.default_rng(2)
    a = init_model(3, 4, 2, rng)
    b = init_model(3, 4, 2, rng)
    X = rng.standard_normal((5, 3))
    mixed = BranchModel(3, 4, 2, mix_parameters(a.theta, b.theta, 0.0))
    assert np.array_equal(forward(mixed, X)[1], forward(a, X)[1])
    mixed = BranchModel(3, 4, 2, mix_parameters(a.theta, b.theta, 1.0))
    assert np.array_equal(forward(mixed, X)[1], forward(b, X)[1])


def blob_training_setup(seed, n_per=60, C=3, dim=6):
    rng = np.random.default_rng(seed)
    centroids = np.eye(C, dim) * 6.0
    labels = np.repeat(np.arange(C), n_per)
    X = (centroids[labels] + rng.standard_normal((C * n_per, dim))).astype(np.float32)
    feats = FeatureMatrix(X)
    state = LabelState(labels, labels, np.ones(labels.shape[0]), C)
    assignment = split_dataset(feats, labels, SplitConfig(2, 2, seed))
    cfg = TrainConfig(hidden_width=16, batch_size=32, pair_sample_count=64)
    base = init_model(dim, cfg.hidden_width, C, np.random.default_rng(seed + 1))
    models = ModelSet(
        [base.clone() for _ in range(2)], base.clone(), base.clone()
    )
    return feats, labels, state, assignment, cfg, models


def test_train_epoch_learns_separable_blobs():
    feats, labels, state, assignment, cfg, models = blob_training_setup(7)
    rng = np.random.default_rng(99)
    for epoch in range(1, 6):
        train_epoch(models, assignment, feats, state, cfg, rng, epoch=epoch)
    for model in [models.corrected, models.noisy] + models.ensemble:
        _, probs = forward(model, feats.data.astype(np.float64))
        acc = (probs.argmax(axis=1) == labels).mean()
        assert acc >= 0.95


def test_train_epoch_moves_every_role():
    feats, labels, state, assignment, cfg, models = blob_training_setup(8)
    before = [m.theta.copy() for m in [models.corrected, models.noisy] + models.ensemble]
    train_epoch(models, assignment, feats, state, cfg, np.random.default_rng(0), epoch=1)
    after = [m.theta for m in [models.corrected, models.noisy] + models.ensemble]
    for b, a in zip(before, after):
        assert not np.array_equal(b, a)


def test_train_epoch_bitwise_deterministic():
    out = []
    for rep in range(2):
        feats, labels, state, assignment, cfg, models = blob_training_setup(9)
        rng = np.random.default_rng(123)
        train_epoch(models, assignment, feats, state, cfg, rng, epoch=1)
        train_epoch(models, assignment, feats, state, cfg, rng, epoch=2)
        out.append(np.concatenate([m.theta for m in [models.corrected, models.noisy] + models.ensemble]))
    assert np.array_equal(out[0], out[1])


# train_epoch before the two full-data roles shared one loop and the
# epoch-1 warm-up reused the ensemble forward pass, kept as the bit-exact
# reference for the current one.


def train_epoch_reference(models, assignment, features, state, cfg, rng, epoch=1):
    """One pass of minibatch SGD over every branch role.

    The corrected branch trains on the full data with the pseudo-label
    loss, the noisy branch on the full data with the noisy-label loss.
    Ensemble branches walk their own subsets in lockstep; at each step
    the smoothness loss is evaluated on cross-class pairs sampled from
    the union of the live minibatches (only samples whose label survived
    correction), and during epoch 1 each ensemble branch additionally
    takes a plain cross-entropy term on its subset to bootstrap its
    embedding.
    """
    X = features.data.astype(np.float64)
    n = state.n_samples
    M = len(models.ensemble)
    bs = cfg.batch_size
    lr = cfg.learning_rate * cfg.lr_decay ** ((epoch - 1) // cfg.lr_decay_every)
    eligible = state.noisy == state.corrected

    order_corrected = rng.permutation(n)
    order_noisy = rng.permutation(n)
    subset_orders = []
    for m in range(M):
        members = assignment.members_of(m)
        subset_orders.append(members[rng.permutation(members.shape[0])])

    steps = (n + bs - 1) // bs
    for step in range(steps):
        lo, hi = step * bs, (step + 1) * bs

        batch = order_corrected[lo:hi]
        loss, grad = grad_pseudo(
            models.corrected, X[batch], state.corrected[batch], state.confidence[batch]
        )
        _check_loss(loss, "corrected-branch", step)
        sgd_step(models.corrected, grad / batch.shape[0], lr, cfg.momentum, cfg.l2_weight)

        batch = order_noisy[lo:hi]
        loss, grad = grad_noisy(
            models.noisy,
            X[batch],
            state.noisy[batch],
            state.corrected[batch],
            state.confidence[batch],
        )
        _check_loss(loss, "noisy-branch", step)
        sgd_step(models.noisy, grad / batch.shape[0], lr, cfg.momentum, cfg.l2_weight)

        live = [(m, subset_orders[m][lo:hi]) for m in range(M)]
        live = [(m, b) for m, b in live if b.shape[0] > 0]
        if not live:
            continue
        outputs = []
        for m, b in live:
            hidden, probs = forward(models.ensemble[m], X[b])
            outputs.append((m, b, hidden, probs))
        union = np.concatenate([b for _, b in live])
        probs_union = np.vstack([probs for _, _, _, probs in outputs])
        dprobs_union, pair_loss = _sample_pair_grads(
            union, probs_union, state, eligible, cfg, rng
        )
        _check_loss(pair_loss, "smoothness", step)
        offset = 0
        for m, b, hidden, probs in outputs:
            dprobs = dprobs_union[offset:offset + b.shape[0]]
            offset += b.shape[0]
            dlogits = _softmax_backward(probs, dprobs)
            grad = _backprop(models.ensemble[m], X[b], hidden, dlogits)
            if epoch == 1:
                warm_loss, warm = grad_pseudo(
                    models.ensemble[m],
                    X[b],
                    state.corrected[b],
                    np.ones(b.shape[0]),
                )
                _check_loss(warm_loss, "warm-up", step)
                grad = grad + warm / b.shape[0]
            sgd_step(models.ensemble[m], grad, lr, cfg.momentum, cfg.l2_weight)
    for model in (models.corrected, models.noisy, *models.ensemble):
        if not np.isfinite(model.theta).all():
            raise TrainingError("non-finite parameters after training")
    return models


def uneven_training_setup(seed):
    """Three branches of 120, 40 and 20 samples on 180 with batch 32: the
    small branches run out after 2 and 1 steps, the last two steps have no
    live ensemble batch.  About 30% of the labels are corrected and the
    confidences vary, so both agreement weights occur."""
    feats, labels, _, _, cfg, _ = blob_training_setup(seed)
    rng = np.random.default_rng(seed + 2)
    corrected = labels.copy()
    moved = rng.random(labels.shape[0]) < 0.3
    corrected[moved] = (labels[moved] + 1) % 3
    state = LabelState(labels, corrected, rng.uniform(0.05, 1.0, labels.shape[0]), 3)
    branch_of = np.repeat([0, 1, 2], [120, 40, 20])[rng.permutation(180)]
    assignment = SplitAssignment(branch_of, np.zeros(180, dtype=np.int64), [], 3)
    return feats, state, assignment, cfg, 3


def all_corrected_setup(seed):
    """Every label was corrected, so no pair qualifies for smoothness."""
    feats, labels, _, assignment, cfg, _ = blob_training_setup(seed)
    state = LabelState(labels, (labels + 1) % 3, np.full(labels.shape[0], 0.7), 3)
    return feats, state, assignment, cfg, 2


def single_branch_setup(seed):
    feats, labels, state, _, cfg, _ = blob_training_setup(seed)
    return feats, state, split_dataset(feats, labels, SplitConfig(1, 2, seed)), cfg, 1


def fresh_models(feats, cfg, M, seed):
    base = init_model(feats.dim, cfg.hidden_width, 3, np.random.default_rng(seed))
    return ModelSet([base.clone() for _ in range(M)], base.clone(), base.clone())


def all_roles(models):
    return [models.corrected, models.noisy] + models.ensemble


@pytest.mark.parametrize(
    "setup", [uneven_training_setup, all_corrected_setup, single_branch_setup],
    ids=["uneven-subsets", "all-corrected", "one-branch"],
)
def test_train_epoch_bitwise_equals_reference(setup):
    feats, state, assignment, cfg, M = setup(31)
    got, want = fresh_models(feats, cfg, M, 5), fresh_models(feats, cfg, M, 5)
    rng_got, rng_want = np.random.default_rng(77), np.random.default_rng(77)
    # epoch 6 is the first past the learning-rate decay (lr_decay_every 5)
    for epoch in range(1, 7):
        train_epoch(got, assignment, feats, state, cfg, rng_got, epoch=epoch)
        train_epoch_reference(want, assignment, feats, state, cfg, rng_want, epoch=epoch)
        if epoch in (1, 2, 6):
            for a, b in zip(all_roles(got), all_roles(want)):
                assert np.array_equal(a.theta.view(np.uint64), b.theta.view(np.uint64))
                assert np.array_equal(
                    a.velocity.view(np.uint64), b.velocity.view(np.uint64)
                )
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


def test_all_corrected_state_has_no_smoothness_gradient():
    feats, state, assignment, cfg, M = all_corrected_setup(31)
    union = np.arange(state.n_samples)
    probs = np.full((state.n_samples, 3), 1.0 / 3)
    eligible = state.noisy == state.corrected
    rng = np.random.default_rng(0)
    dprobs, loss = _sample_pair_grads(union, probs, state, eligible, cfg, rng)
    assert loss == 0.0 and not dprobs.any()


@pytest.mark.parametrize("epoch", [1, 2])
def test_train_epoch_one_forward_per_batch(monkeypatch, epoch):
    import graphmend.branches as branches

    feats, state, assignment, cfg, M = uneven_training_setup(32)
    models = fresh_models(feats, cfg, M, 6)
    calls = {}

    def counting_forward(model, X):
        calls[id(model)] = calls.get(id(model), 0) + 1
        return forward(model, X)

    monkeypatch.setattr(branches, "forward", counting_forward)
    train_epoch(models, assignment, feats, state, cfg, np.random.default_rng(1), epoch=epoch)
    steps = -(-state.n_samples // cfg.batch_size)
    want = [steps, steps] + [
        -(-assignment.members_of(m).shape[0] // cfg.batch_size) for m in range(M)
    ]
    assert want == [6, 6, 4, 2, 1]
    assert [calls.get(id(model), 0) for model in all_roles(models)] == want


def test_model_checkpoint_round_trip(tmp_path):
    m = init_model(4, 5, 3, np.random.default_rng(11))
    path = tmp_path / "model.bin"
    save_model(path, m)
    back = load_model(path)
    assert back.dim == 4 and back.hidden == 5 and back.n_classes == 3
    assert np.array_equal(back.theta, m.theta)


def test_train_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValidationError):
        TrainConfig(momentum=-0.1)
    with pytest.raises(ValidationError):
        TrainConfig(batch_size=0)
    cfg = TrainConfig(l2_weight=0.0)
    assert cfg.l2_weight == 0.0
