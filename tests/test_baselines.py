"""Fixed weighting schemes, the focal objective, balanced batching,
classifier retraining, and probability ensembling."""

import numpy as np
import pytest

from dataclasses import replace

from ltlab.baselines import (
    cdb_weights,
    class_balanced_batches,
    crt_retrain,
    effective_number_weights,
    ensemble_predict,
    inverse_frequency_weights,
)
from ltlab.data import Dataset, exp_profile, synth_gaussian
from ltlab.metatrain import ConfigError, NumericError, OptSpec, classifier_objective
from ltlab.nnet import (
    Classifier,
    Layer,
    MLP,
    backward,
    check_finite,
    classifier_logits,
    forward_tape,
    init_mlp,
    log_softmax,
    optimizer_step,
    softmax,
)
from ltlab.rng import consumer_rng

from conftest import fd_param_grads, max_rel_err


def small_model(dim=4, c=3, seed=0, head="linear"):
    net = init_mlp([dim, 6, c], "identity", consumer_rng(seed, "b", "clf"))
    return Classifier(net, head)


# ------------------------------------------------------------ weight schemes

def test_cdb_frozen_value():
    w = cdb_weights(np.array([0.8, 0.2]), tau=2.0)
    assert np.allclose(w, [0.04, 0.64], atol=1e-15)


def test_cdb_tau_zero_is_uniform():
    assert np.array_equal(cdb_weights(np.array([0.1, 0.5, 0.9]), 0.0), np.ones(3))


def test_cdb_rejects_negative_tau():
    with pytest.raises(ValueError):
        cdb_weights(np.array([0.5]), -1.0)


def test_inverse_frequency_frozen_value():
    w = inverse_frequency_weights(np.array([90, 10]))
    assert np.allclose(w, [0.2, 1.8], atol=1e-15)
    assert np.isclose(w.mean(), 1.0)


def test_inverse_frequency_rejects_empty_class():
    with pytest.raises(ValueError):
        inverse_frequency_weights(np.array([5, 0]))


def test_effective_number_frozen_ratio():
    w = effective_number_weights(np.array([100, 1]), beta=0.99)
    # (1 - 0.99^100) / (1 - 0.99) with 0.99^100 = exp(100 ln 0.99)
    want = (1.0 - np.exp(100 * np.log(0.99))) / 0.01
    assert np.isclose(w[1] / w[0], want, rtol=1e-12)
    assert np.isclose(w[1] / w[0], 63.4, atol=0.1)
    assert np.isclose(w.mean(), 1.0)


def test_effective_number_beta_zero_is_uniform():
    assert np.allclose(effective_number_weights(np.array([500, 3]), 0.0), np.ones(2))


def test_effective_number_rejects_bad_args():
    with pytest.raises(ValueError):
        effective_number_weights(np.array([1, 1]), 1.0)
    with pytest.raises(ValueError):
        effective_number_weights(np.array([0, 1]), 0.9)


# ------------------------------------------------------------------- focal

def logit_tape(logits, labels):
    """A labelled tape whose logits are exactly the given ones: an identity
    layer over them as inputs."""
    c = logits.shape[1]
    clf = Classifier(MLP([Layer(np.eye(c), np.zeros(c), "identity")]))
    return forward_tape(clf, logits).with_labels(labels)


def reference_focal(logits, labels, weights, gamma):
    """The focal loss and its logit cotangent, each from its own softmax:
    the per-sample loss (1 - p)^g * CE with p = exp(-CE), and the CE
    residual scaled by s = (1-p)^g + g*(1-p)^(g-1)*p*CE with p the softmax."""
    n = logits.shape[0]
    ce = -log_softmax(logits)[np.arange(n), labels]
    per_sample = (1.0 - np.exp(-ce)) ** gamma * ce
    probs = softmax(logits)
    p_y = probs[np.arange(n), labels]
    ce_p = -np.log(np.maximum(p_y, 1e-300))
    one_m = 1.0 - p_y
    scale = (one_m**gamma).copy()
    if gamma > 0:
        mask = one_m > 0
        scale[mask] += gamma * one_m[mask] ** (gamma - 1.0) * p_y[mask] * ce_p[mask]
    probs[np.arange(n), labels] -= 1.0
    return float((weights * per_sample).mean()), probs * (scale / n)[:, None] * weights[:, None]


def test_focal_frozen_value():
    loss, cot = classifier_objective(logit_tape(np.array([[0.0, 0.0]]), np.array([0])),
                                     np.ones(1), 2.0)
    assert np.isclose(loss, 0.25 * np.log(2.0), atol=1e-15)
    assert cot.shape == (1, 2)


def test_focal_gamma_zero_is_ce():
    rng = np.random.default_rng(0)
    tape = logit_tape(rng.standard_normal((6, 4)), rng.integers(0, 4, 6))
    w = rng.random(6)
    f, f_cot = classifier_objective(tape, w, 0.0)
    ce, ce_cot = classifier_objective(tape, w, None)
    assert np.isclose(f, ce, rtol=1e-12)
    assert np.allclose(f_cot, ce_cot, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("head", ["linear", "cosine"])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0, 2.0])
def test_focal_objective_bit_identical_to_reference(head, gamma):
    rng = np.random.default_rng(3)
    model = small_model(c=5, seed=3, head=head)
    x = 2.0 * rng.standard_normal((9, 4))
    y = rng.integers(0, 5, 9)
    w = rng.random(9)
    tape = forward_tape(model, x).with_labels(y)
    loss, cot = classifier_objective(tape, w, gamma)
    want_loss, want_cot = reference_focal(tape.logits, y, w, gamma)
    assert loss == want_loss
    assert cot.tobytes() == want_cot.tobytes()
    for i in range(9):  # one row at a time, where the mean cannot hide a last-bit change
        row = forward_tape(model, x[i : i + 1]).with_labels(y[i : i + 1])
        got = classifier_objective(row, w[i : i + 1], gamma)[0]
        assert got == reference_focal(row.logits, y[i : i + 1], w[i : i + 1], gamma)[0], i


def test_focal_cotangent_matches_fd():
    # the parameter gradient through the focal cotangent, for both heads
    rng = np.random.default_rng(1)
    x = rng.standard_normal((5, 4))
    y = rng.integers(0, 3, 5)
    w = rng.random(5) + 0.5
    for head in ("linear", "cosine"):
        model = small_model(seed=1, head=head)
        for gamma in (0.0, 0.5, 2.0):
            _, cot = classifier_objective(forward_tape(model, x).with_labels(y), w, gamma)
            grads = forward_tape(model, x).grads(cot)

            def loss():
                return classifier_objective(forward_tape(model, x).with_labels(y), w, gamma)[0]

            fd = fd_param_grads(loss, model.net, h=1e-6)
            assert max_rel_err(grads, fd) < 1e-6, (head, gamma)


def test_focal_cotangent_finite_when_confident():
    # p_y -> 1 sends both cotangent factors to zero, not to nan
    _, g = classifier_objective(logit_tape(np.array([[60.0, -60.0]]), np.array([0])),
                                np.ones(1), 2.0)
    assert np.all(np.isfinite(g))
    assert np.allclose(g, 0.0, atol=1e-12)


# -------------------------------------------------------- balanced batching

def balanced_pool():
    return synth_gaussian(exp_profile(10, 50, 10.0), 4, 2.0, seed=0)


def test_balanced_batches_uniform_over_classes():
    pool = balanced_pool()
    gen = class_balanced_batches(pool, 64, seed=0)
    labels = np.concatenate([pool.labels[next(gen)] for _ in range(160)])
    freq = np.bincount(labels, minlength=10) / labels.size
    assert np.all(freq > 0.07) and np.all(freq < 0.13)


def test_balanced_batches_indices_valid_and_deterministic():
    pool = balanced_pool()
    a = class_balanced_batches(pool, 16, seed=3)
    b = class_balanced_batches(pool, 16, seed=3)
    for _ in range(5):
        ia, ib = next(a), next(b)
        assert np.array_equal(ia, ib)
        assert ia.shape == (16,)
        assert ia.min() >= 0 and ia.max() < pool.size


def test_balanced_batches_rejects_bad_inputs():
    pool = balanced_pool()
    with pytest.raises(ValueError):
        next(class_balanced_batches(pool, 0, seed=0))
    sparse = Dataset(np.zeros((2, 3)), np.array([0, 1]), 3)  # class 2 empty
    with pytest.raises(ValueError):
        next(class_balanced_batches(sparse, 4, seed=0))


# ----------------------------------------------------------------------- cRT

def test_crt_zero_steps_untouched():
    model = small_model()
    assert crt_retrain(model, balanced_pool(), 0, 8, OptSpec("sgd", 0.1), seed=0) is model


def test_crt_freezes_features_bit_exact_and_replaces_head():
    pool = balanced_pool()
    model = small_model(c=10)
    out = crt_retrain(model, pool, 25, 16, OptSpec("momentum", 0.1), seed=1)
    assert out is not model
    for kept, orig in zip(out.net.layers[:-1], model.net.layers[:-1]):
        assert kept.w.tobytes() == orig.w.tobytes()
        assert kept.b.tobytes() == orig.b.tobytes()
    assert not np.array_equal(out.net.layers[-1].w, model.net.layers[-1].w)


def test_crt_deterministic_and_head_actually_trains():
    pool = balanced_pool()
    model = small_model(c=10)
    spec = OptSpec("momentum", 0.1)
    out1 = crt_retrain(model, pool, 30, 16, spec, seed=2)
    out2 = crt_retrain(model, pool, 30, 16, spec, seed=2)
    assert np.array_equal(out1.net.layers[-1].w, out2.net.layers[-1].w)
    assert np.array_equal(out1.net.layers[-1].b, out2.net.layers[-1].b)
    assert np.any(out1.net.layers[-1].b != 0.0)  # bias moved off its re-init


def test_crt_rejects_negative_steps():
    with pytest.raises(ValueError):
        crt_retrain(small_model(), balanced_pool(), -1, 8, OptSpec("sgd", 0.1), seed=0)


def test_crt_rejects_a_classifier_narrower_than_the_data():
    # checked once up front: the steps label their tapes unchecked
    with pytest.raises(ConfigError, match="logits"):
        crt_retrain(small_model(c=3), balanced_pool(), 5, 8, OptSpec("sgd", 0.1), seed=0)


def crt_reference(model, train_set, steps, batch_size, opt_spec, seed):
    """cRT as it ran before its last-layer tape: every step backpropagates
    through the whole net and keeps the final layer's slice of the gradient."""
    old = model.net.layers[-1]
    rng = consumer_rng(seed, "init", "crt")
    bound = 1.0 / np.sqrt(old.w.shape[1])
    fresh = Layer(rng.uniform(-bound, bound, size=old.w.shape), np.zeros_like(old.b), old.act)
    net = MLP(model.net.layers[:-1] + [fresh])
    start = net.params.size - fresh.w.size - fresh.b.size
    head = MLP([fresh], net.params[start:])
    current = replace(model, net=net)
    opt = opt_spec.build()
    batches = class_balanced_batches(train_set, batch_size, seed)
    for step in range(steps):
        idx = next(batches)
        bx, by = train_set.features[idx], train_set.labels[idx]
        grads = backward(current, bx, by, np.ones(by.size))[start:]
        check_finite(grads, "stage2", step, "classifier gradient")
        optimizer_step(opt, head, grads)
    check_finite(head.params, "stage2", steps - 1, "classifier parameters")
    return current


def deep_model(head):
    """Two frozen hidden layers in front of the retrained one."""
    return Classifier(init_mlp([4, 8, 6, 10], "identity", consumer_rng(5, "b", "clf")), head, 8.0)


@pytest.mark.parametrize("head", ["linear", "cosine"])
@pytest.mark.parametrize("batch_size", [16, 24], ids=["b16", "b24"])  # 1/24 is inexact
def test_crt_equals_the_full_backward_reference(head, batch_size):
    pool, model = balanced_pool(), deep_model(head)
    spec = OptSpec("momentum", 0.1, 0.9, 1e-4)
    got = crt_retrain(model, pool, 40, batch_size, spec, seed=3)
    want = crt_reference(model, pool, 40, batch_size, spec, seed=3)
    assert got.net.params.tobytes() == want.net.params.tobytes()
    assert got.head == want.head and got.scale == want.scale


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("head", ["linear", "cosine"])
def test_crt_divergence_stops_where_the_reference_stops(head):
    pool, model = balanced_pool(), deep_model(head)
    spec = OptSpec("momentum", 1e300, 0.9, 1e-4)  # crt_lr=1e300 under the default decay
    stops = []
    for retrain in (crt_retrain, crt_reference):
        with pytest.raises(NumericError) as info:
            retrain(model, pool, 20, 16, spec, seed=3)
        stops.append((info.value.phase, info.value.step, info.value.quantity))
    assert stops[0] == stops[1]
    assert stops[0][0] == "stage2"


# ------------------------------------------------------------------ ensemble

def test_ensemble_rows_sum_to_one():
    rng = np.random.default_rng(2)
    members = [small_model(seed=s) for s in range(3)]
    x = rng.standard_normal((7, 4))
    p = ensemble_predict(members, x)
    assert p.shape == (7, 3)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p >= 0)


def test_ensemble_of_identical_members_is_one_member():
    rng = np.random.default_rng(3)
    m = small_model(seed=5)
    x = rng.standard_normal((4, 4))
    single = softmax(classifier_logits(m, x))
    assert np.allclose(ensemble_predict([m, m, m], x), single, atol=1e-15)


def test_ensemble_mixes_heads():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 4))
    members = [small_model(seed=6, head="linear"), small_model(seed=7, head="cosine")]
    p = ensemble_predict(members, x)
    assert np.allclose(p.sum(axis=1), 1.0)


def test_ensemble_rejects_mismatched_or_empty():
    with pytest.raises(ValueError):
        ensemble_predict([], np.zeros((1, 4)))
    with pytest.raises(ValueError):
        ensemble_predict([small_model(c=3), small_model(c=4)], np.zeros((1, 4)))
