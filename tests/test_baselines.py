"""Fixed weighting schemes, focal loss, balanced batching, classifier
retraining, and probability ensembling."""

import numpy as np
import pytest

from ltlab.baselines import (
    cdb_weights,
    class_balanced_batches,
    crt_retrain,
    effective_number_weights,
    ensemble_predict,
    focal_logit_cotangent,
    focal_loss,
    inverse_frequency_weights,
)
from ltlab.data import Dataset, exp_profile, synth_gaussian
from ltlab.metatrain import OptSpec
from ltlab.nnet import Classifier, classifier_logits, init_mlp, softmax, weighted_ce_loss
from ltlab.rng import consumer_rng


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

def test_focal_frozen_value():
    loss, per = focal_loss(np.array([[0.0, 0.0]]), np.array([0]), gamma=2.0)
    assert np.isclose(loss, 0.25 * np.log(2.0), atol=1e-15)
    assert per.shape == (1,)


def test_focal_gamma_zero_is_ce():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((6, 4))
    labels = rng.integers(0, 4, 6)
    f, f_per = focal_loss(logits, labels, 0.0)
    ce, ce_per = weighted_ce_loss(logits, labels, np.ones(6))
    assert np.isclose(f, ce, rtol=1e-12)
    assert np.allclose(f_per, ce_per, rtol=1e-12)


def test_focal_rejects_negative_gamma():
    with pytest.raises(ValueError):
        focal_loss(np.zeros((1, 2)), np.array([0]), -0.5)


def test_focal_cotangent_matches_fd():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((5, 3))
    labels = rng.integers(0, 3, 5)
    for gamma in (0.0, 1.0, 2.0):
        got = focal_logit_cotangent(logits.copy(), labels, gamma)
        fd = np.zeros_like(logits)
        h = 1e-6
        work = logits.copy()
        for i in range(5):
            for j in range(3):
                work[i, j] += h
                up, _ = focal_loss(work, labels, gamma)
                work[i, j] -= 2 * h
                dn, _ = focal_loss(work, labels, gamma)
                work[i, j] += h
                fd[i, j] = (up - dn) / (2 * h)
        assert np.allclose(got, fd, atol=1e-7), gamma


def test_focal_cotangent_finite_when_confident():
    # p_y -> 1 sends both cotangent factors to zero, not to nan
    logits = np.array([[60.0, -60.0]])
    g = focal_logit_cotangent(logits, np.array([0]), 2.0)
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


def test_crt_returns_plain_net_for_plain_net():
    pool = balanced_pool()
    net = small_model(c=10).net
    out = crt_retrain(net, pool, 5, 16, OptSpec("sgd", 0.1), seed=0)
    assert not isinstance(out, Classifier)
    assert len(out.layers) == len(net.layers)


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
