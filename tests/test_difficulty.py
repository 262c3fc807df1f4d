"""Difficulty networks, the driver loss, and the entropy diagnostic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ltlab.difficulty import (
    difficulty_entropy,
    dnet_forward,
    head_init,
    hidden_width_for,
    normalized_accuracy,
    sample_driver_targets,
    target_fit_cotangent,
)

from conftest import fd_vector_grad
from oracles import driver_loss, target_fit_loss, weights_from_difficulty


# --------------------------------------------------------------- hidden width

def test_hidden_width_published_values():
    assert hidden_width_for(100) == 128
    assert hidden_width_for(1000) == 1024
    assert hidden_width_for(365) == 512


def test_hidden_width_power_of_two_boundary():
    assert hidden_width_for(128) == 256  # exact powers step up
    assert hidden_width_for(127) == 128
    assert hidden_width_for(129) == 256


@given(c=st.integers(2, 1 << 20))
@settings(max_examples=300, deadline=None)
def test_hidden_width_bracketing_rule(c):
    h = hidden_width_for(c)
    assert h & (h - 1) == 0  # a power of two
    assert h // 2 <= c < h


# ----------------------------------------------------------- net construction

def test_dnet_shapes():
    dnet = head_init("class", 10, seed=0)
    sizes = [l.w.shape for l in dnet.net.layers]
    assert sizes == [(16, 10), (16, 16), (10, 16)]
    assert dnet.net.layers[-1].act == "sigmoid"
    assert dnet.width == 10


def test_abs_dnet_shapes():
    adnet = head_init("abs", 10, seed=0)
    sizes = [l.w.shape for l in adnet.net.layers]
    assert sizes == [(16, 1), (16, 16), (1, 16)]


def test_sample_dnet_shapes():
    sdnet = head_init("sample", 64, seed=0)
    sizes = [l.w.shape for l in sdnet.net.layers]
    assert sizes == [(128, 64), (128, 128), (64, 128)]
    assert sdnet.width == 64


def test_initial_difficulties_near_half():
    # zero biases keep the fresh net close to sigmoid(0) = 0.5 everywhere
    dnet = head_init("class", 10, seed=1)
    d = dnet_forward(dnet, np.linspace(0, 1, 10))
    assert (np.abs(d - 0.5) < 0.2).all()


def test_dnet_forward_strictly_inside_unit_interval():
    dnet = head_init("class", 5, seed=2)
    for acc in [np.zeros(5), np.ones(5), np.full(5, 0.5)]:
        d = dnet_forward(dnet, acc)
        assert ((d > 0) & (d < 1)).all()


def test_dnet_forward_rejects_wrong_length():
    dnet = head_init("class", 4, seed=3)
    with pytest.raises(ValueError):
        dnet_forward(dnet, np.zeros(5))


# ------------------------------------------------------- normalized accuracy

def test_normalized_accuracy_sums_to_one():
    a = np.array([0.9, 0.5, 0.1])
    ahat = normalized_accuracy(a)
    assert np.isclose(ahat.sum(), 1.0, rtol=1e-15)
    assert np.allclose(ahat, a / a.sum())


def test_normalized_accuracy_degenerate_zero_sum():
    # untrained model: every accuracy zero falls back to the uniform vector
    ahat = normalized_accuracy(np.zeros(4))
    assert np.array_equal(ahat, np.full(4, 0.25))


# ---------------------------------------------------------------- driver loss

def test_driver_loss_frozen_example():
    value, cot = driver_loss(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
    assert np.isclose(value, 0.25, rtol=0, atol=1e-15)
    assert np.allclose(cot, [0.5, -0.5], rtol=0, atol=1e-15)


def test_driver_loss_zero_at_exact_fit():
    a = np.array([0.9, 0.3])
    target = 1.0 - a / a.sum()
    value, cot = driver_loss(target, a)
    assert value == 0.0
    assert np.array_equal(cot, np.zeros(2))


def test_driver_cotangent_matches_fd():
    rng = np.random.default_rng(4)
    a = rng.random(6)
    d = rng.random(6) * 0.8 + 0.1
    _, cot = driver_loss(d, a)
    fd = fd_vector_grad(lambda dd: driver_loss(dd, a)[0], d)
    assert np.abs(cot - fd).max() < 1e-8


def test_target_fit_loss_matches_driver_on_driver_targets():
    a = np.array([0.7, 0.2, 0.1])
    d = np.array([0.4, 0.6, 0.5])
    target = 1.0 - normalized_accuracy(a)
    v1, c1 = target_fit_loss(d, target)
    v2, c2 = driver_loss(d, a)
    assert np.isclose(v1, v2, rtol=1e-15)
    assert np.allclose(c1, c2, rtol=1e-15)


def test_target_fit_cotangent_matches_finite_differences():
    rng = np.random.default_rng(0)
    d, target = rng.random(7), rng.random(7)
    fd = fd_vector_grad(lambda dd: target_fit_loss(dd, target)[0], d)
    assert np.abs(target_fit_cotangent(d, target) - fd).max() < 1e-8


# ---------------------------------------------------------------------weights

def test_weights_lookup():
    d = np.array([0.2, 0.9])
    w = weights_from_difficulty(d, np.array([1, 0, 1]))
    assert np.array_equal(w, [0.9, 0.2, 0.9])


def test_weights_reject_out_of_range_labels():
    with pytest.raises(ValueError):
        weights_from_difficulty(np.array([0.5, 0.5]), np.array([0, 2]))


# -------------------------------------------------------------------- entropy

def test_entropy_frozen_value():
    # E((0.8, 0.2)) = -1/2 (ln 1.6 + ln 0.4) = -1/2 ln 0.64
    want = -0.5 * np.log(0.64)
    assert np.isclose(difficulty_entropy(np.array([0.8, 0.2])), want, rtol=1e-12)
    assert np.isclose(want, 0.22314355131420976, rtol=1e-15)


def test_entropy_zero_on_uniform():
    for c in (2, 5, 17):
        for level in (0.1, 0.5, 0.97):
            assert abs(difficulty_entropy(np.full(c, level))) <= 1e-12


def test_entropy_scale_invariant():
    d = np.array([0.3, 0.9, 0.55])
    assert np.isclose(difficulty_entropy(d), difficulty_entropy(d * 7.0), rtol=1e-12)


@given(arrays(np.float64, st.integers(2, 12),
              elements=st.floats(1e-6, 1.0, allow_nan=False)))
@settings(max_examples=300, deadline=None)
def test_entropy_non_negative(d):
    assert difficulty_entropy(d) >= 0.0


def test_entropy_rejects_non_positive():
    with pytest.raises(ValueError):
        difficulty_entropy(np.array([0.5, 0.0]))
    with pytest.raises(ValueError):
        difficulty_entropy(np.array([0.5, -0.1]))


# ------------------------------------------------------------ abs variant

def test_abs_forward_scalar_and_vector():
    adnet = head_init("abs", 10, seed=5)
    single = dnet_forward(adnet, [0.3])[0]
    assert np.isscalar(single) and 0 < single < 1
    vec = dnet_forward(adnet, np.array([0.3, 0.7]))
    assert vec.shape == (2,)
    assert np.isclose(vec[0], single, rtol=1e-15)


def test_abs_forward_permutation_equivariant():
    # each class is mapped independently, so permuting inputs permutes outputs
    adnet = head_init("abs", 10, seed=6)
    a = np.array([0.1, 0.5, 0.9, 0.25])
    perm = np.array([2, 0, 3, 1])
    assert np.allclose(dnet_forward(adnet, a)[perm],
                       dnet_forward(adnet, a[perm]), rtol=1e-15)


# --------------------------------------------------------------- sample variant

def test_sample_forward_full_width():
    sdnet = head_init("sample", 8, seed=7)
    losses = np.linspace(0.1, 2.0, 8)
    w = dnet_forward(sdnet, losses)
    assert w.shape == (8,)
    assert ((w > 0) & (w < 1)).all()


def test_sample_forward_short_batch_mean_padded():
    sdnet = head_init("sample", 8, seed=8)
    losses = np.array([0.5, 1.5, 1.0])
    w = dnet_forward(sdnet, losses)
    assert w.shape == (3,)
    padded = sdnet.embed(losses)[0]
    assert padded.shape == (8,)
    assert np.allclose(padded[3:], losses.mean())
    assert np.array_equal(dnet_forward(sdnet, padded)[:3], w)


def padded_reference(x, width, pad=None):
    """The sample kind's embed as it pads every batch: the batch, then its
    mean (or pad) up to width, as one row."""
    n = x.shape[-1]
    out = np.empty(x.shape[:-1] + (width,))
    out[..., n:] = x.mean(axis=-1, keepdims=True) if pad is None else pad
    out[..., :n] = x
    return out[..., None, :]


@pytest.mark.parametrize("n", [8, 5], ids=["full", "short"])
def test_sample_embed_matches_the_padding_reference(n):
    # a full batch is viewed as it is, with no padding mean taken; a short
    # one is padded with its own mean, or with pad for a cotangent
    sdnet = head_init("sample", 8, seed=10)
    rng = np.random.default_rng(10)
    for x in (rng.random(n), rng.random((3, n))):  # a lone batch and a stack of three
        for pad in (None, 0.0):
            got, want = sdnet.embed(x, pad), padded_reference(x, 8, pad)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert np.shares_memory(got, x) == (n == 8)


def test_sample_forward_rejects_oversized_batch():
    sdnet = head_init("sample", 4, seed=9)
    with pytest.raises(ValueError):
        dnet_forward(sdnet, np.zeros(5))


def test_sample_driver_targets_frozen():
    # losses (0, ln 2): exp(-l) = (1, 1/2), normalized (2/3, 1/3)
    t = sample_driver_targets(np.array([0.0, np.log(2.0)]))
    assert np.allclose(t, [1.0 / 3.0, 2.0 / 3.0], rtol=1e-14)


def test_sample_driver_targets_rank_agreement():
    rng = np.random.default_rng(10)
    losses = rng.random(12) * 4
    t = sample_driver_targets(losses)
    assert ((t > 0) & (t < 1)).all()
    # harder samples (larger loss) get larger targets
    assert np.array_equal(np.argsort(t), np.argsort(losses))


def test_reduce_bit_identical_to_add_at():
    # repeated labels and magnitudes 1e-300 to 1e300, summed in sample order
    rng = np.random.default_rng(18)
    labels = rng.integers(0, 5, 200)
    labels[:3] = 0  # a class whose sum depends on its order
    dots = rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200)
    dots[:3] = [1e16, 1.0, -1e16]
    for kind in ("class", "abs"):
        head = head_init(kind, 6, seed=19)  # class 5 never occurs
        want = np.zeros(6)
        np.add.at(want, labels, dots)
        got = head.reduce(dots, labels, 6)
        assert got.tobytes() == want.tobytes()
    per_sample = dots[:8]  # the sample kind weights each sample by its own difficulty
    assert head_init("sample", 8, seed=19).reduce(per_sample, labels[:8], 8) is per_sample


def test_dnet_forward_reads_a_given_tape():
    for kind, width in (("class", 4), ("abs", 4), ("sample", 8)):
        head = head_init(kind, width, seed=20)
        x = np.linspace(0.1, 0.9, width if kind != "sample" else 5)
        tape = head.forward(x)
        assert dnet_forward(head, x, tape).tobytes() == dnet_forward(head, x).tobytes()
        tape.logits = tape.logits * 0.0  # the given tape is read, no pass is run
        assert (dnet_forward(head, x, tape) == 0.0).all()
