"""Dense-net numerics: forward, exact gradients, per-sample dots, optimizers,
accuracy evaluation, the flat parameter vector and the binary checkpoint
format."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from ltlab.data import Dataset, FormatError
from ltlab.nnet import (
    SIG_CLAMP,
    Classifier,
    Layer,
    MLP,
    clamp_sigmoid,
    classifier_logits,
    forward_tape,
    init_mlp,
    OptSpec,
    load_checkpoint,
    optimizer_step,
    per_class_accuracy,
    save_checkpoint,
    sigmoid,
    softmax,
)
from ltlab.rng import consumer_rng

from conftest import fd_param_grads, max_rel_err
from oracles import backward, weighted_ce_loss


def small_net(sizes, out_act="identity", seed=0):
    return init_mlp(sizes, out_act, consumer_rng(seed, "test", "net"))


def ce_logit_cotangent(logits, labels, weights):
    """Oracle for Tape.cotangent, from its own softmax:
    d/dlogits of (1/b) * sum_i w_i * CE_i = (softmax - onehot) * w_i / b."""
    n = logits.shape[0]
    g = softmax(logits)
    g[np.arange(n), labels] -= 1.0
    g *= (np.asarray(weights, dtype=np.float64) / n)[:, None]
    return g


# -------------------------------------------------------------------- forward

def test_forward_zero_net_zero_logits():
    net = MLP([Layer(np.zeros((3, 2)), np.zeros(3), "identity")])
    out = classifier_logits(net, np.array([[1.0, -2.0], [0.5, 0.5]]))
    assert np.array_equal(out, np.zeros((2, 3)))


def test_forward_single_linear_layer_is_affine():
    w = np.array([[1.0, 2.0], [-1.0, 0.5]])
    b = np.array([0.25, -0.75])
    net = MLP([Layer(w, b, "identity")])
    x = np.array([[3.0, -1.0]])
    assert np.allclose(classifier_logits(net, x), x @ w.T + b)


def test_forward_sigmoid_codomain_strict():
    net = small_net([4, 8, 8, 3], out_act="sigmoid")
    out = classifier_logits(net, np.linspace(-50, 50, 24).reshape(6, 4))
    assert (out > 0).all() and (out < 1).all()


def masked_sigmoid(z):
    """The two-branch sigmoid written with boolean-mask scatters."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bit_identical_to_the_masked_form():
    edges = [0.0, 5e-324, 1.0, 36.7, 709.0, 746.0, np.inf, np.nan]
    z = np.array(edges + [-v for v in edges])
    rng = np.random.default_rng(17)
    for x in (z, z.reshape(2, 8), rng.normal(0.0, 20.0, (5, 33))):
        got = sigmoid(x)
        assert got.shape == x.shape and got.dtype == np.float64
        assert got.tobytes() == masked_sigmoid(x).tobytes()


def test_forward_rejects_wrong_width():
    net = small_net([4, 3])
    with pytest.raises(ValueError):
        classifier_logits(net, np.zeros((2, 5)))


def test_init_mlp_bounds_and_biases():
    net = small_net([9, 16, 4])
    for layer in net.layers:
        bound = 1.0 / np.sqrt(layer.w.shape[1])
        assert np.abs(layer.w).max() <= bound
        assert np.array_equal(layer.b, np.zeros_like(layer.b))
    assert net.layers[0].act == "relu"
    assert net.layers[-1].act == "identity"


# ---------------------------------------------------------------- weighted CE

def test_weighted_ce_frozen_value():
    # two equal logits, label 0, weight 2: CE = ln 2, weighted 2 ln 2
    mean, per = weighted_ce_loss(np.array([[0.0, 0.0]]), np.array([0]), np.array([2.0]))
    assert np.isclose(per[0], 2.0 * np.log(2.0), rtol=0, atol=1e-15)
    assert np.isclose(mean, 2.0 * np.log(2.0), rtol=0, atol=1e-15)


def test_weighted_ce_unit_weights_is_mean_ce():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((6, 4))
    labels = rng.integers(0, 4, 6)
    mean, per = weighted_ce_loss(logits, labels, np.ones(6))
    # manual stable CE
    z = logits - logits.max(axis=1, keepdims=True)
    ce = -(z[np.arange(6), labels] - np.log(np.exp(z).sum(axis=1)))
    assert np.allclose(per, ce, rtol=1e-14)
    assert np.isclose(mean, ce.mean(), rtol=1e-14)


def test_weighted_ce_zero_weights():
    mean, per = weighted_ce_loss(np.array([[1.0, 2.0]]), np.array([1]), np.array([0.0]))
    assert mean == 0.0 and per[0] == 0.0


def test_weighted_ce_extreme_logits_finite():
    mean, _ = weighted_ce_loss(np.array([[1e4, -1e4]]), np.array([1]), np.array([1.0]))
    assert np.isfinite(mean) and mean > 1e3


def test_weighted_ce_shape_errors():
    with pytest.raises(ValueError):
        weighted_ce_loss(np.zeros((2, 3)), np.array([0]), np.ones(2))
    with pytest.raises(ValueError):
        weighted_ce_loss(np.zeros((2, 3)), np.array([0, 3]), np.ones(2))


# ------------------------------------------------------------------- backward

def loss_fn(model, x, y, w):
    return lambda: weighted_ce_loss(classifier_logits(model, x), y, w)[0]


def test_backward_matches_fd_two_layer():
    rng = np.random.default_rng(1)
    net = small_net([3, 5, 3], seed=1)
    model = Classifier(net, "linear")
    x = rng.standard_normal((4, 3))
    y = np.array([0, 2, 1, 2])
    w = rng.random(4) + 0.5
    grads = backward(model, x, y, w)
    fd = fd_param_grads(loss_fn(model, x, y, w), net)
    assert max_rel_err(grads, fd) < 1e-5


def test_backward_matches_fd_random_nets():
    # a handful of shapes, both heads, nets under 500 parameters
    rng = np.random.default_rng(2)
    for trial, head in [(0, "linear"), (1, "linear"), (2, "cosine"), (3, "cosine")]:
        sizes = [int(rng.integers(2, 7)) for _ in range(3)] + [int(rng.integers(2, 5))]
        net = small_net(sizes, seed=10 + trial)
        model = Classifier(net, head, scale=5.0)
        b = int(rng.integers(2, 7))
        x = rng.standard_normal((b, sizes[0]))
        y = rng.integers(0, sizes[-1], b)
        w = rng.random(b) + 0.1
        grads = backward(model, x, y, w)
        fd = fd_param_grads(loss_fn(model, x, y, w), net)
        assert max_rel_err(grads, fd) < 1e-5, (sizes, head)


def test_backward_zero_weights_zero_gradient():
    net = small_net([3, 4, 2], seed=3)
    model = Classifier(net, "linear")
    grads = backward(model, np.ones((2, 3)), np.array([0, 1]), np.zeros(2))
    for gw, gb in net.split(grads):
        assert np.array_equal(gw, np.zeros_like(gw))
        assert np.array_equal(gb, np.zeros_like(gb))


def test_backward_duplicated_batch_mean_invariance():
    rng = np.random.default_rng(4)
    net = small_net([3, 4, 3], seed=4)
    model = Classifier(net, "linear")
    x = rng.standard_normal((3, 3))
    y = np.array([0, 1, 2])
    w = rng.random(3)
    g1 = backward(model, x, y, w)
    g2 = backward(model, np.vstack([x, x]), np.tile(y, 2), np.tile(w, 2))
    for (a, ab), (b, bb) in zip(net.split(g1), net.split(g2)):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-15)
        assert np.allclose(ab, bb, rtol=1e-12, atol=1e-15)


def test_one_row_grads_equal_the_matmul_walk():
    # A one-row batch, the difficulty nets' case, takes the walk's outer
    # product branch. Written out with matmul over the same forward pass, the
    # grads agree to the bit up to the sign of zero.
    rng = np.random.default_rng(12)
    net = small_net([4, 6, 3], seed=12)
    (w1, b1), (w2, _) = ((l.w, l.b) for l in net.layers)
    x = rng.standard_normal((1, 4))
    x[0, 1] = 0.0
    cot = rng.standard_normal((1, 3))
    z1 = x @ w1.T + b1
    h1 = np.maximum(z1, 0.0)
    dz1 = (cot @ w2) * (z1 > 0.0)
    want = np.concatenate([np.matmul(dz1.T, x).ravel(), dz1.sum(axis=0),
                           np.matmul(cot.T, h1).ravel(), cot.sum(axis=0)])
    assert np.array_equal(forward_tape(net, x).grads(cot), want)


def test_cosine_bias_grad_is_zero_in_a_reused_buffer():
    net = small_net([3, 4, 2], seed=13)
    model = Classifier(net, "cosine", scale=2.0)
    for _ in range(3):  # freed NaN blocks of the same size are what empty_like may get
        junk = np.full(net.params.size, np.nan)
        del junk
        grads = forward_tape(model, np.ones((2, 3))).grads(np.ones((2, 2)))
        assert np.isfinite(grads).all()
        assert np.array_equal(net.split(grads)[-1][1], np.zeros(2))


@pytest.mark.parametrize("head", ["linear", "cosine"])
def test_grads_into_a_kept_net_match_a_fresh_buffer(head):
    rng = np.random.default_rng(15)
    net = small_net([4, 6, 3], seed=15)
    model = Classifier(net, head, scale=3.0)
    out = net.over(np.full(net.params.size, np.nan))  # every view must be written
    for _ in range(2):  # the second call overwrites the first one's values
        tape = forward_tape(model, rng.standard_normal((5, 4)))
        cot = rng.standard_normal((5, 3))
        got = tape.grads(cot, out)
        assert got is out.params
        assert got.tobytes() == tape.grads(cot).tobytes()
    with pytest.raises(ValueError):
        tape.grads(cot, small_net([4, 5, 3]))
    with pytest.raises(ValueError):
        tape.with_labels(rng.integers(0, 3, 5)).dots(small_net([4, 5, 3]))


def test_tape_grads_validate_cotangent_shape():
    net = small_net([2, 3], seed=5)
    model = Classifier(net, "linear")
    with pytest.raises(ValueError):
        forward_tape(model, np.zeros((2, 2))).grads(np.zeros((2, 4)))


# ----------------------------------------------------------- per-sample dots

def materialized_dot(model, x, y, direction):
    g_i = backward(model, x.reshape(1, -1), np.array([y]), np.array([1.0]))
    return float(np.vdot(g_i, direction))


def test_per_sample_dots_match_materialized():
    rng = np.random.default_rng(6)
    for head in ("linear", "cosine"):
        net = small_net([4, 6, 3], seed=6)
        model = Classifier(net, head, scale=3.0)
        x = rng.standard_normal((5, 4))
        y = rng.integers(0, 3, 5)
        direction = np.concatenate([np.concatenate([rng.standard_normal(l.w.shape).ravel(),
                                                    rng.standard_normal(l.b.shape)])
                                    for l in net.layers])
        dots = forward_tape(model, x).with_labels(y).dots(net.over(direction))
        for i in range(5):
            want = materialized_dot(model, x[i], y[i], direction)
            assert np.isclose(dots[i], want, rtol=1e-10, atol=1e-12), (head, i)


def reference_dots(model, x, y, direction):
    """Per-sample dots of a [in, hidden, C] relu net, written out as the walk
    over the net computes them, with the CE residual from its own softmax."""
    (w1, b1), (w2, _) = ((l.w, l.b) for l in model.net.layers)
    (vw1, vb1), (vw2, vb2) = model.net.split(direction)
    z1 = x @ w1.T + b1
    h1 = np.maximum(z1, 0.0)
    g = softmax(classifier_logits(model, x))
    g[np.arange(y.size), y] -= 1.0
    dots = np.zeros(y.size)
    if model.head == "cosine":
        r_f = np.maximum(np.linalg.norm(h1, axis=1, keepdims=True), 1e-12)
        f_hat = h1 / r_f
        r_w = np.maximum(np.linalg.norm(w2, axis=1, keepdims=True), 1e-12)
        w_hat = w2 / r_w
        gs = model.scale * g
        u = (w_hat * vw2).sum(axis=1)
        dots += (gs * (f_hat @ vw2.T - (f_hat @ w_hat.T) * u[None, :]) / r_w.T).sum(axis=1)
        d_hat = gs @ w_hat
        d_post = (d_hat - (d_hat * f_hat).sum(axis=1, keepdims=True) * f_hat) / r_f
    else:
        dots += ((h1 @ vw2.T) * g).sum(axis=1) + g @ vb2
        d_post = g @ w2
    dz = d_post * (z1 > 0.0).astype(np.float64)
    return dots + (((x @ vw1.T) * dz).sum(axis=1) + dz @ vb1)


@pytest.mark.parametrize("head", ["linear", "cosine"])
def test_tape_keeps_the_ce_residual_bit_for_bit(head):
    rng = np.random.default_rng(9)
    net = small_net([4, 6, 3], seed=9)
    model = Classifier(net, head, scale=3.0)
    x = rng.standard_normal((7, 4))
    y = rng.integers(0, 3, 7)
    w = rng.random(7)
    tape = forward_tape(model, x).with_labels(y)
    assert tape.cotangent(w).tobytes() == ce_logit_cotangent(tape.logits, y, w).tobytes()
    assert tape.ce.tobytes() == weighted_ce_loss(tape.logits, y, np.ones(7))[1].tobytes()
    assert tape.p.tobytes() == softmax(tape.logits)[np.arange(7), y].tobytes()
    direction = rng.standard_normal(net.params.size)
    assert tape.dots(net.over(direction)).tobytes() == reference_dots(model, x, y, direction).tobytes()


def test_softmax_of_a_stack_is_each_slices_softmax():
    # a stack of logits (S, n, C) normalizes over its classes, the last axis
    logits = np.random.default_rng(3).standard_normal((3, 5, 4)) * 10.0
    stacked = softmax(logits)
    for s in range(3):
        assert stacked[s].tobytes() == softmax(logits[s]).tobytes()


def with_labels_reference(logits, labels):
    """Tape.with_labels' (resid, ce, p), each label's logit found through a
    tuple of arange arrays, one per leading axis."""
    *seeds, n = labels.shape
    at = (*(np.arange(k)[:, None] for k in seeds), np.arange(n), labels)
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=-1, keepdims=True)
    ce = -(z[at] - np.log(total)[..., 0])
    e /= total
    p = e[at]
    e[at] -= 1.0
    return e, ce, p


@pytest.mark.parametrize("lead", [(), (3,)], ids=["lone", "stack"])
def test_with_labels_flat_index_matches_the_tuple_index(lead):
    rng = np.random.default_rng(14)
    net = small_net([4, 6, 5], seed=14)
    if lead:  # three nets, one batch each
        net = net.over(np.stack([net.params * (1.0 + 0.5 * k) for k in range(3)]))
    x = 3.0 * rng.standard_normal(lead + (7, 4))
    y = rng.integers(0, 5, lead + (7,))
    tape = forward_tape(net, x).with_labels(y)
    for got, want in zip((tape.resid, tape.ce, tape.p), with_labels_reference(tape.logits, y)):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_sigmoid_clamp_matches_clip_bit_for_bit():
    lo, hi = SIG_CLAMP, 1.0 - SIG_CLAMP
    s = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, lo, hi,
                  np.nextafter(lo, 0.0), np.nextafter(lo, 1.0), np.nextafter(hi, 0.0),
                  np.nextafter(hi, 2.0), 5e-324, 0.5, 1.0, -1.0, 2.0])
    assert clamp_sigmoid(s).tobytes() == np.clip(s, lo, hi).tobytes()


def test_per_sample_dot_zero_direction():
    net = small_net([3, 4, 2], seed=7)
    model = Classifier(net, "linear")
    dots = forward_tape(model, np.ones((1, 3))).with_labels(np.array([1])).dots(
        net.over(np.zeros_like(net.params)))
    assert dots[0] == 0.0


def test_per_sample_dot_own_gradient_non_negative():
    net = small_net([3, 4, 2], seed=8)
    model = Classifier(net, "linear")
    x = np.array([0.3, -1.2, 0.7])
    own = backward(model, x.reshape(1, -1), np.array([0]), np.array([1.0]))
    val = forward_tape(model, x.reshape(1, -1)).with_labels(np.array([0])).dots(net.over(own))[0]
    assert val >= 0.0
    assert np.isclose(val, float(np.vdot(own, own)), rtol=1e-12)


# ----------------------------------------------------------------- optimizers

def one_layer_net(p):
    return MLP([Layer(np.array([[float(p)]]), np.zeros(1), "identity")])


def grads_of(value):
    return np.array([float(value), 0.0])


def test_sgd_step_frozen():
    state = OptSpec("sgd", 0.1).build()
    net, _ = optimizer_step(state, one_layer_net(1.0), grads_of(2.0))
    assert np.isclose(net.layers[0].w[0, 0], 0.8, rtol=0, atol=1e-15)


def test_zero_gradient_no_decay_is_identity():
    state = OptSpec("momentum", 0.1, momentum=0.9, weight_decay=0.0).build()
    net = one_layer_net(0.7)
    out, _ = optimizer_step(state, net, grads_of(0.0))
    assert out.layers[0].w[0, 0] == 0.7


def test_momentum_two_steps_recurrence():
    lr, mu, g = 0.1, 0.9, 2.0
    state = OptSpec("momentum", lr, momentum=mu).build()
    net = one_layer_net(1.0)
    net, state = optimizer_step(state, net, grads_of(g))
    # m1 = g, p1 = 1 - lr*g
    assert np.isclose(net.layers[0].w[0, 0], 1.0 - lr * g, atol=1e-15)
    net, state = optimizer_step(state, net, grads_of(g))
    # m2 = mu*g + g, p2 = p1 - lr*m2
    want = (1.0 - lr * g) - lr * (mu * g + g)
    assert np.isclose(net.layers[0].w[0, 0], want, atol=1e-15)


def test_adam_first_step_is_signed_lr():
    lr = 0.001
    state = OptSpec("adam", lr).build()
    net, _ = optimizer_step(state, one_layer_net(0.5), grads_of(3.0))
    # bias-corrected first step: lr * g / (|g| + eps) ~ lr * sign(g)
    assert abs(net.layers[0].w[0, 0] - (0.5 - lr)) < 1e-8

    state = OptSpec("adam", lr).build()
    net, _ = optimizer_step(state, one_layer_net(0.5), grads_of(-3.0))
    assert abs(net.layers[0].w[0, 0] - (0.5 + lr)) < 1e-8


def test_weight_decay_additive_in_gradient():
    # decay folds into the gradient: same as stepping on g + wd*p
    p, g, lr, wd = 2.0, 0.5, 0.1, 0.01
    with_wd = OptSpec("sgd", lr, weight_decay=wd).build()
    net, _ = optimizer_step(with_wd, one_layer_net(p), grads_of(g))
    plain = OptSpec("sgd", lr).build()
    want, _ = optimizer_step(plain, one_layer_net(p), grads_of(g + wd * p))
    assert np.isclose(net.layers[0].w[0, 0], want.layers[0].w[0, 0], atol=1e-15)


def test_optimizer_deterministic():
    a = OptSpec("adam", 0.01, weight_decay=1e-4).build()
    b = OptSpec("adam", 0.01, weight_decay=1e-4).build()
    net_a, net_b = one_layer_net(1.0), one_layer_net(1.0)
    for _ in range(5):
        net_a, a = optimizer_step(a, net_a, grads_of(0.3))
        net_b, b = optimizer_step(b, net_b, grads_of(0.3))
    assert net_a.layers[0].w[0, 0] == net_b.layers[0].w[0, 0]


def per_layer_steps(kind, net, grad_seq, lr, wd):
    """Reference: the update rules applied one W or b array at a time, with
    per-array moments, as a list of arrays per layer would be updated."""
    params = [a.copy() for l in net.layers for a in (l.w, l.b)]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grad_seq, start=1):
        for i, (p, g) in enumerate(zip(params, grads)):
            g = g + wd * p
            if kind == "sgd":
                step = g
            elif kind == "momentum":
                m[i] = 0.9 * m[i] + g
                step = m[i]
            else:
                m[i] = 0.9 * m[i] + (1 - 0.9) * g
                v[i] = 0.999 * v[i] + (1 - 0.999) * g**2
                step = (m[i] / (1 - 0.9**t)) / (np.sqrt(v[i] / (1 - 0.999**t)) + 1e-8)
            params[i] = p + -lr * step
    return np.concatenate([p.ravel() for p in params])


@pytest.mark.parametrize("kind", ["sgd", "momentum", "adam"])
def test_optimizer_step_bit_identical_to_per_layer_rules(kind):
    net = small_net([3, 5, 2], seed=21)
    rng = np.random.default_rng(21)
    flat_seq = [rng.standard_normal(net.params.size) for _ in range(4)]
    want = per_layer_steps(kind, net, [[a for pair in net.split(g) for a in pair]
                                       for g in flat_seq], 0.05, 1e-2)
    state = OptSpec(kind, 0.05, weight_decay=1e-2).build()
    for g in flat_seq:
        net, state = optimizer_step(state, net, g)
    assert net.params.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["sgd", "momentum", "adam"])
def test_optimizer_step_allocates_no_vector_after_the_first(kind):
    net = small_net([32, 64, 10], seed=23)
    g = np.random.default_rng(23).standard_normal(net.params.size)
    state = OptSpec(kind, 0.05, weight_decay=1e-2).build()
    params = net.params
    assert optimizer_step(state, net, g) == (net, state)  # the objects given, updated
    tracemalloc.start()
    try:
        for _ in range(5):
            optimizer_step(state, net, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.params is params
    assert peak < params.nbytes


def test_unknown_optimizer_kind_rejected():
    with pytest.raises(ValueError):
        OptSpec("rmsprop", 0.1).build()


# ------------------------------------------------------------------- accuracy

def two_class_set():
    x = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0], [0.1, 0.9]])
    return Dataset(x, np.array([0, 0, 1, 1]), 2)


def test_accuracy_perfect_classifier():
    net = MLP([Layer(np.eye(2), np.zeros(2), "identity")])
    acc = per_class_accuracy(Classifier(net, "linear"), two_class_set())
    assert acc.tolist() == [1.0, 1.0]
    assert acc.mean() == 1.0


def test_accuracy_constant_class_zero():
    # zero logits everywhere: the argmax tie resolves to class 0
    net = MLP([Layer(np.zeros((2, 2)), np.zeros(2), "identity")])
    acc = per_class_accuracy(Classifier(net, "linear"), two_class_set())
    assert acc.tolist() == [1.0, 0.0]


def test_accuracy_tie_breaks_to_lowest_index():
    # crafted exact tie between classes 1 and 2; prediction must be 1
    w = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    net = MLP([Layer(w, np.zeros(3), "identity")])
    x = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    ds = Dataset(x, np.array([0, 1, 2]), 3)
    acc = per_class_accuracy(Classifier(net, "linear"), ds)
    assert acc.tolist() == [0.0, 1.0, 0.0]


def test_accuracy_missing_class_rejected():
    ds = Dataset(np.zeros((2, 2)), np.array([0, 0]), 2)
    net = MLP([Layer(np.zeros((2, 2)), np.zeros(2), "identity")])
    with pytest.raises(ValueError, match="missing"):
        per_class_accuracy(Classifier(net, "linear"), ds)


def test_accuracy_mean_is_balanced_accuracy():
    rng = np.random.default_rng(9)
    net = small_net([2, 4, 3], seed=9)
    x = rng.standard_normal((30, 2))
    y = np.repeat([0, 1, 2], 10)
    ds = Dataset(x, y, 3)
    model = Classifier(net, "linear")
    acc = per_class_accuracy(model, ds)
    balanced = np.mean(loop_accuracy(classifier_logits(model, x), ds))
    assert np.isclose(acc.mean(), balanced, rtol=1e-15)
    assert ((acc >= 0) & (acc <= 1)).all()


def loop_accuracy(logits, ds):
    """Per-class argmax accuracy of (n, C) logits, one class at a time."""
    pred = np.argmax(logits, axis=1)
    return np.array([(pred[ds.labels == c] == c).mean() for c in range(ds.class_count)])


@pytest.mark.parametrize("c, per_class, head", [(3, 66, "linear"), (3, 66, "cosine"),
                                                 (100, 5, "linear")])
def test_stacked_accuracy_rows_are_the_lone_nets(c, per_class, head):
    # one pass and one bincount for a stack of three nets: row s has the
    # bytes of net s alone, which are those of the per-class loop; a net
    # whose logits are not finite reads NaN and leaves the other rows as
    # they were
    rng = np.random.default_rng(c)
    ds = Dataset(rng.standard_normal((per_class * c, 16)), np.repeat(np.arange(c), per_class), c)
    nets = [small_net([16, 8, c], seed=s) for s in range(3)]
    stack = Classifier(nets[0].over(np.stack([n.params for n in nets])), head, 4.0)
    lone = [Classifier(n, head, 4.0) for n in nets]
    rows = per_class_accuracy(stack, ds)
    assert rows.shape == (3, c)
    for row, model in zip(rows, lone):
        assert row.tobytes() == per_class_accuracy(model, ds).tobytes()
        assert row.tobytes() == loop_accuracy(classifier_logits(model, ds.features), ds).tobytes()
    assert len({row.tobytes() for row in rows}) == 3

    stack.net.params[1, 0] = np.nan
    bad = per_class_accuracy(stack, ds)
    assert np.isnan(bad[1]).all()
    assert bad[[0, 2]].tobytes() == rows[[0, 2]].tobytes()
    assert np.isnan(per_class_accuracy(Classifier(stack.net.over(stack.net.params[1]), head, 4.0),
                                       ds)).all()


# ---------------------------------------------------------------- cosine head

def test_cosine_logits_bounded():
    net = small_net([3, 4, 5], seed=12)
    x = np.random.default_rng(12).standard_normal((7, 3)) * 10
    logits = classifier_logits(Classifier(net, "cosine", 16.0), x)
    assert (np.abs(logits) <= 16.0 + 1e-12).all()


def test_cosine_invariant_to_class_row_scaling():
    net = small_net([3, 4, 4], seed=13)
    x = np.random.default_rng(13).standard_normal((5, 3))
    before = classifier_logits(Classifier(net, "cosine", 8.0), x)
    net.layers[-1].w *= 10.0
    after = classifier_logits(Classifier(net, "cosine", 8.0), x)
    assert np.allclose(before, after, rtol=1e-12)


def test_cosine_self_match_attains_scale():
    # features equal to one class's weight row maximize that class's logit
    w_last = np.array([[3.0, 0.0], [0.0, 2.0]])
    net = MLP([Layer(np.eye(2), np.zeros(2), "identity"),
               Layer(w_last, np.zeros(2), "identity")])
    logits = classifier_logits(Classifier(net, "cosine", 16.0), np.array([[3.0, 0.0]]))
    assert np.isclose(logits[0, 0], 16.0, rtol=1e-12)
    assert logits[0, 1] < 16.0


def test_cosine_rejects_non_positive_scale():
    net = small_net([2, 3], seed=14)
    with pytest.raises(ValueError):
        classifier_logits(Classifier(net, "cosine", 0.0), np.zeros((1, 2)))


def test_classifier_logits_dispatches_heads():
    net = small_net([2, 3, 2], seed=15)
    x = np.random.default_rng(15).standard_normal((4, 2))
    lin = classifier_logits(Classifier(net, "linear"), x)
    cos = classifier_logits(Classifier(net, "cosine", scale=4.0), x)
    assert np.allclose(lin, classifier_logits(net, x))
    assert not np.allclose(lin, cos)


# ------------------------------------------------------- flat parameter vector

def test_layers_are_views_into_the_parameter_vector():
    net = small_net([3, 5, 2], seed=20)
    assert net.params.shape == (3 * 5 + 5 + 5 * 2 + 2,)
    for layer in net.layers:
        assert np.shares_memory(layer.w, net.params)
        assert np.shares_memory(layer.b, net.params)
    # laid out per layer as W row-major, then b
    want = np.concatenate([np.concatenate([l.w.ravel(), l.b]) for l in net.layers])
    assert net.params.tobytes() == want.tobytes()
    net.layers[1].b[0] = 7.0
    assert net.params[3 * 5 + 5 + 5 * 2] == 7.0
    net.params[0] = -3.0
    assert net.layers[0].w[0, 0] == -3.0


def test_mlp_copies_the_layers_it_is_built_from():
    w, b = np.ones((2, 3)), np.zeros(2)
    net = MLP([Layer(w, b, "identity")])
    net.params[:] = 5.0
    assert (w == 1.0).all() and (b == 0.0).all()
    with pytest.raises(ValueError):
        MLP([Layer(w, np.zeros(3), "identity")])
    with pytest.raises(ValueError):
        MLP(net.layers, np.zeros(net.params.size + 1))


# ---------------------------------------------------------------- checkpoints

def test_checkpoint_bytes_unchanged(tmp_path):
    # digest of the same checkpoint written when each layer held its own arrays
    net = small_net([3, 8, 8, 2], out_act="sigmoid", seed=16)
    net.layers[0].b[:] = 0.25
    path = tmp_path / "net.ltnn"
    save_checkpoint(net, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "99f86dfd5df3b11d985b2067e04506babb969ac95ed29a9d06c0cf5b56db406c")
    assert load_checkpoint(path).params.tobytes() == net.params.tobytes()


def test_checkpoint_round_trip_bit_exact(tmp_path):
    net = small_net([3, 8, 8, 2], out_act="sigmoid", seed=16)
    path = tmp_path / "net.ltnn"
    save_checkpoint(net, path)
    back = load_checkpoint(path)
    assert len(back.layers) == len(net.layers)
    for a, b in zip(net.layers, back.layers):
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.b, b.b)
        assert a.act == b.act


def test_checkpoint_magic_bytes(tmp_path):
    net = small_net([2, 2], seed=17)
    path = tmp_path / "net.ltnn"
    save_checkpoint(net, path)
    assert path.read_bytes()[:5] == b"LTNN1"


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ltnn"
    path.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    net = small_net([2, 2], seed=18)
    path = tmp_path / "net.ltnn"
    save_checkpoint(net, path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    net = small_net([4, 4, 3], seed=19)
    path = tmp_path / "net.ltnn"
    save_checkpoint(net, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 7])
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_cut_at_any_byte_raises_format_error(tmp_path):
    # every prefix of a checkpoint, down to the empty file, is rejected with
    # a FormatError (a ValueError) that names the file
    net = small_net([4, 4, 3], seed=19)
    path = tmp_path / "net.ltnn"
    save_checkpoint(net, path)
    raw = path.read_bytes()
    assert len(raw) == 307
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(FormatError, match="net.ltnn: not a checkpoint file"):
            load_checkpoint(path)
