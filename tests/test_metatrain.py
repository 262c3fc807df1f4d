"""The bilevel loop: virtual step, meta-gradient, the three-step iteration,
split evaluation, and the loop's bookkeeping contracts."""

from dataclasses import replace

import numpy as np
import pytest

from ltlab import difficulty, metatrain, nnet
from ltlab.data import Dataset, exp_profile, split_meta, synth_gaussian
from ltlab.difficulty import (
    dnet_forward,
    head_init,
    sample_driver_targets,
)
from ltlab.metatrain import (
    ConfigError,
    NumericError,
    OptSpec,
    TrainConfig,
    evaluate_splits,
    train_seeds,
)
from ltlab.nnet import (
    MLP,
    Classifier,
    classifier_logits,
    init_mlp,
    optimizer_step,
    per_class_accuracy,
)
from ltlab.rng import consumer_rng

from conftest import fd_param_grads, max_rel_err
from oracles import (
    backward,
    driver_loss,
    meta_gradient,
    target_fit_loss,
    virtual_step,
    weighted_ce_loss,
    weights_from_difficulty,
)


def tiny_data(c=3, n_max=40, imb=4.0, dim=4, m=4, seed=0):
    pool = synth_gaussian(exp_profile(c, n_max, imb), dim, 2.0, seed)
    return split_meta(pool, m, seed)


def tiny_model(dim=4, c=3, seed=0, head="linear"):
    net = init_mlp([dim, 6, c], "identity", consumer_rng(seed, "t", "clf"))
    return Classifier(net, head, scale=4.0)


def cfg_for(train_set, **kw):
    """A TrainConfig for the tiny sets: one epoch of batches of 8, meta
    batches of 6, lam 0.3, momentum SGD(0.1, wd 1e-4) for the classifier,
    Adam(1e-3, wd 1e-4) for the difficulty net, thresholds (100, 20) and
    weighted CE, each unless kw sets it."""
    kw.setdefault("T", train_set.size // kw.get("b", 8))
    kw.setdefault("b", 8)
    kw.setdefault("m", 6)
    kw.setdefault("alpha", 0.1)
    kw.setdefault("lam", 0.3)
    kw.setdefault("classifier_opt", OptSpec("momentum", 0.1, 0.9, 1e-4))
    kw.setdefault("dnet_opt", OptSpec("adam", 1e-3, 0.9, 1e-4))
    kw.setdefault("many_min", 100)
    kw.setdefault("few_max", 20)
    kw.setdefault("focal_gamma", None)
    return TrainConfig(**kw)


def train_one_seed(cfg, train_set, meta_set, classifier, head, seed=0):
    """train_seeds for one seed: (classifier, head, RunMetrics), or the
    seed's NumericError raised."""
    (out,) = train_seeds(cfg, train_set, meta_set, [classifier], [head], (seed,))
    if isinstance(out, NumericError):
        raise out
    return out


# ---------------------------------------------------------------------- OptSpec

def test_optspec_builds_each_kind():
    for kind in ("sgd", "momentum", "adam"):
        OptSpec(kind, 0.1).build()


# ------------------------------------------------------------- evaluate_splits

def test_splits_one_class_each():
    s = evaluate_splits(np.array([0.9, 0.6, 0.3]), np.array([490, 50, 5]), (100, 20))
    assert s.many == 0.9 and s.medium == 0.6 and s.few == 0.3
    assert np.isclose(s.overall, 0.6)


def test_splits_collapse_when_counts_equal():
    s = evaluate_splits(np.array([0.8, 0.4]), np.array([50, 50]), (100, 20))
    assert s.many is None and s.few is None
    assert np.isclose(s.medium, 0.6)


def test_splits_boundaries_inclusive_for_medium():
    # counts exactly at the thresholds belong to the medium split
    s = evaluate_splits(np.array([0.1, 0.2, 0.3, 0.4]),
                        np.array([101, 100, 20, 19]), (100, 20))
    assert s.many == 0.1
    assert np.isclose(s.medium, 0.25)
    assert s.few == 0.4


def test_splits_overall_unweighted():
    acc = np.array([1.0, 0.0, 0.5])
    s = evaluate_splits(acc, np.array([1000, 1000, 1]), (100, 20))
    assert np.isclose(s.overall, 0.5)  # not weighted by counts


def test_splits_reject_bad_thresholds():
    with pytest.raises(ValueError):
        evaluate_splits(np.array([0.5]), np.array([10]), (20, 20))


# -------------------------------------------------------------- virtual step

def test_virtual_step_matches_materialized_per_sample_sum():
    rng = np.random.default_rng(0)
    model = tiny_model(seed=1)
    x = rng.standard_normal((5, 4))
    y = np.array([0, 1, 2, 0, 1])
    w = rng.random(5)
    alpha = 0.3
    looked = virtual_step(model, x, y, w, alpha)
    # phi - (alpha/b) * sum_i w_i * grad CE_i, each gradient materialized alone
    for k, layer in enumerate(model.net.layers):
        acc_w = np.zeros_like(layer.w)
        acc_b = np.zeros_like(layer.b)
        for i in range(5):
            g = model.net.split(backward(model, x[i : i + 1], y[i : i + 1], np.array([1.0])))
            acc_w += w[i] * g[k][0]
            acc_b += w[i] * g[k][1]
        want_w = layer.w - alpha * acc_w / 5
        want_b = layer.b - alpha * acc_b / 5
        got = looked.net.layers[k]
        assert np.allclose(got.w, want_w, rtol=1e-12, atol=1e-12)
        assert np.allclose(got.b, want_b, rtol=1e-12, atol=1e-12)


def test_virtual_step_identity_cases():
    model = tiny_model(seed=2)
    x = np.ones((2, 4))
    y = np.array([0, 1])
    for looked in (
        virtual_step(model, x, y, np.zeros(2), 0.5),
        virtual_step(model, x, y, np.ones(2), 0.0),
    ):
        for a, b in zip(looked.net.layers, model.net.layers):
            assert np.array_equal(a.w, b.w)
            assert np.array_equal(a.b, b.b)


# -------------------------------------------------------------- meta-gradient

def class_objective(dnet, model, a, bx, by, mx, my, alpha, lam):
    d = dnet_forward(dnet, a)
    looked = virtual_step(model, bx, by, weights_from_difficulty(d, by), alpha)
    meta, _ = weighted_ce_loss(classifier_logits(looked, mx), my, np.ones(my.size))
    return lam * driver_loss(d, a)[0] + meta


def test_meta_gradient_matches_fd():
    rng = np.random.default_rng(3)
    for trial, (lam, head) in enumerate([(0.0, "linear"), (0.3, "linear"), (1.0, "cosine")]):
        c, dim, b, m = 4, 3, 6, 5
        model = tiny_model(dim, c, seed=30 + trial, head=head)
        dnet = head_init("class", c, seed=40 + trial)
        a = rng.random(c)
        bx = rng.standard_normal((b, dim))
        by = rng.integers(0, c, b)
        mx = rng.standard_normal((m, dim))
        my = rng.integers(0, c, m)
        g = meta_gradient(dnet, model, a, bx, by, mx, my, 0.1, lam)
        fd = fd_param_grads(
            lambda: class_objective(dnet, model, a, bx, by, mx, my, 0.1, lam), dnet.net
        )
        assert max_rel_err(g, fd) < 1e-4, (lam, head)


def test_meta_gradient_lambda_term_alone():
    # alpha=0 freezes the lookahead, leaving only the driver term
    rng = np.random.default_rng(4)
    c = 3
    model = tiny_model(4, c, seed=5)
    dnet = head_init("class", c, seed=6)
    a = rng.random(c)
    bx = rng.standard_normal((4, 4))
    by = rng.integers(0, c, 4)
    g = meta_gradient(dnet, model, a, bx, by, bx, by, 0.0, 0.7)
    fd = fd_param_grads(lambda: 0.7 * driver_loss(dnet_forward(dnet, a), a)[0], dnet.net)
    assert max_rel_err(g, fd) < 1e-6


def test_meta_gradient_batch_duplication_invariant():
    # duplicating the batch leaves the objective itself unchanged (the
    # lookahead and the 1/b weighting both average), so the gradient must not
    # move either
    rng = np.random.default_rng(7)
    c = 3
    model = tiny_model(4, c, seed=7)
    dnet = head_init("class", c, seed=8)
    a = rng.random(c)
    bx = rng.standard_normal((5, 4))
    by = rng.integers(0, c, 5)
    mx = rng.standard_normal((4, 4))
    my = rng.integers(0, c, 4)
    g1 = meta_gradient(dnet, model, a, bx, by, mx, my, 0.1, 0.3)
    g2 = meta_gradient(dnet, model, a, np.concatenate([bx, bx]),
                       np.concatenate([by, by]), mx, my, 0.1, 0.3)
    for (w1, b1), (w2, b2) in zip(dnet.net.split(g1), dnet.net.split(g2)):
        assert np.allclose(w1, w2, rtol=1e-10, atol=1e-14)
        assert np.allclose(b1, b2, rtol=1e-10, atol=1e-14)


def abs_objective(adnet, model, a, bx, by, mx, my, alpha, lam):
    d = dnet_forward(adnet, a)
    looked = virtual_step(model, bx, by, weights_from_difficulty(d, by), alpha)
    meta, _ = weighted_ce_loss(classifier_logits(looked, mx), my, np.ones(my.size))
    return lam * driver_loss(d, a)[0] + meta


def test_abs_meta_gradient_matches_fd():
    rng = np.random.default_rng(9)
    c, dim = 4, 3
    model = tiny_model(dim, c, seed=9)
    adnet = head_init("abs", c, seed=10)
    a = rng.random(c)
    bx = rng.standard_normal((6, dim))
    by = rng.integers(0, c, 6)
    mx = rng.standard_normal((5, dim))
    my = rng.integers(0, c, 5)
    g = meta_gradient(adnet, model, a, bx, by, mx, my, 0.1, 0.3)
    fd = fd_param_grads(
        lambda: abs_objective(adnet, model, a, bx, by, mx, my, 0.1, 0.3), adnet.net
    )
    assert max_rel_err(g, fd) < 1e-4


def sample_objective(sdnet, model, losses, bx, by, mx, my, alpha, lam):
    d = dnet_forward(sdnet, losses)
    looked = virtual_step(model, bx, by, d, alpha)
    meta, _ = weighted_ce_loss(classifier_logits(looked, mx), my, np.ones(my.size))
    return lam * target_fit_loss(d, sample_driver_targets(losses))[0] + meta


def test_sample_meta_gradient_matches_fd():
    rng = np.random.default_rng(11)
    c, dim, b = 3, 3, 8
    model = tiny_model(dim, c, seed=11)
    sdnet = head_init("sample", b, seed=12)  # one batch wide
    bx = rng.standard_normal((b, dim))
    by = rng.integers(0, c, b)
    mx = rng.standard_normal((4, dim))
    my = rng.integers(0, c, 4)
    _, losses = weighted_ce_loss(classifier_logits(model, bx), by, np.ones(b))
    g = meta_gradient(sdnet, model, losses, bx, by, mx, my, 0.1, 0.3)
    fd = fd_param_grads(
        lambda: sample_objective(sdnet, model, losses, bx, by, mx, my, 0.1, 0.3),
        sdnet.net,
    )
    assert max_rel_err(g, fd) < 1e-4


# ------------------------------------------------------------------ the loop

def replay(cfg, train_set, meta_set, model0, head0, seed):
    """train transcribed step by step from the public meta_gradient and
    dnet_forward, each of which runs its own pass of the difficulty net:
    the same batch stream, the same-batch rule, the theta update first, the
    weights re-computed with the updated net and the accuracies refreshed
    at each epoch's end. Returns (model, head, epoch records, weight trace)."""
    model = replace(model0, net=model0.net.copy())
    head = replace(head0, net=head0.net.copy())
    clf_opt, dn_opt = cfg.classifier_opt.build(), cfg.dnet_opt.build()
    rng = consumer_rng(seed, "batch")
    spe = train_set.size // cfg.b
    acc = per_class_accuracy(model, meta_set)
    records, trace = [], []
    for t in range(cfg.T):
        pos = t % spe
        if pos == 0:
            perm = rng.permutation(train_set.size)
        idx = perm[pos * cfg.b : (pos + 1) * cfg.b]
        midx = rng.choice(meta_set.size, size=cfg.m, replace=False)
        bx, by = train_set.features[idx], train_set.labels[idx]
        mx, my = meta_set.features[midx], meta_set.labels[midx]
        signal = acc
        if not head.per_class:
            _, signal = weighted_ce_loss(classifier_logits(model, bx), by, np.ones(cfg.b))

        stale = dnet_forward(head, signal)
        g_theta = meta_gradient(head, model, signal, bx, by, mx, my, cfg.alpha, cfg.lam)
        optimizer_step(dn_opt, head.net, g_theta)
        d = dnet_forward(head, signal)  # refreshed theta
        assert not np.array_equal(d, stale)  # stale weights would train another classifier
        w = weights_from_difficulty(d, by) if head.per_class else d
        optimizer_step(clf_opt, model.net, backward(model, bx, by, w))
        if head.records:
            trace += [(t, c, float(d[c] / d.sum())) for c in cfg.trace_classes]
        if pos == spe - 1 or t == cfg.T - 1:
            _, (rec,) = metatrain.evaluate_epoch(t // spe, per_class_accuracy(model, meta_set),
                                                 [0], head, train_set,
                                                 (cfg.many_min, cfg.few_max))
            acc = rec.accuracy
            records.append(rec)
    return model, head, records, trace


@pytest.mark.parametrize("kind, lam", [("class", 0.3), ("abs", 0.3), ("abs", 0.0),
                                       ("sample", 0.3)],
                         ids=["class", "abs", "abs-lam0", "sample"])
def test_steps_replicated_by_hand(kind, lam):
    """T steps over two epoch boundaries, ending mid-epoch, equal the
    transcription bit for bit: both nets, every epoch record and the weight
    trace. The loop runs a class-level net once per step where the
    transcription runs it twice, so this pins the reuse of a pass to the
    steps where the accuracies it saw still hold."""
    train_set, meta_set = tiny_data()
    spe = train_set.size // 8
    cfg = cfg_for(train_set, T=2 * spe + 3, lam=lam, trace_classes=(0, 2))
    model0 = tiny_model(seed=21)
    head0 = head_init(kind, 8 if kind == "sample" else 3, seed=22)

    got_model, got_head, metrics = train_one_seed(cfg, train_set, meta_set, model0, head0, 5)
    model, head, records, trace = replay(cfg, train_set, meta_set, model0, head0, 5)
    # the accuracies change at both boundaries, so a pass kept across one shows
    accs = [per_class_accuracy(model0, meta_set)] + [r.accuracy for r in records[:2]]
    assert accs[0].tobytes() != accs[1].tobytes() != accs[2].tobytes()

    assert got_head.net.params.tobytes() == head.net.params.tobytes()
    assert got_model.net.params.tobytes() == model.net.params.tobytes()
    assert [r.epoch for r in metrics.epochs] == [0, 1, 2]
    for got, want in zip(metrics.epochs, records, strict=True):
        for name in vars(want):
            a, b = getattr(got, name), getattr(want, name)
            if isinstance(b, np.ndarray):
                assert a.tobytes() == b.tobytes(), name
            else:
                assert a == b, name
    assert metrics.weight_trace == trace
    assert len(trace) == (2 * cfg.T if head.records else 0)


def test_t_zero_returns_inputs_unchanged():
    train_set, meta_set = tiny_data()
    model = tiny_model(seed=22)
    dnet = head_init("class", 3, seed=23)
    out_model, out_dnet, metrics = train_one_seed(
        cfg_for(train_set, T=0), train_set, meta_set, model, dnet
    )
    assert out_model is model and out_dnet is dnet
    assert metrics.epochs == [] and metrics.weight_trace == []


def test_train_leaves_the_callers_nets_unchanged():
    # the optimizers update in place, on copies train makes once
    train_set, meta_set = tiny_data()
    model = tiny_model(seed=24)
    dnet = head_init("class", 3, seed=25)
    before = model.net.params.tobytes(), dnet.net.params.tobytes()
    out_model, out_dnet, _ = train_one_seed(
        cfg_for(train_set, T=3), train_set, meta_set, model, dnet
    )
    assert (model.net.params.tobytes(), dnet.net.params.tobytes()) == before
    assert out_model.net.params.tobytes() != before[0]
    assert out_dnet.net.params.tobytes() != before[1]


def test_same_seed_bit_identical():
    train_set, meta_set = tiny_data()
    runs = []
    for _ in range(2):
        model = tiny_model(seed=24)
        dnet = head_init("class", 3, seed=25)
        cfg = cfg_for(train_set, T=14, trace_classes=(0, 2))
        runs.append(train_one_seed(cfg, train_set, meta_set, model, dnet, 3))
    (m1, d1, r1), (m2, d2, r2) = runs
    for a, b in zip(m1.net.layers, m2.net.layers):
        assert np.array_equal(a.w, b.w)
    for a, b in zip(d1.net.layers, d2.net.layers):
        assert np.array_equal(a.w, b.w)
    assert r1.weight_trace == r2.weight_trace
    for e1, e2 in zip(r1.epochs, r2.epochs):
        assert np.array_equal(e1.accuracy, e2.accuracy)
        assert e1.entropy == e2.entropy


def test_different_seed_differs():
    train_set, meta_set = tiny_data()
    outs = []
    for seed in (0, 1):
        model = tiny_model(seed=26)
        dnet = head_init("class", 3, seed=27)
        cfg = cfg_for(train_set, T=7)
        m, _, _ = train_one_seed(cfg, train_set, meta_set, model, dnet, seed)
        outs.append(m)
    assert any(not np.array_equal(a.w, b.w)
               for a, b in zip(outs[0].net.layers, outs[1].net.layers))


def test_epoch_records_and_trace_shape():
    train_set, meta_set = tiny_data()
    spe = train_set.size // 8
    cfg = cfg_for(train_set, T=2 * spe, trace_classes=(0, 1, 2))
    model = tiny_model(seed=28)
    _, _, metrics = train_one_seed(cfg, train_set, meta_set, model, head_init("class", 3, seed=29),
                                   1)
    assert [e.epoch for e in metrics.epochs] == [0, 1]
    assert len(metrics.weight_trace) == 3 * 2 * spe
    steps = [t for t, _, _ in metrics.weight_trace]
    assert steps == sorted(steps)
    for e in metrics.epochs:
        assert e.entropy is not None and e.entropy >= 0
        assert e.difficulty.shape == (3,)
        # normalized weights per step sum to one across the full vector,
        # so traced values sit in (0, 1)
    assert all(0.0 < v < 1.0 for _, _, v in metrics.weight_trace)


def test_nometa_difficulty_constant_within_epoch():
    train_set, meta_set = tiny_data()
    spe = train_set.size // 8
    cfg = cfg_for(train_set, T=2 * spe, trace_classes=(0,))
    model = tiny_model(seed=31)
    _, dnet, metrics = train_one_seed(cfg, train_set, meta_set, model, head_init("nometa", 3, 2), 2)
    assert dnet.net is None
    vals = [v for _, _, v in metrics.weight_trace]
    first_epoch, second_epoch = vals[:spe], vals[spe:]
    assert len(set(first_epoch)) == 1  # accuracies frozen inside the epoch
    assert len(set(second_epoch)) == 1
    assert first_epoch[0] != second_epoch[0]  # refresh actually happened


@pytest.mark.parametrize("seeds", [(5,), (5, 6)], ids=["one-seed", "two-seeds"])
def test_nometa_applies_its_rule_once_per_accuracy_refresh(seeds, monkeypatch):
    # an epoch's first step reuses the difficulties that the evaluation has
    # just made from the same accuracies: per seed one pass of the rule for
    # the starting accuracies and one per epoch, not two per epoch
    real, calls = difficulty.nometa_difficulty, []

    def counted(acc):
        calls.append(acc)
        return real(acc)

    monkeypatch.setattr(difficulty, "nometa_difficulty", counted)
    train_set, meta_set = tiny_data()
    epochs = 5
    cfg = cfg_for(train_set, T=epochs * (train_set.size // 8))
    outs = train_seeds(cfg, train_set, meta_set, [tiny_model(seed=43 + s) for s in seeds],
                       [head_init("nometa", 3, s) for s in seeds], seeds)
    assert [len(o[2].epochs) for o in outs] == [epochs] * len(seeds)
    assert len(calls) == (epochs + 1) * len(seeds)


def test_sample_variant_runs_without_class_snapshots():
    train_set, meta_set = tiny_data()
    cfg = cfg_for(train_set, T=6)
    model = tiny_model(seed=32)
    sdnet = head_init("sample", 8, seed=33)
    _, out_sdnet, metrics = train_one_seed(cfg, train_set, meta_set, model, sdnet, 4)
    assert metrics.epochs[-1].difficulty is None
    assert metrics.epochs[-1].entropy is None
    # the net did train
    assert any(not np.array_equal(a.w, b.w)
               for a, b in zip(out_sdnet.net.layers, sdnet.net.layers))


@pytest.mark.parametrize("kind", ["class", "abs", "sample"], ids=["dnet", "abs", "sample"])
def test_one_forward_per_net_and_batch_per_step(kind, monkeypatch):
    # per step the classifier runs forward once over the train batch (the
    # virtual step, the per-sample dots and the actual step share it) and
    # once over the meta batch. The difficulty net runs once after its
    # update; a class-level net's pass is also the next step's pass before
    # the update, and the pass that records an epoch's difficulties at its
    # end is the next epoch's first pass, so it runs before an update only
    # on the first step, while the sample kind's signal is new every step
    seen = spy_forward_passes(monkeypatch)
    train_set, meta_set = tiny_data()  # meta set of 12 rows: evaluation
    cfg = cfg_for(train_set, T=10, b=8, m=6)
    spe = train_set.size // cfg.b
    assert cfg.T % spe  # the last, partial epoch ends at step T - 1
    head = head_init(kind, 8 if kind == "sample" else 3, seed=6)
    train_one_seed(cfg, train_set, meta_set, tiny_model(seed=39), head, 5)
    epochs = -(-cfg.T // spe)
    assert seen.count(8) == cfg.T
    assert seen.count(6) == cfg.T
    if head.per_class:  # one more pass per epoch for the class snapshot at its end
        assert seen.count("dnet") == cfg.T + epochs + 1
    else:
        assert seen.count("dnet") == 2 * cfg.T


def spy_forward_passes(monkeypatch):
    """Record every forward pass: "dnet" for a difficulty net's, else the
    batch size (the axis before the features, in a stack too)."""
    real, seen = nnet.forward_tape, []

    def spy(model, x):
        seen.append("dnet" if isinstance(model, MLP) else np.shape(x)[-2])
        return real(model, x)

    for mod in (nnet, metatrain, difficulty):
        monkeypatch.setattr(mod, "forward_tape", spy, raising=False)
    return seen


@pytest.mark.parametrize("kind", ["class", "abs", "sample", "fixed"])
def test_stacked_seeds_share_each_pass(kind, monkeypatch):
    # three seeds in one train_seeds call run the passes of one seed's step,
    # each over the whole stack, evaluation included: one meta-set pass
    # before step 0 and one at each epoch's end, for any stack size
    seen = spy_forward_passes(monkeypatch)
    train_set, meta_set = tiny_data()
    cfg = cfg_for(train_set, T=10, b=8, m=6)
    width = 8 if kind == "sample" else 3
    outs = {}
    for seeds in ((5,), (5, 6, 7)):
        seen.clear()
        outs[seeds] = train_seeds(cfg, train_set, meta_set,
                                  [tiny_model(seed=39 + s) for s in seeds],
                                  [head_init(kind, width, seed=s) for s in seeds], seeds)
        assert not [o for o in outs[seeds] if isinstance(o, NumericError)]
        passes = [p for p in seen if p != 12]  # 12 rows: the evaluations
        assert seen.count(12) == -(-cfg.T // (train_set.size // 8)) + 1
        if seeds == (5,):
            one = passes
    assert passes == one
    # and seed 5 trains as it trains alone
    (m1, h1, r1), (m3, h3, r3) = outs[(5,)][0], outs[(5, 6, 7)][0]
    assert m1.net.params.tobytes() == m3.net.params.tobytes()
    if h1.net is not None:
        assert h1.net.params.tobytes() == h3.net.params.tobytes()
    assert [vars_bytes(e) for e in r1.epochs] == [vars_bytes(e) for e in r3.epochs]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", ["class", "fixed"])
def test_a_seed_whose_evaluation_fails_stops_alone(kind, monkeypatch):
    # seed 6's meta-set logits read as non-finite at the second epoch's end:
    # it stops there in the evaluation phase with its first epoch's record,
    # and seeds 5 and 7 train on as each trains alone
    real, calls = metatrain.per_class_accuracy, []

    def poisoned(model, meta_set):
        acc = real(model, meta_set)
        calls.append(acc.shape)
        if acc.ndim == 2 and len(calls) == 3:
            acc[1] = np.nan
        return acc

    train_set, meta_set = tiny_data()
    spe = train_set.size // 8
    cfg = cfg_for(train_set, T=3 * spe)
    width = 3

    def train(seeds):
        return train_seeds(cfg, train_set, meta_set, [tiny_model(seed=39 + s) for s in seeds],
                           [head_init(kind, width, seed=s) for s in seeds], seeds)

    alone = {s: train((s,))[0] for s in (5, 6, 7)}
    monkeypatch.setattr(metatrain, "per_class_accuracy", poisoned)
    together = train((5, 6, 7))
    assert calls == [(3, width)] * 4  # before step 0 and at each epoch's end
    error = together[1]
    assert isinstance(error, NumericError)
    assert (error.phase, error.step, error.quantity) == ("evaluation", 2 * spe - 1,
                                                         "meta-set logits")
    assert [vars_bytes(e) for e in error.metrics.epochs] == [vars_bytes(alone[6][2].epochs[0])]
    for s, out in ((5, together[0]), (7, together[2])):
        (m1, h1, r1), (m3, h3, r3) = alone[s], out
        assert m1.net.params.tobytes() == m3.net.params.tobytes()
        if h1.net is not None:
            assert h1.net.params.tobytes() == h3.net.params.tobytes()
        assert [vars_bytes(e) for e in r1.epochs] == [vars_bytes(e) for e in r3.epochs]
        assert r1.weight_trace == r3.weight_trace
        assert len(r3.epochs) == 3


@pytest.mark.parametrize("kind", ["class", "abs", "sample", "fixed"])
@pytest.mark.parametrize("seeds", [(5,), (5, 6, 7)], ids=["one-seed", "three-seeds"])
def test_step_lays_out_its_buffers_once(kind, seeds, monkeypatch):
    # every net built and every gradient or direction read through layer
    # views goes through MLP.split; the step reuses buffers laid out once
    # per call, so a longer run splits no more often
    real, calls = MLP.split, []

    def split(self, vec):
        calls.append(vec.shape)
        return real(self, vec)

    monkeypatch.setattr(MLP, "split", split)
    train_set, meta_set = tiny_data()
    width = 8 if kind == "sample" else 3
    counts = []
    for T in (10, 30):
        calls.clear()
        outs = train_seeds(cfg_for(train_set, T=T, b=8, m=6), train_set, meta_set,
                           [tiny_model(seed=39 + s) for s in seeds],
                           [head_init(kind, width, seed=s) for s in seeds], seeds)
        assert not [o for o in outs if isinstance(o, NumericError)]
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("kind", ["class", "abs", "sample"])
def test_difficulty_net_passes_build_no_classifier(kind, monkeypatch):
    # a difficulty net runs forward as a bare MLP, so a longer run builds
    # no more Classifiers than a shorter one
    real, calls = Classifier.__post_init__, []

    def post_init(self):
        calls.append(self.head)
        real(self)

    monkeypatch.setattr(Classifier, "__post_init__", post_init)
    train_set, meta_set = tiny_data()
    width = 8 if kind == "sample" else 3
    counts = []
    for T in (10, 30):
        calls.clear()
        train_one_seed(cfg_for(train_set, T=T, b=8, m=6), train_set, meta_set,
                       tiny_model(seed=39), head_init(kind, width, seed=5))
        counts.append(len(calls))
    assert counts[0] == counts[1]


def vars_bytes(record):
    """An epoch record's fields with arrays as bytes, for exact comparison."""
    return {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in vars(record).items()}


def test_sample_width_must_cover_batch():
    # the sample net is exactly one batch wide: no narrower, and no wider
    train_set, meta_set = tiny_data()
    model = tiny_model(seed=35)
    for width in (4, 16):
        with pytest.raises(ConfigError, match="width"):
            train_one_seed(cfg_for(train_set, T=1, b=8),
                           train_set, meta_set, model, head_init("sample", width, seed=0))


def test_meta_set_must_be_balanced():
    train_set, _ = tiny_data()
    skewed = Dataset(np.zeros((3, 4)), np.array([0, 1, 1]), 3)
    with pytest.raises(ValueError, match="balanced"):
        train_one_seed(cfg_for(train_set, T=1, m=3),
                       train_set, skewed, tiny_model(seed=36), head_init("class", 3, seed=0))


@pytest.mark.parametrize("logits", [2, 4])
def test_classifier_must_fit_the_data_classes(logits, monkeypatch):
    # checked once, before step 0, since the step labels its tapes unchecked
    seen = spy_forward_passes(monkeypatch)
    train_set, meta_set = tiny_data()  # 3 classes
    with pytest.raises(ConfigError, match="logits") as info:
        train_seeds(cfg_for(train_set, T=4), train_set, meta_set,
                    [tiny_model(c=logits, seed=s) for s in (0, 1)],
                    [head_init("class", 3, seed=s) for s in (0, 1)], (0, 1))
    assert isinstance(info.value, ValueError)
    assert seen == []


def test_meta_gradient_checks_the_meta_labels():
    train_set, meta_set = tiny_data()
    bx, by = train_set.features[:8], train_set.labels[:8]
    mx, my = meta_set.features[:6], meta_set.labels[:6].copy()
    my[0] = 3
    with pytest.raises(ValueError, match="labels outside"):
        meta_gradient(head_init("class", 3, seed=0), tiny_model(seed=1), np.full(3, 0.5), bx, by,
                      mx, my, 0.1, 0.3)


def test_loop_bounds_validated():
    train_set, meta_set = tiny_data()
    model = tiny_model(seed=37)
    dnet = head_init("class", 3, seed=38)
    with pytest.raises(ValueError, match="exceeds the train set"):
        train_one_seed(cfg_for(train_set, T=1, b=train_set.size + 1),
                       train_set, meta_set, model, dnet)
    with pytest.raises(ValueError, match="meta batch"):
        train_one_seed(cfg_for(train_set, T=1, m=meta_set.size + 1),
                       train_set, meta_set, model, dnet)
    with pytest.raises(ValueError, match="trace"):
        train_one_seed(cfg_for(train_set, T=1, trace_classes=(3,)),
                       train_set, meta_set, model, dnet)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_numeric_error_with_partial_metrics():
    train_set, meta_set = tiny_data()
    cfg = cfg_for(train_set, T=4, trace_classes=(0, 2),
                  classifier_opt=OptSpec("adam", 1e308))
    with pytest.raises(NumericError) as info:
        train_one_seed(cfg, train_set, meta_set, tiny_model(seed=39), head_init("nometa", 3, 0))
    metrics = info.value.metrics
    assert metrics is not None
    # work before the blow-up is kept: each step before it traced its weights
    steps = {t for t, _, _ in metrics.weight_trace}
    assert steps == set(range(info.value.step)) and info.value.step >= 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_evaluation_raises_numeric_error():
    # one SGD step of lr 1e308 leaves parameters near 6.6e307: still finite,
    # but the evaluation's logits overflow, so nothing can be ranked
    train_set, meta_set = tiny_data()
    cfg = cfg_for(train_set, T=1, classifier_opt=OptSpec("sgd", 1e308))
    with pytest.raises(NumericError) as info:
        train_one_seed(cfg, train_set, meta_set, tiny_model(seed=0), head_init("fixed", 3, 0))
    assert (info.value.phase, info.value.step) == ("evaluation", 0)
    assert info.value.metrics is not None and info.value.metrics.epochs == []


def test_train_fixed_plain_ce_decreases_loss():
    train_set, meta_set = tiny_data()
    spe = train_set.size // 8
    model = tiny_model(seed=40)
    trained, _, _ = train_one_seed(cfg_for(train_set, T=6 * spe), train_set, meta_set, model,
                                   head_init("fixed", 3, 0))

    def train_ce(m):
        return weighted_ce_loss(classifier_logits(m, train_set.features), train_set.labels,
                                np.ones(train_set.size))[0]

    assert train_ce(trained) < train_ce(model)


def test_train_fixed_rule_receives_refreshed_accuracy():
    train_set, meta_set = tiny_data()
    spe = train_set.size // 8
    seen = []

    def spy_weights(acc):
        seen.append(acc.copy())
        return np.ones(train_set.class_count)

    cfg = cfg_for(train_set, T=2 * spe)
    head = head_init("fixed", train_set.class_count, 0, spy_weights)
    model = tiny_model(seed=41)
    _, _, metrics = train_one_seed(cfg, train_set, meta_set, model, head)
    # one call per epoch, not per step: the weights hold until the refresh
    assert len(seen) == 2
    refreshed = [per_class_accuracy(model, meta_set), metrics.epochs[0].accuracy]
    assert [a.tobytes() for a in seen] == [a.tobytes() for a in refreshed]
    assert not np.array_equal(seen[0], seen[1])  # refreshed at the boundary
