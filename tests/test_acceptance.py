"""Acceptance gate: ten numbered criteria, one test each, in order.

Each test prints a single line (visible under pytest -s or on failure) with
the measured margin and its runtime. The expensive benchmark runs are shared
through the session-scoped bench fixture, so the first criterion to need a
(method, seed) pair pays for training it and the rest reuse it.
"""

import os
import time
from dataclasses import replace

import numpy as np
import pytest

from ltlab.baselines import crt_retrain, ensemble_predict
from ltlab.data import exp_profile
from ltlab.difficulty import difficulty_entropy, dnet_forward, head_init
from ltlab.harness import ExperimentConfig, run
from ltlab.metatrain import OptSpec
from ltlab.nnet import (
    Classifier,
    classifier_logits,
    init_mlp,
    optimizer_step,
    per_class_accuracy,
)
from ltlab.rng import consumer_rng

from conftest import fd_param_grads, fd_vector_grad, max_rel_err
from oracles import (
    backward,
    driver_loss,
    meta_gradient,
    virtual_step,
    weighted_ce_loss,
    weights_from_difficulty,
)


def bilevel_objective(dnet, model, a, bx, by, mx, my, alpha, lam):
    d = dnet_forward(dnet, a)
    looked = virtual_step(model, bx, by, weights_from_difficulty(d, by), alpha)
    meta, _ = weighted_ce_loss(classifier_logits(looked, mx), my, np.ones(my.size))
    return lam * driver_loss(d, a)[0] + meta


def make_model(dim, c, hidden, seed, head):
    net = init_mlp([dim, hidden, c], "identity", consumer_rng(seed, "acc", "clf"))
    return Classifier(net, head, scale=8.0)


def test_criterion_01_meta_gradient_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    lams = (0.0, 0.3, 1.0)
    worst = 0.0
    for k in range(20):
        c = int(rng.integers(2, 6))
        dim = int(rng.integers(2, 5))
        b = int(rng.integers(3, 9))
        m = int(rng.integers(3, 9))
        lam = lams[k % 3]
        head = "cosine" if k % 4 == 3 else "linear"
        model = make_model(dim, c, 8, 200 + k, head)
        dnet = head_init("class", c, seed=300 + k)
        a = rng.random(c)
        bx = rng.standard_normal((b, dim))
        by = rng.integers(0, c, b)
        mx = rng.standard_normal((m, dim))
        my = rng.integers(0, c, m)
        got = meta_gradient(dnet, model, a, bx, by, mx, my, 0.1, lam)
        fd = fd_param_grads(
            lambda: bilevel_objective(dnet, model, a, bx, by, mx, my, 0.1, lam),
            dnet.net, h=1e-4,
        )
        worst = max(worst, max_rel_err(got, fd))
    elapsed = time.perf_counter() - started
    print(f"criterion 1 PASS: meta-gradient max rel err {worst:.2e} over 20 instances "
          f"({elapsed:.1f}s)")
    assert worst <= 1e-4
    assert elapsed < 30.0


def test_criterion_02_classifier_and_driver_gradient_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    worst_clf = 0.0
    for k, head in enumerate(("linear", "cosine")):
        model = make_model(3, 4, 6, 400 + k, head)
        x = rng.standard_normal((6, 3))
        y = rng.integers(0, 4, 6)
        w = rng.random(6)
        got = backward(model, x, y, w)
        # h small enough that no relu pre-activation sits within a step of
        # its kink, where central differences stop measuring the derivative
        fd = fd_param_grads(
            lambda: weighted_ce_loss(classifier_logits(model, x), y, w)[0],
            model.net, h=1e-6,
        )
        worst_clf = max(worst_clf, max_rel_err(got, fd))

    worst_drv = 0.0
    for k in range(4):
        c = 6
        a = rng.random(c)
        d = rng.uniform(0.05, 0.95, c)
        _, got = driver_loss(d, a)
        fd = fd_vector_grad(lambda dd: driver_loss(dd, a)[0], d, h=1e-6)
        err = np.abs(got - fd).max() / max(np.abs(fd).max(), 1e-12)
        worst_drv = max(worst_drv, err)
    elapsed = time.perf_counter() - started
    print(f"criterion 2 PASS: classifier grad err {worst_clf:.2e} (<=1e-5), "
          f"driver cotangent err {worst_drv:.2e} (<=1e-8) ({elapsed:.1f}s)")
    assert worst_clf <= 1e-5
    assert worst_drv <= 1e-8


def test_criterion_03_driver_dominance():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    a = np.array([0.9, 0.5, 0.1])
    model = make_model(4, 3, 8, 500, "linear")
    bx = rng.standard_normal((6, 4))
    by = np.array([0, 1, 2, 0, 1, 2])
    mx = rng.standard_normal((6, 4))
    my = np.array([0, 1, 2, 0, 1, 2])
    dnet = head_init("class", 3, seed=501)
    opt = OptSpec("adam", 1e-3, 0.9, 1e-4).build()
    for _ in range(2000):
        g = meta_gradient(dnet, model, a, bx, by, mx, my, 0.1, 50.0)
        net, opt = optimizer_step(opt, dnet.net, g)
        dnet = replace(dnet, net=net)
    target = 1.0 - a / a.sum()
    gap = float(np.abs(dnet_forward(dnet, a) - target).max())
    elapsed = time.perf_counter() - started
    print(f"criterion 3 PASS: max |d - (1-a_hat)| = {gap:.4f} (<=0.05) after 2000 "
          f"steps at lambda=50 ({elapsed:.1f}s)")
    assert gap <= 0.05


def test_criterion_04_entropy_diagnostics(bench):
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    sizes = (2, 3, 5, 10, 100)
    for k in range(1000):
        d = rng.uniform(1e-6, 1.0, sizes[k % len(sizes)])
        assert difficulty_entropy(d) >= 0.0
    for c in (2, 3, 10, 100):
        for level in (0.1, 0.5, 0.9):
            assert abs(difficulty_entropy(np.full(c, level))) <= 1e-12

    first = np.median([bench.first_record("dnet", s).entropy for s in bench.SEEDS])
    final = np.median([bench.final_record("dnet", s).entropy for s in bench.SEEDS])
    elapsed = time.perf_counter() - started
    print(f"criterion 4 PASS: entropy >= 0 on 1000 vectors, 0 on uniform; benchmark "
          f"median epoch-1 {first:.4f} -> final {final:.4f} ({elapsed:.1f}s)")
    assert final < first
    assert elapsed < 120.0


def test_criterion_05_imbalance_mitigation_ordering(bench):
    started = time.perf_counter()
    dnet_few = bench.median("dnet", "few")
    ce_few = bench.median("ce", "few")
    nodriver_few = bench.median("dnet-nodriver", "few")
    elapsed = time.perf_counter() - started
    print(f"criterion 5 PASS: few-split medians dnet {dnet_few:.3f} >= ce {ce_few:.3f} "
          f"+ 0.05 and >= nodriver {nodriver_few:.3f} ({elapsed:.1f}s)")
    assert dnet_few >= ce_few + 0.05 - 1e-9
    assert dnet_few >= nodriver_few - 1e-9
    assert elapsed < 600.0


def test_criterion_06_class_level_vs_sample_level(bench):
    started = time.perf_counter()

    def fm(method, seed):
        rec = bench.final_record(method, seed)
        return (rec.few + rec.medium) / 2.0

    dnet_fm = [fm("dnet", s) for s in bench.SEEDS]
    sample_fm = [fm("dnet-sample", s) for s in bench.SEEDS]
    med_d, med_s = float(np.median(dnet_fm)), float(np.median(sample_fm))
    violations = sum(d < s for d, s in zip(dnet_fm, sample_fm))
    elapsed = time.perf_counter() - started
    verdict = "PASS" if med_d >= med_s else "PASS (warning: median ordering violated)"
    print(f"criterion 6 {verdict}: few+medium median dnet {med_d:.3f} vs sample "
          f"{med_s:.3f}, per-seed violations {violations}/5 ({elapsed:.1f}s)")
    assert violations < 2  # >= 2 of 5 seeds against the trend is a failure


def test_criterion_07_hidden_width_rule():
    started = time.perf_counter()
    widths = {}
    for c in (100, 1000, 365):
        layers = head_init("class", c, seed=0).net.layers
        widths[c] = layers[0].w.shape[0]
        assert layers[0].w.shape == (widths[c], c)
        assert layers[1].w.shape == (widths[c], widths[c])
        assert layers[2].w.shape == (c, widths[c])
    elapsed = time.perf_counter() - started
    print(f"criterion 7 PASS: hidden widths {widths} ({elapsed:.1f}s)")
    assert widths == {100: 128, 1000: 1024, 365: 512}


def test_criterion_08_profile_endpoints():
    started = time.perf_counter()
    lo = exp_profile(100, 490, 10.0)
    hi = exp_profile(100, 490, 200.0)
    elapsed = time.perf_counter() - started
    print(f"criterion 8 PASS: min counts {lo.min()} (imb 10) and {hi.min()} "
          f"(imb 200) ({elapsed:.1f}s)")
    assert lo[0] == 490 and hi[0] == 490
    assert lo.min() == 49
    assert hi.min() == 2


def test_criterion_09_crt_freeze_and_thread_reproducibility(bench, tmp_path, monkeypatch):
    started = time.perf_counter()
    model = bench.result("dnet", 0)[0]
    out = crt_retrain(model, bench.train_set, 100, 64,
                      OptSpec("momentum", 0.1, 0.9, 1e-4), seed=0)
    for kept, orig in zip(out.net.layers[:-1], model.net.layers[:-1]):
        assert np.array_equal(kept.w, orig.w)
        assert np.array_equal(kept.b, orig.b)
    assert not np.array_equal(out.net.layers[-1].w, model.net.layers[-1].w)

    def pipeline(sub, cap):
        monkeypatch.setenv("LTLAB_THREADS", cap)
        cfg = ExperimentConfig(
            classes=5, n_max=60, imbalance=10.0, dim=4, m_per_class=4,
            epochs=2, batch_size=8, meta_batch_size=8, hidden=8,
            seeds=(0, 1), method="dnet", stage2="crt", crt_steps=10,
            out_dir=str(tmp_path / sub),
        )
        run(cfg)
        blobs = {}
        for root, _, names in os.walk(tmp_path / sub):
            for name in names:
                if name in ("manifest.json", "run_config.txt"):
                    continue  # timestamps / out_dir echo
                p = os.path.join(root, name)
                blobs[os.path.relpath(p, tmp_path / sub)] = open(p, "rb").read()
        return blobs

    serial = pipeline("serial", "1")
    pooled = pipeline("pooled", "3")
    elapsed = time.perf_counter() - started
    print(f"criterion 9 PASS: features frozen bit-exact; {len(serial)} pipeline files "
          f"byte-identical across LTLAB_THREADS=1 vs 3 ({elapsed:.1f}s)")
    assert serial == pooled
    assert len(serial) >= 10  # both seeds produced their full layout


def test_criterion_10_ensemble_sanity(bench):
    started = time.perf_counter()

    def overall(model):
        return float(per_class_accuracy(model, bench.meta_set).mean())

    deltas = []
    for s in bench.SEEDS:
        lin = bench.result("dnet", s)[0]
        cos = bench.result("dnet", s, head="cosine")[0]
        probs = ensemble_predict([lin, cos], bench.meta_set.features)
        pred = np.argmax(probs, axis=1)
        acc = np.array([
            float((pred[bench.meta_set.labels == c] == c).mean())
            for c in range(bench.meta_set.class_count)
        ])
        deltas.append(float(acc.mean()) - max(overall(lin), overall(cos)))
    med = float(np.median(deltas))
    elapsed = time.perf_counter() - started
    print(f"criterion 10 PASS: ensemble-vs-best-member median delta {med:+.4f} "
          f"(>= -0.01) ({elapsed:.1f}s)")
    assert med >= -0.01 - 1e-12
