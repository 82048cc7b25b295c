"""Tests of the desk-scale MLP trainer."""

import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from eoc_lab import cli
from eoc_lab.solver import solve_init
from eoc_lab.trainer import (
    LOG_COLUMNS,
    TrainConfig,
    _accuracy,
    forward,
    init_params,
    load_digits_csv,
    loss_and_grads,
    make_blobs,
    normalize_inputs,
    observed_sparsity,
    train,
    train_val_test_split,
)

from oracles import kinks, sgd_losses_at_logit_scale


def small_config(**overrides):
    base = dict(
        init=solve_init("crelu", 0.85, 1.0, 0.7),
        depth=3,
        width=5,
        epochs=2,
        lr=0.05,
        batch=8,
        seed=7,
        dataset="synthetic-blobs",
        n_samples=64,
        input_dim=6,
        n_classes=3,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        """Analytic gradients vs central differences on 50 coordinates of a
        depth-3 width-5 net, relative 1e-4."""
        config = small_config()
        x_raw, y = make_blobs(config.seed, config.n_samples, config.input_dim, config.n_classes)
        x = normalize_inputs(x_raw, config.init.q_star)[:16]
        y = y[:16]
        params = init_params(config)
        spec = config.init.spec

        # finite differences are only trustworthy away from the kinks
        h_list = [h for h, _ in forward(params, spec, x)]
        margin = min(
            float(np.min(np.abs(h[:, :, None] - np.array(kinks(spec))[None, None, :])))
            for h in h_list[:-1]
        )
        assert margin > 1e-4

        loss0, grads = loss_and_grads(params, spec, x, y)
        assert math.isfinite(loss0)

        rng = np.random.default_rng(11)
        step = 1e-6
        checked = 0
        while checked < 50:
            layer = int(rng.integers(0, config.depth))
            w, b = params[layer]
            pick_bias = bool(rng.integers(0, 2))
            target = b if pick_bias else w
            idx = tuple(int(rng.integers(0, s)) for s in target.shape)

            def perturbed(sign):
                new = [(wi.copy(), bi.copy()) for wi, bi in params]
                tgt = new[layer][1] if pick_bias else new[layer][0]
                tgt[idx] += sign * step
                return loss_and_grads(new, spec, x, y)[0]

            fd = (perturbed(+1.0) - perturbed(-1.0)) / (2.0 * step)
            analytic = (grads[layer][1] if pick_bias else grads[layer][0])[idx]
            assert analytic == pytest.approx(fd, rel=1e-4, abs=1e-9)
            checked += 1

    def test_initialisation_law(self):
        """Drawn hidden weights match the configured variance within 2
        percent at width 256."""
        init = solve_init("crelu", 0.85, 1.0, 0.7)
        config = small_config(init=init, depth=3, width=256, input_dim=256, n_samples=8)
        params = init_params(config)
        w2 = params[1][0]
        assert float(np.var(w2)) == pytest.approx(init.sw2 / 256, rel=0.02)
        b2 = params[1][1]
        assert float(np.var(b2)) == pytest.approx(init.sb2, rel=0.25)

    def test_first_layer_preserves_input_variance(self):
        config = small_config(depth=3, width=128, input_dim=64, n_samples=256)
        x_raw, _ = make_blobs(config.seed, config.n_samples, config.input_dim, config.n_classes)
        x = normalize_inputs(x_raw, config.init.q_star)
        params = init_params(config)
        h1 = x @ params[0][0].T + params[0][1]
        assert float(np.mean(h1 * h1)) == pytest.approx(config.init.q_star, rel=0.1)


class TestDatasets:
    def test_blobs_deterministic(self):
        a = make_blobs(3, 100, 8, 4)
        b = make_blobs(3, 100, 8, 4)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_normalisation(self):
        x, _ = make_blobs(5, 50, 16, 4)
        z = normalize_inputs(x, 3.0)
        assert np.allclose(z.mean(axis=1), 0.0, atol=1e-12)
        assert np.allclose(z.var(axis=1), 3.0, rtol=1e-10)

    def test_digits_csv_roundtrip(self, tmp_path):
        path = tmp_path / "digits.csv"
        rng = np.random.default_rng(9)
        rows = rng.integers(0, 17, size=(40, 64))
        labels = rng.integers(0, 10, size=40)
        with open(path, "w") as fh:
            fh.write("label," + ",".join(f"pixel_{i}" for i in range(64)) + "\n")
            for lbl, row in zip(labels, rows):
                fh.write(str(int(lbl)) + "," + ",".join(str(int(v)) for v in row) + "\n")
        x, y = load_digits_csv(str(path))
        assert x.shape == (40, 64)
        assert np.array_equal(y, labels)

    def test_digits_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_digits_csv(str(path))

    def test_training_on_digit_csv(self, tmp_path):
        path = tmp_path / "digits.csv"
        rng = np.random.default_rng(13)
        labels = np.arange(120) % 3
        # three distinguishable pixel patterns plus noise
        base = rng.integers(0, 17, size=(3, 64))
        rows = np.clip(base[labels] + rng.integers(-2, 3, size=(120, 64)), 0, 16)
        with open(path, "w") as fh:
            fh.write("label," + ",".join(f"pixel_{i}" for i in range(64)) + "\n")
            for lbl, row in zip(labels, rows):
                fh.write(str(int(lbl)) + "," + ",".join(str(int(v)) for v in row) + "\n")
        config = small_config(
            dataset="small-digits", data_csv=str(path), depth=2, width=16,
            epochs=30, lr=0.1, batch=16, input_dim=64, n_classes=3, seed=2,
        )
        report = train(config)
        assert not report.diverged
        assert report.test_accuracy >= 0.9


class TestTraining:
    def test_linearly_separable_sanity(self):
        """A two-affine-layer net on blob data reaches 95 percent."""
        config = small_config(
            depth=2, width=8, epochs=50, lr=0.1, batch=16,
            n_samples=400, input_dim=8, n_classes=2, seed=0,
        )
        report = train(config)
        assert not report.diverged
        assert report.test_accuracy >= 0.95

    def test_initial_sparsity_matches_target(self):
        init = solve_init("crelu", 0.85, 1.0, 0.7)
        config = small_config(
            init=init, depth=30, width=64, epochs=1, lr=1e-3, batch=64,
            n_samples=512, input_dim=64, n_classes=10, seed=1,
        )
        report = train(config)
        assert report.sparsity_at_init == pytest.approx(0.85, abs=0.02)

    def test_divergence_sets_flag_not_exception(self):
        # clipped activations bound the forward pass, so a guaranteed
        # blow-up needs the unbounded family
        from eoc_lab.solver import relu_init

        config = small_config(
            init=relu_init(1.0), depth=6, width=16, epochs=5, lr=1e6, batch=16,
            n_samples=128, input_dim=8, n_classes=3,
        )
        report = train(config)
        assert report.diverged
        assert report.epochs_run >= 1
        assert math.isnan(report.train_losses[-1])
        assert report.test_accuracy is None

    @pytest.mark.parametrize("lr", [0.0, -0.1, math.nan, math.inf])
    def test_learning_rate_must_be_positive_and_finite(self, lr):
        with pytest.raises(ValueError, match="learning rate must be positive and finite"):
            small_config(lr=lr)

    @pytest.mark.parametrize("field, value, message", [
        ("width", 1, "width must be at least 2"),
        ("batch", 0, "batch must be at least 1"),
        ("epochs", 0, "epochs must be at least 1"),
    ], ids=["width", "batch", "epochs"])
    def test_each_size_is_checked_against_its_own_bound(self, field, value, message):
        small_config(width=2, batch=1, epochs=1)
        with pytest.raises(ValueError, match=f"^{message}$"):
            small_config(**{field: value})

    def test_data_csv_needs_small_digits(self):
        with pytest.raises(ValueError, match="data_csv 'd.csv' is read only by dataset "
                                             "'small-digits', got dataset 'synthetic-blobs'"):
            small_config(data_csv="d.csv")
        with pytest.raises(ValueError, match="small-digits requires data_csv"):
            small_config(dataset="small-digits")

    def test_smallest_accepted_sample_count_fills_every_split(self):
        for n in range(7, 200):
            splits = train_val_test_split(np.zeros((n, 6)), np.arange(n), seed=0)
            assert all(len(part[0]) > 0 for part in splits)
        small_config(n_samples=7)
        with pytest.raises(ValueError, match="n_samples must be at least 7"):
            small_config(n_samples=6)

    def test_deterministic_given_seed(self):
        config = small_config(epochs=3)
        a, b = train(config), train(config)
        assert a.train_losses == b.train_losses
        assert a.val_accuracies == b.val_accuracies
        assert a.test_accuracy == b.test_accuracy

    def test_workspace_rows_are_capped_by_the_training_split(self, monkeypatch):
        """A batch larger than the training split reserves the split's rows,
        and trains as a batch of exactly those rows does.  The spy builds
        its workspace at the smaller of the two, so no huge array is made."""
        from eoc_lab import trainer

        config = small_config(batch=10**6)
        x_raw, y = make_blobs(config.seed, config.n_samples, config.input_dim, config.n_classes)
        (x_tr, _), _, _ = train_val_test_split(x_raw, y, config.seed)
        rows = []

        class Spy(trainer._Workspace):
            def __init__(self, params, n):
                rows.append(n)
                super().__init__(params, min(n, len(x_tr)))

        monkeypatch.setattr(trainer, "_Workspace", Spy)
        report = train(config)
        assert rows == [len(x_tr)]
        assert report.to_dict() == train(replace(config, batch=len(x_tr))).to_dict()

    def test_training_log_schema(self, tmp_path):
        config = small_config(epochs=2)
        report = train(config)
        path = tmp_path / "log.csv"
        rows = [tuple(map(cli._fmt, row)) for row in report.log_rows()]
        cli._write_csv(str(path), LOG_COLUMNS, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,step,loss,val_acc,sparsity"
        assert len(lines) == 1 + len(report.step_log)

    def test_observed_sparsity_covers_every_activated_layer(self):
        config = small_config(depth=2, width=64, input_dim=64, n_samples=256)
        params = init_params(config)
        x, _ = make_blobs(0, 256, config.input_dim, config.n_classes)
        sp = observed_sparsity(
            params, config.init.spec, normalize_inputs(x, config.init.q_star)
        )
        assert sp == pytest.approx(config.init.s, abs=0.03)

    def test_whole_split_passes_hold_about_one_layer(self):
        """The sparsity and accuracy passes over a 700-row split of a
        depth-30 net keep a few layers alive at a time, not the stack."""
        config = small_config(depth=30, width=64, input_dim=64, n_samples=700, n_classes=10)
        x_raw, y = make_blobs(config.seed, config.n_samples, config.input_dim, config.n_classes)
        x = normalize_inputs(x_raw, config.init.q_star)
        params = init_params(config)
        spec = config.init.spec
        layer_bytes = x.shape[0] * config.width * x.itemsize
        for run in (lambda: observed_sparsity(params, spec, x),
                    lambda: _accuracy(params, spec, x, y)):
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 5 * layer_bytes


_SMALL = ["--depth", "6", "--width", "16", "--epochs", "3", "--batch", "16", "--seed", "7",
          "--n-samples", "128", "--input-dim", "8", "--n-classes", "3"]

# sha256 of the JSON report and of the --log-csv file, in that order,
# recorded from the trainer before its step was rewritten in place over one
# parameter buffer (x86-64, numpy 2.4 with OpenBLAS)
_GOLDEN = {
    "crelu": (
        ["--activation", "crelu", "-s", "0.85", "--qstar", "1", "--vprime", "0.7",
         "--lr", "0.1", *_SMALL],
        "a868e13d5f9c23477dbda23dbdcea8371159e534b9fa01fcacd86f99ef17f2e4",
        "a293386645512f0a2fbb51df238308ac6090f53664f48c9cd26a22b412dd7ebb",
    ),
    "cst": (
        ["--activation", "cst", "-s", "0.7", "--qstar", "1", "--vprime", "0.7",
         "--lr", "0.1", *_SMALL],
        "79fdc4a88a7e02dd548b8fe916767c6c9776ea31b8002d4f2c17e4c05645a1fe",
        "c2a12f83d134ebac6c119a751f0cdfe8b420dfe2e2954c9fbb9b1523ccb7a8a9",
    ),
    "relu": (
        ["--activation", "relu", "--qstar", "1", "--lr", "0.1", *_SMALL],
        "bb9033035bfabc204cc9d80bfcdba471fa21c61a83fe931d7a785887cd66902c",
        "2418020a64d1b0b800005f7667d5c0813dbb8b8c53c37e35b9c063a4b682896c",
    ),
    # the diverging run of the CI step, which exits 3
    "relu-diverged": (
        ["--activation", "relu", "--qstar", "1", "--lr", "1e6", *_SMALL],
        "9e7f082924681dd60ed636023363d9fe25a47498d3ae7d69c600bb13cf655b33",
        "5fdcb58e747317743c56dfedde3bc880ed20946bfff2103f52157a513e18d4aa",
    ),
    # the train-demo benchmark's shape: depth 30, width 64, batch 32
    "crelu-deep": (
        ["--activation", "crelu", "-s", "0.85", "--qstar", "3", "--vprime", "0.7",
         "--depth", "30", "--width", "64", "--epochs", "5", "--lr", "0.002", "--batch", "32",
         "--seed", "11", "--n-samples", "1000"],
        "6b2d8c4b26ddd81114611a6e3a78622746d90d0be6717d57167781f7b7eab8e6",
        "d8140009f10230fbef893aa06cd63a7afc831615b1a9092ba987e1dc99c242ff",
    ),
}


@pytest.mark.parametrize("case", list(_GOLDEN))
def test_train_output_bytes_are_golden(tmp_path, case):
    """``train``'s JSON report and step log are byte for byte those of the
    plain per-array trainer: any change to the step that moves one bit of
    one loss shows here."""
    flags, report_sha, log_sha = _GOLDEN[case]
    out, log = tmp_path / "report.json", tmp_path / "log.csv"
    rc = cli.main(["train", "--dataset", "synthetic-blobs", *flags,
                   "--out", str(out), "--log-csv", str(log)])
    assert rc == (3 if case == "relu-diverged" else 0)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == report_sha
    assert hashlib.sha256(log.read_bytes()).hexdigest() == log_sha


def test_parameters_and_gradients_share_one_buffer_each():
    """Every (W, b) is a view into the buffer the SGD update runs over,
    the gradients come back in the same layout, and the stacked views of
    the layers between the first and the last are those layers' own."""
    config = small_config(depth=4)
    params = init_params(config)
    x, y = make_blobs(config.seed, 16, config.input_dim, config.n_classes)
    _, grads = loss_and_grads(params, config.init.spec, x, y)
    assert [(w.shape, b.shape) for w, b in params] == [(w.shape, b.shape) for w, b in grads]
    for layers in (params, grads):
        assert layers.flat.size == sum(w.size + b.size for w, b in layers)
        for w, b in layers:
            assert np.shares_memory(w, layers.flat) and np.shares_memory(b, layers.flat)
        layers.flat[:] = 0.0
        layers.hidden_w[...] = 1.0
        layers.hidden_b[...] = 2.0
        assert [(float(w.sum()), float(b.sum())) for w, b in layers] == [
            (0.0, 0.0), (25.0, 10.0), (25.0, 10.0), (0.0, 0.0)]


@pytest.mark.parametrize("kind, s, q0, k", [
    ("crelu", 0.85, 1.0, 1),
    ("cst", 0.7, 1.7, 1),
    ("crelu", 0.9, 3.1, -1),
])
def test_larger_qstar_is_a_logit_scale(kind, s, q0, k):
    """At fixed (s, V') the init at q* = 4^k q0 is the q0 init with every
    length scaled by 2^k, and every layer is positively homogeneous, so
    training there is step for step, bit for bit, training at q0 with the
    logits multiplied by 2^k and the biases at lr / 4^k."""
    config = TrainConfig(init=solve_init(kind, s, q0, 0.7), depth=10, width=64, epochs=3,
                         lr=0.01, batch=32, seed=3, n_samples=400)
    scaled = replace(config, init=solve_init(kind, s, q0 * 4.0 ** k, 0.7))
    losses = [loss for *_, loss in train(scaled).step_log]
    assert len(losses) == 27
    assert losses == sgd_losses_at_logit_scale(config, 2.0 ** k)
