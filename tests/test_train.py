import dataclasses

import numpy as np
import pytest

from tomfn import model as M
from tomfn import train as T
from tomfn.errors import DataError, ShapeError

from golden_docs import TINY


def small_config(seed=0):
    return M.ModelConfig(
        visual_dims=[8, 4],
        audio_dims=[6, 4],
        text=M.TextConfig(d_model=10, heads=2, d_head=5, d_out=4, seq_len=2),
        fusion=M.FusionConfig(rank=2, d_h=4),
        heads=4,
        tt=M.TTConfig(visual=False, audio=False, text=False),
        seed=seed,
    )


def small_synth(n=40, **kw):
    spec = T.SynthSpec(n_samples=n, seq_len=2, **kw)
    return T.gen_synthetic(spec, small_config())


# --- synthetic data -------------------------------------------------------------


def test_round_robin_labels():
    ds = small_synth(n=100)
    assert len(ds) == 100
    counts = ds.labels.sum(axis=0)
    assert np.array_equal(counts, [25, 25, 25, 25])
    assert np.all(ds.labels.sum(axis=1) == 1)


def test_deterministic_under_seed():
    a = small_synth(n=20, seed=3)
    b = small_synth(n=20, seed=3)
    assert np.array_equal(a.visual, b.visual)
    assert np.array_equal(a.text, b.text)
    c = small_synth(n=20, seed=4)
    assert not np.array_equal(a.visual, c.visual)


def test_linear_probe_perfect_without_noise_or_interaction():
    ds = small_synth(n=40, noise_std=0.0, interaction_strength=0.0)
    # Least-squares linear probe on the visual modality alone.
    x = np.hstack([ds.visual, np.ones((len(ds), 1))])
    w, *_ = np.linalg.lstsq(x, ds.labels.astype(float), rcond=None)
    pred = np.argmax(x @ w, axis=1)
    truth = np.argmax(ds.labels, axis=1)
    assert np.mean(pred == truth) == 1.0


def test_interaction_only_hides_class_from_single_modality():
    ds = small_synth(n=200, noise_std=0.0, template_scale=0.0, seed=5)
    truth = np.argmax(ds.labels, axis=1)
    for x in (ds.visual, ds.audio, ds.text[:, 0, :]):
        xb = np.hstack([x, np.ones((len(ds), 1))])
        w, *_ = np.linalg.lstsq(xb, ds.labels.astype(float), rcond=None)
        acc = np.mean(np.argmax(xb @ w, axis=1) == truth)
        assert acc < 0.5  # chance is 0.25 over 4 classes


def test_spec_validation():
    with pytest.raises(DataError):
        T.SynthSpec(n_samples=2)
    with pytest.raises(DataError):
        T.SynthSpec(n_samples=8, noise_std=-1.0)


# --- JSONL roundtrip -------------------------------------------------------------


def test_jsonl_roundtrip(tmp_path):
    ds = small_synth(n=8)
    path = str(tmp_path / "data.jsonl")
    T.save_jsonl(ds, path)
    back = T.load_jsonl(path)
    assert np.allclose(back.visual, ds.visual, atol=0)
    assert np.allclose(back.text, ds.text, atol=0)
    assert np.array_equal(back.labels, ds.labels)


@pytest.mark.parametrize("kind", ["missing_directory", "a_directory"])
def test_save_jsonl_refuses_an_unwritable_path(tmp_path, kind):
    target = tmp_path / "out"
    if kind == "a_directory":
        target.mkdir()
    else:
        target = target / "data.jsonl"
    before = sorted(tmp_path.iterdir())
    with pytest.raises(DataError, match=f"cannot write {target}: "):
        T.save_jsonl(small_synth(n=4), str(target))
    assert sorted(tmp_path.iterdir()) == before  # neither a partial file nor a temp file
    assert kind == "missing_directory" or list(target.iterdir()) == []


def test_jsonl_missing_file():
    with pytest.raises(DataError):
        T.load_jsonl("/nonexistent/data.jsonl")


def test_jsonl_bad_record(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"visual": [1]}\n')
    with pytest.raises(DataError):
        T.load_jsonl(str(path))


# --- training ---------------------------------------------------------------------


def test_zero_lr_is_identity():
    m = M.build(small_config())
    before = {k: w.copy() for k, w in m.leaves()}
    ds = small_synth(n=8)
    T.train_model(m, ds, T.TrainOpts(epochs=2, lr=0.0))
    for k, w in m.leaves():
        assert np.array_equal(before[k], w)


def test_unshuffled_batches_are_views_of_the_dataset(monkeypatch):
    # In order, batch k is a slice, so a step reads views of the dataset and
    # holds no copy of it; shuffled batches are gathered copies.  Both train
    # to the bits that gathered copies give.
    ds = small_synth(n=10)
    real = M.loss_and_grad
    for shuffle in (False, True):
        shared = []

        def viewing(model, *arrays):
            shared.append([np.shares_memory(x, d)
                           for x, d in zip(arrays, (ds.visual, ds.audio, ds.text, ds.labels))])
            return real(model, *arrays)

        def copying(model, *arrays):
            return real(model, *(np.array(x, copy=True) for x in arrays))

        runs = []
        for step in (viewing, copying):
            monkeypatch.setattr(M, "loss_and_grad", step)
            m = M.build(small_config(seed=3))
            _, history = T.train_model(m, ds, T.TrainOpts(epochs=2, batch_size=4, shuffle=shuffle))
            runs.append((np.array(history), dict(m.leaves())))
        assert shared == [[not shuffle] * 4] * 6, shuffle  # 3 batches in each of 2 epochs
        (history, weights), (copied_history, copied) = runs
        assert np.array_equal(history.view(np.uint64), copied_history.view(np.uint64))
        for key, w in weights.items():
            assert np.array_equal(w.view(np.uint64), copied[key].view(np.uint64)), key


def adam_oracle(w, m, v, g, t, lr):
    """The textbook Adam step, out of place: returns the new (w, m, v)."""
    m = m + (1 - T.BETA1) * (g - m)
    v = v + (1 - T.BETA2) * (g * g - v)
    m_hat = m / (1 - T.BETA1**t)
    v_hat = v / (1 - T.BETA2**t)
    return w - lr * m_hat / (np.sqrt(v_hat) + T.EPS), m, v


@pytest.mark.parametrize("shared", [False, True], ids=["own_grads", "shared_grad"])
def test_adam_step_matches_textbook_oracle(shared):
    rng = np.random.default_rng(7)
    shapes = {"a": (3, 4), "b": (3, 4), "c": (5,), "d": (2, 3, 2)}
    weights = {k: rng.normal(size=s) for k, s in shapes.items()}
    expect = {k: (w.copy(), np.zeros_like(w), np.zeros_like(w)) for k, w in weights.items()}
    opt = T.Adam(T.TrainOpts(lr=0.05))
    for t in range(1, 5):
        grads = {k: rng.normal(scale=10.0 ** (t - 2), size=s) for k, s in shapes.items()}
        if shared:  # as add's VJP hands one array to both parents
            grads["b"] = grads["a"]
        before = {k: g.copy() for k, g in grads.items()}
        opt.step(list(weights.items()), grads)
        for k, w in weights.items():
            expect[k] = adam_oracle(*expect[k], before[k], t, 0.05)
            assert np.array_equal(grads[k], before[k])
            assert np.array_equal(w, expect[k][0])
            assert np.array_equal(opt.m[k], expect[k][1])
            assert np.array_equal(opt.v[k], expect[k][2])


def test_loss_decreases_on_separable_data():
    m = M.build(small_config(seed=1))
    ds = small_synth(n=40, seed=1)
    _, history = T.train_model(m, ds, T.TrainOpts(epochs=60, seed=1))
    assert history[-1] < 0.5 * history[0]


def test_single_sample_overfits():
    m = M.build(small_config(seed=2))
    ds = small_synth(n=4, seed=2).subset([0])
    _, history = T.train_model(m, ds, T.TrainOpts(epochs=500, batch_size=1, seed=2))
    assert history[-1] < 1e-2


def test_training_deterministic():
    histories = []
    for _ in range(2):
        m = M.build(small_config(seed=3))
        ds = small_synth(n=16, seed=3)
        _, history = T.train_model(m, ds, T.TrainOpts(epochs=3, seed=3))
        histories.append(history)
    assert histories[0] == histories[1]


def test_empty_dataset_rejected():
    m = M.build(small_config())
    ds = small_synth(n=8).subset([])
    with pytest.raises(DataError):
        T.train_model(m, ds, T.TrainOpts())


# --- evaluation -------------------------------------------------------------------


def test_f1_formula():
    assert T.f1_score(2, 1, 1) == pytest.approx(2 / 3)
    assert T.f1_score(0, 0, 0) == 0.0
    assert T.f1_score(0, 0, 5) == 0.0  # all-negative predictions, positives present
    assert T.f1_score(3, 0, 0) == 1.0


def test_evaluate_perfect_predictions():
    m = M.build(small_config(seed=4))
    ds = small_synth(n=16, seed=4)
    # Overfit hard so train predictions become perfect.
    T.train_model(m, ds, T.TrainOpts(epochs=300, seed=4, target_accuracy=1.0))
    report = T.evaluate(m, ds)
    assert report["accuracy"] == 1.0
    assert set(report["f1"]) == {"happy", "sad", "angry", "neutral"}
    for value in report["f1"].values():
        assert value == 1.0


def test_evaluate_permutation_invariant():
    m = M.build(small_config(seed=5))
    ds = small_synth(n=12, seed=5)
    base = T.evaluate(m, ds)
    rng = np.random.default_rng(0)
    shuffled = ds.subset(rng.permutation(len(ds)))
    assert T.evaluate(m, shuffled) == base


def test_f1_in_unit_interval():
    m = M.build(small_config(seed=6))
    ds = small_synth(n=12, seed=6)
    report = T.evaluate(m, ds)
    for v in report["f1"].values():
        assert 0.0 <= v <= 1.0
    assert 0.0 <= report["accuracy"] <= 1.0
    # Heads past the four emotions are named by index.
    six = dataclasses.replace(small_config(seed=6), heads=6)
    report = T.evaluate(M.build(six), T.gen_synthetic(T.SynthSpec(n_samples=12, seq_len=2), six))
    assert list(report["f1"]) == [*M.EMOTIONS, "head4", "head5"]
    assert all(0.0 <= v <= 1.0 for v in report["f1"].values())


def test_evaluate_refuses_labels_that_are_not_one_per_head():
    config = M.ModelConfig.from_dict(TINY)
    ds = T.gen_synthetic(T.SynthSpec(n_samples=8, seq_len=config.text.seq_len), config)
    with pytest.raises(ShapeError, match="label"):
        T.evaluate(M.build(config), dataclasses.replace(ds, labels=ds.labels[:, :1]))
