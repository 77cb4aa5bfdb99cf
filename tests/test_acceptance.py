"""Acceptance gate: one test per criterion, each printing a pass line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines
and the head comparison table. The smoke comparison (criterion 7) trains
both heads on the synthetic task and takes a few minutes of CPU time; the
remaining criteria finish in seconds.
"""

import json
import math
import time

import numpy as np
import pytest

from hadaseg.cli import benchmark_fwht, main
from hadaseg.codes import min_pairwise_distance, sylvester
from hadaseg.layer import hadamard_backward, hadamard_forward
from hadaseg.loss import (
    LossWeights,
    cross_entropy,
    cross_entropy_grad,
    discriminator_loss,
    discriminator_loss_grads,
    generator_loss,
    generator_loss_grads,
    mae,
    mae_grad,
)
from hadaseg.metrics import LabelMap, confusion, class_iou, pixel_accuracy
from hadaseg.netkit import GeneratorConfig, build_generator
from hadaseg.netkit import autodiff as ad

from helpers import finite_difference, rel_error

H8_CSV = (
    "1,1,1,1,1,1,1,1\n"
    "1,-1,1,-1,1,-1,1,-1\n"
    "1,1,-1,-1,1,1,-1,-1\n"
    "1,-1,-1,1,1,-1,-1,1\n"
    "1,1,1,1,-1,-1,-1,-1\n"
    "1,-1,1,-1,-1,1,-1,1\n"
    "1,1,-1,-1,-1,-1,1,1\n"
    "1,-1,-1,1,-1,1,1,-1\n"
)

SMOKE_STEPS = 800
SMOKE_ACCURACY_FLOOR = 0.85
SMOKE_BUDGET_SECONDS = 15 * 60


def _pass(number: int, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE C{number}: PASS{suffix}")


def test_c1_codebook_fidelity(capsys):
    start = time.perf_counter()
    assert main(["codebook", "--k", "3"]) == 0
    assert capsys.readouterr().out == H8_CSV
    for k in range(1, 11):
        cb = sylvester(k)
        f = cb.matrix.astype(np.float64)
        assert np.array_equal(f @ f.T, (2**k) * np.eye(2**k))
        assert min_pairwise_distance(cb) == 2 ** (k - 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"codebook checks took {elapsed:.3f}s"
    with capsys.disabled():
        _pass(1, f"{elapsed * 1000:.0f} ms")


def test_c2_fwht_oracle_equivalence_and_speed(capsys):
    from hadaseg.codes import fwht_apply

    for k in range(0, 11):
        cb = sylvester(k)
        dense = cb.matrix.astype(np.float64)
        rng = np.random.default_rng(9000 + k)
        vectors = rng.standard_normal((100, cb.n))
        fast = fwht_apply(cb, vectors)
        assert np.abs(fast - vectors @ dense.T).max() < 1e-9
    bench = benchmark_fwht(12)
    assert bench["max_abs_diff"] < 1e-9
    assert bench["fwht_seconds"] < bench["dense_seconds"], bench
    with capsys.disabled():
        _pass(2, f"k=12 fast/dense time ratio {bench['ratio']:.4f}")


def test_c3_layer_correctness(capsys):
    start = time.perf_counter()
    for k in range(0, 9):
        cb = sylvester(k)
        y_c = cb.matrix.astype(np.float64).reshape(1, cb.n, cb.n)
        act = hadamard_forward(cb, y_c)
        assert np.array_equal(np.argmax(act.output, axis=-1)[0], np.arange(cb.n))

    rng = np.random.default_rng(777)
    checks = 0
    step = 1e-4
    while checks < 50:
        k = int(rng.integers(1, 4))
        cb = sylvester(k)
        y_c = rng.standard_normal((1, 1, cb.n))
        grad = rng.standard_normal((1, 1, cb.n))
        analytic = hadamard_backward(hadamard_forward(cb, y_c), grad)
        numeric = np.zeros_like(y_c)
        for i in range(cb.n):
            plus, minus = y_c.copy(), y_c.copy()
            plus[0, 0, i] += step
            minus[0, 0, i] -= step
            numeric[0, 0, i] = (
                (hadamard_forward(cb, plus).output * grad).sum()
                - (hadamard_forward(cb, minus).output * grad).sum()
            ) / (2 * step)
        assert rel_error(analytic, numeric) < 1e-4
        checks += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"layer checks took {elapsed:.3f}s"
    with capsys.disabled():
        _pass(3, f"{checks} gradient checks in {elapsed:.2f}s")


def test_c4_loss_suite(capsys):
    # Hand-computed single-pixel oracles for all four generator terms plus
    # the discriminator loss.
    assert (LossWeights().lambda1, LossWeights().lambda2, LossWeights().lambda3) == (
        1000.0,
        100.0,
        250.0,
    )

    alpha_fake = np.array([[0.5]])
    y_hat = np.array([[[0.5, 0.5]]])
    y = np.array([[[1.0, 0.0]]])
    y_c_hat = np.zeros((1, 1, 2))
    y_c = np.array([[[1.0, 1.0]]])
    total, terms = generator_loss(alpha_fake, y_hat, y, y_c_hat, y_c, LossWeights())
    assert math.isclose(terms.adversarial, math.log(2), rel_tol=1e-12)
    assert math.isclose(terms.cross_entropy, math.log(2) / 2, rel_tol=1e-12)
    assert terms.mae_probability == 0.5
    assert terms.mae_code == 1.0
    expected_total = math.log(2) + 1000 * math.log(2) / 2 + 100 * 0.5 + 250 * 1.0
    assert math.isclose(total, expected_total, rel_tol=1e-12)
    assert math.isclose(
        discriminator_loss(np.array([[0.9]]), np.array([[0.1]])),
        -2 * math.log(0.9),
        rel_tol=1e-12,
    )

    rng = np.random.default_rng(321)
    z = rng.uniform(0.0, 1.0, (2, 3))
    z_hat = rng.uniform(0.1, 0.9, (2, 3))
    assert (
        rel_error(
            cross_entropy_grad(z_hat, z),
            finite_difference(lambda a: cross_entropy(a, z), z_hat.copy()),
        )
        < 1e-4
    )
    target = rng.standard_normal((2, 3))
    prediction = target + rng.choice([-1.0, 1.0], (2, 3)) * rng.uniform(0.2, 0.9, (2, 3))
    assert (
        rel_error(
            mae_grad(prediction, target),
            finite_difference(lambda a: mae(a, target), prediction.copy()),
        )
        < 1e-4
    )
    a_real = rng.uniform(0.2, 0.8, (2, 2))
    a_fake = rng.uniform(0.2, 0.8, (2, 2))
    g_real, g_fake = discriminator_loss_grads(a_real, a_fake)
    assert (
        rel_error(
            g_real, finite_difference(lambda a: discriminator_loss(a, a_fake), a_real.copy())
        )
        < 1e-4
    )
    assert (
        rel_error(
            g_fake, finite_difference(lambda a: discriminator_loss(a_real, a), a_fake.copy())
        )
        < 1e-4
    )
    w = LossWeights(3.0, 5.0, 7.0)
    y4 = np.eye(4)[rng.integers(0, 4, (2, 2))]
    y_hat4 = rng.uniform(0.1, 0.9, (2, 2, 4))
    y_c4 = rng.choice([-1.0, 1.0], (2, 2, 4))
    y_c_hat4 = y_c4 + rng.choice([-1.0, 1.0], (2, 2, 4)) * rng.uniform(0.2, 0.8, (2, 2, 4))
    alpha4 = rng.uniform(0.2, 0.8, (2, 2))
    g_alpha, g_y_hat, g_y_c_hat = generator_loss_grads(alpha4, y_hat4, y4, y_c_hat4, y_c4, w)
    assert (
        rel_error(
            g_alpha,
            finite_difference(
                lambda a: generator_loss(a, y_hat4, y4, y_c_hat4, y_c4, w)[0], alpha4.copy()
            ),
        )
        < 1e-4
    )
    assert (
        rel_error(
            g_y_hat,
            finite_difference(
                lambda a: generator_loss(alpha4, a, y4, y_c_hat4, y_c4, w)[0], y_hat4.copy()
            ),
        )
        < 1e-4
    )
    assert (
        rel_error(
            g_y_c_hat,
            finite_difference(
                lambda a: generator_loss(alpha4, y_hat4, y4, a, y_c4, w)[0], y_c_hat4.copy()
            ),
        )
        < 1e-4
    )
    with capsys.disabled():
        _pass(4, "scalar oracles, gradients, default weights (1000, 100, 250)")


def test_c5_metrics_oracle(capsys):
    rng = np.random.default_rng(55)
    num_classes = 4
    for _ in range(100):
        pred = rng.integers(0, num_classes, (8, 8))
        truth = rng.integers(0, num_classes, (8, 8))
        cm = confusion(LabelMap(pred), LabelMap(truth), num_classes)

        oracle = np.zeros((num_classes, num_classes), dtype=np.int64)
        for t, p in zip(truth.reshape(-1), pred.reshape(-1)):
            oracle[t, p] += 1
        assert np.array_equal(cm.counts, oracle)

        accuracy_oracle = float((pred == truth).mean())
        assert abs(pixel_accuracy(cm) - accuracy_oracle) < 1e-12

        iou, mean = class_iou(cm)
        evaluated = []
        for c in range(num_classes):
            intersection = int(((pred == c) & (truth == c)).sum())
            union = int(((pred == c) | (truth == c)).sum())
            if union == 0:
                assert np.isnan(iou[c])
            else:
                assert abs(iou[c] - intersection / union) < 1e-12
                evaluated.append(intersection / union)
        assert abs(mean - np.mean(evaluated)) < 1e-12
    with capsys.disabled():
        _pass(5, "100 random map pairs, exact counts and 1e-12 ratios")


def test_c6_end_to_end_gradcheck(capsys):
    rng = np.random.default_rng(4242)
    cfg = GeneratorConfig(depth=1, base_channels=2, code_bits=3, head="hadamard")
    gen = build_generator(cfg, seed=2)
    x = rng.uniform(0, 1, (1, 8, 8, 3))
    projection = rng.standard_normal((1, 8, 8, 8))

    y_hat, _ = gen.forward(x)
    ad.backward([(y_hat, projection)])
    step = 1e-5
    worst = 0.0
    for name, param in gen.parameters.items():
        numeric = np.zeros_like(param.value)
        flat = param.value.reshape(-1)
        numeric_flat = numeric.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            plus = float((gen.forward(x)[0].value * projection).sum())
            flat[i] = original - step
            minus = float((gen.forward(x)[0].value * projection).sum())
            flat[i] = original
            numeric_flat[i] = (plus - minus) / (2 * step)
        error = rel_error(param.grad, numeric)
        worst = max(worst, error)
        assert error < 1e-3, f"{name}: rel error {error}"
    with capsys.disabled():
        _pass(6, f"worst parameter-block rel error {worst:.2e}")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Generate the synthetic task and train/evaluate both heads once."""
    root = tmp_path_factory.mktemp("smoke")
    train_dir = root / "train"
    test_dir = root / "test"
    assert main([
        "gen-data", "--seed", "101", "--count", "200", "--size", "64",
        "--classes", "8", "--out", str(train_dir),
    ]) == 0
    assert main([
        "gen-data", "--seed", "202", "--count", "50", "--size", "64",
        "--classes", "8", "--out", str(test_dir),
    ]) == 0
    config = root / "smoke.cfg"
    config.write_text(
        "seed = 7\n"
        "classes = 8\n"
        "codebook.k = 3\n"
        f"data.dir = {train_dir}\n"
        "generator.depth = 3\n"
        "generator.base_channels = 16\n"
        "discriminator.layers = 3\n"
        "discriminator.base_channels = 16\n"
        f"train.steps = {SMOKE_STEPS}\n"
        "train.batch_size = 4\n"
        "train.log_every = 1\n"
        "train.metrics_every = 100\n"
    )
    results = {}
    for head in ("one_hot", "hadamard"):
        out_dir = root / head
        started = time.perf_counter()
        assert main(["train", "--config", str(config), "--head", head, "--out", str(out_dir)]) == 0
        train_seconds = time.perf_counter() - started
        report_path = root / f"report_{head}.json"
        assert main([
            "eval", "--model", str(out_dir / "checkpoint"), "--data", str(test_dir),
            "--report", str(report_path),
        ]) == 0
        report = json.loads(report_path.read_text())
        results[head] = {
            "train_seconds": train_seconds,
            "pixel_accuracy": report["pixel_accuracy"],
            "mean_iou": report["mean_iou"],
            "out_dir": out_dir,
        }
    comparison = {
        "task": "synthetic shapes, K=8, k=3, 200 train / 50 test at 64x64",
        "steps": SMOKE_STEPS,
        "seed": 7,
        "heads": {
            head: {
                "pixel_accuracy": results[head]["pixel_accuracy"],
                "mean_iou": results[head]["mean_iou"],
            }
            for head in results
        },
    }
    (root / "comparison.json").write_text(json.dumps(comparison, indent=2) + "\n")
    return {"results": results, "root": root, "train_dir": train_dir}


@pytest.mark.slow
def test_c7_smoke_comparison(smoke, capsys):
    results = smoke["results"]
    for head, result in results.items():
        assert result["train_seconds"] < SMOKE_BUDGET_SECONDS, (
            f"{head} took {result['train_seconds']:.0f}s"
        )
        assert result["pixel_accuracy"] >= SMOKE_ACCURACY_FLOOR, (
            f"{head} accuracy {result['pixel_accuracy']:.4f}"
        )
    gap = results["hadamard"]["pixel_accuracy"] - results["one_hot"]["pixel_accuracy"]
    direction = "hadamard" if gap > 0 else "one_hot" if gap < 0 else "neither"
    with capsys.disabled():
        print()
        print(f"  head comparison (same seed, {SMOKE_STEPS} steps, 50 test images):")
        print("  head      pixel_acc  mean_iou   train_s")
        for head in ("one_hot", "hadamard"):
            r = results[head]
            print(
                f"  {head:<9} {r['pixel_accuracy']:.4f}     {r['mean_iou']:.4f}"
                f"     {r['train_seconds']:.0f}"
            )
        print(f"  accuracy gap direction: {direction} leads by {abs(gap):.4f} (reported, not asserted)")
        _pass(7, f"both heads >= {SMOKE_ACCURACY_FLOOR} pixel accuracy")


@pytest.mark.slow
def test_smoke_predict_on_training_image(smoke, tmp_path):
    # CLI pipeline check on the trained model: predicting a training image
    # recovers its own label map well above the smoke accuracy floor.
    from hadaseg.data import read_label_map

    checkpoint = smoke["results"]["hadamard"]["out_dir"] / "checkpoint"
    image = smoke["train_dir"] / "000000.img"
    truth = read_label_map(smoke["train_dir"] / "000000.segl")
    out_segl = tmp_path / "pred.segl"
    assert main([
        "predict", "--model", str(checkpoint), "--image", str(image),
        "--out", str(out_segl),
    ]) == 0
    predicted = read_label_map(out_segl)
    accuracy = float((predicted.labels == truth.labels).mean())
    assert accuracy >= SMOKE_ACCURACY_FLOOR

    out_pgm = tmp_path / "pred.pgm"
    assert main([
        "render", "--segl", str(out_segl), "--out", str(out_pgm), "--classes", "8",
    ]) == 0
    assert out_pgm.read_bytes().startswith(b"P5\n64 64\n255\n")


def test_c8_parameter_count_invariance(capsys):
    for depth, base, k in ((1, 4, 2), (2, 8, 3), (3, 16, 3)):
        counts = {}
        for head in ("one_hot", "hadamard"):
            cfg = GeneratorConfig(depth=depth, base_channels=base, code_bits=k, head=head)
            counts[head] = build_generator(cfg, seed=0).parameter_count()
        assert counts["one_hot"] == counts["hadamard"]
    with capsys.disabled():
        _pass(8, "head swap changes 0 trainable parameters")


def test_c9_determinism(tmp_path, capsys):
    data_args = ["gen-data", "--seed", "31", "--count", "10", "--size", "32", "--classes", "6"]
    dir_a, dir_b = tmp_path / "data_a", tmp_path / "data_b"
    assert main(data_args + ["--out", str(dir_a)]) == 0
    assert main(data_args + ["--out", str(dir_b)]) == 0
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name

    config = tmp_path / "tiny.cfg"
    config.write_text(
        "seed = 13\n"
        "classes = 6\n"
        "codebook.k = 3\n"
        f"data.dir = {dir_a}\n"
        "generator.depth = 2\n"
        "generator.base_channels = 4\n"
        "discriminator.layers = 2\n"
        "discriminator.base_channels = 4\n"
        "train.steps = 6\n"
        "train.batch_size = 2\n"
        "train.metrics_every = 3\n"
    )
    for run in ("run_a", "run_b"):
        assert main([
            "train", "--config", str(config), "--head", "hadamard",
            "--out", str(tmp_path / run),
        ]) == 0
    for name in ("history.csv", "metrics.csv"):
        assert (tmp_path / "run_a" / name).read_bytes() == (
            tmp_path / "run_b" / name
        ).read_bytes(), name
    assert (tmp_path / "run_a" / "checkpoint" / "tensors.bin").read_bytes() == (
        tmp_path / "run_b" / "checkpoint" / "tensors.bin"
    ).read_bytes()
    with capsys.disabled():
        _pass(9, "gen-data and train reruns byte-identical")
