"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[criterion N] PASS ...` line (visible with -s or in
the failure report). Run the whole gate with:

    pytest tests/test_acceptance.py -v
"""

import math
import time

import numpy as np
import pytest
import scipy.optimize

from hhattrib import evaluate, factorize, generative, logistic, temporal
from hhattrib.cli import main
from hhattrib.corpus import SynthConfig, cv_split, synth_generate

from conftest import event
from test_factorize import naive_cost


def _random_events(rng, m, n, per_user):
    events, pairs = [], set()
    for user in range(m):
        for _ in range(per_user):
            movie = int(rng.integers(n))
            if (user, movie) in pairs:
                continue
            pairs.add((user, movie))
            events.append(event(user, movie, rating=float(rng.uniform(2, 98)),
                                day=int(rng.integers(7)),
                                week=int(rng.integers(26))))
    return events


def test_criterion_01_solver_correctness():
    """ridge and smoothed solves vs an independent least-squares oracle."""
    rng = np.random.default_rng(100)
    start = time.monotonic()
    for trial in range(100):
        r = int(rng.integers(1, 6))
        k = int(rng.integers(1, 21))
        A = rng.normal(size=(r, k))
        x = rng.normal(size=k)
        y = rng.normal(size=r)
        alpha = float(rng.uniform(0.05, 5.0))
        beta = float(rng.uniform(0.0, 3.0))
        design = np.vstack([A.T, np.sqrt(alpha) * np.eye(r)])
        plain = np.linalg.lstsq(design, np.concatenate([x, np.zeros(r)]),
                                rcond=None)[0]
        pulled = np.linalg.lstsq(
            design, np.concatenate([x, (beta / np.sqrt(alpha)) * y]),
            rcond=None)[0]
        np.testing.assert_allclose(factorize.ridge_solve(A, x, alpha), plain,
                                   atol=1e-6)
        np.testing.assert_allclose(
            factorize.smoothed_ridge_solve(A, x, y, alpha, beta), pulled,
            atol=1e-6)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"[criterion 1] PASS solver oracle x100 within 1e-6 in {elapsed:.2f}s")


def test_criterion_02_als_monotone_and_cost_oracle():
    rng = np.random.default_rng(200)
    for trial in range(20):
        m = int(rng.integers(6, 41))
        n = int(rng.integers(6, 41))
        events = _random_events(rng, m, n, per_user=int(rng.integers(4, 9)))
        params = factorize.FactorParams(
            rank=int(rng.integers(1, 5)), bin_count=int(rng.integers(1, 5)),
            iterations=2, seed=trial,
            xi_u=float(rng.uniform(0, 8)), xi_v=float(rng.uniform(0, 8)),
            xi_z=float(rng.uniform(0, 8)),
        )
        seen = []
        model = factorize.fit_lowrank_temporal(
            events, params, m, n,
            block_hook=lambda tag, b, mod: seen.append(factorize.cost(mod, events)))
        diffs = np.diff(seen)
        assert np.all(diffs <= 1e-9 * np.maximum(1.0, np.abs(seen[:-1])))
        fast = factorize.cost(model, events)
        assert fast == pytest.approx(naive_cost(model, events), rel=1e-9)
    print("[criterion 2] PASS cost non-increasing over every block update, "
          "naive-oracle match at 1e-9, 20 instances")


def test_criterion_03_t1_reduction_exact():
    rng = np.random.default_rng(300)
    events = _random_events(rng, 12, 10, per_user=6)
    for seed in range(5):
        params = factorize.FactorParams(rank=3, bin_count=1, iterations=5,
                                        seed=seed)
        flat = factorize.fit_lowrank(events, params, 12, 10)
        temporal_fit = factorize.fit_lowrank_temporal(events, params, 12, 10)
        assert np.array_equal(flat.user_factors, temporal_fit.user_factors)
        assert np.array_equal(flat.movie_factors, temporal_fit.movie_factors)
        assert np.array_equal(flat.user_bias, temporal_fit.user_bias)
    print("[criterion 3] PASS bin_count=1 temporal fit equals the flat fit "
          "exactly for 5 seeds")


def test_criterion_04_large_xi_flattens():
    rng = np.random.default_rng(400)
    events = _random_events(rng, 14, 12, per_user=7)
    params = factorize.FactorParams(rank=3, xi_u=1e6, xi_v=1e6, xi_z=1e6,
                                    bin_count=6, iterations=50, seed=1)
    model = factorize.fit_lowrank_temporal(events, params, 14, 12)
    U = model.user_factors
    worst = max(np.linalg.norm(U[b + 1] - U[b]) for b in range(5))
    ratio = worst / np.linalg.norm(U[0])
    assert ratio < 1e-3
    print(f"[criterion 4] PASS xi=1e6 flattens bins: diff ratio {ratio:.2e} < 1e-3")


def test_criterion_05_infinite_sigma_reduction():
    config = SynthConfig(households_size2=8, households_size3=2,
                         households_size4=1, events_per_user=50,
                         overlap=0.15, rank=2, noise_sigma=8.0, seed=50)
    dataset = synth_generate(config)
    params = factorize.FactorParams(rank=2, bin_count=4, iterations=4, seed=5)
    model = factorize.fit_lowrank_temporal(dataset.train, params,
                                           dataset.user_count,
                                           dataset.movie_count)
    sigma = generative.SigmaModel("infinite", math.inf, {})
    checked = 0
    for epsilon in (0.0, 0.5):
        priors = temporal.fit_priors(dataset.train, dataset.households,
                                     model.binning, epsilon)
        for mode in ("uniform", "bin", "day"):
            gen, prior = (evaluate.classify_events(evaluate.FittedPipeline(
                evaluate.PipelineConfig(f"{family}-{mode}", epsilon=epsilon),
                dataset.households, model.binning, model, priors, sigma),
                dataset.test)[0] for family in ("gen", "prior"))
            assert gen == prior
            checked += len(gen)
    print(f"[criterion 5] PASS sigma=inf decisions equal prior decisions on "
          f"{checked} event/mode/epsilon combinations")


def test_criterion_06_tv_extremes():
    disjoint = synth_generate(SynthConfig(
        households_size2=10, households_size3=2, households_size4=1,
        events_per_user=50, overlap=0.0, rank=2, noise_sigma=8.0, seed=60))
    for household in disjoint.households.values():
        assert temporal.household_tv(disjoint.train, household) == 1.0
    shared = synth_generate(SynthConfig(
        households_size2=10, households_size3=2, households_size4=1,
        events_per_user=300, overlap=1.0, rank=2, noise_sigma=8.0, seed=61))
    worst = max(temporal.household_tv(shared.train, hh)
                for hh in shared.households.values())
    assert worst < 0.15
    print(f"[criterion 6] PASS overlap=0 gives tv separation exactly 1 "
          f"everywhere; overlap=1 max {worst:.3f} < 0.15")


def test_criterion_07_random_baseline():
    value = evaluate.random_baseline({2: 272, 3: 14, 4: 4})
    assert value == pytest.approx(0.5115, abs=5e-4)
    dataset = synth_generate(SynthConfig(
        households_size2=272, households_size3=14, households_size4=4,
        events_per_user=10, overlap=0.5, rank=2, noise_sigma=8.0, seed=70))
    means = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        predictions = [
            rng.choice(dataset.households[ev.household].members)
            for ev in dataset.test
        ]
        report = evaluate.build_report(dataset.test, predictions,
                                       dataset.households)
        means.append(report.aggregate.overall)
    observed = float(np.mean(means))
    assert abs(observed - value) < 0.02
    print(f"[criterion 7] PASS baseline formula {value:.4f}; Monte Carlo "
          f"random classifier mean {observed:.4f} within 0.02")


def test_criterion_08_planted_separation_ordering():
    start = time.monotonic()
    dataset = synth_generate(SynthConfig(
        households_size2=44, households_size3=4, households_size4=2,
        events_per_user=200, overlap=0.1, rank=3, noise_sigma=10.0, seed=20))
    seeds = (101, 102, 103, 104, 105)
    binned = factorize.FactorParams(rank=4, bin_count=12, iterations=10, seed=7)
    flat = factorize.FactorParams(rank=4, bin_count=1, iterations=12, seed=7)
    features = logistic.FeatureConfig(rating=False, lambda1=0.1)
    plan = (
        ("prior-uniform", binned), ("prior-bin", binned), ("prior-day", binned),
        ("gen-day", flat), ("unified", flat),
    )
    means = {}
    for name, params in plan:
        pipeline = evaluate.PipelineConfig(
            classifier=name, factor_params=params, features=features,
            sigma_scope="per_user")
        result = evaluate.run_cv(dataset, pipeline, seeds, fraction=0.04)
        means[name] = result.metrics["P"].mean
    elapsed = time.monotonic() - start
    assert means["prior-day"] <= 0.10
    chain = ("unified", "gen-day", "prior-day", "prior-bin", "prior-uniform")
    for better, worse in zip(chain, chain[1:]):
        assert means[better] <= means[worse] + 0.01, (better, worse, means)
    assert elapsed < 180.0
    ordered = " <= ".join(f"{name}:{means[name]:.4f}" for name in chain)
    print(f"[criterion 8] PASS {ordered} (slack 0.01) in {elapsed:.0f}s")


def test_criterion_09_l1_logistic():
    rng = np.random.default_rng(900)
    for _ in range(50):
        n = int(rng.integers(15, 70))
        p = int(rng.integers(2, 8))
        rows = rng.normal(size=(n, p))
        truth = rng.normal(size=p)
        labels = (rng.random(n) < 1 / (1 + np.exp(-rows @ truth))).astype(float)
        lam = float(rng.uniform(0.05, 1.0))
        theta = logistic.fit_logistic(rows, labels, lam)
        assert logistic.kkt_residual(theta, rows, labels, lam) <= 1e-6
    for _ in range(8):
        n = int(rng.integers(10, 30))
        p = int(rng.integers(1, 4))
        rows = rng.normal(size=(n, p))
        labels = (rng.random(n) < 0.5).astype(float)
        lam = float(rng.uniform(0.02, 0.5))
        theta = logistic.fit_logistic(rows, labels, lam)
        ours = logistic.logistic_objective(theta, rows, labels, lam)
        best = math.inf
        for start_point in (np.zeros(p), np.full(p, 0.7), -np.full(p, 0.7)):
            res = scipy.optimize.minimize(
                logistic.logistic_objective, start_point,
                args=(rows, labels, lam), method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-12,
                         "maxiter": 60_000, "maxfev": 60_000})
            best = min(best, res.fun)
        assert abs(ours - best) <= 1e-6 and ours <= best + 1e-6
    rows = rng.normal(size=(40, 5))
    labels = (rng.random(40) < 0.5).astype(float)
    assert np.all(logistic.fit_logistic(rows, labels, 1e6) == 0.0)
    print("[criterion 9] PASS KKT<=1e-6 on 50 instances, derivative-free "
          "objective oracle within 1e-6, huge lambda returns exact zero")


def test_criterion_10_auc_pair_counting():
    rng = np.random.default_rng(1000)
    for _ in range(200):
        size = int(rng.integers(2, 51))
        scores = rng.random(size)
        if rng.random() < 0.3:  # force ties sometimes
            scores = np.round(scores, 1)
        flags = rng.random(size) < rng.uniform(0.2, 0.8)
        positives = [s for s, f in zip(scores, flags) if f]
        negatives = [s for s, f in zip(scores, flags) if not f]
        expected = None
        if positives and negatives:
            inversions = sum(sn > sp for sn in negatives for sp in positives)
            expected = 1.0 - inversions / (len(positives) * len(negatives))
        assert evaluate.auc_from_scores(scores, flags) == expected
    assert evaluate.auc_from_scores([0.9, 0.7, 0.2], [True, True, False]) == 1.0
    assert evaluate.auc_from_scores([0.2, 0.7, 0.9], [True, True, False]) == 0.0
    print("[criterion 10] PASS auc equals brute-force pair counting on 200 "
          "instances; perfect=1, inverted=0")


def test_criterion_11_roc_sweep_monotone():
    dataset = synth_generate(SynthConfig(
        households_size2=12, households_size3=2, households_size4=1,
        events_per_user=80, overlap=0.1, rank=2, noise_sigma=8.0, seed=110))
    params = factorize.FactorParams(rank=3, bin_count=4, iterations=8, seed=2)
    model = factorize.fit_lowrank_temporal(dataset.train, params,
                                           dataset.user_count,
                                           dataset.movie_count)
    alphas = [0.0] + list(np.geomspace(1e-3, 1e5, 49))
    points = evaluate.roc_sweep(model, dataset.households, dataset.test, alphas)
    assert len(points) == 50
    assert points[0].tpr_first == 1.0 and points[0].tpr_rest == 0.0
    assert points[-1].tpr_first <= 0.02 and points[-1].tpr_rest >= 0.98
    firsts = [p.tpr_first for p in points]
    rests = [p.tpr_rest for p in points]
    assert all(a >= b - 1e-12 for a, b in zip(firsts, firsts[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(rests, rests[1:]))
    print(f"[criterion 11] PASS 50-point alpha sweep monotone, endpoints "
          f"(1,0) -> ({points[-1].tpr_first:.3f},{points[-1].tpr_rest:.3f})")


def test_criterion_12_pipeline_determinism(tmp_path):
    config = tmp_path / "synth.cfg"
    config.write_text("households_size2 = 6\nhouseholds_size3 = 1\n"
                      "events_per_user = 40\nseed = 12\n")

    def run(tag):
        base = tmp_path / tag
        data = base / "data"
        model = base / "model.txt"
        preds = base / "preds.tsv"
        post = base / "post.tsv"
        report = base / "report.tsv"
        assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
        assert main(["fit", "--train", str(data / "train.tsv"), "--out",
                     str(model), "--rank", "2", "--bins", "4",
                     "--iterations", "5"]) == 0
        assert main(["classify", "--train", str(data / "train.tsv"),
                     "--households", str(data / "households.tsv"),
                     "--test", str(data / "test.tsv"),
                     "--classifier", "gen-day", "--model", str(model),
                     "--out", str(preds), "--dump-posteriors", str(post)]) == 0
        assert main(["evaluate", "--households", str(data / "households.tsv"),
                     "--test", str(data / "test.tsv"),
                     "--predictions", str(preds), "--out", str(report)]) == 0
        return [data / "train.tsv", data / "households.tsv", data / "test.tsv",
                model, preds, post, report]

    first = run("a")
    second = run("b")
    for left, right in zip(first, second):
        assert left.read_bytes() == right.read_bytes(), left.name
    print("[criterion 12] PASS synth -> fit -> classify -> evaluate twice: "
          "all 7 artifacts byte-identical")
