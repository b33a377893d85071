import logging
from pathlib import Path

import numpy as np
import pytest

from hhattrib import evaluate, factorize, logistic
from hhattrib.cli import main
from hhattrib.corpus import load_dataset

SYNTH_CFG = """\
households_size2 = 5
households_size3 = 1
households_size4 = 1
events_per_user = 40
overlap = 0.1
rank = 2
noise_sigma = 8.0
seed = 6
"""


@pytest.fixture
def workspace(tmp_path):
    config = tmp_path / "synth.cfg"
    config.write_text(SYNTH_CFG)
    data = tmp_path / "data"
    assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
    return tmp_path


def data_args(workspace):
    data = workspace / "data"
    return ["--train", str(data / "train.tsv"),
            "--households", str(data / "households.tsv"),
            "--test", str(data / "test.tsv")]


def fit_model(workspace, bins=4, extra=()):
    model = workspace / "model.txt"
    code = main(["fit", "--train", str(workspace / "data" / "train.tsv"),
                 "--out", str(model), "--rank", "2", "--bins", str(bins),
                 "--iterations", "4", *extra])
    assert code == 0
    return model


def test_synth_writes_three_files(workspace):
    data = workspace / "data"
    for name in ("train.tsv", "households.tsv", "test.tsv"):
        assert (data / name).is_file()
        assert (data / name).read_text().strip()


def test_synth_missing_config(tmp_path):
    assert main(["synth", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "d")]) == 2


def test_synth_same_seed_identical(workspace, tmp_path):
    config = workspace / "synth.cfg"
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "b")]) == 0
    for name in ("train.tsv", "households.tsv", "test.tsv"):
        assert (workspace / "data" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_fit_prints_cost_per_iteration(workspace, capsys):
    model = fit_model(workspace)
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("iteration ")]
    assert len(lines) == 4
    costs = [float(ln.split()[-1]) for ln in lines]
    assert costs == sorted(costs, reverse=True)
    assert model.is_file()


def test_fit_zero_iterations_is_usage_error(workspace):
    code = main(["fit", "--train", str(workspace / "data" / "train.tsv"),
                 "--out", str(workspace / "m.txt"), "--iterations", "0"])
    assert code == 2


def test_fit_rerun_identical(workspace, tmp_path):
    a = fit_model(workspace)
    b = tmp_path / "model_b.txt"
    main(["fit", "--train", str(workspace / "data" / "train.tsv"),
          "--out", str(b), "--rank", "2", "--bins", "4", "--iterations", "4"])
    assert a.read_bytes() == b.read_bytes()


def test_unknown_subcommand_exits_2():
    assert main(["transmogrify"]) == 2


@pytest.mark.parametrize("classifier", ["prior-uniform", "prior-bin", "prior-day"])
def test_classify_prior_families(workspace, classifier):
    out = workspace / f"{classifier}.tsv"
    code = main(["classify", *data_args(workspace), "--classifier", classifier,
                 "--bins", "4", "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()
    test_lines = (workspace / "data" / "test.tsv").read_text().splitlines()
    assert len(rows) - 1 == len(test_lines)


def test_classify_residual_alpha_grid(workspace):
    model = fit_model(workspace)
    out = workspace / "preds.tsv"
    code = main(["classify", *data_args(workspace), "--classifier", "residual",
                 "--model", str(model), "--alpha-grid", "0.5,1,2",
                 "--out", str(out)])
    assert code == 0
    produced = sorted(p.name for p in workspace.glob("preds.alpha*.tsv"))
    assert produced == ["preds.alpha0.tsv", "preds.alpha1.tsv", "preds.alpha2.tsv"]


def test_classify_residual_requires_model(workspace):
    code = main(["classify", *data_args(workspace), "--classifier", "residual",
                 "--out", str(workspace / "p.tsv")])
    assert code == 2


def test_classify_unified_without_model_errors(workspace):
    code = main(["classify", *data_args(workspace), "--classifier", "unified",
                 "--features", "abc", "--out", str(workspace / "p.tsv")])
    assert code == 2


def test_classify_unified_without_movie_feature(workspace):
    out = workspace / "unified.tsv"
    code = main(["classify", *data_args(workspace), "--classifier", "unified",
                 "--features", "ab", "--lambda1", "0.2", "--bins", "4",
                 "--out", str(out), "--dump-logit", str(workspace / "logit.txt")])
    assert code == 0
    assert out.is_file() and (workspace / "logit.txt").is_file()


@pytest.mark.parametrize("classifier", ["gen-day", "residual"])
def test_classify_movie_unknown_to_model(workspace, classifier, caplog):
    model = fit_model(workspace)
    test = workspace / "data" / "test.tsv"
    fields = test.read_text().splitlines()[0].split("\t")
    fields[1] = str(factorize.load_model(model).movie_count + 5)
    test.write_text(test.read_text() + "\t".join(fields) + "\n")
    out = workspace / "unknown.tsv"
    with caplog.at_level(logging.DEBUG, logger="hhattrib.factorize"):
        code = main(["classify", *data_args(workspace), "--classifier", classifier,
                     "--model", str(model), "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == len(test.read_text().splitlines()) + 1
    records = [r for r in caplog.records if "unknown to the factor model" in r.getMessage()]
    assert len(records) == 1


def test_classify_gen_day_with_posterior_dump(workspace):
    model = fit_model(workspace)
    out = workspace / "gen.tsv"
    post = workspace / "posteriors.tsv"
    code = main(["classify", *data_args(workspace), "--classifier", "gen-day",
                 "--model", str(model), "--out", str(out),
                 "--dump-posteriors", str(post)])
    assert code == 0
    lines = post.read_text().splitlines()
    assert lines[0] == "household\tmovie\ttimestamp\tmember\tposterior"
    assert len(lines) > 1


def test_evaluate_predictions_report(workspace, capsys):
    out = workspace / "preds.tsv"
    main(["classify", *data_args(workspace), "--classifier", "prior-day",
          "--bins", "4", "--out", str(out)])
    report = workspace / "report.tsv"
    code = main(["evaluate", "--households",
                 str(workspace / "data" / "households.tsv"),
                 "--test", str(workspace / "data" / "test.tsv"),
                 "--predictions", str(out), "--out", str(report),
                 "--annotate", "reference_P=0.0406"])
    assert code == 0
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert summary.startswith("P=")
    text = report.read_text()
    assert "# per-household" in text and "reference_P\t0.0406" in text


def test_evaluate_cv_mode(workspace, capsys):
    data = workspace / "data"
    code = main(["evaluate", "--cv", "--train", str(data / "train.tsv"),
                 "--households", str(data / "households.tsv"),
                 "--classifier", "prior-day", "--bins", "4",
                 "--seeds", "1,2,3", "--fraction", "0.08",
                 "--out", str(workspace / "cv.tsv")])
    assert code == 0
    text = capsys.readouterr().out
    assert "P = " in text and "+/-" in text
    assert (workspace / "cv.tsv").read_text() == text.rstrip("\n") + "\n" \
        or (workspace / "cv.tsv").read_text() in text


def test_evaluate_export_histograms(workspace):
    model = fit_model(workspace)
    out_dir = workspace / "hist"
    code = main(["evaluate", "--export-histograms",
                 "--train", str(workspace / "data" / "train.tsv"),
                 "--households", str(workspace / "data" / "households.tsv"),
                 "--model", str(model), "--out-dir", str(out_dir)])
    assert code == 0
    for name in ("weekday_histogram.tsv", "tv_histogram.tsv",
                 "residual_histogram.tsv"):
        assert (out_dir / name).is_file()


def test_roc_residual(workspace):
    model = fit_model(workspace)
    out = workspace / "roc.tsv"
    code = main(["roc", "--households", str(workspace / "data" / "households.tsv"),
                 "--test", str(workspace / "data" / "test.tsv"),
                 "--classifier", "residual", "--model", str(model),
                 "--grid-size", "12", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "parameter\ttpr_first\ttpr_rest"
    assert len(lines) == 13


def test_roc_posterior_family(workspace):
    data = workspace / "data"
    out = workspace / "roc_prior.tsv"
    code = main(["roc", "--households", str(data / "households.tsv"),
                 "--test", str(data / "test.tsv"), "--train", str(data / "train.tsv"),
                 "--classifier", "prior-day", "--bins", "4",
                 "--grid-size", "8", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 9


def test_baseline_value(capsys):
    assert main(["baseline", "--size2", "272", "--size3", "14",
                 "--size4", "4"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(0.51149, abs=5e-4)


def test_evaluate_requires_flag_combination(workspace):
    code = main(["evaluate", "--households",
                 str(workspace / "data" / "households.tsv")])
    assert code == 2


def test_evaluate_with_posterior_dump_reports_auc(workspace, capsys):
    model = fit_model(workspace)
    preds = workspace / "gen_preds.tsv"
    post = workspace / "gen_post.tsv"
    main(["classify", *data_args(workspace), "--classifier", "gen-day",
          "--model", str(model), "--out", str(preds),
          "--dump-posteriors", str(post)])
    report = workspace / "gen_report.tsv"
    code = main(["evaluate", "--households",
                 str(workspace / "data" / "households.tsv"),
                 "--test", str(workspace / "data" / "test.tsv"),
                 "--predictions", str(preds), "--posteriors", str(post),
                 "--out", str(report)])
    assert code == 0
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert "AUC=NA" not in summary and "AUC=" in summary
    assert "# auc" in report.read_text()


def test_roc_posterior_requires_train(workspace):
    data = workspace / "data"
    code = main(["roc", "--households", str(data / "households.tsv"),
                 "--test", str(data / "test.tsv"),
                 "--classifier", "prior-day",
                 "--out", str(workspace / "r.tsv")])
    assert code == 2



@pytest.mark.parametrize("classifier", ["prior-day", "gen-day", "unified"])
def test_classify_matches_library_pipeline(workspace, monkeypatch, classifier):
    """The CLI's output files equal the library pipeline's on the same files."""
    data = workspace / "data"
    out, post, logit = (workspace / name
                        for name in ("preds.tsv", "post.tsv", "logit.txt"))
    flags, model = ["--bins", "4"], None
    if classifier == "gen-day":
        model_path = fit_model(workspace)
        flags += ["--model", str(model_path)]
        model = factorize.load_model(model_path)
    if classifier == "unified":
        flags += ["--features", "ab", "--lambda1", "0.2", "--dump-logit", str(logit)]
    fits = []
    fit_household = logistic.fit_household

    def counting_fit(train, household, *args, **kwargs):
        fits.append(household.id)
        return fit_household(train, household, *args, **kwargs)

    monkeypatch.setattr(logistic, "fit_household", counting_fit)
    assert main(["classify", *data_args(workspace), "--classifier", classifier,
                 *flags, "--out", str(out), "--dump-posteriors", str(post)]) == 0
    monkeypatch.undo()

    dataset = load_dataset(data / "train.tsv", data / "households.tsv",
                           data / "test.tsv")
    pipeline = evaluate.PipelineConfig(
        classifier, factor_params=factorize.FactorParams(bin_count=4),
        features=logistic.FeatureConfig.from_letters("ab", 0.2))
    fitted = evaluate.fit_pipeline(dataset, pipeline, model=model)
    predictions, posteriors = evaluate.classify_events(fitted, dataset.test)

    rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
    assert [int(row[3]) for row in rows] == predictions
    expected = [(ev.household, member, value)
                for ev, posterior in zip(dataset.test, posteriors)
                for member, value in sorted(posterior.items())]
    rows = [line.split("\t") for line in post.read_text().splitlines()[1:]]
    assert [(int(r[0]), int(r[3]), float(r[4])) for r in rows] == expected
    if classifier == "unified":
        assert sorted(fits) == sorted(dataset.households)  # no refit for the dump
        loaded = logistic.load_logit_models(logit)
        assert loaded.keys() == fitted.logit_models.keys()
        for hid, members in fitted.logit_models.items():
            assert loaded[hid].keys() == members.keys()
            for member, lm in members.items():
                assert np.array_equal(loaded[hid][member].theta, lm.theta)


def test_roc_posterior_family_uses_given_model(workspace, monkeypatch):
    data = workspace / "data"
    model = fit_model(workspace)
    fits = []
    fit = factorize.fit_lowrank_temporal

    def counting_fit(*args, **kwargs):
        fits.append(kwargs.get("binning"))
        return fit(*args, **kwargs)

    monkeypatch.setattr(factorize, "fit_lowrank_temporal", counting_fit)
    argv = ["roc", "--households", str(data / "households.tsv"),
            "--test", str(data / "test.tsv"), "--train", str(data / "train.tsv"),
            "--classifier", "gen-day", "--bins", "4", "--rank", "2",
            "--iterations", "4", "--grid-size", "6"]
    assert main([*argv, "--model", str(model), "--out", str(workspace / "a.tsv")]) == 0
    assert fits == []
    assert main([*argv, "--out", str(workspace / "b.tsv")]) == 0
    assert len(fits) == 1   # without --model the pipeline fits its own
    assert len((workspace / "a.tsv").read_text().splitlines()) == 7


@pytest.mark.parametrize("classifier, flag", [("prior-day", "--dump-logit"),
                                              ("residual", "--dump-posteriors")])
def test_classify_rejects_dump_flag_before_writing(workspace, classifier, flag):
    out, dump = workspace / "y.tsv", workspace / "y.dump"
    code = main(["classify", *data_args(workspace), "--classifier", classifier,
                 "--model", str(fit_model(workspace)), "--bins", "4",
                 "--out", str(out), flag, str(dump)])
    assert code == 2
    assert not out.exists() and not dump.exists()


def test_classify_negative_alpha_is_usage_error(workspace):
    out = workspace / "neg.tsv"
    code = main(["classify", *data_args(workspace), "--classifier", "residual",
                 "--model", str(fit_model(workspace)), "--alpha", "-1",
                 "--out", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("damage", ["drop a member", "add a non-member"])
def test_evaluate_rejects_posteriors_of_wrong_members(workspace, capsys, damage):
    preds, post = workspace / "preds.tsv", workspace / "post.tsv"
    assert main(["classify", *data_args(workspace), "--classifier", "gen-day",
                 "--model", str(fit_model(workspace)), "--out", str(preds),
                 "--dump-posteriors", str(post)]) == 0
    lines = post.read_text().splitlines()
    hid, movie, stamp, _, _ = lines[1].split("\t")
    if damage == "drop a member":
        del lines[1]
    else:   # user 999 belongs to no household
        lines.insert(2, "\t".join([hid, movie, stamp, "999", "0.0"]))
    post.write_text("\n".join(lines) + "\n")
    code = main(["evaluate", "--households", str(workspace / "data" / "households.tsv"),
                 "--test", str(workspace / "data" / "test.tsv"),
                 "--predictions", str(preds), "--posteriors", str(post),
                 "--out", str(workspace / "report.tsv")])
    assert code == 2
    assert (f"{post}: test event (household {hid}, movie {movie}, timestamp {stamp})"
            in capsys.readouterr().err)


def test_classify_truncated_model_is_usage_error(workspace, capsys):
    model = fit_model(workspace)
    lines = model.read_text().splitlines()
    model.write_text("\n".join(lines[:4]) + "\n")   # cut after the binning line
    code = main(["classify", *data_args(workspace), "--classifier", "gen-day",
                 "--model", str(model), "--out", str(workspace / "p.tsv")])
    assert code == 2
    assert f"{model}: missing field 'U'" in capsys.readouterr().err
