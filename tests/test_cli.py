import logging
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from hhattrib import cli, evaluate, factorize, logistic
from hhattrib.cli import main
from hhattrib.corpus import load_dataset

from conftest import read_logit_dump

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


def test_fit_huge_user_id_fails_fast(tmp_path):
    # a user id of 10^15 asks for about 10^17 initial factor entries: the
    # draw fails at its first allocation, not after growing toward an
    # out-of-memory kill
    train = tmp_path / "train.tsv"
    train.write_text(f"{10 ** 15}\t0\t50\t1000\n0\t1\t60\t2000\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run(
        [sys.executable, "-m", "hhattrib.cli", "fit", "--train", str(train),
         "--out", str(tmp_path / "model.txt")],
        env=env, capture_output=True, text=True, timeout=10, check=False)
    assert result.returncode != 0 and result.stderr
    assert not (tmp_path / "model.txt").exists()


SCIPY_PROBE = textwrap.dedent("""
    import contextlib, io, sys
    import hhattrib.cli

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()):
            code = hhattrib.cli.main(list(argv))
        assert code == 0, (argv, code)
        return sorted({name.split(".")[1] for name in sys.modules
                       if name.startswith(("scipy.sparse", "scipy.linalg"))})

    d = sys.argv[1]
    data = ["--households", f"{d}/a/households.tsv", "--test", f"{d}/a/test.tsv"]
    train = ["--train", f"{d}/a/train.tsv"]
    assert run("baseline", "--size2", "3") == []
    assert run("synth", "--config", f"{d}/synth.cfg", "--out", f"{d}/a") == []
    assert run("classify", *train, *data, "--classifier", "prior-day", "--bins", "4",
               "--out", f"{d}/p.tsv", "--dump-posteriors", f"{d}/post.tsv") == []
    assert run("evaluate", *data, "--predictions", f"{d}/p.tsv",
               "--posteriors", f"{d}/post.tsv", "--out", f"{d}/r.tsv") == []
    # one bin holds 510 events in 17 x 43 = 731 cells: at least half full, dense
    assert run("fit", *train, "--out", f"{d}/m1.txt", "--rank", "2", "--bins", "1",
               "--iterations", "3") == []
    assert run("fit", *train, "--out", f"{d}/m.txt", "--rank", "2", "--bins", "4",
               "--iterations", "3") == ["sparse"]
    assert run("classify", *train, *data, "--classifier", "unified", "--model",
               f"{d}/m.txt", "--out", f"{d}/u.tsv") == ["linalg", "sparse"]
""")


def test_scipy_is_imported_only_by_fits_and_unified_solves(tmp_path):
    # scipy.sparse (an ALS fit with a bin less than half rated) and
    # scipy.linalg (the unified family's triangular solves) hold about 28 MB
    # of resident memory between them; commands that fit no factor model and
    # no logistic model load neither, nor does a fit whose bins are all dense
    (tmp_path / "synth.cfg").write_text(
        "households_size2 = 3\nhouseholds_size3 = 1\nevents_per_user = 30\nseed = 4\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run([sys.executable, "-c", SCIPY_PROBE, str(tmp_path)], env=env,
                            capture_output=True, text=True, timeout=120, check=False)
    assert result.returncode == 0, result.stderr


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


def test_classify_alpha_grid_needs_residual(workspace, capsys):
    out = workspace / "preds.tsv"
    code = main(["classify", *data_args(workspace), "--classifier", "prior-day",
                 "--bins", "4", "--alpha-grid", "0.5,1", "--out", str(out)])
    assert code == 2
    assert "--alpha-grid only applies to the residual classifier" in capsys.readouterr().err
    assert not list(workspace.glob("preds*"))


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


def test_evaluate_cv_repeated_seed_is_usage_error(workspace, capsys):
    data = workspace / "data"
    code = main(["evaluate", "--cv", "--train", str(data / "train.tsv"),
                 "--households", str(data / "households.tsv"),
                 "--classifier", "prior-day", "--bins", "4", "--seeds", "1,3,3"])
    assert code == 2
    assert capsys.readouterr().err == "error: split seed 3 repeated\n"


def test_evaluate_cv_pair_keys_do_not_wrap(workspace, capsys):
    # user 2^62 rates a movie user 0 rated; with a movie span that is a
    # multiple of 4, 2^62 * span + movie wraps in int64 to user 0's key of
    # that movie. The non-member changes no CV figure, and only a real
    # repeat of its pair is a duplicate, named as such
    data = workspace / "data"
    lines = (data / "train.tsv").read_text().splitlines()
    rows = [line.split("\t") for line in lines]
    movie = next(m for u, m, _, _ in rows if u == "0")
    span = max(int(m) for _, m, _, _ in rows) + 1
    stamp = rows[0][3]
    extra = [f"{2 ** 62}\t{movie}\t50\t{stamp}",
             f"{2 ** 62}\t{-(-span // 4) * 4 - 1}\t50\t{stamp}"]   # span to a multiple of 4
    argv = ["evaluate", "--cv", "--households", str(data / "households.tsv"),
            "--classifier", "prior-day", "--bins", "4", "--train"]
    assert main([*argv, str(data / "train.tsv")]) == 0
    want = capsys.readouterr().out
    for name, added, code in (("stray.tsv", extra, 0), ("repeat.tsv", extra + extra[:1], 2)):
        (workspace / name).write_text("\n".join(lines + added) + "\n")
        assert main([*argv, str(workspace / name)]) == code
        out, err = capsys.readouterr()
        if code == 0:
            assert out == want
        else:
            assert err == f"error: duplicate train pair ({2 ** 62}, {movie})\n"


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


def test_consecutive_calls_match_fresh_processes(capsys):
    # main reuses one parser per process; each call must still answer as a
    # process of its own would
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for argv in (["baseline", "--size2", "272", "--size3", "14"],
                 ["evaluate", "--cv"],   # usage error: --households is missing
                 ["baseline", "--size4", "3"]):
        code = main(argv)
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "hhattrib.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=120, check=False)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_main_looks_up_the_command_per_call(monkeypatch):
    # a tracer replaces cli.cmd_* between calls; the shared parser must not
    # keep running the function it saw first
    assert main(["baseline", "--size2", "2"]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_baseline", lambda args: seen.append(args.size2) or 0)
    assert main(["baseline", "--size2", "7"]) == 0
    assert seen == [7]


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
    assert [int(row[3]) for row in rows] == predictions.tolist()
    expected = [(ev.household, member, value)
                for ev, posterior in zip(dataset.test, posteriors)
                for member, value in sorted(posterior.items())]
    rows = [line.split("\t") for line in post.read_text().splitlines()[1:]]
    assert [(int(r[0]), int(r[3]), float(r[4])) for r in rows] == expected
    if classifier == "unified":
        assert sorted(fits) == sorted(dataset.households)  # no refit for the dump
        records = read_logit_dump(logit)
        assert [head[:2] for head, *_ in records] == [
            (hid, member) for hid, hh in dataset.households.items() for member in hh.members]
        thetas = fitted.logit_models.theta[dataset.households.table >= 0]
        for (_, theta, _, _), want in zip(records, thetas, strict=True):
            assert np.array_equal(theta, want)


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


def test_repeated_test_line_keeps_its_posteriors(tmp_path, capsys):
    """Two test events with one (household, movie, timestamp) key each read
    their own posterior rows back, in occurrence order."""
    config = tmp_path / "synth.cfg"
    config.write_text("households_size2 = 3\nhouseholds_size3 = 1\nhouseholds_size4 = 1\n"
                      "events_per_user = 30\nseed = 4\n")
    data = tmp_path / "data"
    assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
    test = data / "test.tsv"
    test.write_text(test.read_text() + test.read_text().splitlines(keepends=True)[0])
    preds, post = tmp_path / "p.tsv", tmp_path / "q.tsv"
    assert main(["classify", "--train", str(data / "train.tsv"),
                 "--households", str(data / "households.tsv"), "--test", str(test),
                 "--classifier", "prior-day", "--bins", "4", "--out", str(preds),
                 "--dump-posteriors", str(post)]) == 0
    dataset = load_dataset(data / "train.tsv", data / "households.tsv", test)
    fitted = evaluate.fit_pipeline(dataset, evaluate.PipelineConfig(
        "prior-day", factor_params=factorize.FactorParams(bin_count=4)))
    predictions, posteriors = evaluate.classify_events(fitted, dataset.test)
    report = evaluate.build_report(dataset.test, predictions, dataset.households,
                                   posteriors)
    lines = post.read_text().splitlines()
    for rows in (lines[1:], lines[:0:-1]):   # as written, then in reverse order
        post.write_text("\n".join([lines[0], *rows]) + "\n")
        capsys.readouterr()
        assert main(["evaluate", "--households", str(data / "households.tsv"),
                     "--test", str(test), "--predictions", str(preds),
                     "--posteriors", str(post), "--out", str(tmp_path / "report.tsv")]) == 0
        assert capsys.readouterr().out == evaluate.summary_line(report) + "\n"


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


# another household's member, and a user in no household
@pytest.mark.parametrize("member", ["7", "99999"])
def test_evaluate_rejects_predicted_member_outside_household(workspace, capsys, member):
    preds = workspace / "preds.tsv"
    assert main(["classify", *data_args(workspace), "--classifier", "prior-day",
                 "--bins", "4", "--out", str(preds)]) == 0
    lines = preds.read_text().splitlines()
    hid, movie, stamp, _ = lines[2].split("\t")
    assert hid == "0"   # members 0 and 1
    lines[2] = "\t".join([hid, movie, stamp, member])
    # a blank line after the header: the error counts file lines, not records
    preds.write_text("\n".join([lines[0], "", *lines[1:]]) + "\n")
    code = main(["evaluate", "--households", str(workspace / "data" / "households.tsv"),
                 "--test", str(workspace / "data" / "test.tsv"),
                 "--predictions", str(preds), "--out", str(workspace / "report.tsv")])
    assert code == 2
    assert (capsys.readouterr().err
            == f"error: {preds}:4: predicted member {member} not in household 0\n")


def test_classify_truncated_model_is_usage_error(workspace, capsys):
    model = fit_model(workspace)
    lines = model.read_text().splitlines()
    model.write_text("\n".join(lines[:4]) + "\n")   # cut after the binning line
    code = main(["classify", *data_args(workspace), "--classifier", "gen-day",
                 "--model", str(model), "--out", str(workspace / "p.tsv")])
    assert code == 2
    assert f"{model}: missing field 'U'" in capsys.readouterr().err


def _drop_last_household(workspace):
    """A copy of the households file without its last line; returns (path, id)."""
    lines = (workspace / "data" / "households.tsv").read_text().splitlines()
    path = workspace / "fewer_households.tsv"
    path.write_text("\n".join(lines[:-1]) + "\n")
    return path, lines[-1].split("\t")[0]


def test_evaluate_household_missing_from_file_is_usage_error(workspace, capsys):
    """evaluate and classify name the households file that lacks a test
    event's household."""
    preds = workspace / "preds.tsv"
    assert main(["classify", *data_args(workspace), "--classifier", "prior-day",
                 "--bins", "4", "--out", str(preds)]) == 0
    households, missing = _drop_last_household(workspace)
    data = ["--households", str(households), "--test", str(workspace / "data" / "test.tsv")]
    for argv in (["evaluate", *data, "--predictions", str(preds)],
                 ["classify", *data, "--train", str(workspace / "data" / "train.tsv"),
                  "--classifier", "prior-day", "--bins", "4"]):
        capsys.readouterr()
        assert main([*argv, "--out", str(workspace / "out.tsv")]) == 2, argv[0]
        assert (capsys.readouterr().err
                == f"error: {households}: no household {missing}, which has test events\n")


def test_roc_household_missing_from_file_is_usage_error(workspace, capsys):
    """The residual and the posterior roc name the households file that lacks
    a test event's household."""
    model = fit_model(workspace)
    households, missing = _drop_last_household(workspace)
    data = ["roc", "--households", str(households),
            "--test", str(workspace / "data" / "test.tsv")]
    for argv in ([*data, "--classifier", "residual", "--model", str(model)],
                 [*data, "--classifier", "prior-day", "--bins", "4",
                  "--train", str(workspace / "data" / "train.tsv")]):
        capsys.readouterr()
        assert main([*argv, "--out", str(workspace / "roc.tsv")]) == 2, argv
        assert (capsys.readouterr().err
                == f"error: {households}: no household {missing}, which has test events\n")


# the field and token that each message's dump row is damaged with; any other
# row loses a field
DUMP_DAMAGE = {"bad predicted member 'x'": (3, "x"), "bad posterior 'x'": (4, "x"),
               "negative member id -1": (3, "-1"),
               "posterior 1.5 outside [0, 1]": (4, "1.5"),
               "non-finite posterior 'nan'": (4, "nan")}


@pytest.mark.parametrize("dump, row, message", [
    ("predictions", 2, "expected 4 fields, got 3"),
    ("predictions", 3, "bad predicted member 'x'"),
    ("posteriors", 2, "expected 5 fields, got 4"),
    ("posteriors", 4, "bad posterior 'x'"),
    ("posteriors", 3, "negative member id -1"),
    ("posteriors", 4, "posterior 1.5 outside [0, 1]"),
    ("posteriors", 5, "non-finite posterior 'nan'"),
])
def test_evaluate_malformed_dump_row_names_file_and_line(workspace, capsys, dump, row,
                                                         message):
    preds, post = workspace / "preds.tsv", workspace / "post.tsv"
    assert main(["classify", *data_args(workspace), "--classifier", "gen-day",
                 "--model", str(fit_model(workspace)), "--out", str(preds),
                 "--dump-posteriors", str(post)]) == 0
    path = preds if dump == "predictions" else post
    lines = path.read_text().splitlines()
    fields = lines[row - 1].split("\t")
    if message in DUMP_DAMAGE:
        field, token = DUMP_DAMAGE[message]
        fields[field] = token
    else:
        del fields[1]
    lines[row - 1] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n")
    code = main(["evaluate", "--households", str(workspace / "data" / "households.tsv"),
                 "--test", str(workspace / "data" / "test.tsv"),
                 "--predictions", str(preds), "--posteriors", str(post),
                 "--out", str(workspace / "report.tsv")])
    assert code == 2
    assert f"error: {path}:{row}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("dump", ["predictions", "posteriors"])
def test_dump_integer_beyond_int64_names_file(workspace, capsys, dump):
    preds, post = workspace / "preds.tsv", workspace / "post.tsv"
    assert main(["classify", *data_args(workspace), "--classifier", "gen-day",
                 "--model", str(fit_model(workspace)), "--out", str(preds),
                 "--dump-posteriors", str(post)]) == 0
    path = preds if dump == "predictions" else post
    lines = path.read_text().splitlines()
    fields = lines[1].split("\t")
    fields[3] = "99999999999999999999"   # the predicted or posterior member
    lines[1] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n")
    code = main(["evaluate", "--households", str(workspace / "data" / "households.tsv"),
                 "--test", str(workspace / "data" / "test.tsv"),
                 "--predictions", str(preds), "--posteriors", str(post),
                 "--out", str(workspace / "report.tsv")])
    assert code == 2
    name = "predicted member" if dump == "predictions" else "member id"
    assert (f"error: {path}:2: {name} 99999999999999999999 outside the int64 range"
            in capsys.readouterr().err)


@pytest.mark.parametrize("name, field", [("train.tsv", 3), ("train.tsv", 0),
                                         ("test.tsv", 3), ("test.tsv", 4),
                                         ("households.tsv", 1)])
def test_integer_beyond_int64_names_file_and_line(workspace, capsys, name, field):
    """An id or timestamp that int64 cannot hold is a range error at its line."""
    path = workspace / "data" / name
    lines = path.read_text().splitlines()
    fields = lines[1].split("\t")
    fields[field] = "99999999999999999999"
    lines[1] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n")
    out = workspace / "out.tsv"
    if name == "train.tsv":
        argv = ["fit", "--train", str(path), "--out", str(out)]
    else:
        argv = ["classify", *data_args(workspace), "--classifier", "prior-day",
                "--bins", "4", "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: ")
    assert "99999999999999999999 outside the int64 range" in err
    assert not out.exists()


@pytest.mark.parametrize("name, field, message", [
    ("train.tsv", 0, "negative user id -3"), ("train.tsv", 3, "negative timestamp -3"),
    ("test.tsv", 0, "negative household id -3"), ("test.tsv", 3, "negative timestamp -3"),
    ("test.tsv", 4, "negative true user id -3"),
    ("households.tsv", 1, "negative member id -3"),
])
def test_negative_id_or_timestamp_names_file_and_line(workspace, capsys, name, field,
                                                      message):
    """A negative id or timestamp is a range error at its line, for fit and classify."""
    path = workspace / "data" / name
    lines = path.read_text().splitlines()
    fields = lines[1].split("\t")
    fields[field] = "-3"
    lines[1] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n")
    out = workspace / "out.tsv"
    if name == "train.tsv":
        argv = ["fit", "--train", str(path), "--out", str(out)]
    else:
        argv = ["classify", *data_args(workspace), "--classifier", "prior-day",
                "--bins", "4", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}:2: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("classifier", [["unified", "--features", "ab"], ["prior-day"]])
def test_empty_households_file_is_usage_error(tmp_path, capsys, classifier):
    """A households file with no households names the file, for every family."""
    train, households, test = (tmp_path / name
                               for name in ("train.tsv", "households.tsv", "test.tsv"))
    train.write_text("0\t1\t50\t1262520000\n1\t2\t60\t1262530000\n")
    households.write_text("")
    test.write_text("")
    out = tmp_path / "out.tsv"
    code = main(["classify", "--train", str(train), "--households", str(households),
                 "--test", str(test), "--classifier", *classifier, "--out", str(out)])
    assert code == 2
    assert (capsys.readouterr().err
            == f"error: {households}: no households, need at least one\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["classify", "evaluate", "roc"])
def test_user_in_two_households_names_the_file(workspace, capsys, command):
    """A households file that puts a user in two households is a usage error
    naming that file, in every command that reads one."""
    data = workspace / "data"
    households = data / "households.tsv"
    if command == "classify":
        argv = ["classify", *data_args(workspace), "--classifier", "prior-day",
                "--bins", "4"]
    elif command == "evaluate":
        predictions = workspace / "preds.tsv"
        assert main(["classify", *data_args(workspace), "--classifier", "prior-day",
                     "--bins", "4", "--out", str(predictions)]) == 0
        argv = ["evaluate", *data_args(workspace)[2:], "--predictions", str(predictions)]
    else:
        argv = ["roc", *data_args(workspace)[2:], "--classifier", "residual",
                "--model", str(fit_model(workspace))]
    capsys.readouterr()
    user = households.read_text().split()[1]   # the first household's first member
    with households.open("a") as fh:
        fh.write(f"999\t100000\t{user}\n")
    out = workspace / "out.tsv"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {households}: user {user} in two households\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["classify", "evaluate", "roc"])
def test_true_user_outside_household_names_file_and_line(workspace, capsys, command):
    """A test line whose true user is not in its household is a usage error at
    that line of the test file, in every command that reads a test file."""
    data = workspace / "data"
    path = data / "test.tsv"
    if command == "classify":
        argv = ["classify", *data_args(workspace), "--classifier", "prior-day",
                "--bins", "4"]
    elif command == "evaluate":
        predictions = workspace / "preds.tsv"
        assert main(["classify", *data_args(workspace), "--classifier", "prior-day",
                     "--bins", "4", "--out", str(predictions)]) == 0
        argv = ["evaluate", "--households", str(data / "households.tsv"),
                "--test", str(path), "--predictions", str(predictions)]
    else:
        argv = ["roc", "--households", str(data / "households.tsv"), "--test", str(path),
                "--classifier", "residual", "--model", str(fit_model(workspace))]
    capsys.readouterr()
    lines = path.read_text().splitlines()
    fields = lines[2].split("\t")
    fields[4] = "999"   # in no household
    lines[2] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n")
    out = workspace / "out.tsv"
    code = main([*argv, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {path}:3: true_user 999 not in household {fields[0]}\n")
    assert not out.exists()
