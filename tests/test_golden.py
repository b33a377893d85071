"""CLI outputs pinned by sha256.

Only outputs whose bytes do not depend on BLAS rounding are pinned this
way: predictions and a cross-validated P depend only on which member wins
each event, a report's AUC only on the ranks of the posteriors, the
baseline only on the household counts, and the weekday and total-variation
histograms only on integer counts and their min/sum ratios.
"""

import hashlib

import pytest

from hhattrib.cli import main
from hhattrib.evaluate import CLASSIFIERS

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

# the factor model's flags, for fit and for the families that refit it
FACTOR = ["--rank", "2", "--bins", "4", "--iterations", "4"]
UNIFIED = ["--features", "abcd", "--lambda1", "0.1"]

# stdout of `evaluate --cv` for the unified family on the corpus above
UNIFIED_CV_SHA256 = "8c38cac2b9397885f4746402d7774647d859f742a04e0ec1ae67abe75e6ea453"

# `classify` predictions of each family on the corpus's test file
PREDICTIONS_SHA256 = {
    "residual":
        "ba2a7e61668b8a306eb0e5abf3f2cf349097719cd082128719b707579c08014e",
    "prior-uniform":
        "cddcd20e761f3c7d3c0b1dfa9a67a4e7cdd230d89350743183fcdd3bcd0e683d",
    "prior-bin":
        "97a90d466b378ffe75e177e21fed0b9b921e7189e6c40dbceb4c30c6941f1248",
    "prior-day":
        "ce6ee1504dc6435a6192dfa95e1ec009d7f18b75454c5e643bc2edacfac2a712",
    "gen-uniform":
        "14395a452a5f2623f522c64db1cff12ccb12bbf0d50095643b35ba3bf32d560e",
    "gen-bin":
        "0b8e5793d4eabbdce9a0cf98453e93a23ad5e5c1e3f3358f1f959305be7641f7",
    "gen-day":
        "c1975c9736c6f847a61e66b1b317f95b975f114c6c3ddf74fdd7d5f019ecfb04",
    "unified":
        "ce082df29fb1e3e505582152eb06963645766b339c3a2454435f6d83c025c504",
}

# the `evaluate` report of each posterior family, scored with its posterior dump
REPORT_SHA256 = {
    "prior-uniform":
        "ea1d193ca860d0e80e9e127026fb50a6718581c7d27247d9e0db7e00cd4eb576",
    "prior-bin":
        "85afcdf4be970b88b95ac8fbd819557ed2d962e8bd2764a2ff64c3647fd02c6d",
    "prior-day":
        "646152d3d49a9b6e73e542dd62c2ea76f05df7c0086339224eb6e7ff8b15d1a3",
    "gen-uniform":
        "175508bff50ddcdd87ca9b7b06ec7cd9b28115908fb6e1717689f8f7da2e166d",
    "gen-bin":
        "604332205cd6293600b100381e648eaf024aa336bae11e9442d90958c118af5f",
    "gen-day":
        "720ee52bda6946074f75299b7bc6f03751678a1a207b185f7b59a434264842d3",
    "unified":
        "5256fa926ccbbc87221b64d92086a770fe6038f75f90a6554c31bf4dadf8bd8b",
}

# stdout of `evaluate --cv` for these families
CV_SHA256 = {
    "prior-day":
        "aef6363efa8b908840221a8d9bec782c976c3d78127a9555e1e3b4ecdc16bef4",
    "gen-day":
        "66ec2296b44fe988bf3818e4571d5200c84e8c9d1150c6a7a18a1b6b2338acf2",
}

# `evaluate --export-histograms` files that no fitted model enters
HISTOGRAM_SHA256 = {
    "weekday_histogram.tsv":
        "d5b1338ba1896dc59a3eab578fc6a9be3962c51202dcab6c401530937978b5d8",
    "tv_histogram.tsv":
        "124a430b2933103790b738c5acf411bd5dcf038e17bc84b616596776ecbda30e",
}

# stdout of `baseline --size2 5 --size3 1 --size4 1`
BASELINE_SHA256 = "8e64d89b3eb99926042eb1f98dd6e3ba36f33643ed30ecd43d4f6a8568b9202c"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The synthetic corpus's directory, with a fitted model.txt."""
    root = tmp_path_factory.mktemp("golden")
    config = root / "synth.cfg"
    config.write_text(SYNTH_CFG)
    data = root / "data"
    assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
    assert main(["fit", "--train", str(data / "train.tsv"),
                 "--out", str(data / "model.txt"), *FACTOR]) == 0
    return data


def files(data):
    return ["--train", str(data / "train.tsv"), "--households", str(data / "households.tsv")]


@pytest.fixture(scope="module")
def classified(corpus):
    """Each family's prediction file and, but for residual, posterior dump."""
    out = {}
    for family in CLASSIFIERS:
        predictions = corpus / f"{family}.predictions.tsv"
        posteriors = corpus / f"{family}.posteriors.tsv"
        dump = [] if family == "residual" else ["--dump-posteriors", str(posteriors)]
        assert main(["classify", *files(corpus), "--test", str(corpus / "test.tsv"),
                     "--classifier", family, "--model", str(corpus / "model.txt"),
                     "--out", str(predictions), *dump, *FACTOR, *UNIFIED]) == 0
        out[family] = predictions, posteriors
    return out


def test_unified_cv_stdout_is_pinned(corpus, capsys):
    capsys.readouterr()
    code = main(["evaluate", "--cv", *files(corpus), "--classifier", "unified", *UNIFIED,
                 *FACTOR, "--seeds", "1,2,3", "--fraction", "0.08"])
    assert code == 0
    assert sha256(capsys.readouterr().out) == UNIFIED_CV_SHA256


@pytest.mark.parametrize("family", CLASSIFIERS)
def test_predictions_are_pinned(classified, family):
    assert sha256(classified[family][0].read_text()) == PREDICTIONS_SHA256[family]


@pytest.mark.parametrize("family", sorted(REPORT_SHA256))
def test_posterior_report_is_pinned(corpus, classified, family):
    predictions, posteriors = classified[family]
    report = corpus / f"{family}.report.tsv"
    assert main(["evaluate", "--households", str(corpus / "households.tsv"),
                 "--test", str(corpus / "test.tsv"), "--predictions", str(predictions),
                 "--posteriors", str(posteriors), "--out", str(report)]) == 0
    assert sha256(report.read_text()) == REPORT_SHA256[family]


@pytest.mark.parametrize("family", sorted(CV_SHA256))
def test_cv_stdout_is_pinned(corpus, family, capsys):
    capsys.readouterr()
    assert main(["evaluate", "--cv", *files(corpus), "--classifier", family, *FACTOR,
                 "--seeds", "1,2,3", "--fraction", "0.08"]) == 0
    assert sha256(capsys.readouterr().out) == CV_SHA256[family]


@pytest.mark.parametrize("name", sorted(HISTOGRAM_SHA256))
def test_histograms_are_pinned(corpus, tmp_path, name):
    assert main(["evaluate", "--export-histograms", *files(corpus),
                 "--out-dir", str(tmp_path)]) == 0
    assert sha256((tmp_path / name).read_text()) == HISTOGRAM_SHA256[name]


def test_baseline_stdout_is_pinned(capsys):
    capsys.readouterr()
    assert main(["baseline", "--size2", "5", "--size3", "1", "--size4", "1"]) == 0
    assert sha256(capsys.readouterr().out) == BASELINE_SHA256
