"""CLI outputs pinned by sha256.

Only outputs whose bytes do not depend on BLAS rounding are pinned this
way: a cross-validated P depends only on the predictions, and an AUC only
on the ranks of the posteriors.
"""

import hashlib

from hhattrib.cli import main

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

# stdout of `evaluate --cv` for the unified family on the corpus above
UNIFIED_CV_SHA256 = "8c38cac2b9397885f4746402d7774647d859f742a04e0ec1ae67abe75e6ea453"


def test_unified_cv_stdout_is_pinned(tmp_path, capsys):
    config = tmp_path / "synth.cfg"
    config.write_text(SYNTH_CFG)
    data = tmp_path / "data"
    assert main(["synth", "--config", str(config), "--out", str(data)]) == 0
    capsys.readouterr()
    code = main(["evaluate", "--cv", "--train", str(data / "train.tsv"),
                 "--households", str(data / "households.tsv"),
                 "--classifier", "unified", "--features", "abcd", "--lambda1", "0.1",
                 "--rank", "2", "--bins", "4", "--iterations", "4",
                 "--seeds", "1,2,3", "--fraction", "0.08"])
    assert code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == UNIFIED_CV_SHA256
