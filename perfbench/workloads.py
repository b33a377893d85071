"""The benchmark's workloads: inputs, one timed pass, and output checks.

All inputs come from `synth_generate` with the criterion-8 knobs (overlap
0.1, rank 3, noise 10, 200 events per user); the corpus seed defaults to
20 as in criterion 8. The library receives only the generated data.
"""

import contextlib
import io
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from hhattrib import cli, evaluate, factorize, logistic
from hhattrib.corpus import SynthConfig, synth_generate, write_dataset

SPLIT_SEEDS = (101, 102, 103, 104, 105)
FLAT = factorize.FactorParams(rank=4, bin_count=1, iterations=12, seed=7)
BINNED = factorize.FactorParams(rank=4, bin_count=12, iterations=10, seed=7)
FEATURES = logistic.FeatureConfig(rating=False, lambda1=0.1)
POSTERIOR_TOLERANCE = 1e-9


def corpus_config(scale: int, seed: int) -> SynthConfig:
    """Criterion-8 corpus (44/4/2 households of size 2/3/4) times ``scale``."""
    return SynthConfig(
        households_size2=44 * scale, households_size3=4 * scale,
        households_size4=2 * scale, events_per_user=200, overlap=0.1,
        rank=3, noise_sigma=10.0, seed=seed,
    )


@dataclass
class PassResult:
    wall_s: float
    attempted: int
    failed: int = 0
    P: float | None = None
    AUC: float | None = None
    problems: list = field(default_factory=list)
    units: list = field(default_factory=list)   # seconds per repeated unit of work


def posterior_problem(post, members) -> str | None:
    """Why one posterior row is invalid, or None if it is a distribution."""
    if set(post) != set(members):
        return f"posterior members {sorted(post)} != household {sorted(members)}"
    if any(not 0.0 <= p <= 1.0 for p in post.values()):
        return f"posterior value outside [0, 1]: {post}"
    if abs(sum(post.values()) - 1.0) > POSTERIOR_TOLERANCE:
        return f"posterior sums to {sum(post.values())!r}"
    return None


def split_problem(split, predictions, posteriors) -> str | None:
    """First failed output check of one CV split, or None."""
    if len(predictions) != len(split.test):
        return "one prediction per test event required"
    for i, (ev, pred) in enumerate(zip(split.test, predictions)):
        members = split.households[ev.household].members
        if pred not in members:
            return f"prediction {pred} is not a member of household {ev.household}"
        if posteriors is not None:
            problem = posterior_problem(posteriors[i], members)
            if problem:
                return problem
    return None


@contextlib.contextmanager
def captured_splits():
    """Keep every (split, predictions, posteriors) that run_cv produces,
    and the time at which each split starts."""
    original_split, original_fit = evaluate.cv_split, evaluate.fit_and_classify
    starts, outputs = [], []

    def split(*args, **kwargs):
        starts.append(time.perf_counter())
        return original_split(*args, **kwargs)

    def capture(dataset, pipeline):
        predictions, posteriors = original_fit(dataset, pipeline)
        outputs.append((dataset, predictions, posteriors))
        return predictions, posteriors

    evaluate.cv_split, evaluate.fit_and_classify = split, capture
    try:
        yield starts, outputs
    finally:
        evaluate.cv_split, evaluate.fit_and_classify = original_split, original_fit


class CvWorkload:
    """`run_cv` for one classifier family over the five criterion-8 splits.

    ``--seed`` only fixes the order in which the splits run, so P and AUC
    stay comparable with criterion 8 whatever the seed. The unit of work
    is one split: every split refits the same households on 96% of the
    same corpus, so the splits of a table cost the same to within a few
    percent.
    """

    units_per_pass = len(SPLIT_SEEDS)

    def __init__(self, classifier, params, scale):
        self.pipeline = evaluate.PipelineConfig(
            classifier=classifier, factor_params=params, features=FEATURES,
            sigma_scope="per_user")
        self.scale = scale
        self.dataset = None
        self.seeds = SPLIT_SEEDS

    def setup(self, corpus_seed, seed, work_dir) -> float:
        self.dataset = None   # so that set-up repeats do not hold two corpora
        start = time.perf_counter()
        self.dataset = synth_generate(corpus_config(self.scale, corpus_seed))
        elapsed = time.perf_counter() - start
        self.seeds = tuple(random.Random(seed).sample(SPLIT_SEEDS, len(SPLIT_SEEDS)))
        return elapsed

    def run_pass(self) -> PassResult:
        with captured_splits() as (starts, outputs):
            start = time.perf_counter()
            try:
                result = evaluate.run_cv(self.dataset, self.pipeline, self.seeds)
            except Exception as exc:  # noqa: BLE001 - a failed pass is counted, not fatal
                wall = time.perf_counter() - start
                return PassResult(wall, len(self.seeds), len(self.seeds),
                                  problems=[f"run_cv raised {exc!r}"])
            end = time.perf_counter()
        bounds = [start, *starts[1:], end]
        out = PassResult(end - start, len(self.seeds),
                         units=[b - a for a, b in zip(bounds, bounds[1:])])
        for split, predictions, posteriors in outputs:
            problem = split_problem(split, predictions, posteriors)
            if problem:
                out.failed += 1
                out.problems.append(problem)
        out.failed += max(0, len(self.seeds) - len(outputs))
        out.P = result.metrics["P"].mean
        out.AUC = result.metrics["AUC"].mean if "AUC" in result.metrics else None
        return out


class CliWorkload:
    """The file-based CLI, in-process through `cli.main`, on files on disk.

    fit (12 bins) -> classify gen-day with the model and a posterior dump
    -> evaluate with posteriors -> roc residual. ``--seed`` has no effect.
    The unit of work is the whole four-command pass.
    """

    units_per_pass = 1

    def __init__(self):
        self.dataset = None
        self.dir = None

    def setup(self, corpus_seed, seed, work_dir) -> float:
        self.dataset = None
        start = time.perf_counter()
        self.dataset = synth_generate(corpus_config(1, corpus_seed))
        self.dir = Path(work_dir)
        write_dataset(self.dataset, self.dir)
        return time.perf_counter() - start

    def _commands(self):
        d = self.dir
        data = ["--households", str(d / "households.tsv"), "--test", str(d / "test.tsv")]
        return [
            ["fit", "--train", str(d / "train.tsv"), "--out", str(d / "model.txt"),
             "--bins", "12", "--rank", "4", "--iterations", "10"],
            ["classify", "--train", str(d / "train.tsv"), *data,
             "--classifier", "gen-day", "--model", str(d / "model.txt"),
             "--out", str(d / "predictions.tsv"),
             "--dump-posteriors", str(d / "posteriors.tsv")],
            ["evaluate", *data, "--predictions", str(d / "predictions.tsv"),
             "--posteriors", str(d / "posteriors.tsv"), "--out", str(d / "report.tsv")],
            ["roc", *data, "--classifier", "residual", "--model", str(d / "model.txt"),
             "--out", str(d / "roc.tsv")],
        ]

    def run_pass(self) -> PassResult:
        commands = self._commands()
        outputs = []
        start = time.perf_counter()
        for argv in commands:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            outputs.append((argv[0], code, stdout.getvalue(), stderr.getvalue()))
        wall = time.perf_counter() - start
        out = PassResult(wall, len(commands), units=[wall])

        for command, code, stdout, stderr in outputs:
            if code != 0:
                out.failed += 1
                out.problems.append(f"{command} exited {code}: {stderr.strip()}")
        problem = self._classify_problem()
        if problem:
            out.failed += 1
            out.problems.append(f"classify: {problem}")
        summary = dict(tok.split("=", 1) for tok in outputs[2][2].split() if "=" in tok)
        if "P" in summary and summary.get("AUC", "NA") != "NA":
            out.P, out.AUC = float(summary["P"]), float(summary["AUC"])
        return out

    def _classify_problem(self) -> str | None:
        """Check the prediction and posterior files against the test events."""
        try:
            return self._check_classify_files()
        except (OSError, ValueError, IndexError) as exc:
            return f"unreadable output: {exc!r}"

    def _check_classify_files(self) -> str | None:
        test, households = self.dataset.test, self.dataset.households
        pred_rows = (self.dir / "predictions.tsv").read_text().splitlines()[1:]
        post_rows = (self.dir / "posteriors.tsv").read_text().splitlines()[1:]
        if len(pred_rows) != len(test):
            return f"{len(pred_rows)} predictions for {len(test)} test events"
        k = 0
        for ev, row in zip(test, pred_rows):
            members = sorted(households[ev.household].members)
            hid, movie, stamp, predicted = row.split("\t")
            if (int(hid), int(movie), int(stamp)) != (ev.household, ev.movie,
                                                      ev.timestamp):
                return f"prediction row {row!r} out of test order"
            if int(predicted) not in members:
                return f"prediction {row!r} is not a household member"
            post = {}
            for line in post_rows[k:k + len(members)]:
                hid, movie, stamp, member, value = line.split("\t")
                if (int(hid), int(movie), int(stamp)) != (ev.household, ev.movie,
                                                          ev.timestamp):
                    return f"posterior row {line!r} out of test order"
                post[int(member)] = float(value)
            k += len(members)
            problem = posterior_problem(post, members)
            if problem:
                return problem
        if k != len(post_rows):
            return f"{len(post_rows) - k} posterior rows beyond the test events"
        return None


WORKLOADS = {
    "cv-unified": lambda: CvWorkload("unified", FLAT, 1),
    "cv-gen-day": lambda: CvWorkload("gen-day", FLAT, 1),
    "cv-prior-4x": lambda: CvWorkload("prior-day", BINNED, 4),
    "cli-temporal": CliWorkload,
}
