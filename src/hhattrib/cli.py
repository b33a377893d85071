"""Command-line frontend: synth, fit, classify, evaluate, roc, baseline.

All outputs are UTF-8 TSV. Exit codes: 0 on success, 1 on runtime
failure, 2 on usage or configuration errors. Every command is
deterministic given identical inputs and seeds.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import evaluate, factorize, generative, logistic, temporal
from .corpus import (
    ConfigError, ParseError, load_dataset, parse_households, parse_ratings,
    parse_test_events, read_synth_config, synth_generate, write_dataset,
)

USAGE_ERRORS = (ConfigError, ParseError, FileNotFoundError, ValueError)


def _factor_params(args) -> factorize.FactorParams:
    return factorize.FactorParams(
        rank=args.rank, reg_lambda=args.reg_lambda, xi_u=args.xi_u,
        xi_v=args.xi_v, xi_z=args.xi_z, bin_count=args.bins,
        iterations=args.iterations, seed=args.seed,
    )


def _add_factor_flags(parser):
    parser.add_argument("--rank", type=int, default=10)
    parser.add_argument("--reg-lambda", type=float, default=1.0, dest="reg_lambda")
    parser.add_argument("--xi-u", type=float, default=10.0, dest="xi_u")
    parser.add_argument("--xi-v", type=float, default=40.0, dest="xi_v")
    parser.add_argument("--xi-z", type=float, default=40.0, dest="xi_z")
    parser.add_argument("--bins", type=int, default=12)
    parser.add_argument("--iterations", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)


def _add_pipeline_flags(parser):
    """Flags that `_pipeline_from_args` reads, plus a pre-fitted --model."""
    parser.add_argument("--model", default=None)
    parser.add_argument("--epsilon", type=float, default=0.5)
    parser.add_argument("--sigma-scope", default="per_user", dest="sigma_scope",
                        choices=generative.SCOPES)
    parser.add_argument("--features", default="abcde")
    parser.add_argument("--lambda1", type=float, default=0.01)
    _add_factor_flags(parser)


def _parse_grid(text: str) -> list[float]:
    values = [float(tok) for tok in text.replace(",", " ").split()]
    if not values:
        raise ConfigError("empty value grid")
    return values


def cmd_synth(args) -> int:
    config = read_synth_config(args.config)
    dataset = synth_generate(config, seed=args.seed)
    paths = write_dataset(dataset, args.out)
    for path in paths:
        print(path)
    return 0


def cmd_fit(args) -> int:
    if args.iterations < 1:
        raise ConfigError("--iterations must be >= 1")
    train = parse_ratings(args.train)
    params = _factor_params(args)
    model = factorize.fit_lowrank_temporal(
        train, params, progress=lambda k, _, cost: print(f"iteration {k} cost {cost!r}"))
    factorize.save_model(model, args.out)
    return 0


def _pipeline_from_args(args, alpha: float = 1.0) -> evaluate.PipelineConfig:
    features = logistic.FeatureConfig.from_letters(args.features, args.lambda1)
    return evaluate.PipelineConfig(
        classifier=args.classifier,
        factor_params=_factor_params(args),
        features=features,
        sigma_scope=args.sigma_scope,
        epsilon=args.epsilon,
        alpha=alpha,
    )


def _write_predictions(test_events, predictions, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("household\tmovie\ttimestamp\tpredicted\n")
        for ev, pred in zip(test_events, predictions):
            fh.write(f"{ev.household}\t{ev.movie}\t{ev.timestamp}\t{pred}\n")


def _write_posteriors(test_events, posteriors, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("household\tmovie\ttimestamp\tmember\tposterior\n")
        for ev, post in zip(test_events, posteriors):
            for member in sorted(post):
                fh.write(f"{ev.household}\t{ev.movie}\t{ev.timestamp}\t"
                         f"{member}\t{repr(post[member])}\n")


def _load_factor_model(args, pipeline, required: bool = True):
    """The family's --model, if it uses one; a usage error if required and absent."""
    if not pipeline.needs_factor_model or (args.model is None and not required):
        return None
    if args.model is None:
        raise ConfigError(f"classifier {args.classifier!r} needs --model")
    return factorize.load_model(args.model)


def cmd_classify(args) -> int:
    if args.dump_logit and args.classifier != "unified":
        raise ConfigError("--dump-logit only applies to the unified classifier")
    if args.dump_posteriors and args.classifier == "residual":
        raise ConfigError("the residual classifier has no posteriors to dump")
    pipeline = _pipeline_from_args(args, alpha=args.alpha)
    model = _load_factor_model(args, pipeline)
    dataset = load_dataset(args.train, args.households, args.test)
    fitted = evaluate.fit_pipeline(dataset, pipeline, model=model)
    test = dataset.test

    if args.classifier == "residual" and args.alpha_grid:
        out = Path(args.out)
        for idx, alpha in enumerate(_parse_grid(args.alpha_grid)):
            predictions, _ = evaluate.classify_events(
                replace(fitted, config=replace(pipeline, alpha=alpha)), test)
            path = out.with_name(f"{out.stem}.alpha{idx}{out.suffix}")
            _write_predictions(test, predictions, path)
            print(f"alpha={repr(alpha)} -> {path}")
        return 0

    predictions, posteriors = evaluate.classify_events(fitted, test)
    _write_predictions(test, predictions, args.out)
    if args.dump_posteriors:
        _write_posteriors(test, posteriors, args.dump_posteriors)
    if args.dump_logit:
        logistic.save_logit_models(fitted.logit_models, args.dump_logit)
    return 0


def _read_predictions(path, test_events):
    predictions = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    if lines and lines[0].startswith("household"):
        lines = lines[1:]
    if len(lines) != len(test_events):
        raise ConfigError(
            f"{path}: {len(lines)} predictions for {len(test_events)} test events")
    for line, ev in zip(lines, test_events):
        hid, movie, stamp, predicted = line.split("\t")
        if (int(hid), int(movie), int(stamp)) != (ev.household, ev.movie, ev.timestamp):
            raise ConfigError(f"{path}: prediction row does not match test file order")
        predictions.append(int(predicted))
    return predictions


def _read_posteriors(path, test_events, households):
    """Load a posterior dump back into one member->probability map per event.

    Each event must carry exactly its household's members.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if lines and lines[0].startswith("household"):
        lines = lines[1:]
    posteriors = [dict() for _ in test_events]
    keys = {(ev.household, ev.movie, ev.timestamp): idx
            for idx, ev in enumerate(test_events)}
    for line in lines:
        hid, movie, stamp, member, value = line.split("\t")
        idx = keys.get((int(hid), int(movie), int(stamp)))
        if idx is None:
            raise ConfigError(f"{path}: posterior row matches no test event")
        posteriors[idx][int(member)] = float(value)
    for ev, post in zip(test_events, posteriors):
        members = households[ev.household].members if ev.household in households else ()
        if set(post) != set(members):
            raise ConfigError(
                f"{path}: test event (household {ev.household}, movie {ev.movie}, "
                f"timestamp {ev.timestamp}) has posteriors for members {sorted(post)}, "
                f"not {sorted(members)}")
    return posteriors


def cmd_evaluate(args) -> int:
    households = parse_households(args.households)
    annotations = {}
    for item in args.annotate or ():
        key, _, value = item.partition("=")
        if not _:
            raise ConfigError(f"bad --annotate {item!r}, expected key=value")
        annotations[key] = float(value)

    if args.export_histograms:
        if not args.train:
            raise ConfigError("--export-histograms needs --train")
        train = parse_ratings(args.train)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "weekday_histogram.tsv", "w", encoding="utf-8") as fh:
            fh.write("household\tmember\tsun\tmon\ttue\twed\tthu\tfri\tsat\n")
            for row in temporal.weekday_histogram(train, households):
                fh.write("\t".join(str(v) for v in row) + "\n")
        with open(out_dir / "tv_histogram.tsv", "w", encoding="utf-8") as fh:
            fh.write("household\ttotal_variation\n")
            for hid, value in temporal.tv_histogram(train, households):
                fh.write(f"{hid}\t{repr(value)}\n")
        if args.model:
            model = factorize.load_model(args.model)
            edges, counts = generative.residual_histogram(train, model)
            with open(out_dir / "residual_histogram.tsv", "w", encoding="utf-8") as fh:
                fh.write("left_edge\tright_edge\tcount\n")
                for k in range(len(counts)):
                    fh.write(f"{repr(float(edges[k]))}\t"
                             f"{repr(float(edges[k + 1]))}\t{counts[k]}\n")
        print(out_dir)
        return 0

    if args.cv:
        if not args.train:
            raise ConfigError("--cv needs --train")
        dataset = load_dataset(args.train, args.households)
        pipeline = _pipeline_from_args(args)
        seeds = [int(tok) for tok in args.seeds.replace(",", " ").split()]
        result = evaluate.run_cv(dataset, pipeline, seeds, fraction=args.fraction)
        text = evaluate.format_cv(result)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        print(text, end="")
        return 0

    if not (args.test and args.predictions and args.out):
        raise ConfigError("evaluate needs --test, --predictions and --out "
                          "(or one of --cv / --export-histograms)")
    test = parse_test_events(args.test)
    predictions = _read_predictions(args.predictions, test)
    posteriors = None
    if args.posteriors:
        posteriors = _read_posteriors(args.posteriors, test, households)
    report = evaluate.build_report(test, predictions, households,
                                   posteriors=posteriors,
                                   annotations=annotations)
    evaluate.write_report(report, args.out)
    print(evaluate.summary_line(report))
    return 0


def cmd_roc(args) -> int:
    pipeline = _pipeline_from_args(args)
    if args.classifier == "residual":
        model = _load_factor_model(args, pipeline)
        households = parse_households(args.households)
        test = parse_test_events(args.test)
        if args.alpha_grid:
            grid = _parse_grid(args.alpha_grid)
        else:
            grid = [0.0] + list(np.geomspace(1e-3, 1e4, args.grid_size - 1))
        points = evaluate.roc_sweep(model, households, test, grid)
    else:
        if args.train is None:
            raise ConfigError("posterior roc sweeps need --train")
        model = _load_factor_model(args, pipeline, required=False)
        dataset = load_dataset(args.train, args.households, args.test)
        fitted = evaluate.fit_pipeline(dataset, pipeline, model=model)
        _, posteriors = evaluate.classify_events(fitted, dataset.test)
        grid = list(np.linspace(0.0, 1.0, args.grid_size))
        points = evaluate.roc_sweep_posterior(dataset.test, posteriors,
                                              dataset.households, grid)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("parameter\ttpr_first\ttpr_rest\n")
        for point in points:
            fh.write(f"{repr(point.parameter)}\t{repr(point.tpr_first)}\t"
                     f"{repr(point.tpr_rest)}\n")
    print(args.out)
    return 0


def cmd_baseline(args) -> int:
    counts = {2: args.size2, 3: args.size3, 4: args.size4}
    counts = {size: count for size, count in counts.items() if count}
    print(repr(evaluate.random_baseline(counts)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhattrib",
        description="Attribute anonymous household ratings to household members.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="fit the time-dependent factor model")
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True)
    _add_factor_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("classify", help="attribute test events to members")
    p.add_argument("--train", required=True)
    p.add_argument("--households", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--classifier", required=True, choices=evaluate.CLASSIFIERS)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--alpha-grid", default=None, dest="alpha_grid")
    p.add_argument("--dump-posteriors", default=None, dest="dump_posteriors")
    p.add_argument("--dump-logit", default=None, dest="dump_logit")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evaluate", help="score predictions or run cross-validation")
    p.add_argument("--households", required=True)
    p.add_argument("--test", default=None)
    p.add_argument("--predictions", default=None)
    p.add_argument("--posteriors", default=None,
                   help="posterior dump to score with the pairwise AUC")
    p.add_argument("--train", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--cv", action="store_true")
    p.add_argument("--classifier", default="prior-day", choices=evaluate.CLASSIFIERS)
    p.add_argument("--seeds", default="1,2,3,4,5")
    p.add_argument("--fraction", type=float, default=0.04)
    p.add_argument("--export-histograms", action="store_true",
                   dest="export_histograms")
    p.add_argument("--out-dir", default="histograms", dest="out_dir")
    p.add_argument("--annotate", action="append", default=None)
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("roc", help="sweep a decision parameter into an ROC table")
    p.add_argument("--households", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--classifier", default="residual", choices=evaluate.CLASSIFIERS)
    p.add_argument("--train", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha-grid", default=None, dest="alpha_grid")
    p.add_argument("--grid-size", type=int, default=50, dest="grid_size")
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_roc)

    p = sub.add_parser("baseline", help="expected error of random guessing")
    p.add_argument("--size2", type=int, default=0)
    p.add_argument("--size3", type=int, default=0)
    p.add_argument("--size4", type=int, default=0)
    p.set_defaults(func=cmd_baseline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 1
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
