"""Subcommand front-end for the toolkit.

Exit codes: 0 success, 1 configuration error (bad flags or incompatible
options), 2 data error (missing or malformed inputs).
"""

import argparse
import json
import sys
from pathlib import Path

from . import classifiers
from .corpus_io import encode_texts, load_corpus
from .corpus_quality import quality_report, rank_frequencies
from .errors import ConfigurationError, DataError
from .evaluation import run_cv
from .features import read_features_csv, write_features_csv
from .lexicon import PriorFormula, load_lexicon, prior_table
from .pipeline import (PipelineConfig, featurize, load_inputs,
                       read_config_file, run_pipeline, sweep)
from .scoring import SentenceFormula, sentence_scores
from .synth import SynthConfig, generate
from .util import atomic_write_text


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigurationError."""

    def error(self, message):
        raise ConfigurationError(message)


def _add_corpus_args(p, lexicon=True):
    p.add_argument("--corpus", required=True, help="corpus root with pos/ and neg/")
    p.add_argument("--lemma-dict", required=True,
                   help="surface<TAB>lemma TSV file")
    if lexicon:
        p.add_argument("--lexicon", required=True,
                       help="lemma<TAB>positive<TAB>negative TSV file")


def _add_rules_args(p):
    p.add_argument("--rules", action="store_true", default=False,
                   help="apply negation/intensification rules")
    p.add_argument("--no-rules", dest="rules", action="store_false")
    p.add_argument("--negations", help="negation word list, one per line")
    p.add_argument("--intensifiers", help="intensifier word list, one per line")
    p.add_argument("--window", type=int, default=1,
                   help="rule adjacency window in tokens (default 1)")


def _add_classifier_args(p, default="ann"):
    p.add_argument("--classifier", choices=classifiers.KINDS, default=default)
    p.add_argument("--hidden", type=int, help="ANN hidden units (default 15)")
    p.add_argument("--restarts", type=int, help="ANN training restarts (default 4)")
    p.add_argument("--max-epochs", type=int, help="ANN epoch budget (default 500)")
    p.add_argument("--lr", type=float, help="ANN initial learning rate")
    p.add_argument("--momentum", type=float, help="ANN momentum")
    p.add_argument("--confidence", type=float,
                   help="tree pruning confidence factor (default 0.25)")
    p.add_argument("--min-leaf", type=int,
                   help="tree minimum rows per leaf (default 2)")
    p.add_argument("--no-prune", action="store_true", default=False,
                   help="disable tree pruning")
    p.add_argument("--svm-c", type=float, help="SVM penalty C (default 1)")
    p.add_argument("--gamma", type=float,
                   help="SVM RBF gamma (default 1/num_features)")
    p.add_argument("--tol", type=float, help="SVM KKT tolerance (default 1e-3)")
    p.add_argument("--max-passes", type=int, help="SVM sweep budget")


def _classifier_options(args, kind=None) -> dict:
    by_kind = {
        "ann": {"hidden": args.hidden, "restarts": args.restarts,
                "max_epochs": args.max_epochs, "lr": args.lr,
                "momentum": args.momentum},
        "dtree": {"confidence": args.confidence, "min_leaf": args.min_leaf,
                  "prune": False if args.no_prune else None},
        "svm": {"c": args.svm_c, "gamma": args.gamma, "tol": args.tol,
                "max_passes": args.max_passes},
    }.get(kind or args.classifier, {})
    return {k: v for k, v in by_kind.items() if v is not None}


def _corpus_config(args, **fields) -> PipelineConfig:
    """Settings for the subcommands that write one file, not a run."""
    return PipelineConfig(
        corpus_dir=args.corpus, lexicon_path=args.lexicon,
        lemma_dict_path=args.lemma_dict, out_dir=".",
        negations_path=args.negations, intensifiers_path=args.intensifiers,
        rules=args.rules, window=args.window, **fields)


def cmd_synth(args) -> int:
    try:
        cfg = SynthConfig(docs_per_class=args.docs, seed=args.seed,
                          sentiment_density=args.density, purity=args.purity,
                          rule_fraction=args.rule_fraction,
                          arabic_tool_words=args.arabic_tool_words)
    except ValueError as exc:
        raise ConfigurationError(f"bad synth options: {exc}")
    paths = generate(cfg, args.out)
    print(json.dumps({"corpus": str(paths.corpus_dir),
                      "lexicon": str(paths.lexicon),
                      "lemma_dict": str(paths.lemma_dict),
                      "negations": str(paths.negations),
                      "intensifiers": str(paths.intensifiers)}, indent=2))
    return 0


def cmd_quality(args) -> int:
    texts = (raw.text for raw in load_corpus(args.corpus))
    words, word_ids, *_ = encode_texts(texts)
    table = rank_frequencies(words, word_ids)
    base = 2.0 if args.log_base == "2" else None
    report = quality_report(table, a=args.exponent, csv_path=args.out,
                            base=base)
    print(json.dumps({"kl_prob": report.kl_prob, "kl_raw": report.kl_raw,
                      "exponent": report.zipf_exponent_a,
                      "unique_words": len(table.entries),
                      "total_tokens": table.total_tokens,
                      "table": report.table_path}, indent=2))
    return 0


def cmd_lexicon_aggregate(args) -> int:
    formula = PriorFormula.from_name(args.formula)
    priors = prior_table(load_lexicon(args.lexicon), formula)
    lines = [f"{lemma}\t{value!r}" for lemma, value in priors.items()]
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(priors)} priors ({formula.value}) to {args.out}")
    return 0


def cmd_score(args) -> int:
    cfg = _corpus_config(args, prior_formula=args.formula)
    _, formula, _, _ = cfg.resolve()
    corpus, priors, rule_cfg = load_inputs(cfg, [formula], cfg.rules)
    priors = priors[formula]

    sf = (SentenceFormula.from_name(args.sentence_formula)
          if args.sentence_formula else None)
    if sf is None:
        lines = ["doc_id\tindex\tsurface\tlemma\tprior\tadjusted"]
        offsets = corpus.doc_tokens.tolist()
        words = corpus.word_ids.tolist()
        token_priors, adjusted = (
            a.tolist() for a in corpus.token_scores(priors, rule_cfg))
        for doc_id, start, end in zip(corpus.ids, offsets, offsets[1:]):
            for t in range(start, end):
                surface, lemma = corpus.words[words[t]]
                lines.append(f"{doc_id}\t{t - start}\t{surface}\t{lemma}"
                             f"\t{token_priors[t]!r}\t{adjusted[t]!r}")
    else:
        lines = ["doc_id\tsentence\tscore"]
        offsets = corpus.doc_sentences.tolist()
        values = sentence_scores(*corpus.subjective(priors, rule_cfg),
                                 corpus.sentence_tokens, sf).tolist()
        for doc_id, start, end in zip(corpus.ids, offsets, offsets[1:]):
            for k in range(start, end):
                lines.append(f"{doc_id}\t{k - start}\t{values[k]!r}")
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out}")
    return 0


def cmd_featurize(args) -> int:
    cfg = _corpus_config(args, level=args.level, prior_formula=args.formula,
                         sentence_formula=args.sentence_formula,
                         variant=args.variant)
    variant, formula, sentence_formula, _ = cfg.resolve()
    inputs = load_inputs(cfg, [formula], cfg.rules)
    dataset = featurize(inputs, variant, formula, sentence_formula,
                        cfg.rules).project(variant)
    write_features_csv(dataset, args.out)
    print(f"wrote {len(dataset)} {variant.name} rows to {args.out}")
    return 0


def cmd_train(args) -> int:
    config = classifiers.with_seed(
        classifiers.make_config(args.classifier, **_classifier_options(args)),
        args.seed)
    dataset = read_features_csv(args.features)
    model = classifiers.train(args.classifier, dataset.rows, dataset.labels,
                              config)
    classifiers.save_model(model, args.out)
    train_acc = float((classifiers.predict_labels(model, dataset.rows)
                       == dataset.labels).mean())
    print(json.dumps({"model": str(args.out), "kind": args.classifier,
                      "rows": len(dataset), "training_accuracy": train_acc}))
    return 0


def cmd_evaluate(args) -> int:
    config = classifiers.make_config(args.classifier,
                                     **_classifier_options(args))
    dataset = read_features_csv(args.features)
    report = run_cv(dataset, args.classifier, config, k=args.folds,
                    seed=args.seed,
                    meta={"variant": dataset.variant.name})
    atomic_write_text(args.out, json.dumps(report.to_dict(), sort_keys=True,
                                           indent=2) + "\n")
    avg = report.average()["test"]
    print(json.dumps({"report": str(args.out),
                      "test_f_pos": avg["pos"]["f"],
                      "test_f_neg": avg["neg"]["f"]}))
    return 0


def _pipeline_config(args) -> PipelineConfig:
    merged = {}
    if args.config:
        merged.update(read_config_file(args.config))
    overrides = {
        "corpus_dir": args.corpus, "lexicon_path": args.lexicon,
        "lemma_dict_path": args.lemma_dict, "out_dir": args.out,
        "negations_path": args.negations, "intensifiers_path": args.intensifiers,
        "level": getattr(args, "level", None),
        "prior_formula": getattr(args, "formula", None),
        "sentence_formula": getattr(args, "sentence_formula", None),
        "variant": getattr(args, "variant", None),
        "rules": getattr(args, "rules", None),
        "window": args.window, "classifier": args.classifier,
        "k": args.folds, "seed": args.seed,
    }
    merged.update({k: v for k, v in overrides.items() if v is not None})
    for required in ("corpus_dir", "lexicon_path", "lemma_dict_path", "out_dir"):
        if not merged.get(required):
            raise ConfigurationError(f"missing required setting: {required}")
    cfg = PipelineConfig(**merged)
    cfg.classifier_options = _classifier_options(args, cfg.classifier)
    return cfg


def cmd_pipeline(args) -> int:
    cfg = _pipeline_config(args)
    report = run_pipeline(cfg)
    avg = report.average()["test"]
    print(json.dumps({"report": str(Path(cfg.out_dir) / "report.json"),
                      "classifier": cfg.classifier,
                      "test_f_pos": avg["pos"]["f"],
                      "test_f_neg": avg["neg"]["f"]}))
    return 0


def cmd_sweep(args) -> int:
    base = _pipeline_config(args)
    kinds = _split(args.classifiers)
    try:
        variants = [int(v) for v in _split(args.variants)]
    except ValueError:
        raise ConfigurationError(
            f"--variants takes integers, got {args.variants!r}") from None
    cells = sweep(base,
                  prior_formulas=_split(args.formulas),
                  variants=variants,
                  rules_options=[_parse_bool(x)
                                 for x in _split(args.rules_options)],
                  classifier_kinds=kinds,
                  sentence_formulas=_split(args.sentence_formulas) or None,
                  options_by_kind={k: _classifier_options(args, k)
                                   for k in kinds})
    best = max(cells, key=lambda c: c.mean_test_f)
    print(json.dumps({"table": str(Path(base.out_dir) / "sweep.csv"),
                      "cells": len(cells), "best": best.name(),
                      "best_mean_test_f": best.mean_test_f}))
    return 0


def _split(value) -> list:
    if not value:
        return []
    return [x.strip() for x in value.split(",") if x.strip()]


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("1", "true", "on", "yes"):
        return True
    if low in ("0", "false", "off", "no"):
        return False
    raise ConfigurationError(f"expected a boolean, got {text!r}")


def build_parser() -> _Parser:
    parser = _Parser(prog="multisent",
                     description="Multilevel sentiment analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic corpus and lexicon")
    p.add_argument("--docs", type=int, default=250, help="documents per class")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--purity", type=float, default=1.0)
    p.add_argument("--rule-fraction", type=float, default=0.0)
    p.add_argument("--arabic-tool-words", action="store_true", default=False)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("quality", help="Zipf rank-frequency and KL report")
    p.add_argument("--corpus", required=True)
    p.add_argument("--exponent", type=float, default=1.0)
    p.add_argument("--log-base", choices=("e", "2"), default="e")
    p.add_argument("--out", required=True, help="rank/actual/ideal CSV path")
    p.set_defaults(func=cmd_quality)

    p = sub.add_parser("lexicon-aggregate",
                       help="collapse sense scores into priors")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--formula", required=True,
                   choices=[f.value for f in PriorFormula])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lexicon_aggregate)

    p = sub.add_parser("score", help="per-token or per-sentence scores")
    _add_corpus_args(p)
    p.add_argument("--formula", default="max_sub",
                   choices=[f.value for f in PriorFormula])
    p.add_argument("--sentence-formula",
                   choices=[f.value for f in SentenceFormula],
                   help="emit sentence scores instead of token scores")
    _add_rules_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("featurize", help="build a feature CSV")
    _add_corpus_args(p)
    p.add_argument("--level", choices=("term", "document"), default="term")
    p.add_argument("--variant", type=int, default=8,
                   help="8|6 for term level, 7|5|4 for document level")
    p.add_argument("--formula", default="max_sub",
                   choices=[f.value for f in PriorFormula])
    p.add_argument("--sentence-formula",
                   choices=[f.value for f in SentenceFormula])
    _add_rules_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train one model on a feature CSV")
    p.add_argument("--features", "--in", dest="features", required=True)
    _add_classifier_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate",
                       help="cross-validate a classifier on a feature CSV")
    p.add_argument("--features", required=True)
    _add_classifier_args(p)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_evaluate)

    for name, handler in (("pipeline", cmd_pipeline), ("sweep", cmd_sweep)):
        p = sub.add_parser(name, help=f"run the full {name}")
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--corpus")
        p.add_argument("--lexicon")
        p.add_argument("--lemma-dict")
        p.add_argument("--out")
        p.add_argument("--negations")
        p.add_argument("--intensifiers")
        p.add_argument("--window", type=int)
        p.add_argument("--folds", type=int)
        p.add_argument("--seed", type=int)
        _add_classifier_args(p, default=None)
        if name == "pipeline":
            p.add_argument("--level", choices=("term", "document"))
            p.add_argument("--variant", type=int)
            p.add_argument("--formula",
                           choices=[f.value for f in PriorFormula])
            p.add_argument("--sentence-formula",
                           choices=[f.value for f in SentenceFormula])
            p.add_argument("--rules", action="store_true", default=None)
            p.add_argument("--no-rules", dest="rules", action="store_false")
        else:
            p.add_argument("--formulas", default="max_sub",
                           help="comma-separated prior formulas")
            p.add_argument("--variants", default="8",
                           help="comma-separated widths, one level only")
            p.add_argument("--rules-options", default="off",
                           help="comma-separated booleans, e.g. off,on")
            p.add_argument("--classifiers", default="ann",
                           help="comma-separated classifier kinds")
            p.add_argument("--sentence-formulas", default="",
                           help="comma-separated sentence formulas")
        p.set_defaults(func=handler)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
