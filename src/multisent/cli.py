"""Subcommand front-end for the toolkit.

Exit codes: 0 success, 1 configuration error (bad flags or incompatible
options), 2 data error (missing or malformed inputs).
"""

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import classifiers
from .corpus_io import load_corpus
from .corpus_quality import quality_report, rank_frequencies
from .errors import ConfigurationError, DataError
from .evaluation import run_cv
from .features import read_features_csv, write_features_csv
from .lexicon import PriorFormula, load_lexicon, prior_table
from .pipeline import (PipelineConfig, build_dataset, load_inputs,
                       read_config_file, run_pipeline, sweep)
from .scoring import SentenceFormula, sentence_scores
from .synth import SynthConfig, generate
from .util import atomic_write_chunks, atomic_write_text, write_json


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigurationError and
    takes each flag only as spelled in full."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigurationError(message)


# The settings of a run, each declared once: flag -> (destination,
# add_argument keywords). Each destination but --config's is the
# PipelineConfig field the flag sets. No flag has a default, so a flag left
# out keeps the config file's value or PipelineConfig's default.
_RUN_FLAGS = {
    "--config": ("config", {"help": "key = value configuration file"}),
    "--corpus": ("corpus_dir", {"help": "corpus root with pos/ and neg/"}),
    "--lemma-dict": ("lemma_dict_path",
                     {"help": "surface<TAB>lemma TSV file"}),
    "--lexicon": ("lexicon_path",
                  {"help": "lemma<TAB>positive<TAB>negative TSV file"}),
    "--negations": ("negations_path",
                    {"help": "negation word list, one per line"}),
    "--intensifiers": ("intensifiers_path",
                       {"help": "intensifier word list, one per line"}),
    "--window": ("window", {"type": int, "help": "rule adjacency window "
                            "in tokens (default 1)"}),
    "--level": ("level", {"choices": ("term", "document")}),
    "--variant": ("variant", {"type": int, "help": "8|6 for term level, "
                              "7|5|4 for document level (default 8)"}),
    "--formula": ("prior_formula",
                  {"choices": [f.value for f in PriorFormula],
                   "help": "prior formula (default max_sub)"}),
    "--sentence-formula": ("sentence_formula",
                           {"choices": [f.value for f in SentenceFormula],
                            "help": "document level's sentence formula; "
                            "score emits sentence scores with it"}),
    "--rules": ("rules", {"action": "store_const", "const": True,
                          "help": "apply negation/intensification rules"}),
    "--no-rules": ("rules", {"action": "store_const", "const": False}),
    "--classifier": ("classifier", {"choices": classifiers.KINDS}),
    "--folds": ("k", {"type": int,
                      "help": "cross-validation folds (default 5)"}),
    "--seed": ("seed", {"type": int}),
    "--out": ("out_dir", {}),
}
_INPUT_FLAGS = ("--corpus", "--lemma-dict", "--lexicon", "--negations",
                "--intensifiers", "--window")
_CELL_FLAGS = ("--formula", "--sentence-formula", "--rules", "--no-rules")
_LOOP_FLAGS = ("--config", *_INPUT_FLAGS, "--folds", "--seed", "--out")

# Classifier options: (flag, kind, option, type, help). The bool one is a
# switch that sets its option to False.
_CLASSIFIER_FLAGS = (
    ("--hidden", "ann", "hidden", int, "ANN hidden units (default 15)"),
    ("--restarts", "ann", "restarts", int,
     "ANN training restarts (default 4)"),
    ("--max-epochs", "ann", "max_epochs", int,
     "ANN epoch budget (default 500)"),
    ("--lr", "ann", "lr", float, "ANN initial learning rate"),
    ("--momentum", "ann", "momentum", float, "ANN momentum"),
    ("--confidence", "dtree", "confidence", float,
     "tree pruning confidence factor (default 0.25)"),
    ("--min-leaf", "dtree", "min_leaf", int,
     "tree minimum rows per leaf (default 2)"),
    ("--no-prune", "dtree", "prune", bool, "disable tree pruning"),
    ("--svm-c", "svm", "c", float, "SVM penalty C (default 1)"),
    ("--gamma", "svm", "gamma", float,
     "SVM RBF gamma (default 1/num_features)"),
    ("--tol", "svm", "tol", float, "SVM KKT tolerance (default 1e-3)"),
    ("--max-passes", "svm", "max_passes", int, "SVM sweep budget"),
)


def _add_run_args(p, flags, **defaults):
    for flag in flags:
        dest, keywords = _RUN_FLAGS[flag]
        p.add_argument(flag, dest=dest, **keywords)
    p.set_defaults(**defaults)


def _add_classifier_args(p):
    for flag, _, option, type_, text in _CLASSIFIER_FLAGS:
        if type_ is bool:
            p.add_argument(flag, dest=option, action="store_const",
                           const=False, help=text)
        else:
            p.add_argument(flag, dest=option, type=type_, help=text)


def _classifier_options(args, kind) -> dict:
    given = vars(args)
    return {option: given[option] for _, k, option, _, _ in _CLASSIFIER_FLAGS
            if k == kind and given.get(option) is not None}


_CONFIG_FIELDS = {f.name for f in fields(PipelineConfig)}


def _run_config(args, **fixed) -> PipelineConfig:
    """A run's settings: the config file's, if one is given, overridden by
    the flags given, then by ``fixed``."""
    given = vars(args)
    settings = read_config_file(given["config"]) if given.get("config") else {}
    settings.update((k, v) for k, v in given.items()
                    if k in _CONFIG_FIELDS and v is not None)
    settings.update(fixed)
    for required in ("corpus_dir", "lexicon_path", "lemma_dict_path",
                     "out_dir"):
        if not settings.get(required):
            raise ConfigurationError(f"missing required setting: {required}")
    cfg = PipelineConfig(**settings)
    cfg.classifier_options = _classifier_options(args, cfg.classifier)
    return cfg


def cmd_synth(args) -> int:
    try:
        cfg = SynthConfig(docs_per_class=args.docs, seed=args.seed,
                          sentiment_density=args.density, purity=args.purity,
                          rule_fraction=args.rule_fraction,
                          arabic_tool_words=args.arabic_tool_words)
    except ConfigurationError as exc:
        raise ConfigurationError(f"bad synth options: {exc}")
    paths = generate(cfg, args.out)
    print(json.dumps({"corpus": str(paths.corpus_dir),
                      "lexicon": str(paths.lexicon),
                      "lemma_dict": str(paths.lemma_dict),
                      "negations": str(paths.negations),
                      "intensifiers": str(paths.intensifiers)}, indent=2))
    return 0


def cmd_quality(args) -> int:
    _, _, words, word_ids, *_ = load_corpus(args.corpus)
    table = rank_frequencies(words, word_ids)
    base = 2.0 if args.log_base == "2" else None
    report = quality_report(table, a=args.exponent, csv_path=args.out,
                            base=base)
    print(json.dumps({"kl_prob": report.kl_prob, "kl_raw": report.kl_raw,
                      "exponent": args.exponent,
                      "unique_words": len(table.entries),
                      "total_tokens": table.total_tokens,
                      "table": str(Path(args.out))}, indent=2))
    return 0


def cmd_lexicon_aggregate(args) -> int:
    formula = PriorFormula.from_name(args.formula)
    priors = prior_table(load_lexicon(args.lexicon), formula)
    lines = [f"{lemma}\t{value!r}" for lemma, value in priors.items()]
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {len(priors)} priors ({formula.value}) to {args.out}")
    return 0


def cmd_score(args) -> int:
    # A sentence formula here selects sentence scores, not a level.
    cfg = _run_config(args, out_dir=".", sentence_formula=None)
    _, formula, _, _ = cfg.resolve()
    corpus, priors, rule_cfg = load_inputs(cfg, [formula], cfg.rules)
    word_scores = corpus.word_scores(priors[formula], rule_cfg)
    sf = (SentenceFormula.from_name(args.sentence_formula)
          if args.sentence_formula else None)

    def chunks():
        # One chunk per block of documents: the table is never held whole.
        if sf is None:
            yield "doc_id\tindex\tsurface\tlemma\tprior\tadjusted\n"
        else:
            yield "doc_id\tsentence\tscore\n"
        for _, block in corpus.blocks():
            lines = []
            if sf is None:
                offsets = block.doc_tokens.tolist()
                words = block.word_ids.tolist()
                token_priors, adjusted = (
                    a.tolist() for a in block.token_scores(word_scores))
                for doc_id, start, end in zip(block.ids, offsets,
                                              offsets[1:]):
                    for t in range(start, end):
                        surface, lemma = corpus.words[words[t]]
                        lines.append(f"{doc_id}\t{t - start}\t{surface}"
                                     f"\t{lemma}\t{token_priors[t]!r}"
                                     f"\t{adjusted[t]!r}\n")
            else:
                offsets = block.doc_sentences.tolist()
                values = sentence_scores(*block.subjective(word_scores),
                                         block.sentence_tokens, sf).tolist()
                for doc_id, start, end in zip(block.ids, offsets,
                                              offsets[1:]):
                    for k in range(start, end):
                        lines.append(f"{doc_id}\t{k - start}"
                                     f"\t{values[k]!r}\n")
            yield "".join(lines)

    atomic_write_chunks(args.out, chunks())
    print(f"wrote {args.out}")
    return 0


def cmd_featurize(args) -> int:
    cfg = _run_config(args, out_dir=".")
    variant, formula, sentence_formula, _ = cfg.resolve()
    corpus, priors, rule_cfg = load_inputs(cfg, [formula], cfg.rules)
    dataset = build_dataset(corpus, priors[formula], variant, rule_cfg,
                            sentence_formula)
    write_features_csv(dataset, args.out)
    print(f"wrote {len(dataset)} {variant.name} rows to {args.out}")
    return 0


def cmd_train(args) -> int:
    config = classifiers.with_seed(
        classifiers.make_config(args.classifier,
                                **_classifier_options(args, args.classifier)),
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
    config = classifiers.make_config(
        args.classifier, **_classifier_options(args, args.classifier))
    dataset = read_features_csv(args.features)
    report = run_cv(dataset, args.classifier, config, k=args.k,
                    seed=args.seed,
                    meta={"variant": dataset.variant.name})
    write_json(args.out, report.to_dict())
    avg = report.average()["test"]
    print(json.dumps({"report": str(args.out),
                      "test_f_pos": avg["pos"]["f"],
                      "test_f_neg": avg["neg"]["f"]}))
    return 0


def cmd_pipeline(args) -> int:
    cfg = _run_config(args)
    report = run_pipeline(cfg)
    avg = report.average()["test"]
    print(json.dumps({"report": str(Path(cfg.out_dir) / "report.json"),
                      "classifier": cfg.classifier,
                      "test_f_pos": avg["pos"]["f"],
                      "test_f_neg": avg["neg"]["f"]}))
    return 0


def cmd_sweep(args) -> int:
    base = _run_config(args)
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
    best = next(cell for cell in cells if cell.best)
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
    _add_run_args(p, _INPUT_FLAGS + _CELL_FLAGS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("featurize", help="build a feature CSV")
    _add_run_args(p, _INPUT_FLAGS + _CELL_FLAGS + ("--level", "--variant"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train one model on a feature CSV")
    p.add_argument("--features", "--in", dest="features", required=True)
    _add_run_args(p, ("--classifier", "--seed"), classifier="ann", seed=0)
    _add_classifier_args(p)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate",
                       help="cross-validate a classifier on a feature CSV")
    p.add_argument("--features", required=True)
    _add_run_args(p, ("--classifier", "--folds", "--seed"),
                  classifier="ann", k=5, seed=7)
    _add_classifier_args(p)
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", help="run the full pipeline")
    _add_run_args(p, _LOOP_FLAGS + _CELL_FLAGS
                  + ("--level", "--variant", "--classifier"))
    _add_classifier_args(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("sweep", help="run the full sweep")
    _add_run_args(p, _LOOP_FLAGS)
    _add_classifier_args(p)
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
    p.set_defaults(func=cmd_sweep)

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
