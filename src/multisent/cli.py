"""Subcommand front-end for the toolkit.

Exit codes: 0 success, 1 configuration error (bad flags or incompatible
options), 2 data error (missing or malformed inputs).
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import classifiers
from .corpus_io import load_corpus
from .corpus_quality import quality_report, rank_frequencies
from .errors import ConfigurationError, DataError
from .evaluation import run_cv
from .features import read_features_csv, write_features_csv
from .lexicon import PriorFormula, load_lexicon, prior_table
from .pipeline import (PipelineConfig, build_dataset, load_inputs,
                       parse_bool, read_config_file, run_pipeline, sweep)
from .scoring import SentenceFormula, sentence_scores
from .synth import SynthConfig, generate
from .util import (atomic_write_chunks, atomic_write_text, check_range,
                   field_types, write_json)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigurationError and
    takes each flag only as spelled in full."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigurationError(message)


def _names(names) -> str:
    """Classifier kinds, or a formula enum's names, as argparse shows
    choices; ``make_config`` or ``from_name`` alone reads them."""
    return "{" + ",".join(getattr(n, "value", n) for n in names) + "}"


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
    "--window": ("window", {"help": "rule adjacency window in tokens"}),
    "--level": ("level", {"choices": ("term", "document")}),
    "--variant": ("variant", {"help": "8|6 for term level, 7|5|4 for "
                              "document level"}),
    "--formula": ("prior_formula", {"metavar": _names(PriorFormula),
                                    "help": "prior formula"}),
    "--sentence-formula": ("sentence_formula",
                           {"metavar": _names(SentenceFormula),
                            "help": "document level's sentence formula; "
                            "score emits sentence scores with it"}),
    "--rules": ("rules", {"action": "store_const", "const": True,
                          "help": "apply negation/intensification rules"}),
    "--no-rules": ("rules", {"action": "store_const", "const": False}),
    "--classifier": ("classifier", {"metavar": _names(classifiers.KINDS)}),
    "--folds": ("k", {"help": "cross-validation folds"}),
    "--seed": ("seed", {}),
    "--out": ("out_dir", {}),
}
_INPUT_FLAGS = ("--corpus", "--lemma-dict", "--lexicon", "--negations",
                "--intensifiers", "--window")
_CELL_FLAGS = ("--formula", "--sentence-formula", "--rules", "--no-rules")
_LOOP_FLAGS = ("--config", *_INPUT_FLAGS, "--folds", "--seed", "--out")

# Each classifier kind's options in the same form, each setting a field.
_CLASSIFIER_FLAGS = {"ann": {
    "--hidden": ("hidden", {"help": "ANN hidden units"}),
    "--restarts": ("restarts", {"help": "ANN training restarts"}),
    "--max-epochs": ("max_epochs", {"help": "ANN epoch budget"}),
    "--lr": ("lr", {"help": "ANN initial learning rate"}),
    "--momentum": ("momentum", {"help": "ANN momentum"}),
}, "dtree": {
    "--confidence": ("confidence",
                     {"help": "tree pruning confidence factor"}),
    "--min-leaf": ("min_leaf", {"help": "tree minimum rows per leaf"}),
    "--no-prune": ("prune", {"action": "store_const", "const": False,
                             "help": "disable tree pruning"}),
}, "svm": {
    "--svm-c": ("c", {"help": "SVM penalty C"}),
    "--gamma": ("gamma", {"help": "SVM RBF gamma (default 1/num_features)"}),
    "--tol": ("tol", {"help": "SVM KKT tolerance"}),
    "--max-passes": ("max_passes", {"help": "SVM sweep budget"}),
}}

# synth's settings in the same form, each destination a SynthConfig field.
_SYNTH_FLAGS = {
    "--docs": ("docs_per_class",
               {"metavar": "DOCS", "help": "documents per class"}),
    "--seed": ("seed", {}),
    "--density": ("sentiment_density", {"metavar": "DENSITY"}),
    "--purity": ("purity", {}),
    "--rule-fraction": ("rule_fraction", {}),
    "--arabic-tool-words": ("arabic_tool_words",
                            {"action": "store_const", "const": True}),
}


def _add_flags(p, flags=None, table=_RUN_FLAGS, config=PipelineConfig):
    """Add ``flags`` (all, if None) of ``table``, each but a switch reading
    the type of the field of ``config`` it sets (else a str), its help
    ending with the field's default unless that is None or missing."""
    types = field_types(config)
    defaults = {f.name: f"(default {f.default})"
                for f in dataclasses.fields(config)
                if f.default not in (None, dataclasses.MISSING)}
    for flag in flags or table:
        dest, keywords = table[flag]
        if "action" not in keywords:
            keywords = dict(keywords, type=types.get(dest, str))
            if dest in defaults:
                keywords["help"] = " ".join(
                    filter(None, (keywords.get("help"), defaults[dest])))
        p.add_argument(flag, dest=dest, **keywords)


def _add_classifier_args(p):
    for kind, table in _CLASSIFIER_FLAGS.items():
        _add_flags(p, table=table, config=classifiers.make_config(kind))


def _given(args, table) -> dict:
    """Each destination of ``table`` whose flag was given, with its value."""
    return {dest: value for dest, _ in table.values()
            if (value := getattr(args, dest, None)) is not None}


def _classifier_options(args, *kinds) -> dict:
    """The classifier options given, by kind, for each of ``kinds``: the
    kinds a command trains. An unknown kind is refused first, then a flag
    of another kind, naming the flag and its kind (ConfigurationError)."""
    for kind in kinds:
        classifiers.make_config(kind)
    for kind, table in _CLASSIFIER_FLAGS.items():
        for flag, (dest, _) in table.items():
            if kind not in kinds and getattr(args, dest, None) is not None:
                raise ConfigurationError(f"{flag} applies to {kind} only, "
                                         f"and this run trains no {kind}")
    return {kind: _given(args, _CLASSIFIER_FLAGS[kind]) for kind in kinds}


def _run_config(args, **fixed) -> PipelineConfig:
    """A run's settings: the config file's, if one is given, overridden by
    the flags given, then by ``fixed``."""
    given = _given(args, _RUN_FLAGS)
    path = given.pop("config", None)
    settings = {**(read_config_file(path) if path else {}), **given, **fixed}
    for required in ("corpus_dir", "lexicon_path", "lemma_dict_path",
                     "out_dir"):
        if not settings.get(required):
            raise ConfigurationError(f"missing required setting: {required}")
    return PipelineConfig(**settings)


def cmd_synth(args) -> int:
    try:
        cfg = SynthConfig(**_given(args, _SYNTH_FLAGS))
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
    sf = (SentenceFormula.from_name(args.sentence_formula)
          if args.sentence_formula else None)
    corpus, priors, rule_cfg = load_inputs(cfg, [formula], cfg.rules)
    word_scores = corpus.word_scores(priors[formula], rule_cfg)

    def chunks():
        # One chunk per block of documents: the table is never held whole.
        # A row is its document's id, its index there, then its fields.
        yield ("doc_id\tindex\tsurface\tlemma\tprior\tadjusted\n"
               if sf is None else "doc_id\tsentence\tscore\n")
        for _, block in corpus.blocks():
            if sf is None:
                offsets = block.doc_tokens.tolist()
                token_priors, adjusted = (
                    a.tolist() for a in block.token_scores(word_scores))
                fields = ("\t".join((*corpus.words[w], repr(p), repr(a)))
                          for w, p, a in zip(block.word_ids.tolist(),
                                             token_priors, adjusted))
            else:
                offsets = block.doc_sentences.tolist()
                fields = map(repr, sentence_scores(
                    *block.subjective(word_scores), block.sentence_tokens,
                    sf).tolist())
            yield "".join([f"{doc_id}\t{i}\t{row}\n"
                           for doc_id, start, end in zip(block.ids, offsets,
                                                         offsets[1:])
                           for i, row in zip(range(end - start), fields)])

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
    kind = args.classifier
    seed = {} if args.seed is None else {"seed": args.seed}
    config = classifiers.make_config(
        kind, **_classifier_options(args, kind)[kind], **seed)
    dataset = read_features_csv(args.features)
    model = classifiers.train(kind, dataset.rows, dataset.labels, config)
    classifiers.save_model(model, args.out)
    train_acc = float((classifiers.predict_labels(model, dataset.rows)
                       == dataset.labels).mean())
    print(json.dumps({"model": str(args.out), "kind": kind,
                      "rows": len(dataset), "training_accuracy": train_acc}))
    return 0


def cmd_evaluate(args) -> int:
    kind = args.classifier
    config = classifiers.make_config(
        kind, **_classifier_options(args, kind)[kind])
    # --folds meets PipelineConfig.k's range before the file is read.
    check_range("k", args.k,
                PipelineConfig.__dataclass_fields__["k"].metadata)
    dataset = read_features_csv(args.features)
    report = run_cv(dataset, kind, config, k=args.k, seed=args.seed,
                    meta={"variant": dataset.variant.name})
    write_json(args.out, report.to_dict())
    avg = report.average()["test"]
    print(json.dumps({"report": str(args.out),
                      "test_f_pos": avg["pos"]["f"],
                      "test_f_neg": avg["neg"]["f"]}))
    return 0


def cmd_pipeline(args) -> int:
    cfg = _run_config(args)
    cfg.classifier_options = _classifier_options(
        args, cfg.classifier)[cfg.classifier]
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
    options_by_kind = _classifier_options(args, *kinds)
    try:
        variants = [int(v) for v in _split(args.variants)]
    except ValueError:
        raise ConfigurationError(
            f"--variants takes integers, got {args.variants!r}") from None
    cells = sweep(base,
                  prior_formulas=_split(args.formulas),
                  variants=variants,
                  rules_options=[parse_bool(x)
                                 for x in _split(args.rules_options)],
                  classifier_kinds=kinds,
                  sentence_formulas=_split(args.sentence_formulas) or None,
                  options_by_kind=options_by_kind)
    best = next(cell for cell in cells if cell.best)
    print(json.dumps({"table": str(Path(base.out_dir) / "sweep.csv"),
                      "cells": len(cells), "best": best.name(),
                      "best_mean_test_f": best.mean_test_f}))
    return 0


def _split(value) -> list:
    if not value:
        return []
    return [x.strip() for x in value.split(",") if x.strip()]


def build_parser() -> _Parser:
    parser = _Parser(prog="multisent",
                     description="Multilevel sentiment analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic corpus and lexicon")
    _add_flags(p, table=_SYNTH_FLAGS, config=SynthConfig)
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
    p.add_argument("--formula", required=True, metavar=_names(PriorFormula))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lexicon_aggregate)

    p = sub.add_parser("score", help="per-token or per-sentence scores")
    _add_flags(p, _INPUT_FLAGS + _CELL_FLAGS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("featurize", help="build a feature CSV")
    _add_flags(p, _INPUT_FLAGS + _CELL_FLAGS + ("--level", "--variant"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train one model on a feature CSV")
    p.add_argument("--features", "--in", dest="features", required=True)
    _add_flags(p, ("--classifier",))
    _add_flags(p, table={"--seed": ("seed", {
        "help": "the ANN's or the SVM's seed; a tree takes none"})},
        config=classifiers.AnnConfig)
    _add_classifier_args(p)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_train, classifier=PipelineConfig.classifier)

    p = sub.add_parser("evaluate",
                       help="cross-validate a classifier on a feature CSV")
    p.add_argument("--features", required=True)
    _add_flags(p, ("--classifier", "--folds", "--seed"))
    _add_classifier_args(p)
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_evaluate, classifier=PipelineConfig.classifier,
                   k=PipelineConfig.k, seed=PipelineConfig.seed)

    p = sub.add_parser("pipeline", help="run the full pipeline")
    _add_flags(p, _LOOP_FLAGS + _CELL_FLAGS
               + ("--level", "--variant", "--classifier"))
    _add_classifier_args(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("sweep", help="run the full sweep")
    _add_flags(p, _LOOP_FLAGS)
    _add_classifier_args(p)
    p.add_argument("--formulas", default=PipelineConfig.prior_formula,
                   help="comma-separated prior formulas")
    p.add_argument("--variants", default=str(PipelineConfig.variant),
                   help="comma-separated widths, one level only")
    p.add_argument("--rules-options", default=str(PipelineConfig.rules),
                   help="comma-separated booleans, e.g. off,on")
    p.add_argument("--classifiers", default=PipelineConfig.classifier,
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
