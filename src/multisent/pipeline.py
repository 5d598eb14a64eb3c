"""End-to-end orchestration: corpus -> priors -> rules -> features ->
cross-validated report, plus the configuration-grid sweep.

Every artifact write is atomic and every random choice derives from the
single configured seed, so rerunning a pipeline with the same
configuration reproduces its outputs byte for byte.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path

import numpy as np

from . import classifiers
from .corpus_io import load_corpus, load_lemma_dictionary
from .errors import ConfigurationError, DataError
from .evaluation import EvalReport, run_cv
from .features import Dataset, Variant, doc_rows, term_rows, write_features_csv
from .lexicon import PriorFormula, load_lexicon, prior_table
from .parallel import map_items
from .scoring import (Corpus, RuleConfig, SentenceFormula, load_word_list,
                      sentence_scores)
from .util import (atomic_write_text, check_fields, field_types,
                   read_text, write_json)

SWEEP_HEADER = ("classifier,prior_formula,sentence_formula,variant,rules,"
                "test_f_pos,test_f_neg,mean_test_f,best")


@dataclass
class PipelineConfig:
    corpus_dir: str
    lexicon_path: str
    lemma_dict_path: str
    out_dir: str
    negations_path: str | None = None
    intensifiers_path: str | None = None
    level: str | None = None
    prior_formula: str = "max_sub"
    sentence_formula: str | None = None
    variant: int = 8
    rules: bool = False
    window: int = RuleConfig.window
    classifier: str = "ann"
    classifier_options: dict = field(default_factory=dict)
    k: int = field(default=5, metadata={"min": 2})
    seed: int = 7

    def resolve(self):
        """Validate the fields; resolve them into enums and a config.

        Returns (Variant, PriorFormula, SentenceFormula | None, classifier
        config), the level being the variant's; raises ConfigurationError
        before any data is touched.
        """
        check_fields(self)
        variant = Variant.from_width(self.variant)
        prior = PriorFormula.from_name(self.prior_formula)
        if self.level not in (None, variant.level):
            raise ConfigurationError(
                f"variant {self.variant} is {variant.level}-level, but "
                f"level is {self.level!r}")
        sentence = None
        if variant.level == "document":
            if not self.sentence_formula:
                raise ConfigurationError(
                    "document level requires a sentence formula")
            sentence = SentenceFormula.from_name(self.sentence_formula)
        elif self.sentence_formula:
            raise ConfigurationError(
                "sentence formula only applies at document level")
        clf_config = classifiers.make_config(self.classifier,
                                             **self.classifier_options)
        if self.rules and not (self.negations_path and self.intensifiers_path):
            raise ConfigurationError(
                "rules are enabled but negation/intensifier word lists "
                "are not configured")
        RuleConfig(window=self.window)   # its window rule, rules on or off
        return variant, prior, sentence, clf_config


def prepare_corpus(corpus_dir, lemma_dict_path) -> Corpus:
    """Read, tokenize and lemmatize a corpus directory into columns, one
    document at a time."""
    lemma_dict = load_lemma_dictionary(lemma_dict_path)
    ids, labels, surfaces, *columns = load_corpus(corpus_dir)
    return Corpus(ids, labels, [(s, lemma_dict.lemma(s)) for s in surfaces],
                  *columns)


def build_dataset(corpus: Corpus, priors, variant: Variant,
                  rule_cfg: RuleConfig = RuleConfig(),
                  sentence_formula: SentenceFormula | None = None) -> Dataset:
    """Score a corpus into full-width rows, in corpus order, and project
    them onto ``variant``. The rows are built one block of whole documents
    at a time (``Corpus.blocks``), so no token-level array spans more
    than a block."""
    word_scores = corpus.word_scores(priors, rule_cfg)
    rows = np.empty((len(corpus.ids), variant.full.width))
    for first, block in corpus.blocks():
        positions, scores = block.subjective(word_scores)
        if variant.level == "term":
            block_rows = term_rows(positions, scores, block.doc_tokens)
        else:
            block_rows = doc_rows(
                sentence_scores(positions, scores, block.sentence_tokens,
                                sentence_formula),
                block.doc_sentences)
        rows[first:first + len(block_rows)] = block_rows
    return Dataset(rows=rows, labels=corpus.labels,
                   variant=variant.full).project(variant)


@contextmanager
def _stage(name: str):
    """Prefix stage names onto errors so failures carry their origin."""
    try:
        yield
    except (ConfigurationError, DataError) as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def load_inputs(cfg: PipelineConfig, prior_formulas, rules: bool) -> tuple:
    """Prepare the corpus, one prior table per formula and the rule lists,
    or the empty rule set when ``rules`` is off."""
    with _stage("corpus loading"):
        corpus = prepare_corpus(cfg.corpus_dir, cfg.lemma_dict_path)
    with _stage("prior aggregation"):
        lexicon = load_lexicon(cfg.lexicon_path)
        if not any(lemma in lexicon for _, lemma in corpus.words):
            raise DataError(f"{cfg.lexicon_path} has a prior for no lemma "
                            "of the corpus")
        priors = {f: prior_table(lexicon, f) for f in prior_formulas}
    rule_cfg = RuleConfig()
    if rules:
        with _stage("rule word lists"):
            negations = load_word_list(cfg.negations_path)
            intensifiers = load_word_list(cfg.intensifiers_path)
            rule_cfg = RuleConfig(negations, intensifiers, cfg.window)
    return corpus, priors, rule_cfg


def run_configs(configs, resolved) -> list:
    """The report of each config; ``resolved`` holds their ``resolve()``.

    The configs share their input paths and rule window: the inputs load
    once, with a prior table per formula, and one full-width dataset is
    built per (prior formula, sentence formula, rules). The corpus, the
    prior tables and the rule lists are then released, and the configs
    run side by side (``parallel.map_items``), each cross-validating its
    variant's projection and writing its artifacts under its ``out_dir``.
    """
    corpus, priors, rule_cfg = load_inputs(
        configs[0], dict.fromkeys(r[1] for r in resolved),
        any(cfg.rules for cfg in configs))
    datasets = {}
    for cfg, (variant, prior, sentence, _) in zip(configs, resolved):
        key = (prior, sentence, cfg.rules)
        if key not in datasets:
            datasets[key] = build_dataset(
                corpus, priors[prior], variant.full,
                rule_cfg if cfg.rules else RuleConfig(), sentence)
    del corpus, priors, rule_cfg

    def run(j):
        cfg, (variant, prior, sentence, clf_config) = configs[j], resolved[j]
        dataset = datasets[(prior, sentence, cfg.rules)].project(variant)
        out = Path(cfg.out_dir)
        write_features_csv(dataset, out / "features.csv")
        meta = {"formula": prior.value,
                "sentence_formula": sentence.value if sentence else None,
                "level": variant.level, "variant": variant.name,
                "rules": cfg.rules}
        with _stage("cross-validation"):
            report = run_cv(dataset, cfg.classifier, clf_config, k=cfg.k,
                            seed=cfg.seed, meta=meta)
        for fold, model in enumerate(report.models):
            classifiers.save_model(model, out / f"model_fold{fold}.json")
        write_json(out / "report.json", report.to_dict())
        return report

    return map_items(run, len(configs))


def run_pipeline(cfg: PipelineConfig) -> EvalReport:
    """Execute the full pipeline, ``run_configs`` of one config: writes
    ``features.csv``, one ``model_fold<j>.json`` per fold, and
    ``report.json`` under ``cfg.out_dir``."""
    return run_configs([cfg], [cfg.resolve()])[0]


@dataclass
class SweepCell:
    """One point of a sweep's grid: the settings of its run, then its
    report, the test F per class of the report's average, and whether its
    mean test F is the grid's best, each set once."""
    config: PipelineConfig
    report: EvalReport | None = None
    test_f_pos: float = math.nan
    test_f_neg: float = math.nan
    best: bool = False

    @property
    def mean_test_f(self) -> float:
        return (self.test_f_pos + self.test_f_neg) / 2.0

    def set_report(self, report: EvalReport) -> None:
        test = report.average()["test"]
        self.report = report
        self.test_f_pos, self.test_f_neg = test["pos"]["f"], test["neg"]["f"]

    def name(self) -> str:
        cfg = self.config
        parts = [cfg.classifier, cfg.prior_formula]
        if cfg.sentence_formula:
            parts.append(cfg.sentence_formula)
        parts.append(f"{cfg.variant}f")
        parts.append("rules" if cfg.rules else "norules")
        return "_".join(parts)


def sweep(base: PipelineConfig, prior_formulas, variants, rules_options,
          classifier_kinds, sentence_formulas=None,
          options_by_kind=None) -> list:
    """Run the pipeline over a configuration grid: ``run_configs`` of its
    cells, each resolved at its variant's level before anything is read.

    A cell's name spells its settings as its report does, and its
    artifacts go under ``<out_dir>/cells/<name>/``. Writes a ``sweep.csv``
    comparison table marking the best cell (highest mean test F across
    classes; the first such cell in grid order). Returns the cells in grid
    order. An empty grid axis, or two cells of one name, is a
    ConfigurationError.
    """
    for axis, values in (("classifiers", classifier_kinds),
                         ("prior formulas", prior_formulas),
                         ("variants", variants),
                         ("rules options", rules_options)):
        if not values:
            raise ConfigurationError(f"the sweep grid has no {axis}")

    options_by_kind = options_by_kind or {}
    grid = product(classifier_kinds, prior_formulas,
                   sentence_formulas or [None], variants, rules_options)
    configs = [replace(base, level=None, prior_formula=formula,
                       sentence_formula=sf, variant=variant, rules=rules,
                       classifier=kind,
                       classifier_options=options_by_kind.get(kind, {}))
               for kind, formula, sf, variant, rules in grid]
    resolved = [cfg.resolve() for cfg in configs]
    cells = {}
    for cfg, (_, prior, sentence, _) in zip(configs, resolved):
        cell = SweepCell(replace(
            cfg, prior_formula=prior.value,
            sentence_formula=sentence.value if sentence else None))
        name = cell.name()
        if name in cells:
            raise ConfigurationError(
                f"the sweep grid repeats the cell {name}")
        cell.config.out_dir = str(Path(base.out_dir) / "cells" / name)
        cells[name] = cell
    cells = list(cells.values())

    reports = run_configs([cell.config for cell in cells], resolved)
    for cell, report in zip(cells, reports):
        cell.set_report(report)
    max(cells, key=lambda cell: cell.mean_test_f).best = True

    lines = [SWEEP_HEADER]
    for cell in cells:
        cfg = cell.config
        lines.append(",".join([
            cfg.classifier, cfg.prior_formula, cfg.sentence_formula or "",
            str(cfg.variant), "true" if cfg.rules else "false",
            repr(cell.test_f_pos), repr(cell.test_f_neg),
            repr(cell.mean_test_f), "1" if cell.best else "0"]))
    atomic_write_text(Path(base.out_dir) / "sweep.csv",
                      "\n".join(lines) + "\n")
    return cells


def parse_bool(text: str) -> bool:
    """The one boolean grammar, of ``--rules-options`` and config files."""
    low = text.lower()
    if low in ("1", "true", "on", "yes"):
        return True
    if low in ("0", "false", "off", "no"):
        return False
    raise ConfigurationError(f"expected a boolean, got {text!r}")


def _shown(text: str) -> str:
    """``text`` quoted, cut to its first 40 characters if it is longer."""
    return (repr(text) if len(text) <= 40 else
            f"{text[:40]!r}... ({len(text)} characters)")


def read_config_file(path) -> dict:
    """Parse a flat ``key = value`` configuration file.

    Keys mirror PipelineConfig field names, and each value is read as its
    field's type: a string, without its surrounding quotes if it has them;
    an integer, by ``int``; a boolean, by ``parse_bool``. ``#`` starts a
    comment line. An unknown key, a value its field's type cannot read (a
    quoted integer or boolean among them) or a NUL character in a value
    (no path can hold one) is a ConfigurationError; a key or value longer
    than 40 characters is shown cut short, with its length.
    """
    values, types = {}, field_types(PipelineConfig)
    lines = read_text(path, "config file", ConfigurationError).splitlines()
    for n, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{path}:{n}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        type_ = types.get(key)
        if type_ not in (str, int, bool):   # classifier_options: flags only
            raise ConfigurationError(
                f"{path}:{n}: unknown config key {_shown(key)}")
        if "\0" in raw:
            raise ConfigurationError(f"{path}:{n}: {key} holds a NUL character")
        quoted = len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'"
        if type_ is str and quoted:
            raw = raw[1:-1]
        try:
            values[key] = (raw if type_ is str else int(raw) if type_ is int
                           else parse_bool(raw))
        except (ValueError, ConfigurationError):
            raise ConfigurationError(f"{path}:{n}: {key} must be of type "
                                     f"{type_.__name__}, got {_shown(raw)}"
                                     ) from None
    return values
