"""End-to-end orchestration: corpus -> priors -> rules -> features ->
cross-validated report, plus the configuration-grid sweep.

Every artifact write is atomic and every random choice derives from the
single configured seed, so rerunning a pipeline with the same
configuration reproduces its outputs byte for byte.
"""

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import classifiers
from .corpus_io import encode_texts, load_corpus, load_lemma_dictionary
from .errors import ConfigurationError, DataError
from .evaluation import EvalReport, run_cv
from .features import Dataset, Variant, doc_rows, term_rows, write_features_csv
from .lexicon import PriorFormula, load_lexicon, prior_table
from .parallel import map_items
from .scoring import (Corpus, RuleConfig, SentenceFormula, load_word_list,
                      sentence_scores)
from .util import atomic_write_text

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
    level: str = "term"
    prior_formula: str = "max_sub"
    sentence_formula: str | None = None
    variant: int = 8
    rules: bool = False
    window: int = 1
    classifier: str = "ann"
    classifier_options: dict = field(default_factory=dict)
    k: int = 5
    seed: int = 7

    def resolve(self):
        """Validate the fields; resolve them into enums and a config.

        Returns (Variant, PriorFormula, SentenceFormula | None, classifier
        config); raises ConfigurationError before any data is touched.
        """
        if self.level not in ("term", "document"):
            raise ConfigurationError(
                f"level must be 'term' or 'document', got {self.level!r}")
        try:
            variant = Variant.from_level_and_width(self.level, int(self.variant))
            prior = PriorFormula.from_name(self.prior_formula)
        except ValueError as exc:
            raise ConfigurationError(str(exc))
        sentence = None
        if self.level == "document":
            if not self.sentence_formula:
                raise ConfigurationError(
                    "document level requires a sentence formula")
            try:
                sentence = SentenceFormula.from_name(self.sentence_formula)
            except ValueError as exc:
                raise ConfigurationError(str(exc))
        elif self.sentence_formula:
            raise ConfigurationError(
                "sentence formula only applies at document level")
        clf_config = classifiers.make_config(self.classifier,
                                             **self.classifier_options)
        if self.rules and not (self.negations_path and self.intensifiers_path):
            raise ConfigurationError(
                "rules are enabled but negation/intensifier word lists "
                "are not configured")
        if self.k < 2:
            raise ConfigurationError(f"k must be >= 2, got {self.k}")
        if self.window < 1:
            raise ConfigurationError(f"window must be >= 1, got {self.window}")
        return variant, prior, sentence, clf_config


def prepare_corpus(corpus_dir, lemma_dict_path) -> Corpus:
    """Load, tokenize and lemmatize a corpus directory into columns."""
    lemma_dict = load_lemma_dictionary(lemma_dict_path)
    raws = load_corpus(corpus_dir)
    surfaces, *columns = encode_texts(raw.text for raw in raws)
    return Corpus([raw.id for raw in raws],
                  np.array([raw.label for raw in raws], dtype=int),
                  [(s, lemma_dict.lemma(s)) for s in surfaces], *columns)


def build_dataset(corpus: Corpus, priors, variant: Variant,
                  rule_cfg: RuleConfig | None = None,
                  sentence_formula: SentenceFormula | None = None) -> Dataset:
    """Score a corpus into full-width rows, in corpus order, and project
    them onto ``variant``."""
    positions, scores = corpus.subjective(priors, rule_cfg)
    if variant.level == "term":
        rows = term_rows(positions, scores, corpus.doc_tokens)
    else:
        rows = doc_rows(sentence_scores(positions, scores,
                                        corpus.sentence_tokens,
                                        sentence_formula),
                        corpus.doc_sentences)
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
    """Prepare the corpus, one prior table per formula and the rule lists."""
    with _stage("corpus loading"):
        corpus = prepare_corpus(cfg.corpus_dir, cfg.lemma_dict_path)
    with _stage("prior aggregation"):
        lexicon = load_lexicon(cfg.lexicon_path)
        if not any(lemma in lexicon for _, lemma in corpus.words):
            raise DataError(f"{cfg.lexicon_path} has a prior for no lemma "
                            "of the corpus")
        priors = {f: prior_table(lexicon, f) for f in prior_formulas}
    rule_cfg = None
    if rules:
        with _stage("rule word lists"):
            rule_cfg = RuleConfig(
                negation_words=load_word_list(cfg.negations_path),
                intensifier_words=load_word_list(cfg.intensifiers_path),
                window=cfg.window)
    return corpus, priors, rule_cfg


def featurize(inputs, variant: Variant, prior_formula: PriorFormula,
              sentence_formula: SentenceFormula | None, rules: bool):
    """Build the full-width dataset that ``variant`` projects from."""
    corpus, priors, rule_cfg = inputs
    with _stage("feature extraction"):
        return build_dataset(corpus, priors[prior_formula], variant.full,
                             rule_cfg if rules else None, sentence_formula)


def evaluate(cfg, dataset, prior_formula, sentence_formula,
             clf_config) -> EvalReport:
    """Cross-validate ``dataset`` and write the run's artifacts."""
    out = Path(cfg.out_dir)
    write_features_csv(dataset, out / "features.csv")
    meta = {
        "classifier": cfg.classifier,
        "formula": prior_formula.value,
        "sentence_formula": sentence_formula.value if sentence_formula else None,
        "level": cfg.level,
        "variant": dataset.variant.name,
        "rules": cfg.rules,
        "k": cfg.k,
        "seed": cfg.seed,
    }
    with _stage("cross-validation"):
        report = run_cv(dataset, cfg.classifier, clf_config, k=cfg.k,
                        seed=cfg.seed, meta=meta)
    for j, model in enumerate(report.models):
        classifiers.save_model(model, out / f"model_fold{j}.json")
    atomic_write_text(out / "report.json",
                      json.dumps(report.to_dict(), sort_keys=True, indent=2)
                      + "\n")
    return report


def run_pipeline(cfg: PipelineConfig) -> EvalReport:
    """Execute the full pipeline and write its artifacts.

    Writes ``features.csv``, one ``model_fold<j>.json`` per fold, and
    ``report.json`` under ``cfg.out_dir``.
    """
    variant, prior_formula, sentence_formula, clf_config = cfg.resolve()
    inputs = load_inputs(cfg, [prior_formula], cfg.rules)
    dataset = featurize(inputs, variant, prior_formula, sentence_formula,
                        cfg.rules)
    return evaluate(cfg, dataset.project(variant), prior_formula,
                    sentence_formula, clf_config)


@dataclass
class SweepCell:
    classifier: str
    prior_formula: str
    sentence_formula: str | None
    variant: int
    rules: bool
    report: EvalReport | None = None
    # Test F per class of the report's average, set with ``report``.
    test_f_pos: float = math.nan
    test_f_neg: float = math.nan

    @property
    def mean_test_f(self) -> float:
        return (self.test_f_pos + self.test_f_neg) / 2.0

    def set_report(self, report: EvalReport) -> None:
        """Keep ``report`` and its averaged test F, computed once."""
        test = report.average()["test"]
        self.report = report
        self.test_f_pos, self.test_f_neg = test["pos"]["f"], test["neg"]["f"]

    def name(self) -> str:
        parts = [self.classifier, self.prior_formula]
        if self.sentence_formula:
            parts.append(self.sentence_formula)
        parts.append(f"{self.variant}f")
        parts.append("rules" if self.rules else "norules")
        return "_".join(parts)


def sweep(base: PipelineConfig, prior_formulas, variants, rules_options,
          classifier_kinds, sentence_formulas=None,
          options_by_kind=None) -> list:
    """Run the pipeline over a configuration grid.

    Cells share one prepared corpus and one full-width dataset per (prior
    formula, sentence formula, rules), all built before any cell runs; the
    cells then run side by side (``parallel.map_items``). Writes each
    cell's artifacts under ``<out_dir>/cells/<name>/`` and a ``sweep.csv``
    comparison table marking the best cell (highest mean test F across
    classes). Returns the cells in grid order.
    """
    for axis, values in (("classifiers", classifier_kinds),
                         ("prior formulas", prior_formulas),
                         ("variants", variants),
                         ("rules options", rules_options)):
        if not values:
            raise ConfigurationError(f"the sweep grid has no {axis}")
    levels = {_level_of(v) for v in variants}
    if len(levels) > 1:
        raise ConfigurationError("sweep variants must all share one level")

    options_by_kind = options_by_kind or {}
    sentence_formulas = list(sentence_formulas or [None])
    cells = []
    for kind in classifier_kinds:
        for formula in prior_formulas:
            for sf in sentence_formulas:
                for variant in variants:
                    for rules in rules_options:
                        cell = SweepCell(classifier=kind, prior_formula=formula,
                                         sentence_formula=sf,
                                         variant=int(variant),
                                         rules=bool(rules))
                        cell_cfg = replace(
                            base, out_dir=str(Path(base.out_dir) / "cells"
                                              / cell.name()),
                            level=_level_of(variant), prior_formula=formula,
                            sentence_formula=sf, variant=int(variant),
                            rules=bool(rules), classifier=kind,
                            classifier_options=options_by_kind.get(kind, {}))
                        cells.append((cell, cell_cfg, cell_cfg.resolve()))

    inputs = load_inputs(base, dict.fromkeys(r[1] for _, _, r in cells),
                         any(c.rules for c, _, _ in cells))
    datasets = {}
    for cell, _, (variant, prior, sentence, _) in cells:
        key = (prior, sentence, cell.rules)
        if key not in datasets:
            datasets[key] = featurize(inputs, variant, *key)

    def run_cell(j):
        cell, cell_cfg, (variant, prior, sentence, clf_config) = cells[j]
        dataset = datasets[(prior, sentence, cell.rules)].project(variant)
        return evaluate(cell_cfg, dataset, prior, sentence, clf_config)

    finished = [cell for cell, _, _ in cells]
    for cell, report in zip(finished, map_items(run_cell, len(cells))):
        cell.set_report(report)

    best = max(range(len(finished)), key=lambda i: finished[i].mean_test_f)
    lines = [SWEEP_HEADER]
    for i, cell in enumerate(finished):
        lines.append(",".join([
            cell.classifier, cell.prior_formula,
            cell.sentence_formula or "", str(cell.variant),
            "true" if cell.rules else "false",
            repr(cell.test_f_pos), repr(cell.test_f_neg),
            repr(cell.mean_test_f), "1" if i == best else "0"]))
    atomic_write_text(Path(base.out_dir) / "sweep.csv",
                      "\n".join(lines) + "\n")
    return finished


def _level_of(variant_width) -> str:
    for v in Variant:
        if v.width == int(variant_width):
            return v.level
    raise ConfigurationError(f"no variant has {variant_width} features")


# The type each config-file value must parse to: int, bool, or str for
# names and paths. Classifier options come from flags only.
_FILE_TYPES = {f.name: f.type if f.type in (int, bool) else str
               for f in fields(PipelineConfig)
               if f.name != "classifier_options"}


def read_config_file(path) -> dict:
    """Parse a flat ``key = value`` configuration file.

    Values may be quoted strings, booleans (true/false), integers,
    floats, or bare strings; ``#`` starts a comment line. Keys mirror
    PipelineConfig field names, and each value must parse to its field's
    type; an unknown key or a mistyped value is a ConfigurationError.
    """
    values = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")
    except UnicodeDecodeError:
        raise ConfigurationError(f"config file is not valid UTF-8: {path}")
    for n, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{path}:{n}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _FILE_TYPES:
            raise ConfigurationError(f"{path}:{n}: unknown config key {key!r}")
        value = _parse_value(raw)
        if type(value) is not _FILE_TYPES[key]:
            raise ConfigurationError(f"{path}:{n}: {key} must be of type "
                                     f"{_FILE_TYPES[key].__name__}, got {raw!r}")
        values[key] = value
    return values


def _parse_value(raw: str):
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
        return raw[1:-1]
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    for parse in (int, float):
        try:
            return parse(raw)
        except ValueError:
            pass
    return raw
