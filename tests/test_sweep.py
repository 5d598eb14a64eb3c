"""The sweep shares its corpus and datasets across cells, and each cell's
artifacts are byte-identical to a standalone pipeline run of that cell;
both resolve their settings through ``PipelineConfig.resolve``."""

import weakref
from collections import defaultdict

import pytest

from multisent import classifiers, pipeline
from multisent.errors import ConfigurationError
from multisent.evaluation import EvalReport
from multisent.pipeline import PipelineConfig, run_pipeline, sweep
from multisent.synth import SynthConfig, generate


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    cfg = SynthConfig(docs_per_class=15, tokens_per_doc=(30, 60),
                      sentiment_density=0.35, purity=0.8, rule_fraction=0.3,
                      seed=31)
    return generate(cfg, tmp_path_factory.mktemp("sweep_synth"))


def _base(paths, out_dir, **overrides) -> PipelineConfig:
    fields = dict(corpus_dir=str(paths.corpus_dir),
                  lexicon_path=str(paths.lexicon),
                  lemma_dict_path=str(paths.lemma_dict), out_dir=str(out_dir),
                  negations_path=str(paths.negations),
                  intensifiers_path=str(paths.intensifiers),
                  k=3, seed=5)
    fields.update(overrides)
    return PipelineConfig(**fields)


def _files(directory) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("level,grid,kind,options,n_cells", [
    ("term", dict(prior_formulas=["max_sub", "avg_avg"], variants=[8, 6],
                  rules_options=[False, True]), "dtree", {}, 8),
    ("document", dict(prior_formulas=["avg_max"], variants=[7, 5, 4],
                      rules_options=[True],
                      sentence_formulas=["max_sub", "max_max"]),
     "svm", {"max_passes": 5}, 6),
], ids=["term", "document"])
def test_cells_match_standalone_pipeline_runs(paths, tmp_path, level, grid,
                                              kind, options, n_cells):
    sweep_dir = tmp_path / "sweep"
    cells = sweep(_base(paths, sweep_dir), classifier_kinds=[kind],
                  options_by_kind={kind: options}, **grid)
    assert len(cells) == n_cells
    for cell in cells:
        direct_dir = tmp_path / "direct" / cell.name()
        run_pipeline(_base(
            paths, direct_dir, level=level,
            prior_formula=cell.config.prior_formula,
            sentence_formula=cell.config.sentence_formula,
            variant=cell.config.variant, rules=cell.config.rules,
            classifier=kind,
            classifier_options=dict(options)))
        cell_files = _files(sweep_dir / "cells" / cell.name())
        assert set(cell_files) == {"features.csv", "report.json",
                                   "model_fold0.json", "model_fold1.json",
                                   "model_fold2.json"}
        assert cell_files == _files(direct_dir), cell.name()


def test_sweep_prepares_once_and_builds_each_dataset_once(paths, tmp_path,
                                                          monkeypatch):
    calls = defaultdict(list)
    for name in ("prepare_corpus", "load_lexicon", "prior_table",
                 "build_dataset"):
        def wrapper(*args, _name=name, _fn=getattr(pipeline, name)):
            calls[_name].append(args)
            return _fn(*args)
        monkeypatch.setattr(pipeline, name, wrapper)

    cells = sweep(_base(paths, tmp_path / "sweep"),
                  prior_formulas=["max_sub", "avg_sub", "max_max"],
                  variants=[8, 6], rules_options=[False, True],
                  classifier_kinds=["dtree"])
    assert len(cells) == 12
    assert len(calls["prepare_corpus"]) == 1
    assert len(calls["load_lexicon"]) == 1
    assert [args[1].value for args in calls["prior_table"]] == [
        "max_sub", "avg_sub", "max_max"]
    # one full-width build per distinct (prior formula, rules) pair
    builds = calls["build_dataset"]
    assert len(builds) == 6
    assert len({(id(priors), rule_cfg is None)
                for _, priors, _, rule_cfg, _ in builds}) == 6
    assert {variant.name for _, _, variant, _, _ in builds} == {"TERM8"}


@pytest.mark.parametrize("overrides,variant", [
    (dict(variant=6), "TERM6"),
    (dict(variant=5, sentence_formula="max_max", rules=True), "DOC5"),
], ids=["term", "document"])
def test_a_pipeline_run_prepares_once_and_builds_at_full_width(
        paths, tmp_path, monkeypatch, overrides, variant):
    calls = defaultdict(list)
    for name in ("prepare_corpus", "build_dataset"):
        def wrapper(*args, _name=name, _fn=getattr(pipeline, name)):
            calls[_name].append(args)
            return _fn(*args)
        monkeypatch.setattr(pipeline, name, wrapper)

    report = run_pipeline(_base(paths, tmp_path / "run", classifier="dtree",
                                **overrides))
    assert report.meta["variant"] == variant
    assert len(calls["prepare_corpus"]) == 1
    (build,) = calls["build_dataset"]
    assert build[2].name == {"TERM6": "TERM8", "DOC5": "DOC7"}[variant]
    assert (build[3] is None) == (not overrides.get("rules", False))


def test_a_run_releases_its_corpus_before_training(paths, tmp_path,
                                                   monkeypatch):
    corpora, alive = [], []
    prepare, train_many = pipeline.prepare_corpus, classifiers.train_many

    def watched_prepare(*args):
        corpus = prepare(*args)
        corpora.append(weakref.ref(corpus))
        return corpus

    def watched_train_many(*args):
        alive.append(corpora[0]() is not None)
        return train_many(*args)

    monkeypatch.setattr(pipeline, "prepare_corpus", watched_prepare)
    monkeypatch.setattr(classifiers, "train_many", watched_train_many)
    run_pipeline(_base(paths, tmp_path / "run", classifier="dtree",
                       variant=7, sentence_formula="max_sub", rules=True))
    assert len(corpora) == 1
    assert alive and not alive[0]


@pytest.mark.parametrize("overrides,message", [
    (dict(variant=8.9), "variant must be of type int, got 8.9"),
    (dict(variant=True), "variant must be of type int, got True"),
    (dict(k=2.5), "k must be of type int, got 2.5"),
    (dict(window=1.5), "window must be of type int, got 1.5"),
    (dict(seed="7"), "seed must be of type int, got '7'"),
    (dict(rules="off"), "rules must be of type bool, got 'off'"),
    (dict(rules=1), "rules must be of type bool, got 1"),
    (dict(level="term", variant=7),
     "variant 7 is document-level, but level is 'term'"),
    (dict(level=""), "variant 8 is term-level, but level is ''"),
    (dict(prior_formula=None), "prior_formula must be of type str, got None"),
    (dict(classifier=None), "classifier must be of type str, got None"),
])
def test_resolve_refuses_a_value_of_another_type_or_level(paths, tmp_path,
                                                          overrides, message):
    with pytest.raises(ConfigurationError) as caught:
        _base(paths, tmp_path, **overrides).resolve()
    assert str(caught.value) == message


@pytest.mark.parametrize("name", [
    "corpus_dir", "lexicon_path", "lemma_dict_path", "out_dir",
    "negations_path", "intensifiers_path", "level", "prior_formula",
    "sentence_formula", "classifier"])
def test_resolve_refuses_a_name_or_path_that_is_not_a_str(paths, tmp_path,
                                                          name):
    # At a document variant, so that a sentence formula is looked up too.
    cfg = _base(paths, tmp_path, variant=7, sentence_formula="max_sub")
    for value in (5, b"max_sub"):
        setattr(cfg, name, value)
        with pytest.raises(ConfigurationError) as caught:
            cfg.resolve()
        assert str(caught.value) == (
            f"{name} must be of type str, got {value!r}")


def test_resolve_takes_the_level_of_the_variant(paths, tmp_path):
    variant, _, sentence, _ = _base(paths, tmp_path, variant=4,
                                    sentence_formula="max_sub").resolve()
    assert (variant.name, variant.level, sentence.value) == (
        "DOC4", "document", "max_sub")


def test_sweep_refuses_a_rules_option_that_is_not_a_bool(paths, tmp_path):
    with pytest.raises(ConfigurationError,
                       match="rules must be of type bool, got 'off'"):
        sweep(_base(paths, tmp_path / "sweep"), prior_formulas=["max_sub"],
              variants=[8], rules_options=["off"], classifier_kinds=["dtree"])
    assert not (tmp_path / "sweep").exists()


def _assert_rows_match_reports(cells, table_path, average):
    table = table_path.read_text().splitlines()[1:]
    assert len(table) == len(cells)
    assert [row.endswith(",1") for row in table] == [c.best for c in cells]
    assert sum(c.best for c in cells) == 1
    for cell, row in zip(cells, table):
        test = average(cell.report)["test"]
        assert row.split(",")[5:8] == [
            repr(test["pos"]["f"]), repr(test["neg"]["f"]),
            repr((test["pos"]["f"] + test["neg"]["f"]) / 2.0)]


def test_each_cell_averages_its_report_once(paths, tmp_path, monkeypatch,
                                            on_cpus):
    calls = 0
    real_average = EvalReport.average

    def counting(self):
        nonlocal calls
        calls += 1
        return real_average(self)

    monkeypatch.setattr(EvalReport, "average", counting)
    # One CPU, so every cell runs in this process and its calls are counted.
    with on_cpus(1) as forks:
        cells = sweep(_base(paths, tmp_path / "sweep"),
                      prior_formulas=["max_sub", "avg_sub"], variants=[8, 6],
                      rules_options=[False], classifier_kinds=["dtree"])
    assert forks == [0]
    assert len(cells) == 4
    # Once for the cell's report.json and once for its sweep.csv row.
    assert calls == 2 * len(cells)
    _assert_rows_match_reports(cells, tmp_path / "sweep" / "sweep.csv",
                               real_average)


def test_forked_cells_give_the_same_rows(paths, tmp_path, on_cpus):
    with on_cpus(2) as forks:
        cells = sweep(_base(paths, tmp_path / "sweep"),
                      prior_formulas=["max_sub", "avg_sub"], variants=[8, 6],
                      rules_options=[False], classifier_kinds=["dtree"])
    assert forks == [1]
    assert len(cells) == 4
    _assert_rows_match_reports(cells, tmp_path / "sweep" / "sweep.csv",
                               EvalReport.average)
