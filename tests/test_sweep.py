"""The sweep shares its corpus and datasets across cells, and each cell's
artifacts are byte-identical to a standalone pipeline run of that cell."""

from collections import defaultdict

import pytest

from multisent import pipeline
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
            prior_formula=cell.prior_formula,
            sentence_formula=cell.sentence_formula, variant=cell.variant,
            rules=cell.rules, classifier=kind,
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


def _assert_rows_match_reports(cells, table_path, average):
    table = table_path.read_text().splitlines()[1:]
    assert len(table) == len(cells)
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
