"""``parallel.map_items`` gives the serial results, raises the serial
exception, nests serially and leaves no helper behind; the sweep, the
corpus generator, cross-validation and ANN training
(``test_classifiers.py``) use it."""

import errno
import multiprocessing
import os
import pickle
import threading
from dataclasses import asdict

import numpy as np
import pytest

from multisent import classifiers, parallel
from multisent.classifiers import TreeConfig, TreeModel, ann
from multisent.cli import main
from multisent.errors import ConfigurationError, DataError
from multisent.evaluation import run_cv
from multisent.features import Dataset, Variant
from multisent.pipeline import PipelineConfig, run_pipeline, sweep
from multisent.synth import SynthConfig, generate
from multisent.util import derive_seed


def square_and_pid(i):
    return i * i, os.getpid()


def fd_names():
    return sorted(os.listdir("/proc/self/fd"))


def test_shares_are_residue_classes_capped_by_the_items():
    n = 10**12
    assert parallel._shares(n, 2) == [range(0, n, 2), range(1, n, 2)]
    assert parallel._shares(3, 8) == [range(0, 3, 8), range(1, 3, 8),
                                      range(2, 3, 8)]
    for n in range(1, 12):
        for cpus in range(1, 14):
            shares = parallel._shares(n, cpus)
            assert len(shares) == min(cpus, n)
            assert sorted(i for s in shares for i in s) == list(range(n))
            assert max(map(len, shares)) - min(map(len, shares)) <= 1
            assert all(i % cpus == r for r, s in enumerate(shares)
                       for i in s)
    assert multiprocessing.active_children() == []


def test_cpus_are_the_affinity_of_a_single_threaded_process(monkeypatch):
    # conftest pins BLAS to one thread, so the suite forks helpers.
    assert parallel.usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert parallel.usable_cpus() == 1          # as under ``taskset -c 0``
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert parallel.usable_cpus() == 3
    monkeypatch.delattr(os, "fork")
    assert parallel.usable_cpus() == 1


def test_a_process_with_another_thread_does_not_fork():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert parallel.usable_cpus() == 1
    finally:
        release.set()
        thread.join()


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
def test_items_match_serial_and_the_parent_keeps_residue_zero(on_cpus, n,
                                                              cpus):
    with on_cpus(cpus) as forks:
        got = parallel.map_items(square_and_pid, n)
    assert forks == [max(min(cpus, n) - 1, 0)]
    assert [value for value, _ in got] == [i * i for i in range(n)]
    owner = {}
    for i, (_, pid) in enumerate(got):
        assert (pid == os.getpid()) == (i % cpus == 0)
        assert owner.setdefault(i % cpus, pid) == pid
    assert len(set(owner.values())) == len(owner)


def test_failed_fork_leaves_the_items_to_the_parent(monkeypatch, on_cpus):
    def no_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_fork)
    fds = fd_names()
    with on_cpus(2) as forks:
        got = parallel.map_items(square_and_pid, 5)
    assert forks == [1]
    assert got == [(i * i, os.getpid()) for i in range(5)]
    assert fd_names() == fds   # pipe closed


def test_dead_helper_leaves_the_items_to_the_parent(on_cpus):
    parent = os.getpid()

    def dying(i):
        if os.getpid() != parent:
            os._exit(1)
        return square_and_pid(i)

    with on_cpus(2) as forks:
        got = parallel.map_items(dying, 5)
    assert forks == [1]
    assert got == [(i * i, parent) for i in range(5)]


@pytest.mark.parametrize("failing", [{1}, {2}, {1, 2}, {2, 3}, {3, 4}, {5}])
@pytest.mark.parametrize("cpus", [2, 3])
def test_the_first_failing_item_raises_as_in_a_serial_run(on_cpus, cpus,
                                                          failing):
    def item(i):
        if i in failing:
            raise ValueError(f"item {i} failed in pid {os.getpid()}")
        return i

    with pytest.raises(ValueError) as serial, on_cpus(1):
        parallel.map_items(item, 6)
    with pytest.raises(ValueError) as forked, on_cpus(cpus) as forks:
        parallel.map_items(item, 6)
    assert forks == [cpus - 1]
    assert str(forked.value) == str(serial.value)


def test_nested_calls_run_serially(on_cpus):
    def outer(i):
        return parallel.map_items(square_and_pid, 3), os.getpid()

    with on_cpus(3) as forks:
        got = parallel.map_items(outer, 3)
    assert forks == [2]
    for inner, pid in got:
        assert inner == [(i * i, pid) for i in range(3)]


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    cfg = SynthConfig(docs_per_class=12, tokens_per_doc=(30, 60),
                      sentiment_density=0.35, purity=0.8, seed=41)
    return generate(cfg, tmp_path_factory.mktemp("parallel_synth"))


def _sweep(paths, out_dir, kinds):
    base = PipelineConfig(corpus_dir=str(paths.corpus_dir),
                          lexicon_path=str(paths.lexicon),
                          lemma_dict_path=str(paths.lemma_dict),
                          out_dir=str(out_dir), k=3, seed=5)
    return sweep(base, prior_formulas=["max_sub"], variants=[8, 6],
                 rules_options=[False], classifier_kinds=kinds,
                 options_by_kind={"ann": {"max_epochs": 30}})


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_a_sweep_of_ann_cells_forks_once_and_matches_one_cpu(paths, tmp_path,
                                                            on_cpus):
    with on_cpus(1) as forks:
        _sweep(paths, tmp_path / "serial", ["ann", "dtree"])
    assert forks == [0]
    # The cells fork one helper; the ANN restarts inside them nest and run
    # serially, so no more than cpus - 1 helpers are ever alive.
    with on_cpus(2) as forks:
        _sweep(paths, tmp_path / "forked", ["ann", "dtree"])
    assert forks == [1]
    serial, forked = _tree(tmp_path / "serial"), _tree(tmp_path / "forked")
    assert len(serial) == 1 + 4 * 5
    assert forked == serial


def _diverging_6f_cell(monkeypatch, paths, out_dir):
    # Cell 1 of the grid (ann, 6 features) lies in a helper's share.
    run_once = ann._run_once
    monkeypatch.setattr(ann, "_run_once", lambda x, t, c, seed:
                        None if x.shape[1] == 6 else run_once(x, t, c, seed))
    _sweep(paths, out_dir, ["ann"])


def _blocked_corpus(monkeypatch, paths, out_dir):
    # pos/doc_0003.txt is in item 1 of 2, the pos batch: a helper's on 2
    # CPUs.
    blocker = out_dir / "corpus" / "pos" / "doc_0003.txt"
    blocker.mkdir(parents=True, exist_ok=True)
    generate(SynthConfig(docs_per_class=10, seed=3), out_dir)


@pytest.mark.parametrize("mode", ["forked", "fork_fails"])
@pytest.mark.parametrize("failing,error", [
    (_diverging_6f_cell, DataError), (_blocked_corpus, ConfigurationError)],
    ids=["sweep_cell", "generate"])
def test_a_failure_in_a_helper_raises_as_in_a_serial_run(
        monkeypatch, on_cpus, paths, tmp_path, failing, error, mode):
    with pytest.raises(error) as serial, on_cpus(1):
        failing(monkeypatch, paths, tmp_path)
    if mode == "fork_fails":
        def no_fork():
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        monkeypatch.setattr(os, "fork", no_fork)
    fds = fd_names()
    with pytest.raises(error) as forked, on_cpus(2) as forks:
        failing(monkeypatch, paths, tmp_path)
    assert forks == [1]
    assert str(forked.value) == str(serial.value)
    assert fd_names() == fds


def test_a_blocked_document_exits_1_on_every_cpu_count(on_cpus, tmp_path,
                                                       capsys):
    (tmp_path / "corpus" / "pos" / "doc_0007.txt").mkdir(parents=True)
    errors = []
    for cpus in (1, 2):
        with on_cpus(cpus):
            assert main(["synth", "--docs", "10", "--out",
                         str(tmp_path)]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "pos/doc_0007.txt: it is a directory" in errors[0]


def chain_tree(depth):
    """A tree ``depth`` splits deep whose every left child is a leaf."""
    nodes = []
    for d in range(depth):
        nodes += [{"counts": [depth - d, 1], "feature": 0,
                   "threshold": d + 0.5, "left": 2 * d + 1,
                   "right": 2 * d + 2}, {"counts": [1, 0]}]
    nodes.append({"counts": [0, 1]})
    return TreeModel.from_dict({"hyperparameters": asdict(TreeConfig()),
                                "nodes": nodes, "n_features": 1})


def test_a_deep_tree_pickles_and_comes_back_unchanged():
    model = chain_tree(999)
    back = pickle.loads(pickle.dumps(model))
    assert back.to_dict() == model.to_dict()
    rows = np.arange(-0.5, 1000.0, 0.5)[:, None]
    assert np.array_equal(back.decision_values(rows),
                          model.decision_values(rows))


def test_deep_trees_come_back_from_a_helper(on_cpus):
    parent, computed = os.getpid(), []

    def deep(i):
        if os.getpid() == parent:
            computed.append(i)
        return chain_tree(999 - i)

    with on_cpus(2) as forks:
        got = parallel.map_items(deep, 4)
    assert forks == [1]
    assert computed == [0, 2]   # the helper's trees were not retrained
    assert [t.to_dict() for t in got] == \
        [chain_tree(999 - i).to_dict() for i in range(4)]


# Cross-validation trains every fold through one map_items call: an ANN
# contributes one item per (fold, restart), an SVM or a tree one per fold.
CV_OPTIONS = {"ann": {"max_epochs": 30}, "dtree": {}, "svm": {}}
CV_ITEMS = {"ann": 3 * 4, "dtree": 3, "svm": 3}


def _pipeline(paths, out_dir, kind):
    return run_pipeline(PipelineConfig(
        corpus_dir=str(paths.corpus_dir), lexicon_path=str(paths.lexicon),
        lemma_dict_path=str(paths.lemma_dict), out_dir=str(out_dir),
        classifier=kind, classifier_options=CV_OPTIONS[kind], k=3, seed=5))


@pytest.mark.parametrize("kind", classifiers.KINDS)
def test_forked_cv_matches_one_cpu(paths, tmp_path, on_cpus, kind):
    outputs, models = [], []
    for cpus in (1, 2, 3):
        with on_cpus(cpus) as forks:
            report = _pipeline(paths, tmp_path / str(cpus), kind)
        assert forks == [min(cpus, CV_ITEMS[kind]) - 1]
        outputs.append(_tree(tmp_path / str(cpus)))
        models.append([model.to_dict() for model in report.models])
    assert sorted(outputs[0]) == ["features.csv", "model_fold0.json",
                                  "model_fold1.json", "model_fold2.json",
                                  "report.json"]
    assert outputs[0] == outputs[1] == outputs[2]
    assert models[0] == models[1] == models[2]


def test_a_sweep_of_cv_cells_forks_only_at_the_cell_level(paths, tmp_path,
                                                          on_cpus):
    with on_cpus(1) as forks:
        _sweep(paths, tmp_path / "serial", ["svm", "dtree"])
    assert forks == [0]
    with on_cpus(3) as forks:
        _sweep(paths, tmp_path / "forked", ["svm", "dtree"])
    assert forks == [2]
    assert _tree(tmp_path / "forked") == _tree(tmp_path / "serial")


def _fold_seeds(fold):
    """The ANN run seeds of fold ``fold`` of ``_pipeline``."""
    return {derive_seed(derive_seed(5, "fold", fold), "ann", r)
            for r in range(4)}


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_fold_whose_restarts_all_diverge_fails_as_in_a_serial_run(
        monkeypatch, paths, tmp_path, on_cpus, cpus):
    # Fold 1's restarts are items 4-7, shared by the parent and helpers.
    run_once, diverged = ann._run_once, _fold_seeds(1)
    monkeypatch.setattr(ann, "_run_once", lambda x, t, c, seed:
                        None if seed in diverged else run_once(x, t, c, seed))
    with pytest.raises(DataError) as serial, on_cpus(1):
        _pipeline(paths, tmp_path / "serial", "ann")
    with pytest.raises(DataError) as forked, on_cpus(cpus) as forks:
        _pipeline(paths, tmp_path / "forked", "ann")
    assert forks == [cpus - 1]
    assert str(forked.value) == str(serial.value) == \
        "cross-validation: all training restarts diverged"


def _three_jobs(bad):
    """Three training jobs on the same rows, and job ``bad``, which has a
    copy of them of its own to spoil."""
    rows = np.arange(160.0).reshape(20, 8)
    labels = np.arange(20) % 2
    jobs = [(rows, labels, None)] * 3
    jobs[bad] = (rows.copy(), labels.copy(), None)
    return jobs, jobs[bad]


@pytest.mark.parametrize("kind,runs", [("ann", 4), ("dtree", 1),
                                       ("svm", 1)])
def test_each_job_hands_over_its_runs_once(monkeypatch, kind, runs):
    # An ANN job's runs are its (default 4) restarts; a tree or an SVM
    # trains once, and a second run would only repeat the first.
    counts, real = [], classifiers.map_items

    def counted(fn, n):
        counts.append(n)
        return real(fn, n)

    monkeypatch.setattr(classifiers, "map_items", counted)
    classifiers.train_many(kind, _three_jobs(0)[0])
    assert counts == [3 * runs]


@pytest.mark.parametrize("kind", classifiers.KINDS)
def test_bad_training_rows_fail_before_any_fork(on_cpus, kind):
    jobs, (rows, labels, _) = _three_jobs(2)
    rows[5, 1] = np.nan
    for cpus in (1, 2):
        with pytest.raises(DataError, match="non-finite") as failed, \
                on_cpus(cpus) as forks:
            classifiers.train_many(kind, jobs)
        assert forks == [0]
    dataset = Dataset(rows=rows, labels=labels, variant=Variant.TERM8)
    with pytest.raises(DataError, match="non-finite") as cv, \
            on_cpus(2) as forks:
        run_cv(dataset, kind, k=2)
    assert forks == [0]
    assert str(cv.value) == str(failed.value)
    if kind != "dtree":   # a tree trains on one class
        jobs, (_, labels, _) = _three_jobs(1)
        labels[:] = 1
        with pytest.raises(DataError, match="single class"), \
                on_cpus(2) as forks:
            classifiers.train_many(kind, jobs)
        assert forks == [0]
