"""``parallel.map_items`` gives the serial results, raises the serial
exception, nests serially and leaves no helper behind; the sweep, the
corpus generator and ANN training (``test_classifiers.py``) use it."""

import errno
import multiprocessing
import os
import threading

import pytest

from multisent import parallel
from multisent.classifiers import ann
from multisent.cli import main
from multisent.errors import ConfigurationError, DataError
from multisent.pipeline import PipelineConfig, sweep
from multisent.synth import SynthConfig, generate


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
    # pos/doc_0003.txt is item 7 of 20: a helper's on 2 CPUs.
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
