import dataclasses
import errno
import json
import math
import multiprocessing
import os
import shutil
import stat
import time
from itertools import cycle, groupby, islice

import pytest

from multisent import classifiers, scoring, util
from multisent.classifiers import load_model
from multisent.cli import build_parser, main
from multisent.corpus_io import load_lemma_dictionary
from multisent.errors import DataError
from multisent.evaluation import run_cv
from multisent.features import read_features_csv
from multisent.lexicon import PriorFormula, load_lexicon, prior_table
from multisent.pipeline import PipelineConfig, prepare_corpus
from multisent.scoring import RuleConfig, SentenceFormula, load_word_list
from multisent.synth import SynthConfig, generate

import oracles
from conftest import capped_address_space, traced_peak
from oracles import doc_features, term_features


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_data")
    code = main(["synth", "--docs", "10", "--seed", "77", "--density", "0.4",
                 "--out", str(out)])
    assert code == 0
    return {
        "corpus": str(out / "corpus"),
        "lexicon": str(out / "lexicon.tsv"),
        "lemma_dict": str(out / "lemma_dict.tsv"),
        "negations": str(out / "negations.txt"),
        "intensifiers": str(out / "intensifiers.txt"),
    }


@pytest.fixture(scope="module")
def rule_data(tmp_path_factory):
    """A corpus whose sentiment terms often sit next to Arabic rule words."""
    out = tmp_path_factory.mktemp("cli_rule_data")
    assert main(["synth", "--docs", "10", "--seed", "78", "--density", "0.4",
                 "--rule-fraction", "0.5", "--arabic-tool-words",
                 "--out", str(out)]) == 0
    return {
        "corpus": str(out / "corpus"),
        "lexicon": str(out / "lexicon.tsv"),
        "lemma_dict": str(out / "lemma_dict.tsv"),
        "negations": str(out / "negations.txt"),
        "intensifiers": str(out / "intensifiers.txt"),
    }


def _corpus_flags(data):
    return ["--corpus", data["corpus"], "--lexicon", data["lexicon"],
            "--lemma-dict", data["lemma_dict"]]


def _reading_argv(command, corpus, out, data):
    """A ``pipeline`` or ``quality`` run that reads ``corpus``."""
    if command == "quality":
        return ["quality", "--corpus", str(corpus), "--out", str(out)]
    return ["pipeline", "--corpus", str(corpus), "--lexicon", data["lexicon"],
            "--lemma-dict", data["lemma_dict"], "--out", str(out),
            "--classifier", "dtree", "--folds", "2"]


def _missing_inputs(command, path) -> list:
    """Input flags of ``command`` that all name the missing ``path``: a
    refusal with them shows that no input was read."""
    path = str(path)
    if command in ("train", "evaluate"):
        return ["--features", path]
    if command == "lexicon-aggregate":
        return ["--lexicon", path]
    return ["--corpus", path, "--lexicon", path, "--lemma-dict", path]


def _rules_flags(data, window):
    return ["--rules", "--negations", data["negations"],
            "--intensifiers", data["intensifiers"], "--window", str(window)]


class TestExitCodes:
    def test_bad_synth_options_are_configuration_errors(self, tmp_path,
                                                        capsys):
        for flag, value in (("--docs", "0"), ("--docs", "-1"),
                            ("--density", "2"), ("--density", "-0.1"),
                            ("--purity", "0.3"), ("--purity", "1.5"),
                            ("--rule-fraction", "1.5"),
                            ("--rule-fraction", "-0.5")):
            out = tmp_path / "synth"
            assert main(["synth", f"{flag}={value}", "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert "configuration error: bad synth options" in captured.err
            assert "Traceback" not in captured.err
            assert captured.out == "" and not out.exists()

    def test_out_below_a_regular_file_is_configuration_error(
            self, data, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("a file\n", encoding="utf-8")
        features = tmp_path / "features.csv"
        term8 = ["--level", "term", "--variant", "8", "--formula", "max_sub"]
        assert main(["featurize", *_corpus_flags(data), *term8,
                     "--out", str(features)]) == 0
        for argv in (
                ["synth", "--docs", "2", "--out", str(afile)],
                ["quality", "--corpus", data["corpus"],
                 "--out", str(afile / "x.csv")],
                ["featurize", *_corpus_flags(data), *term8,
                 "--out", str(afile / "f.csv")],
                ["train", "--features", str(features), "--classifier",
                 "dtree", "--out", str(afile / "m.json")],
                ["pipeline", *_corpus_flags(data), *term8, "--classifier",
                 "dtree", "--folds", "3", "--out", str(afile)],
                ["sweep", *_corpus_flags(data), "--formulas", "max_sub",
                 "--variants", "8", "--rules-options", "off",
                 "--classifiers", "dtree", "--folds", "3",
                 "--out", str(afile)]):
            capsys.readouterr()
            assert main(argv) == 1, argv[0]
            err = capsys.readouterr().err
            assert "configuration error: cannot create directory" in err
            assert f"{afile} is not a directory" in err
            assert "Traceback" not in err
        assert afile.read_text(encoding="utf-8") == "a file\n"
        assert main(["train", "--features", str(features), "--classifier",
                     "dtree", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"cannot write {tmp_path}: it is a directory" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name,fault", [
        ("open", PermissionError(errno.EACCES, "Permission denied")),
        ("replace", OSError(errno.ENOSPC, "No space left on device")),
    ])
    def test_an_output_the_os_refuses_is_configuration_error(
            self, data, tmp_path, capsys, monkeypatch, name, fault):
        def refuse(*args, **kwargs):
            raise fault

        out = tmp_path / "q.csv"
        monkeypatch.setattr(util.os, name, refuse)
        assert main(["quality", "--corpus", data["corpus"],
                     "--out", str(out)]) == 1
        monkeypatch.undo()
        captured = capsys.readouterr()
        assert captured.err == (f"configuration error: cannot write {out}: "
                                f"{fault.strerror}\n")
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    def test_an_output_name_that_fits_is_written(self, data, tmp_path):
        short, long = tmp_path / "q.csv", tmp_path / ("a" * 250 + ".csv")
        for out in (short, long):
            assert main(["quality", "--corpus", data["corpus"],
                         "--out", str(out)]) == 0
        assert long.read_bytes() == short.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted([short.name, long.name])

    @pytest.mark.parametrize("argv,message", [
        (["pipeline", "--folds", "1"], "k must be >= 2, got 1"),
        (["pipeline", "--window", "0"], "window must be >= 1, got 0"),
        (["score", "--window", "0"], "window must be >= 1, got 0"),
        (["pipeline", "--classifier", "dtree", "--min-leaf", "-3"],
         "bad dtree options: min_leaf must be >= 1, got -3"),
        (["pipeline", "--classifier", "dtree", "--min-leaf", "0"],
         "bad dtree options: min_leaf must be >= 1, got 0"),
    ], ids=["pipeline-folds-1", "pipeline-window-0", "score-window-0",
            "pipeline-min-leaf--3", "pipeline-min-leaf-0"])
    def test_run_settings_are_checked_before_any_file_is_read(
            self, tmp_path, capsys, argv, message):
        # The inputs do not exist: reading any of them would exit 2.
        missing = ["--corpus", str(tmp_path / "corpus"),
                   "--lexicon", str(tmp_path / "lexicon.tsv"),
                   "--lemma-dict", str(tmp_path / "lemma_dict.tsv"),
                   "--out", str(tmp_path / "out")]
        assert main([*argv, *missing]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: {message}\n"
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    def test_synth_refuses_to_mix_corpora(self, tmp_path, capsys):
        out = tmp_path / "D"

        def files():
            return sorted((str(p.relative_to(out)), p.read_bytes())
                          for p in out.rglob("*") if p.is_file())

        assert main(["synth", "--docs", "10", "--seed", "1",
                     "--out", str(out)]) == 0
        first = files()
        capsys.readouterr()
        assert main(["synth", "--docs", "4", "--seed", "2",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "configuration error: " in captured.err
        assert f"{out / 'corpus' / 'neg'} holds 6 file(s)" in captured.err
        assert "doc_0004.txt" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert files() == first
        # The same command again rewrites the same bytes.
        assert main(["synth", "--docs", "10", "--seed", "1",
                     "--out", str(out)]) == 0
        assert files() == first

    def test_unknown_flag_is_configuration_error(self, capsys):
        assert main(["quality", "--bogus"]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_missing_corpus_directory_is_config_error(self, tmp_path):
        assert main(["quality", "--corpus", str(tmp_path / "none"),
                     "--out", str(tmp_path / "q.csv")]) == 1

    def test_malformed_lexicon_is_data_error(self, tmp_path, data, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("lemma\t2.0\t0.0\n", encoding="utf-8")
        code = main(["lexicon-aggregate", "--lexicon", str(bad),
                     "--formula", "max_sub", "--out", str(tmp_path / "p.tsv")])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_pipeline_errors_name_their_stage(self, tmp_path, data, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("lemma\t2.0\t0.0\n", encoding="utf-8")
        code = main(["pipeline", "--corpus", data["corpus"],
                     "--lexicon", str(bad),
                     "--lemma-dict", data["lemma_dict"],
                     "--out", str(tmp_path / "run"),
                     "--classifier", "dtree"])
        assert code == 2
        err = capsys.readouterr().err
        assert "prior aggregation" in err
        assert "bad.tsv:1" in err

    def test_lexicon_without_entries_is_data_error(self, tmp_path, data,
                                                   capsys):
        empty = tmp_path / "lexicon.tsv"
        empty.write_text("\n", encoding="utf-8")
        code = main(["pipeline", "--corpus", data["corpus"],
                     "--lexicon", str(empty),
                     "--lemma-dict", data["lemma_dict"],
                     "--out", str(tmp_path / "run"),
                     "--classifier", "dtree", "--folds", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and "no entries" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "report.json").exists()

    @pytest.mark.parametrize("command", ["pipeline", "sweep"])
    def test_lexicon_covering_no_lemma_is_data_error(self, tmp_path, data,
                                                     capsys, command):
        unused = tmp_path / "lexicon.tsv"
        unused.write_text("zzzunused\t0.9\t0.1\n", encoding="utf-8")
        out = tmp_path / "run"
        code = main([command, "--corpus", data["corpus"],
                     "--lexicon", str(unused),
                     "--lemma-dict", data["lemma_dict"], "--out", str(out),
                     "--folds", "2"]
                    + (["--classifier", "dtree"] if command == "pipeline"
                       else ["--classifiers", "dtree"]))
        assert code == 2
        err = capsys.readouterr().err
        assert "data error: prior aggregation" in err
        assert "a prior for no lemma of the corpus" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pipeline", "quality"])
    def test_unreadable_document_is_data_error(self, tmp_path, data, capsys,
                                               command):
        corpus = tmp_path / "corpus"
        shutil.copytree(data["corpus"], corpus)
        (corpus / "pos" / "zz.txt").mkdir()
        out = tmp_path / "out"
        assert main(_reading_argv(command, corpus, out, data)) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "zz.txt" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pipeline", "quality"])
    def test_missing_pos_comes_before_unreadable_document(
            self, tmp_path, data, capsys, command):
        # The corpus is listed before any document is read, so a missing
        # pos/ (exit 1) is reported ahead of an unreadable document in
        # neg/ (exit 2), although neg/ is read first.
        corpus = tmp_path / "corpus"
        shutil.copytree(os.path.join(data["corpus"], "neg"), corpus / "neg")
        (corpus / "neg" / "aa.txt").mkdir()
        out = tmp_path / "out"
        assert main(_reading_argv(command, corpus, out, data)) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "has no 'pos/' subdirectory" in err
        assert "aa.txt" not in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["directory", "latin1"])
    @pytest.mark.parametrize("flag", ["--lexicon", "--lemma-dict",
                                      "--negations", "--intensifiers",
                                      "--config"])
    def test_unreadable_input_path_is_an_error(self, tmp_path, data, capsys,
                                               flag, bad):
        # A directory, or a file that is not UTF-8, at any input path is a
        # data error (a configuration error for --config) naming the path.
        path = tmp_path / "input"
        if bad == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"caf\xe9\n")
        inputs = {"--lexicon": data["lexicon"],
                  "--lemma-dict": data["lemma_dict"],
                  "--negations": data["negations"],
                  "--intensifiers": data["intensifiers"], flag: str(path)}
        out = tmp_path / "run"
        code = main(["pipeline", "--corpus", data["corpus"],
                     *(arg for pair in inputs.items() for arg in pair),
                     "--rules", "--classifier", "dtree", "--folds", "2",
                     "--out", str(out)])
        assert code == (1 if flag == "--config" else 2)
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err
        assert ("Is a directory" if bad == "directory"
                else "not valid UTF-8") in err
        if bad == "latin1":
            assert "(invalid continuation byte)" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["pipeline", "score"])
    def test_word_on_both_rule_lists_is_data_error(self, tmp_path, data,
                                                   capsys, command):
        both = tmp_path / "both.txt"
        shutil.copy(data["intensifiers"], both)
        out = tmp_path / "out"
        argv = [command, *_corpus_flags(data), "--rules",
                "--negations", str(both), "--intensifiers",
                data["intensifiers"], "--out", str(out)]
        assert main(argv + (["--classifier", "dtree"]
                            if command == "pipeline" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: rule word lists: words listed "
                              "as both negation and intensifier: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_incompatible_level_variant_fails_before_compute(self, tmp_path,
                                                             data, capsys):
        code = main(["pipeline", *_corpus_flags(data),
                     "--out", str(tmp_path / "x"),
                     "--level", "term", "--variant", "7",
                     "--classifier", "dtree"])
        assert code == 1
        assert capsys.readouterr().err == ("configuration error: variant 7 "
                                           "is document-level, but level "
                                           "is 'term'\n")
        assert not (tmp_path / "x").exists()

    def test_sentence_formula_required_for_document_level(self, tmp_path,
                                                          data):
        code = main(["pipeline", *_corpus_flags(data),
                     "--out", str(tmp_path / "x"),
                     "--level", "document", "--variant", "7",
                     "--classifier", "dtree"])
        assert code == 1

    @pytest.mark.parametrize("kind,option", [
        ("dtree", "--confidence 1.5"), ("dtree", "--confidence 0"),
        ("dtree", "--confidence 5e-324"), ("dtree", "--confidence 1e-17"),
        ("ann", "--restarts 0"), ("ann", "--hidden 0"),
        ("svm", "--svm-c 0"), ("svm", "--svm-c -1"), ("svm", "--gamma -1"),
        ("svm", "--max-passes 0"), ("ann", "--max-epochs 0"),
        ("ann", "--max-epochs -3"), ("ann", "--lr -1"), ("ann", "--lr 0"),
        ("ann", "--lr nan"), ("ann", "--lr inf"), ("ann", "--momentum 1"),
        ("ann", "--momentum -0.5"), ("svm", "--tol -1"), ("svm", "--tol nan"),
        ("svm", "--tol inf"), ("svm", "--gamma inf"),
        ("svm", "--svm-c inf"),
    ])
    def test_out_of_range_classifier_options_are_config_errors(
            self, tmp_path, data, capsys, kind, option):
        features = tmp_path / "features.csv"
        assert main(["featurize", *_corpus_flags(data),
                     "--out", str(features)]) == 0
        assert main(["evaluate", "--features", str(features),
                     "--classifier", kind, *option.split(),
                     "--out", str(tmp_path / "report.json")]) == 1
        assert main(["sweep", *_corpus_flags(data), "--classifiers", kind,
                     *option.split(), "--out", str(tmp_path / "sweep")]) == 1
        err = capsys.readouterr().err
        assert err.count(f"configuration error: bad {kind} options") == 2
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("argv,flag,kind", [
        (["pipeline", "--classifier", "dtree", "--hidden", "0",
          "--svm-c", "-1"], "--hidden", "ann"),
        (["train", "--classifier", "dtree", "--max-epochs", "0"],
         "--max-epochs", "ann"),
        (["evaluate", "--classifier", "svm", "--restarts", "0"],
         "--restarts", "ann"),
        (["sweep", "--classifiers", "dtree", "--tol", "-1"], "--tol", "svm"),
    ], ids=["pipeline", "train", "evaluate", "sweep"])
    def test_a_flag_of_a_kind_the_command_does_not_train_is_refused(
            self, tmp_path, capsys, argv, flag, kind):
        inputs = _missing_inputs(argv[0], tmp_path / "missing")
        out = tmp_path / "out"
        assert main([*argv, *inputs, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"configuration error: {flag} applies to {kind} only, and this "
            f"run trains no {kind}\n")
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["5", "0"])
    def test_a_tree_refuses_a_seed_before_any_input_is_read(
            self, tmp_path, capsys, seed):
        out = tmp_path / "model.json"
        assert main(["train", *_missing_inputs("train", tmp_path / "missing"),
                     "--classifier", "dtree", "--seed", seed,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: bad dtree options: ")
        assert "'seed'" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--classifier", "nb"], ["evaluate", "--classifier", "nb"],
        ["pipeline", "--classifier", "nb"], ["sweep", "--classifiers", "nb"],
    ], ids=["train", "evaluate", "pipeline", "sweep"])
    @pytest.mark.parametrize("flags", [[], ["--hidden", "3"]],
                             ids=["alone", "with-hidden"])
    def test_an_unknown_kind_has_one_message_on_every_path(
            self, tmp_path, capsys, argv, flags):
        inputs = _missing_inputs(argv[0], tmp_path / "missing")
        out = tmp_path / "out"
        assert main([*argv, *flags, *inputs, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "configuration error: unknown classifier 'nb' "
            "(one of: ann, dtree, svm)\n")
        assert not out.exists()

    def test_help_names_the_kinds_that_make_config_reads(self):
        commands = build_parser()._subparsers._group_actions[0].choices
        for name in ("train", "evaluate", "pipeline"):
            action, = (a for a in commands[name]._actions
                       if a.dest == "classifier")
            assert (action.metavar, action.choices) == ("{ann,dtree,svm}",
                                                        None)

    def test_evaluate_checks_its_folds_before_reading(self, tmp_path,
                                                       capsys):
        out = tmp_path / "report.json"
        assert main(["evaluate",
                     *_missing_inputs("evaluate", tmp_path / "missing"),
                     "--folds", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "configuration error: k must be >= 2, got 1\n")
        assert not out.exists()

    def test_network_beyond_the_address_space_is_configuration_error(
            self, tmp_path, data, capfd):
        # 10**15 hidden units need 71 PiB of weights, which no allocation
        # can reserve; the parent and every helper fail at once. capfd
        # also catches whatever a forked helper writes.
        features = tmp_path / "features.csv"
        assert main(["featurize", *_corpus_flags(data),
                     "--out", str(features)]) == 0
        capfd.readouterr()
        ann = ["--classifier", "ann", "--hidden", str(10**15)]
        assert main(["pipeline", *_corpus_flags(data), *ann,
                     "--out", str(tmp_path / "run")]) == 1
        assert main(["train", "--features", str(features), *ann,
                     "--out", str(tmp_path / "model.json")]) == 1
        # Two cells, so the cells fork and each one's folds run serially.
        assert main(["sweep", *_corpus_flags(data), "--variants", "8,6",
                     "--classifiers", "ann", "--hidden", str(10**15),
                     "--out", str(tmp_path / "sweep")]) == 1
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 3
        assert all(line.startswith("configuration error: ") and
                   "does not fit in memory" in line for line in err)
        assert not (tmp_path / "model.json").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert multiprocessing.active_children() == []

    def test_svm_kernel_beyond_memory_is_configuration_error(
            self, tmp_path, data, capfd):
        # 20,000 rows make a 3.2 GB kernel (2 GB per CV fold), which the
        # capped address space cannot hold, in the parent or a helper.
        features, big = tmp_path / "features.csv", tmp_path / "big.csv"
        assert main(["featurize", *_corpus_flags(data),
                     "--out", str(features)]) == 0
        header, *lines = features.read_text().splitlines()
        big.write_text("\n".join([header, *islice(cycle(lines), 20_000)])
                       + "\n")
        capfd.readouterr()
        with capped_address_space():
            assert main(["train", "--features", str(big), "--classifier",
                         "svm", "--out", str(tmp_path / "model.json")]) == 1
            assert main(["evaluate", "--features", str(big), "--classifier",
                         "svm", "--out", str(tmp_path / "report.json")]) == 1
        err = capfd.readouterr().err.splitlines()
        assert err == [
            "configuration error: an RBF kernel of 20000 x 20000 rows needs "
            "3,200,000,000 bytes, which do not fit in memory",
            "configuration error: an RBF kernel of 16000 x 16000 rows needs "
            "2,048,000,000 bytes, which do not fit in memory"]
        assert not (tmp_path / "model.json").exists()
        assert not (tmp_path / "report.json").exists()


class TestFormulaNames:
    """``from_name`` alone reads a formula name, in any case, on every
    command, and before any input is read."""

    @pytest.mark.parametrize("argv", [
        ["pipeline", "--classifier", "dtree", "--folds", "2",
         "--formula", "max_sub"],
        ["featurize", "--variant", "7", "--formula", "avg_avg",
         "--sentence-formula", "max_max"],
        ["score", "--formula", "max_sub"],
        ["score", "--formula", "avg_max", "--sentence-formula", "max_sub"],
        ["lexicon-aggregate", "--formula", "max_sub"],
    ], ids=["pipeline", "featurize", "score", "score-sentences",
            "lexicon-aggregate"])
    def test_a_name_in_upper_case_writes_the_same_bytes(self, data, tmp_path,
                                                        argv):
        inputs = (["--lexicon", data["lexicon"]]
                  if argv[0] == "lexicon-aggregate" else _corpus_flags(data))
        written = []
        for case in (str.lower, str.upper):
            root = tmp_path / case.__name__
            cased = [case(a) if flag.endswith("formula") else a
                     for flag, a in zip(["", *argv], argv)]
            assert main([*cased, *inputs, "--out", str(root / "out")]) == 0
            written.append({p.relative_to(root): p.read_bytes()
                            for p in sorted(root.rglob("*")) if p.is_file()})
        assert written[0] and written[0] == written[1]

    @pytest.mark.parametrize("argv,what", [
        (["pipeline", "--formula", "max_min"], "prior"),
        (["featurize", "--formula", "max_min"], "prior"),
        (["featurize", "--variant", "7", "--sentence-formula", "avg_avg"],
         "sentence"),
        (["score", "--formula", "max_min"], "prior"),
        (["score", "--sentence-formula", "avg_avg"], "sentence"),
        (["lexicon-aggregate", "--formula", "max_min"], "prior"),
    ])
    def test_an_unknown_name_is_refused_before_any_input_is_read(
            self, tmp_path, capsys, argv, what):
        inputs = _missing_inputs(argv[0], tmp_path / "missing")
        assert main([*argv, *inputs, "--out", str(tmp_path / "out")]) == 1
        valid = ", ".join(f.value for f in {"prior": PriorFormula,
                                            "sentence": SentenceFormula}[what])
        assert capsys.readouterr().err == (
            f"configuration error: unknown {what} formula {argv[-1]!r} "
            f"(one of: {valid})\n")
        assert not (tmp_path / "out").exists()


class TestArtifactModes:
    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o002],
                             ids=["022", "027", "002"])
    def test_written_files_honour_the_umask(self, tmp_path, umask):
        synth_dir, run_dir = tmp_path / "synth", tmp_path / "run"
        old = os.umask(umask)
        try:
            assert main(["synth", "--docs", "4", "--seed", "5",
                         "--out", str(synth_dir)]) == 0
            assert main(["pipeline", "--corpus", str(synth_dir / "corpus"),
                         "--lexicon", str(synth_dir / "lexicon.tsv"),
                         "--lemma-dict", str(synth_dir / "lemma_dict.tsv"),
                         "--out", str(run_dir), "--classifier", "dtree",
                         "--folds", "2"]) == 0
        finally:
            os.umask(old)
        document = min(p for p in (synth_dir / "corpus").rglob("*")
                       if p.is_file())
        for path in (document, run_dir / "report.json"):
            assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask, path


class TestQuality:
    def test_exponent_out_of_range_is_configuration_error(self, data,
                                                          tmp_path, capsys):
        # nan, infinities, and exponents whose ideal curve over- or
        # underflows at some rank exit 1 and write nothing.
        out = tmp_path / "quality.csv"
        for exponent in ("nan", "inf", "-inf", "1e308", "200", "-200",
                         "-1e308"):
            assert main(["quality", "--corpus", data["corpus"],
                         f"--exponent={exponent}", "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert "configuration error: exponent" in captured.err, exponent
            assert "Traceback" not in captured.err
            assert captured.out == "" and not out.exists()
        for exponent in ("0", "-1", "3.5"):
            assert main(["quality", "--corpus", data["corpus"],
                         f"--exponent={exponent}", "--out", str(out)]) == 0
            summary = json.loads(capsys.readouterr().out)
            assert math.isfinite(summary["kl_prob"] + summary["kl_raw"])

    def test_emits_csv_and_summary(self, data, tmp_path, capsys):
        out = tmp_path / "quality.csv"
        assert main(["quality", "--corpus", data["corpus"],
                     "--exponent", "1.0", "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["kl_prob"] >= 0
        assert summary["total_tokens"] > 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("rank,word,actual_count")
        assert len(lines) == summary["unique_words"] + 1


class TestLexiconAggregate:
    def test_emits_priors_tsv(self, data, tmp_path):
        out = tmp_path / "priors.tsv"
        assert main(["lexicon-aggregate", "--lexicon", data["lexicon"],
                     "--formula", "max_sub", "--out", str(out)]) == 0
        rows = [line.split("\t")
                for line in out.read_text(encoding="utf-8").splitlines()]
        assert all(len(r) == 2 for r in rows)
        values = {lemma: float(v) for lemma, v in rows}
        assert all(v > 0 for lemma, v in values.items()
                   if lemma.startswith("pos"))
        assert all(v < 0 for lemma, v in values.items()
                   if lemma.startswith("neg"))

    @pytest.mark.parametrize("formula", ["avg_max", "max_max", "avg_sub",
                                         "max_sub", "avg_avg"])
    def test_priors_match_the_oracle(self, data, tmp_path, formula):
        senses = {}
        with open(data["lexicon"], encoding="utf-8") as fh:
            for line in fh:
                lemma, pos, neg = line.rstrip("\n").split("\t")
                senses.setdefault(lemma, []).append((float(pos), float(neg)))
        out = tmp_path / "priors.tsv"
        assert main(["lexicon-aggregate", "--lexicon", data["lexicon"],
                     "--formula", formula, "--out", str(out)]) == 0
        rows = [line.split("\t")
                for line in out.read_text(encoding="utf-8").splitlines()]
        assert [lemma for lemma, _ in rows] == list(senses)
        for lemma, value in rows:
            assert float(value) == pytest.approx(
                oracles.prior(senses[lemma], formula), abs=1e-12)


class TestScore:
    def test_token_scores(self, data, tmp_path):
        out = tmp_path / "scores.tsv"
        assert main(["score", *_corpus_flags(data), "--formula", "max_sub",
                     "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "doc_id\tindex\tsurface\tlemma\tprior\tadjusted"
        assert len(lines) > 1

    @pytest.mark.parametrize("extra", [[], ["--sentence-formula",
                                            "max_max"]],
                             ids=["tokens", "sentences"])
    def test_blocks_of_any_budget_write_the_same_bytes(
            self, rule_data, tmp_path, monkeypatch, extra):
        argv = ["score", *_corpus_flags(rule_data),
                *_rules_flags(rule_data, 2), *extra]
        outputs = set()
        for budget in (1, 50, scoring.BLOCK_TOKENS):
            monkeypatch.setattr(scoring, "BLOCK_TOKENS", budget)
            out = tmp_path / f"{budget}.tsv"
            assert main([*argv, "--out", str(out)]) == 0
            outputs.add(out.read_bytes())
        assert len(outputs) == 1

    @pytest.mark.parametrize("extra", [[], ["--sentence-formula",
                                            "max_max"]],
                             ids=["tokens", "sentences"])
    def test_the_table_is_written_a_block_at_a_time(
            self, full_synth, tmp_path, monkeypatch, extra):
        # About 49,000 tokens in blocks of 1,024: a whole token table holds
        # about 300 bytes per token of the corpus as lists, lines, text and
        # bytes; a block's table stays under 256 bytes per token of a block
        # above the peak of preparing the corpus.
        _, paths = full_synth
        monkeypatch.setattr(scoring, "BLOCK_TOKENS", 2 ** 10)
        _, prepare_peak = traced_peak(
            lambda: prepare_corpus(paths.corpus_dir, paths.lemma_dict))
        code, peak = traced_peak(lambda: main([
            "score", "--corpus", str(paths.corpus_dir),
            "--lexicon", str(paths.lexicon),
            "--lemma-dict", str(paths.lemma_dict), "--rules",
            "--negations", str(paths.negations),
            "--intensifiers", str(paths.intensifiers), *extra,
            "--out", str(tmp_path / "scores.tsv")]))
        assert code == 0
        assert peak < prepare_peak + 256 * scoring.BLOCK_TOKENS

    def test_sentence_scores_with_rules(self, data, tmp_path):
        out = tmp_path / "sent.tsv"
        assert main(["score", *_corpus_flags(data), "--formula", "max_sub",
                     "--sentence-formula", "max_max", "--rules",
                     "--negations", data["negations"],
                     "--intensifiers", data["intensifiers"],
                     "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "doc_id\tsentence\tscore"

    def test_rules_without_word_lists(self, data, tmp_path):
        assert main(["score", *_corpus_flags(data), "--rules",
                     "--out", str(tmp_path / "x.tsv")]) == 1

    def test_scores_rebuild_the_featurized_rows(self, tmp_path):
        assert main(["synth", "--docs", "10", "--seed", "5",
                     "--rule-fraction", "0.4", "--out", str(tmp_path)]) == 0
        flags = ["--corpus", str(tmp_path / "corpus"),
                 "--lexicon", str(tmp_path / "lexicon.tsv"),
                 "--lemma-dict", str(tmp_path / "lemma_dict.tsv"),
                 "--rules", "--negations", str(tmp_path / "negations.txt"),
                 "--intensifiers", str(tmp_path / "intensifiers.txt")]

        def score(*extra):
            """Per-document lists of the score file's rows."""
            out = tmp_path / "scores.tsv"
            assert main(["score", *flags, *extra, "--out", str(out)]) == 0
            lines = out.read_text(encoding="utf-8").splitlines()[1:]
            docs = [[line.split("\t") for line in group] for _, group in
                    groupby(lines, key=lambda line: line.split("\t")[0])]
            for rows in docs:
                assert [int(r[1]) for r in rows] == list(range(len(rows)))
            return docs

        def featurize(*extra):
            out = tmp_path / "features.csv"
            assert main(["featurize", *flags, *extra, "--out", str(out)]) == 0
            lines = out.read_text(encoding="utf-8").splitlines()[1:]
            return [[float(x) for x in line.split(",")[1:]] for line in lines]

        tokens = score()
        # the rules fired, so prior and adjusted differ somewhere
        assert any(r[4] != r[5] for rows in tokens for r in rows)
        assert [term_features([float(r[5]) for r in rows])
                for rows in tokens] == featurize("--variant", "8")

        sentences = score("--sentence-formula", "max_max")
        assert [doc_features([float(r[2]) for r in rows])
                for rows in sentences] == featurize(
                    "--level", "document", "--variant", "7",
                    "--sentence-formula", "max_max")


    @pytest.mark.parametrize("rules", [False, True], ids=["norules", "rules"])
    def test_score_files_match_the_scalar_oracle(self, rule_data, tmp_path,
                                                 rules):
        lemma_dict = load_lemma_dictionary(rule_data["lemma_dict"])
        docs = [oracles.prepare_document(raw, lemma_dict)
                for raw in oracles.read_corpus(rule_data["corpus"])]
        priors = prior_table(load_lexicon(rule_data["lexicon"]),
                             PriorFormula.AVG_AVG)
        rule_cfg = RuleConfig(
            negation_words=load_word_list(rule_data["negations"]),
            intensifier_words=load_word_list(rule_data["intensifiers"]),
            window=2) if rules else None
        tokens = ["doc_id\tindex\tsurface\tlemma\tprior\tadjusted"]
        sentences = ["doc_id\tsentence\tscore"]
        for doc in docs:
            token_priors, adjusted = oracles.score_document(doc, priors,
                                                            rule_cfg)
            for i, (surface, lemma) in enumerate(zip(doc.tokens, doc.lemmas)):
                tokens.append(f"{doc.id}\t{i}\t{surface}\t{lemma}"
                              f"\t{token_priors[i]!r}\t{adjusted[i]!r}")
            for k, value in enumerate(oracles.sentence_scores(
                    doc, adjusted, SentenceFormula.MAX_SUB)):
                sentences.append(f"{doc.id}\t{k}\t{value!r}")
        assert rules == any(a != b for a, b in (
            line.split("\t")[4:] for line in tokens[1:]))

        flags = [*_corpus_flags(rule_data), "--formula", "avg_avg"]
        if rules:
            flags += _rules_flags(rule_data, 2)
        for extra, want in (([], tokens),
                            (["--sentence-formula", "max_sub"], sentences)):
            out = tmp_path / "scores.tsv"
            assert main(["score", *flags, *extra, "--out", str(out)]) == 0
            assert out.read_bytes() == ("\n".join(want) + "\n").encode()

    def test_windows_past_the_longest_sentence_are_cheap(self, rule_data,
                                                         tmp_path):
        bounds = prepare_corpus(rule_data["corpus"],
                                rule_data["lemma_dict"]).sentence_tokens
        longest = int((bounds[1:] - bounds[:-1]).max())
        outputs = {}
        for window in (10 ** 9, longest):
            out = tmp_path / str(window)
            start = time.perf_counter()
            assert main(["score", *_corpus_flags(rule_data),
                         *_rules_flags(rule_data, window),
                         "--out", str(out / "scores.tsv")]) == 0
            assert main(["pipeline", *_corpus_flags(rule_data),
                         *_rules_flags(rule_data, window),
                         "--classifier", "dtree", "--folds", "2",
                         "--out", str(out / "run")]) == 0
            if window > longest:
                assert time.perf_counter() - start < 1.0
            outputs[window] = {p.relative_to(out): p.read_bytes()
                               for p in sorted(out.rglob("*")) if p.is_file()}
        assert len(outputs[longest]) == 5
        assert outputs[10 ** 9] == outputs[longest]


class TestFeaturizeTrainEvaluate:
    def test_featurize_then_train_then_evaluate(self, data, tmp_path):
        features = tmp_path / "features.csv"
        assert main(["featurize", *_corpus_flags(data), "--level", "term",
                     "--variant", "8", "--formula", "max_sub",
                     "--out", str(features)]) == 0
        header = features.read_text(encoding="utf-8").splitlines()[0]
        assert header == ("label,count_pos,count_neg,sum_pos,sum_neg,"
                          "avg_pos,avg_neg,first_subj,last_subj")

        model = tmp_path / "model.json"
        assert main(["train", "--features", str(features), "--classifier",
                     "dtree", "--out", str(model)]) == 0
        doc = json.loads(model.read_text(encoding="utf-8"))
        assert doc["kind"] == "dtree"
        assert doc["format_version"] == 2

        report = tmp_path / "report.json"
        assert main(["evaluate", "--features", str(features), "--classifier",
                     "dtree", "--folds", "5", "--seed", "7",
                     "--out", str(report)]) == 0
        body = json.loads(report.read_text(encoding="utf-8"))
        assert len(body["folds"]) == 5
        assert body["average"]["test"]["pos"]["f"] == 1.0

    def test_svm_model_file_with_another_gamma_is_a_data_error(
            self, data, tmp_path):
        # No command reads a model file back, so the file that `train`
        # writes goes through load_model. Its top-level gamma is the one
        # prediction uses; edited away from the one training took (the
        # --gamma flag, else 1 / the row width) it would load and score
        # with another kernel.
        features = tmp_path / "features.csv"
        assert main(["featurize", *_corpus_flags(data), "--level", "term",
                     "--variant", "8", "--formula", "max_sub",
                     "--out", str(features)]) == 0
        model = tmp_path / "model.json"
        for flags, gamma in (([], 1 / 8), (["--gamma", "0.5"], 0.5)):
            assert main(["train", "--features", str(features), "--classifier",
                         "svm", *flags, "--out", str(model)]) == 0
            doc = json.loads(model.read_text(encoding="utf-8"))
            assert doc["gamma"] == gamma
            load_model(model)
            model.write_text(json.dumps({**doc, "gamma": 0.01}),
                             encoding="utf-8")
            with pytest.raises(DataError, match=(
                    "malformed svm model: gamma 0.01 does not match the "
                    f"hyperparameters, which give {gamma}")):
                load_model(model)

    def test_train_rejects_non_finite_features(self, tmp_path, capsys):
        # Each bad features file is a data error naming the file, and its
        # line where one is at fault, for both commands that read one.
        header = b"label,count_pos,count_neg,sum_pos,sum_neg,avg_pos,avg_neg\n"
        (tmp_path / "nan.csv").write_bytes(
            header + b"1,nan,nan,nan,nan,nan,nan\n0,nan,nan,nan,nan,nan,nan\n")
        (tmp_path / "latin1.csv").write_bytes(header + b"1,0.5\xe9\n")
        (tmp_path / "label.csv").write_bytes(
            header + b"1,1.0,0.0,0.5,0.0,0.5,0.0\n"
            b"2,0.0,1.0,0.0,-0.5,0.0,-0.5\n")
        (tmp_path / "folder.csv").mkdir()
        for name, message in (("nan.csv", "nan.csv:2: non-finite field"),
                              ("latin1.csv", "not valid UTF-8: "),
                              ("label.csv", "label.csv:3: label must be 0"),
                              ("folder.csv", "Is a directory")):
            features = str(tmp_path / name)
            model = tmp_path / "model.json"
            assert main(["train", "--features", features, "--classifier",
                         "dtree", "--out", str(model)]) == 2
            assert main(["evaluate", "--features", features, "--classifier",
                         "dtree", "--out", str(tmp_path / "report.json")]) == 2
            err = capsys.readouterr().err
            assert err.count("data error: ") == 2, name
            assert name in err and message in err
            assert "Traceback" not in err
            assert not model.exists()
            assert not (tmp_path / "report.json").exists()

    def test_deep_tree_trains_and_evaluates(self, tmp_path, capsys):
        # 3000 rows with alternating labels on one varying feature grow
        # an unpruned tree about 1,000 levels deep.
        features = tmp_path / "deep.csv"
        features.write_text(
            "label,count_pos_sent,count_neg_sent,max_pos,max_neg\n"
            + "".join(f"{i % 2},{float(i)!r},0.0,0.0,0.0\n"
                      for i in range(3000)), encoding="utf-8")
        model = tmp_path / "model.json"
        assert main(["train", "--features", str(features), "--classifier",
                     "dtree", "--no-prune", "--out", str(model)]) == 0
        assert main(["evaluate", "--features", str(features),
                     "--classifier", "dtree", "--no-prune", "--folds", "3",
                     "--out", str(tmp_path / "report.json")]) == 0
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads(model.read_text(encoding="utf-8"))
        assert len(doc["nodes"]) > 1000

    def test_featurize_errors_name_their_stage(self, data, tmp_path, capsys):
        assert main(["featurize", "--corpus", str(tmp_path / "none"),
                     "--lexicon", data["lexicon"],
                     "--lemma-dict", data["lemma_dict"],
                     "--out", str(tmp_path / "f.csv")]) == 1
        assert "corpus loading" in capsys.readouterr().err

    def test_document_level_featurize(self, data, tmp_path):
        features = tmp_path / "doc_features.csv"
        assert main(["featurize", *_corpus_flags(data), "--level", "document",
                     "--variant", "5", "--formula", "max_sub",
                     "--sentence-formula", "max_max",
                     "--out", str(features)]) == 0
        header = features.read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("label,count_pos_sent,count_neg_sent,first")


class TestDefaults:
    """A setting's default lives in its dataclass alone: a command given
    no flag for it runs what the library runs by default."""

    def test_synth_without_flags_writes_the_default_corpus(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "cli")]) == 0
        generate(SynthConfig(), tmp_path / "library")
        files = [{p.relative_to(root): p.read_bytes()
                  for p in sorted(root.rglob("*")) if p.is_file()}
                 for root in (tmp_path / "cli", tmp_path / "library")]
        assert len(files[0]) == 2 * SynthConfig().docs_per_class + 4
        assert files[0] == files[1]

    def test_evaluate_without_flags_runs_the_pipeline_defaults(self, data,
                                                               tmp_path):
        features, report = tmp_path / "features.csv", tmp_path / "cli.json"
        assert main(["featurize", *_corpus_flags(data),
                     "--out", str(features)]) == 0
        assert main(["evaluate", "--features", str(features),
                     "--out", str(report)]) == 0
        dataset = read_features_csv(features)
        cfg = PipelineConfig("corpus", "lexicon", "lemmas", "out")
        util.write_json(tmp_path / "library.json", run_cv(
            dataset, cfg.classifier, k=cfg.k, seed=cfg.seed,
            meta={"variant": dataset.variant.name}).to_dict())
        assert report.read_bytes() == \
            (tmp_path / "library.json").read_bytes()

    @pytest.mark.parametrize("kind", ["ann", "svm"])
    def test_train_without_a_seed_keeps_the_config_seed(self, data, tmp_path,
                                                        kind):
        features, model = tmp_path / "features.csv", tmp_path / "cli.json"
        assert main(["featurize", *_corpus_flags(data),
                     "--out", str(features)]) == 0
        assert main(["train", "--features", str(features), "--classifier",
                     kind, "--out", str(model)]) == 0
        dataset = read_features_csv(features)
        classifiers.save_model(classifiers.train(
            kind, dataset.rows, dataset.labels), tmp_path / "library.json")
        assert model.read_bytes() == \
            (tmp_path / "library.json").read_bytes()

    @pytest.mark.parametrize("kind", ["ann", "svm"])
    def test_train_seed_is_the_classifiers_seed(self, data, tmp_path, capsys,
                                                kind):
        features, model = tmp_path / "features.csv", tmp_path / "cli.json"
        assert main(["featurize", *_corpus_flags(data),
                     "--out", str(features)]) == 0
        assert main(["train", "--features", str(features), "--classifier",
                     kind, "--seed", "5", "--out", str(model)]) == 0
        dataset = read_features_csv(features)
        library = classifiers.train(kind, dataset.rows, dataset.labels,
                                    classifiers.make_config(kind, seed=5))
        classifiers.save_model(library, tmp_path / "library.json")
        assert model.read_bytes() == \
            (tmp_path / "library.json").read_bytes()
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        right = classifiers.predict_labels(library, dataset.rows) \
            == dataset.labels
        assert summary["training_accuracy"] == float(right.mean())


    def test_help_states_the_default_of_each_flag_taking_a_value(self):
        commands = build_parser()._subparsers._group_actions[0].choices
        kinds = [classifiers.make_config(kind) for kind in classifiers.KINDS]
        stated = set()
        for name, parser in commands.items():
            # The first config holding a flag's field gives its default:
            # train's --seed is the classifier's.
            configs = {"synth": [SynthConfig],
                       "train": [*kinds, PipelineConfig]}.get(
                           name, [PipelineConfig, *kinds])
            for action in parser._actions:
                if not action.option_strings or action.nargs == 0:
                    continue   # --help and the switches
                default = next((f.default for config in configs
                                for f in dataclasses.fields(config)
                                if f.name == action.dest), None)
                flag, text = action.option_strings[0], action.help or ""
                if flag == "--gamma":
                    assert text.endswith("(default 1/num_features)")
                elif default in (None, dataclasses.MISSING):
                    assert "(default" not in text, (name, flag)
                else:
                    assert text.endswith(f"(default {default})"), (name, flag)
                    assert text.count("(default") == 1, (name, flag)
                    stated.add(flag)
        assert {"--lr", "--momentum", "--max-passes", "--docs", "--hidden",
                "--tol", "--svm-c", "--window", "--formula"} <= stated


class TestPipeline:
    def test_term_level_run_writes_artifacts(self, data, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["pipeline", *_corpus_flags(data), "--out", str(out),
                     "--level", "term", "--variant", "8",
                     "--formula", "max_sub", "--classifier", "dtree",
                     "--folds", "3", "--seed", "5"]) == 0
        assert (out / "features.csv").is_file()
        assert (out / "report.json").is_file()
        assert all((out / f"model_fold{j}.json").is_file() for j in range(3))
        summary = json.loads(capsys.readouterr().out)
        assert summary["test_f_pos"] == 1.0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["meta"]["formula"] == "max_sub"
        assert report["meta"]["variant"] == "TERM8"
        assert report["meta"]["rules"] is False

    def test_level_defaults_to_the_variants(self, data, tmp_path):
        runs = {}
        for level in ([], ["--level", "document"]):
            out = tmp_path / f"run{len(level)}"
            assert main(["pipeline", *_corpus_flags(data), "--out", str(out),
                         *level, "--variant", "7", "--formula", "max_sub",
                         "--sentence-formula", "max_sub",
                         "--classifier", "dtree", "--folds", "3"]) == 0
            runs[len(level)] = {p.name: p.read_bytes()
                                for p in sorted(out.iterdir())}
        assert len(runs[0]) == 5
        assert runs[0] == runs[2]
        meta = json.loads(runs[0]["report.json"])["meta"]
        assert (meta["level"], meta["variant"]) == ("document", "DOC7")

    def test_document_level_with_rules(self, data, tmp_path):
        out = tmp_path / "run_doc"
        assert main(["pipeline", *_corpus_flags(data), "--out", str(out),
                     "--level", "document", "--variant", "7",
                     "--formula", "max_sub", "--sentence-formula", "max_max",
                     "--rules", "--negations", data["negations"],
                     "--intensifiers", data["intensifiers"],
                     "--classifier", "dtree", "--folds", "3",
                     "--seed", "5"]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["meta"]["sentence_formula"] == "max_max"
        assert report["meta"]["rules"] is True

    def test_config_file_with_flag_override(self, data, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text(
            "\n".join([
                "# pipeline configuration",
                f'corpus_dir = "{data["corpus"]}"',
                f'lexicon_path = "{data["lexicon"]}"',
                f'lemma_dict_path = "{data["lemma_dict"]}"',
                f'out_dir = "{tmp_path / "from_file"}"',
                "level = term",
                "variant = 8",
                "prior_formula = avg_sub",
                "classifier = dtree",
                "k = 3",
                "seed = 2",
            ]) + "\n", encoding="utf-8")
        assert main(["pipeline", "--config", str(cfg)]) == 0
        report = json.loads(
            (tmp_path / "from_file" / "report.json").read_text("utf-8"))
        assert report["meta"]["formula"] == "avg_sub"

        override_out = tmp_path / "overridden"
        assert main(["pipeline", "--config", str(cfg),
                     "--formula", "max_max",
                     "--out", str(override_out)]) == 0
        report = json.loads(
            (override_out / "report.json").read_text("utf-8"))
        assert report["meta"]["formula"] == "max_max"

    def test_config_values_are_read_by_their_fields_type(
            self, data, tmp_path, monkeypatch):
        # A bare path that reads as a number is a path, and rules takes
        # the words --rules-options takes.
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.conf"
        cfg.write_text("\n".join([
            f"corpus_dir = {data['corpus']}",
            f"lexicon_path = {data['lexicon']}",
            f"lemma_dict_path = {data['lemma_dict']}",
            f"negations_path = {data['negations']}",
            f"intensifiers_path = {data['intensifiers']}",
            "out_dir = 2024", "rules = on", "classifier = dtree",
            "k = 2"]) + "\n", encoding="utf-8")
        assert main(["pipeline", "--config", str(cfg)]) == 0
        assert main(["pipeline", *_corpus_flags(data),
                     *_rules_flags(data, 1), "--classifier", "dtree",
                     "--folds", "2", "--out", "flags"]) == 0
        run = json.loads((tmp_path / "2024" / "report.json").read_bytes())
        assert run["meta"]["rules"] is True
        assert run == json.loads(
            (tmp_path / "flags" / "report.json").read_bytes())

    def test_unknown_config_key_rejected(self, data, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("nonsense_key = 1\n", encoding="utf-8")
        assert main(["pipeline", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("line,key", [
        ("k = five", "k"), ("window = wide", "window"), ("seed = abc", "seed"),
        ("rules = maybe", "rules"), ("classifier_options = foo",
                                     "classifier_options"),
        # A quoted value is a string, and no field is a float.
        ('k = "5"', "k"), ("rules = 'on'", "rules"), ("seed = 1.0", "seed"),
        # No path can hold a NUL, so no string value may either.
        ('out_dir = "run\0x"', "out_dir"),
        ("lexicon_path = lexicon\0.tsv", "lexicon_path"),
        ("lemma_dict_path = \0", "lemma_dict_path"),
        ('negations_path = "neg\0ations.txt"', "negations_path"),
    ])
    def test_mistyped_config_value_is_config_error(self, data, tmp_path,
                                                   capsys, line, key):
        out = tmp_path / "run"
        cfg = tmp_path / "bad.conf"
        cfg.write_text("\n".join([
            f'corpus_dir = "{data["corpus"]}"',
            f'lexicon_path = "{data["lexicon"]}"',
            f'lemma_dict_path = "{data["lemma_dict"]}"',
            f'out_dir = "{out}"',
            "classifier = dtree",
            line]) + "\n", encoding="utf-8")
        assert main(["pipeline", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"bad.conf:6: " in err and key in err
        assert "Traceback" not in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("key,value", [
        ("variant", "9" * 5000), ("rules", "x" * 5000),
    ], ids=["variant-5000-digits", "rules-5000-letters"])
    def test_a_long_refused_config_value_is_cut_short(self, tmp_path, capsys,
                                                      key, value):
        cfg = tmp_path / "long.conf"
        cfg.write_text(f"# a refused value\n{key} = {value}\n",
                       encoding="utf-8")
        assert main(["pipeline", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == (f"configuration error: {cfg}:2: {key} must be of "
                       f"type {'int' if key == 'variant' else 'bool'}, got "
                       f"{value[:40]!r}... (5000 characters)\n")

    def test_unknown_classifier_in_config_file(self, data, tmp_path, capsys):
        cfg = tmp_path / "nb.conf"
        cfg.write_text("\n".join([
            f'corpus_dir = "{data["corpus"]}"',
            f'lexicon_path = "{data["lexicon"]}"',
            f'lemma_dict_path = "{data["lemma_dict"]}"',
            f'out_dir = "{tmp_path / "run"}"',
            "classifier = nb"]) + "\n", encoding="utf-8")
        assert main(["pipeline", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            "configuration error: unknown classifier 'nb' "
            "(one of: ann, dtree, svm)\n")

    def test_a_config_key_of_40_characters_is_shown_whole(self, tmp_path,
                                                          capsys):
        cfg = tmp_path / "forty.conf"
        cfg.write_text(f"{'k' * 40} = 1\n", encoding="utf-8")
        assert main(["pipeline", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"configuration error: {cfg}:1: unknown config key "
            f"{'k' * 40!r}\n")

    def test_a_long_unknown_config_key_is_cut_short(self, tmp_path, capsys):
        cfg = tmp_path / "long.conf"
        cfg.write_text(f"{'k' * 5000} = 1\n", encoding="utf-8")
        assert main(["pipeline", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"configuration error: {cfg}:1: unknown config key "
            f"{'k' * 40!r}... (5000 characters)\n")


class TestSweep:
    def test_grid_shape_and_argmax(self, data, tmp_path, capsys):
        out = tmp_path / "sweepdir"
        assert main(["sweep", *_corpus_flags(data), "--out", str(out),
                     "--formulas", "max_sub,avg_sub", "--variants", "8,6",
                     "--rules-options", "off", "--classifiers", "dtree",
                     "--folds", "3", "--seed", "4"]) == 0
        lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("classifier,prior_formula")
        assert len(lines) == 1 + 4  # 2 formulas x 2 variants
        best_rows = [l for l in lines[1:] if l.endswith(",1")]
        assert len(best_rows) == 1
        summary = json.loads(capsys.readouterr().out)
        assert summary["cells"] == 4
        # the argmax row scores at least as well as every other row
        scores = [float(l.split(",")[7]) for l in lines[1:]]
        best_score = float(best_rows[0].split(",")[7])
        assert all(best_score >= s for s in scores)

    def test_singleton_grid_matches_pipeline(self, data, tmp_path):
        sweep_out = tmp_path / "single"
        assert main(["sweep", *_corpus_flags(data), "--out", str(sweep_out),
                     "--formulas", "max_sub", "--variants", "8",
                     "--rules-options", "off", "--classifiers", "dtree",
                     "--folds", "3", "--seed", "4"]) == 0
        cell_report = json.loads(
            (sweep_out / "cells" / "dtree_max_sub_8f_norules" / "report.json")
            .read_text("utf-8"))

        pipe_out = tmp_path / "direct"
        assert main(["pipeline", *_corpus_flags(data), "--out", str(pipe_out),
                     "--level", "term", "--variant", "8",
                     "--formula", "max_sub", "--classifier", "dtree",
                     "--folds", "3", "--seed", "4"]) == 0
        direct_report = json.loads(
            (pipe_out / "report.json").read_text("utf-8"))
        assert cell_report == direct_report

    def test_grid_replaces_the_config_files_cell_settings(self, data,
                                                          tmp_path):
        out = tmp_path / "sweep"
        cfg = tmp_path / "run.conf"
        cfg.write_text("\n".join([
            "level = document", "variant = 7", "prior_formula = avg_avg",
            "sentence_formula = max_sub", "rules = true",
            "classifier = svm", "k = 3"]) + "\n", encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), *_corpus_flags(data),
                     "--out", str(out), "--classifiers", "dtree"]) == 0
        assert [p.name for p in (out / "cells").iterdir()] == [
            "dtree_max_sub_8f_norules"]
        report = json.loads((out / "cells" / "dtree_max_sub_8f_norules"
                             / "report.json").read_text("utf-8"))
        assert {key: report["meta"][key] for key in (
            "classifier", "formula", "sentence_formula", "level", "variant",
            "rules", "k")} == {
            "classifier": "dtree", "formula": "max_sub",
            "sentence_formula": None, "level": "term", "variant": "TERM8",
            "rules": False, "k": 3}

    @pytest.mark.parametrize("flag", ["--classifiers", "--formulas",
                                      "--variants", "--rules-options"])
    def test_empty_grid_axis_is_config_error(self, data, tmp_path, capsys,
                                             flag):
        out = tmp_path / "sweep"
        assert main(["sweep", *_corpus_flags(data), "--out", str(out),
                     "--classifiers", "dtree", flag, ","]) == 1
        err = capsys.readouterr().err
        assert "configuration error: the sweep grid has no" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,values,message", [
        ("--variants", "8,x", "--variants takes integers, got '8,x'"),
        ("--classifiers", "dtree,dtree",
         "the sweep grid repeats the cell dtree_max_sub_8f_norules"),
        ("--rules-options", "off,no",
         "the sweep grid repeats the cell dtree_max_sub_8f_norules"),
        ("--formulas", "max_sub,MAX_SUB",
         "the sweep grid repeats the cell dtree_max_sub_8f_norules"),
        ("--variants", "8,08",
         "the sweep grid repeats the cell dtree_max_sub_8f_norules"),
    ])
    def test_bad_or_repeated_grid_values_are_config_errors(
            self, data, tmp_path, capsys, flag, values, message):
        # Each value of an axis must parse, and to a value of its own:
        # one cell, one directory and one sweep.csv row per grid point.
        out = tmp_path / "sweep"
        argv = ["sweep", *_corpus_flags(data), "--out", str(out),
                "--classifiers", "dtree", flag, values]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"configuration error: {message}\n"
        assert "Traceback" not in err
        assert not out.exists()

    def test_mixed_level_variants_rejected(self, data, tmp_path, capsys):
        # Each cell's level is its variant's, so a term cell refuses a
        # sentence formula and a document cell needs one.
        for sentence_formulas, message in (
                ("", "document level requires a sentence formula"),
                ("max_sub", "sentence formula only applies at document "
                 "level")):
            assert main(["sweep", *_corpus_flags(data),
                         "--out", str(tmp_path / "bad"),
                         "--formulas", "max_sub", "--variants", "8,7",
                         "--sentence-formulas", sentence_formulas,
                         "--rules-options", "off",
                         "--classifiers", "dtree"]) == 1
            assert capsys.readouterr().err == (f"configuration error: "
                                               f"{message}\n")
            assert not (tmp_path / "bad").exists()

    def test_cells_are_named_as_their_reports_spell_them(self, data,
                                                         tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", *_corpus_flags(data), "--out", str(out),
                     "--formulas", "MAX_SUB", "--variants", "5",
                     "--sentence-formulas", "Max_Max",
                     "--classifiers", "dtree", "--folds", "3"]) == 0
        name = "dtree_max_sub_max_max_5f_norules"
        assert [p.name for p in (out / "cells").iterdir()] == [name]
        assert json.loads(capsys.readouterr().out)["best"] == name
        row = (out / "sweep.csv").read_text("utf-8").splitlines()[1]
        assert row.startswith("dtree,max_sub,max_max,5,false,")
        meta = json.loads((out / "cells" / name / "report.json")
                          .read_text("utf-8"))["meta"]
        assert (meta["formula"], meta["sentence_formula"]) == (
            "max_sub", "max_max")
