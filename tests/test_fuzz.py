"""Seeded CLI fuzzing: small edits to one input file, and edge values of
the numeric and list flags, must end in exit 0, 1 or 2, never in a
traceback, and a run that succeeds writes artifacts that parse.

Each input trial copies one input (the lexicon, the lemma dictionary, a
rule word list, a corpus document, a features CSV or a config file),
makes 1-4 insertions, deletions or replacements drawn from characters
that break parsers, and runs a command that reads it through
``cli.main``. Each flag trial gives one to three flags of one command
values at and past the edges of their ranges. The seeds are fixed, so a
failure names a trial that reruns the same way.
"""

import json
import math
import random
import shutil

import pytest

from multisent.classifiers import load_model
from multisent.cli import main
from multisent.corpus_io import list_corpus
from multisent.features import read_features_csv
from multisent.pipeline import read_config_file

# NUL, BOM, non-finite numbers, field and line separators, CR and Arabic.
PIECES = ["\0", "\ufeff", "nan", "inf", "1e309", "\t", ",", "=", " ", "\n",
          "\r", "\r\n", "#", "ب", "لا", "جدا", "\u064e"]
TRIALS = 40


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_inputs")
    assert main(["synth", "--docs", "6", "--seed", "31", "--density", "0.4",
                 "--rule-fraction", "0.5", "--arabic-tool-words",
                 "--out", str(root)]) == 0
    files = {"corpus": root / "corpus", "lexicon": root / "lexicon.tsv",
             "lemma_dict": root / "lemma_dict.tsv",
             "negations": root / "negations.txt",
             "intensifiers": root / "intensifiers.txt",
             "features": root / "features.csv", "config": root / "run.conf"}
    assert main(["featurize", "--corpus", str(files["corpus"]),
                 "--lexicon", str(files["lexicon"]),
                 "--lemma-dict", str(files["lemma_dict"]),
                 "--out", str(files["features"])]) == 0
    # Paths the config reads are absolute; the one it writes, out_dir, is
    # relative, so an edit can only move it within the trial's directory.
    files["config"].write_text("\n".join([
        "# fuzzed pipeline run",
        f'corpus_dir = "{files["corpus"]}"',
        f'lexicon_path = "{files["lexicon"]}"',
        f'lemma_dict_path = "{files["lemma_dict"]}"',
        f'negations_path = "{files["negations"]}"',
        f'intensifiers_path = "{files["intensifiers"]}"',
        'out_dir = "run"', "rules = true", "window = 2", "level = term",
        "variant = 8", "classifier = dtree", "k = 2", "seed = 3"]) + "\n",
        encoding="utf-8")
    return files


def _mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(text) + 1)
        op = rng.choice(["insert", "delete", "replace"])
        piece = "" if op == "delete" else rng.choice(PIECES)
        end = at if op == "insert" else min(len(text), at + rng.randint(1, 3))
        text = text[:at] + piece + text[end:]
    return text


def _argv(command: str, files: dict, out) -> list:
    if command in ("train", "evaluate"):
        return [command, "--features", str(files["features"]),
                "--classifier", "dtree", "--out", str(out)] \
            + (["--folds", "2"] if command == "evaluate" else [])
    if command == "quality":
        return ["quality", "--corpus", str(files["corpus"]), "--out", str(out)]
    if command == "config":
        return ["pipeline", "--config", str(files["config"])]
    argv = [command, "--corpus", str(files["corpus"]),
            "--lexicon", str(files["lexicon"]),
            "--lemma-dict", str(files["lemma_dict"]), "--rules",
            "--negations", str(files["negations"]),
            "--intensifiers", str(files["intensifiers"]), "--window", "2",
            "--out", str(out)]
    return argv + (["--classifier", "dtree", "--folds", "2"]
                   if command == "pipeline" else [])


def _check_artifacts(command: str, out) -> None:
    if command in ("pipeline", "config"):
        read_features_csv(out / "features.csv")
        json.loads((out / "report.json").read_text(encoding="utf-8"))
        for j in range(2):
            load_model(out / f"model_fold{j}.json")
    elif command == "train":
        load_model(out)
    elif command == "evaluate":
        json.loads(out.read_text(encoding="utf-8"))
    elif command == "score":
        # Token scores, or one score per sentence with a sentence formula.
        rows = out.read_text(encoding="utf-8").splitlines()
        header = rows[0].split("\t")
        assert header[1:] in (["index", "surface", "lemma", "prior",
                               "adjusted"], ["sentence", "score"])
        scores = 2 if header[-1] == "adjusted" else 1
        for row in rows[1:]:
            assert all(map(math.isfinite,
                           map(float, row.split("\t")[-scores:])))
    else:
        rows = out.read_text(encoding="utf-8").splitlines()
        assert len(rows) > 1 and all("," in row for row in rows)


# The commands that read each kind of input file.
COMMANDS = {"lexicon": ["pipeline", "score"],
            "lemma_dict": ["pipeline", "score"],
            "negations": ["pipeline", "score"],
            "intensifiers": ["pipeline", "score"],
            "document": ["pipeline", "score", "quality"],
            "features": ["train", "evaluate"], "config": ["config"]}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mutated_inputs_never_crash(inputs, tmp_path, capfd, monkeypatch,
                                    seed):
    rng = random.Random(seed)
    for trial in range(TRIALS):
        work = tmp_path / str(trial)
        work.mkdir()
        monkeypatch.chdir(work)
        target = rng.choice(sorted(COMMANDS))
        command = rng.choice(COMMANDS[target])
        files = dict(inputs)
        if target == "document":
            files["corpus"] = work / "corpus"
            shutil.copytree(inputs["corpus"], files["corpus"])
            victim = rng.choice(sorted(files["corpus"].glob("*/*.txt")))
        else:
            victim = files[target] = work / inputs[target].name
            shutil.copy(inputs[target], victim)
        text = _mutate(victim.read_text(encoding="utf-8"), rng)
        victim.write_text(text, encoding="utf-8", newline="")
        out = work / ("run" if command in ("pipeline", "config")
                      else "out.txt")
        case = f"seed {seed}, trial {trial}: {command} on {victim.name}"
        try:
            code = main(_argv(command, files, out))
        except Exception as exc:
            pytest.fail(f"{case} raised {type(exc).__name__}: {exc}")
        err = capfd.readouterr().err
        assert code in (0, 1, 2), case
        assert "Traceback" not in err, case
        if code == 0:
            if command == "config":   # an edit may have moved out_dir
                out = work / read_config_file(victim)["out_dir"]
            _check_artifacts(command, out)


# Flag values at and past the edges of their ranges. A count that sizes
# the work (documents, hidden units, restarts, epochs, passes, folds) takes
# only small values, or one no allocation can hold: a huge valid count asks
# for a huge run, which is not a bad input.
SMALL = ["-1", "0", "1", "2", "+2", "-0", "08", "\u0663", "", "x", "1.5",
         "1e3", "0x2"]
BIG = SMALL + ["2147483648", "9223372036854775808", "-9223372036854775809",
               str(10 ** 30)]
REALS = ["nan", "-nan", "inf", "-inf", "1e309", "-1e309", "0", "-0.0", "1",
         "0.5", "1.0000000000000002", "0.9999999999999999", "-1", "5e-324",
         "1e308", "", "x", "1_0", "0x10"]
FORMULAS = ["max_sub", "MAX_MAX", "avg_avg,max_sub", "max_sub,max_sub", "x",
            "", ",", " , ", "max_sub,,avg_max"]
SENTENCE_FORMULAS = ["max_sub", "max_max,max_sub", "MAX_MAX", "x", "", ","]
CLASSIFIER_FLAGS = {
    "--hidden": SMALL + [str(10 ** 15)], "--restarts": SMALL,
    "--max-epochs": SMALL, "--lr": REALS, "--momentum": REALS,
    "--confidence": REALS, "--min-leaf": BIG, "--svm-c": REALS,
    "--gamma": REALS, "--tol": REALS, "--max-passes": SMALL}
KINDS = ["dtree", "svm", "ann", "dtree,svm", "tree", "DTREE", "", ","]
FLAGS = {
    "synth": {"--docs": SMALL, "--seed": BIG, "--density": REALS,
              "--purity": REALS, "--rule-fraction": REALS},
    "quality": {"--exponent": REALS, "--log-base": ["e", "2", "10", ""]},
    "score": {"--window": BIG, "--formula": FORMULAS,
              "--sentence-formula": SENTENCE_FORMULAS},
    "featurize": {"--window": BIG, "--variant": BIG,
                  "--level": ["term", "document", "x"],
                  "--formula": FORMULAS,
                  "--sentence-formula": SENTENCE_FORMULAS},
    "train": {"--classifier": KINDS, "--seed": BIG, **CLASSIFIER_FLAGS},
    "evaluate": {"--classifier": KINDS, "--folds": SMALL, "--seed": BIG,
                 **CLASSIFIER_FLAGS},
    "sweep": {"--formulas": FORMULAS,
              "--variants": ["8", "6,8", "08,8", "7", "8,7", "4,5,7", "0",
                             "-8", "x", "", ","],
              "--rules-options": ["off", "on", "off,on", "yes,1", "maybe",
                                  "", ","],
              "--classifiers": KINDS,
              "--sentence-formulas": SENTENCE_FORMULAS, "--window": BIG,
              "--folds": SMALL, "--seed": BIG, **CLASSIFIER_FLAGS},
}
FLAG_TRIALS = 60


def _base_argv(command: str, files: dict, out) -> list:
    """A cheap run of the command, before the fuzzed flags override it."""
    corpus = ["--corpus", str(files["corpus"]),
              "--lexicon", str(files["lexicon"]),
              "--lemma-dict", str(files["lemma_dict"]),
              "--negations", str(files["negations"]),
              "--intensifiers", str(files["intensifiers"])]
    return {"synth": ["synth"],
            "quality": ["quality", "--corpus", str(files["corpus"])],
            "score": ["score", *corpus, "--rules"],
            "featurize": ["featurize", *corpus, "--rules"],
            "train": ["train", "--features", str(files["features"]),
                      "--classifier", "dtree"],
            "evaluate": ["evaluate", "--features", str(files["features"]),
                         "--classifier", "dtree", "--folds", "2"],
            "sweep": ["sweep", *corpus, "--rules-options", "on",
                      "--classifiers", "dtree", "--folds", "2"],
            }[command] + ["--out", str(out)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_flag_edge_values_never_crash(inputs, tmp_path, capfd, seed):
    rng = random.Random(seed)
    for trial in range(FLAG_TRIALS):
        command = rng.choice(sorted(FLAGS))
        flags = rng.sample(sorted(FLAGS[command]),
                           rng.randint(1, min(3, len(FLAGS[command]))))
        fuzzed = [f"{flag}={rng.choice(FLAGS[command][flag])}"
                  for flag in flags]
        out = tmp_path / str(trial) / ("run" if command in ("synth", "sweep")
                                       else "out.txt")
        case = f"seed {seed}, trial {trial}: {command} {' '.join(fuzzed)}"
        try:
            code = main(_base_argv(command, inputs, out) + fuzzed)
        except Exception as exc:
            pytest.fail(f"{case} raised {type(exc).__name__}: {exc}")
        err = capfd.readouterr().err
        assert code in (0, 1, 2), case
        assert "Traceback" not in err, case
        if code == 0 and command == "synth":
            assert len(list_corpus(out / "corpus")) % 2 == 0, case
        elif code == 0 and command == "sweep":
            rows = (out / "sweep.csv").read_text(encoding="utf-8")
            assert len(rows.splitlines()) > 1, case
        elif code == 0:
            _check_artifacts(command, out)
