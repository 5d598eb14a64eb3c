"""The CLI's flags, pinned: each subcommand takes exactly these option
strings, spelled in full, and a sweep and a config-file pipeline run write
exactly these bytes.

Tree runs use no BLAS kernel, so the digests hold on any BLAS build. SVM
and ANN model files hold bits that depend on the BLAS kernel, so only the
reports of their runs, which hold labels' scores, are pinned.
"""

import hashlib

import pytest

from multisent.cli import build_parser, main

CLASSIFIER_OPTIONS = {"--hidden", "--restarts", "--max-epochs", "--lr",
                      "--momentum", "--confidence", "--min-leaf", "--no-prune",
                      "--svm-c", "--gamma", "--tol", "--max-passes"}
INPUTS = {"--corpus", "--lemma-dict", "--lexicon", "--negations",
          "--intensifiers", "--window"}
CELL = {"--formula", "--sentence-formula", "--rules", "--no-rules"}
RUN = {"--config", "--out", "--folds", "--seed"}
SURFACE = {
    "synth": {"--docs", "--seed", "--density", "--purity", "--rule-fraction",
              "--arabic-tool-words", "--out"},
    "quality": {"--corpus", "--exponent", "--log-base", "--out"},
    "lexicon-aggregate": {"--lexicon", "--formula", "--out"},
    "score": INPUTS | CELL | {"--out"},
    "featurize": INPUTS | CELL | {"--level", "--variant", "--out"},
    "train": {"--features", "--in", "--classifier", "--seed", "--out"}
    | CLASSIFIER_OPTIONS,
    "evaluate": {"--features", "--classifier", "--folds", "--seed", "--out"}
    | CLASSIFIER_OPTIONS,
    "pipeline": INPUTS | CELL | RUN | {"--level", "--variant", "--classifier"}
    | CLASSIFIER_OPTIONS,
    # The grid's axes replace the cell flags, --classifier among them.
    "sweep": INPUTS | RUN | {"--formulas", "--variants", "--rules-options",
                             "--classifiers", "--sentence-formulas"}
    | CLASSIFIER_OPTIONS,
}


def test_each_subcommand_takes_exactly_its_flags():
    subcommands = build_parser()._subparsers._group_actions[0].choices
    assert set(subcommands) == set(SURFACE)
    for name, parser in subcommands.items():
        flags = {s for a in parser._actions for s in a.option_strings}
        assert flags - {"-h", "--help"} == SURFACE[name], name


def _synth(out, *flags) -> dict:
    """The input paths of a seed-23 synthetic corpus written to ``out``."""
    assert main(["synth", "--seed", "23", "--density", "0.4",
                 "--rule-fraction", "0.3", *flags, "--out", str(out)]) == 0
    return {"corpus": str(out / "corpus"), "lexicon": str(out / "lexicon.tsv"),
            "lemma_dict": str(out / "lemma_dict.tsv"),
            "negations": str(out / "negations.txt"),
            "intensifiers": str(out / "intensifiers.txt")}


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    return _synth(tmp_path_factory.mktemp("surface_data"), "--docs", "20")


@pytest.fixture(scope="module")
def noisy_data(tmp_path_factory):
    """A corpus whose classes share words, so no classifier scores 1."""
    return _synth(tmp_path_factory.mktemp("noisy_data"), "--docs", "30",
                  "--purity", "0.6")


def _inputs(data) -> list:
    return ["--corpus", data["corpus"], "--lexicon", data["lexicon"],
            "--lemma-dict", data["lemma_dict"],
            "--negations", data["negations"],
            "--intensifiers", data["intensifiers"]]


@pytest.mark.parametrize("flags", [
    # Prefixes of --formulas, --variants and --rules-options.
    ["--formula", "avg_avg", "--variant", "6", "--rules", "on"],
    # The pipeline spelling, where --rules takes no value.
    ["--rules"],
    # The grid's --classifiers is sweep's only classifier setting.
    ["--classifier", "dtree"],
], ids=["prefixes", "rules", "classifier"])
def test_sweep_refuses_flags_it_does_not_declare(data, tmp_path, capsys,
                                                  flags):
    out = tmp_path / "sweep"
    assert main(["sweep", *flags, *_inputs(data), "--classifiers", "dtree",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "configuration error: unrecognized arguments:" in err
    assert "Traceback" not in err
    assert not out.exists()


# sha256 of every file a run writes, recorded before the CLI's flags and
# the sweep's cells were declared once each; that change kept every byte.
def _digests(root) -> dict:
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_sweep_artifacts_are_pinned(data, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", *_inputs(data), "--classifiers", "dtree",
                 "--formulas", "max_sub,avg_avg", "--variants", "8,6",
                 "--rules-options", "off,on", "--folds", "3", "--seed", "4",
                 "--out", str(out)]) == 0
    assert _digests(out) == SWEEP_DIGESTS


def test_config_file_pipeline_artifacts_are_pinned(data, tmp_path):
    out = tmp_path / "run"
    config = tmp_path / "run.conf"
    config.write_text("\n".join([
        f'corpus_dir = "{data["corpus"]}"',
        f'lexicon_path = "{data["lexicon"]}"',
        f'lemma_dict_path = "{data["lemma_dict"]}"',
        f'negations_path = "{data["negations"]}"',
        f'intensifiers_path = "{data["intensifiers"]}"',
        f'out_dir = "{out}"', "level = document", "variant = 5",
        "prior_formula = avg_max", "sentence_formula = max_sub",
        "rules = true", "window = 2", "classifier = dtree", "k = 3",
        "seed = 9"]) + "\n", encoding="utf-8")
    assert main(["pipeline", "--config", str(config), "--min-leaf", "3"]) == 0
    assert _digests(out) == PIPELINE_DIGESTS


@pytest.mark.parametrize("flags,digest", [
    (["--level", "term", "--variant", "8", "--rules", "--classifier", "svm"],
     "c12f543b446b9af43aa81435e6d0046429a738bf9666dced9b2e703fa8c9528a"),
    (["--level", "document", "--variant", "7", "--sentence-formula",
      "max_sub", "--classifier", "ann", "--restarts", "2",
      "--max-epochs", "100"],
     "a92ad32b94024a0b8d901c5599db23f996a91bc741734edbac7d53de58095a2d"),
], ids=["svm-term8", "ann-doc7"])
def test_blas_run_reports_are_pinned(noisy_data, tmp_path, flags, digest):
    out = tmp_path / "run"
    assert main(["pipeline", *_inputs(noisy_data), *flags, "--folds", "3",
                 "--seed", "5", "--out", str(out)]) == 0
    assert _digests(out)["report.json"] == digest


SWEEP_DIGESTS = {
    "cells/dtree_avg_avg_6f_norules/features.csv":
        "90e5db5252e66bcf906d82a052b8c16d9e8f12b503cbd1bf4ee84d773c5249f5",
    "cells/dtree_avg_avg_6f_norules/model_fold0.json":
        "31adedb63830779ddaa0d0e783c0d179db97d698476745ef7423e9f28a75705d",
    "cells/dtree_avg_avg_6f_norules/model_fold1.json":
        "31adedb63830779ddaa0d0e783c0d179db97d698476745ef7423e9f28a75705d",
    "cells/dtree_avg_avg_6f_norules/model_fold2.json":
        "6dea862dbdcaa7595940410bb2ad54e71b1ca26b092ad39c1857d0b9ca2147d0",
    "cells/dtree_avg_avg_6f_norules/report.json":
        "bcb32c26f06a5889e0230a437b65d6530ed08205643b2593375abd893ca90ecd",
    "cells/dtree_avg_avg_6f_rules/features.csv":
        "4cb191912b471e1a2ec179588df8f4cb23308cc787ff3b98858c58c49bbe0d28",
    "cells/dtree_avg_avg_6f_rules/model_fold0.json":
        "cb2145a4ae7c9752e66881088aa0353e5fa08888fe75faea312a993b494c8f34",
    "cells/dtree_avg_avg_6f_rules/model_fold1.json":
        "8e552b0fe4de40657de3cdc795840a983d45cde99439973e10d1227063cdb8d2",
    "cells/dtree_avg_avg_6f_rules/model_fold2.json":
        "3c0e85c9cc06e1d5e469262a705bbd4a15f4545d050f75610399a3ccf5b74bac",
    "cells/dtree_avg_avg_6f_rules/report.json":
        "0a08236e5866cc8977704d0391d002a4b90bb69bdd43f2be257ca3a76a9a1019",
    "cells/dtree_avg_avg_8f_norules/features.csv":
        "8ee3f1c652c9012084aa55643a233130bace61b278375f66991b77b886260291",
    "cells/dtree_avg_avg_8f_norules/model_fold0.json":
        "05562cc5b21128941bb4b25fa0f34cd26528cdfee39ac26d3e970efa91df109f",
    "cells/dtree_avg_avg_8f_norules/model_fold1.json":
        "05562cc5b21128941bb4b25fa0f34cd26528cdfee39ac26d3e970efa91df109f",
    "cells/dtree_avg_avg_8f_norules/model_fold2.json":
        "527786ad578c0d4b95610822e0130365e917ff664613e6639f150b2de154b47c",
    "cells/dtree_avg_avg_8f_norules/report.json":
        "b3cfeba62bc85d0f047508bc226fc9d8961795865b2aa1e0a5cd18bfe1484fbc",
    "cells/dtree_avg_avg_8f_rules/features.csv":
        "127fc5b25ebc8e12046c0dd9cd6020719ea130ef5bb356f2276939e52edbdc5e",
    "cells/dtree_avg_avg_8f_rules/model_fold0.json":
        "e72cc826bf5c4c9a539b0fc31ba1bc28627d0b2b8533f207a89931402f58b3ff",
    "cells/dtree_avg_avg_8f_rules/model_fold1.json":
        "9d0dea38b686e65d2198a9977429d0dd1dcab21fd9deeeee0bf27da970ad5e0d",
    "cells/dtree_avg_avg_8f_rules/model_fold2.json":
        "cf49a529680e4d76dda94b7ce523d333a80667eaa4b868662e837bd323f78c98",
    "cells/dtree_avg_avg_8f_rules/report.json":
        "57171be70cbe6caeb5ff80decdd78d8a88ade07ccd870831caba20d2cb37095c",
    "cells/dtree_max_sub_6f_norules/features.csv":
        "2f8aec4af1843813ce020591a1bfbabd4e5310ce9a7dbc00335294653fe16edc",
    "cells/dtree_max_sub_6f_norules/model_fold0.json":
        "31adedb63830779ddaa0d0e783c0d179db97d698476745ef7423e9f28a75705d",
    "cells/dtree_max_sub_6f_norules/model_fold1.json":
        "31adedb63830779ddaa0d0e783c0d179db97d698476745ef7423e9f28a75705d",
    "cells/dtree_max_sub_6f_norules/model_fold2.json":
        "6dea862dbdcaa7595940410bb2ad54e71b1ca26b092ad39c1857d0b9ca2147d0",
    "cells/dtree_max_sub_6f_norules/report.json":
        "ebc170b5e1ae039626d1253554252a372d686456b74deba01895bd5ad04219b6",
    "cells/dtree_max_sub_6f_rules/features.csv":
        "6d6955ce813cb7670fbd74c35be8657f32dd4154979aeb3d97697871c4db033b",
    "cells/dtree_max_sub_6f_rules/model_fold0.json":
        "cb2145a4ae7c9752e66881088aa0353e5fa08888fe75faea312a993b494c8f34",
    "cells/dtree_max_sub_6f_rules/model_fold1.json":
        "8e552b0fe4de40657de3cdc795840a983d45cde99439973e10d1227063cdb8d2",
    "cells/dtree_max_sub_6f_rules/model_fold2.json":
        "3c0e85c9cc06e1d5e469262a705bbd4a15f4545d050f75610399a3ccf5b74bac",
    "cells/dtree_max_sub_6f_rules/report.json":
        "9b787a04a0901f2c72de645cf2110b346bc967f13725db2f4c75d1da76f06240",
    "cells/dtree_max_sub_8f_norules/features.csv":
        "9bb12bab90c1ff720deb599f2b050d2263f3c9df2adab4900f5a531737b72130",
    "cells/dtree_max_sub_8f_norules/model_fold0.json":
        "05562cc5b21128941bb4b25fa0f34cd26528cdfee39ac26d3e970efa91df109f",
    "cells/dtree_max_sub_8f_norules/model_fold1.json":
        "05562cc5b21128941bb4b25fa0f34cd26528cdfee39ac26d3e970efa91df109f",
    "cells/dtree_max_sub_8f_norules/model_fold2.json":
        "527786ad578c0d4b95610822e0130365e917ff664613e6639f150b2de154b47c",
    "cells/dtree_max_sub_8f_norules/report.json":
        "bab9b118f1c4996c67a0cedef66e30613f7f094768e74cefd07ff8413088ecd9",
    "cells/dtree_max_sub_8f_rules/features.csv":
        "0fc58c101a5c8655b804dfa61e2423cfbd3c650045bec7617bda72f3dd554896",
    "cells/dtree_max_sub_8f_rules/model_fold0.json":
        "e72cc826bf5c4c9a539b0fc31ba1bc28627d0b2b8533f207a89931402f58b3ff",
    "cells/dtree_max_sub_8f_rules/model_fold1.json":
        "9d0dea38b686e65d2198a9977429d0dd1dcab21fd9deeeee0bf27da970ad5e0d",
    "cells/dtree_max_sub_8f_rules/model_fold2.json":
        "cf49a529680e4d76dda94b7ce523d333a80667eaa4b868662e837bd323f78c98",
    "cells/dtree_max_sub_8f_rules/report.json":
        "e7dd04648ff2cb424b2e96e6b4067dfe59289e2e3dc0b8472322a336056ecdf9",
    "sweep.csv":
        "3d227f37c9a94deb446fdded2c653b8e6750909f43515f4828c83a91d8434bc4",
}

PIPELINE_DIGESTS = {
    "features.csv":
        "56bd93829101bca50084be00cbde91236bfe1ed9bbfc94ee19a446a4ee4f9bca",
    "model_fold0.json":
        "68d0525f5274181d9da1f0dfbd0eb161a4254043828f6053ef88d551c05a279d",
    "model_fold1.json":
        "68d0525f5274181d9da1f0dfbd0eb161a4254043828f6053ef88d551c05a279d",
    "model_fold2.json":
        "6df00da33664c3f9901800bd39bdd170a8e91b18bc2746aa57d7b46760735d55",
    "report.json":
        "092123f363851474ab840230152d8386cc0eccc56bcc66e10f318dd135bd45d3",
}
