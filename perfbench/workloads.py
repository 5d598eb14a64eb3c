"""The benchmark's workloads: how each corpus is generated and which CLI
commands one pass issues against it.

Every workload is one closed-loop caller issuing one ``multisent`` CLI
command at a time from a single process. Corpora come from
``SynthConfig(purity=0.8, rule_fraction=0.2)`` keyed by the workload
seed; the same seed also seeds cross-validation, so a seed fixes every
input.
"""

import math
from dataclasses import dataclass
from typing import Callable

# Smoke mode shrinks every corpus to this many documents (both classes).
SMOKE_DOCS = 40
FOLDS = 5


def _sweep(common, corpus, out):
    return [["sweep", *common,
             "--formulas", "max_sub,avg_sub,max_max,avg_max,avg_avg",
             "--variants", "8,6", "--rules-options", "off,on",
             "--classifiers", "dtree"]]


def _svm(common, corpus, out):
    return [["pipeline", *common, "--level", "term", "--variant", "8",
             "--formula", "max_sub", "--rules", "--classifier", "svm"]]


def _ann(common, corpus, out):
    return [["quality", "--corpus", corpus, "--out", f"{out}/quality.csv"],
            ["pipeline", *common, "--level", "document", "--variant", "7",
             "--formula", "max_sub", "--sentence-formula", "max_sub",
             "--rules", "--classifier", "ann"]]


@dataclass(frozen=True)
class Workload:
    name: str
    docs: int                 # documents in the corpus, both classes
    cells: int                # cross-validation runs per pass
    arabic_tool_words: bool
    classifier: str
    build: Callable           # (common flags, corpus, out) -> argv lists
    # Seconds of --seconds one corpus accounts for. Only sizes the fixed
    # list of corpora a run measures, so that at --seconds 20 a run's
    # spread across seeds and its wall time (about 35-50 s on a 2-vCPU VM)
    # both fit; never compared with the clock.
    corpus_s: float
    setups: int               # set-ups an untraced run times, at least
    why: str

    def corpus_docs(self, smoke: bool) -> int:
        return SMOKE_DOCS if smoke else self.docs

    def corpora(self, seconds: float, trace: bool) -> int:
        """How many corpora a run measures. The count depends on
        ``seconds`` alone, not on how fast the program is, so two commits
        run with the same ``seconds`` time exactly the same inputs. A
        traced run gives each corpus two passes, so it takes half."""
        n = max(1, math.ceil(seconds / self.corpus_s))
        return max(1, n // 2) if trace else n

    def commands(self, data: dict, out: str, seed: int) -> list:
        """The argv lists one pass hands to ``multisent.cli.main``."""
        common = ["--corpus", data["corpus"], "--lexicon", data["lexicon"],
                  "--lemma-dict", data["lemma_dict"],
                  "--negations", data["negations"],
                  "--intensifiers", data["intensifiers"],
                  "--folds", str(FOLDS), "--seed", str(seed), "--out", out]
        return self.build(common, data["corpus"], out)


WORKLOADS = {w.name: w for w in (
    Workload("sweep-term-dtree-500", docs=500, cells=20,
             arabic_tool_words=False, classifier="dtree", build=_sweep,
             corpus_s=20.0, setups=5,
             why="re-prepares one corpus 20 times for 10 distinct datasets "
                 "under a cheap tree, so corpus_io, scoring, features and "
                 "artifact writes dominate"),
    Workload("cv-svm-term8-500", docs=500, cells=1,
             arabic_tool_words=False, classifier="svm", build=_svm,
             corpus_s=2.0, setups=10,
             why="one prepare and one featurize feed SMO on a dense "
                 "400x400 kernel per fold, so the SVM trainer dominates"),
    Workload("cv-ann-doc7-2000", docs=2000, cells=1,
             arabic_tool_words=True, classifier="ann", build=_ann,
             corpus_s=20.0, setups=4,
             why="quality then document-level CV: sentence roll-ups, the "
                 "affix-fallback lemma path and the BLAS-bound ANN"),
)}
