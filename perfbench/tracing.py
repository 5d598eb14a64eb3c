"""Per-layer tracing from outside the program.

``install(tracer)`` replaces selected public functions of the loaded
``multisent`` modules with wrappers that time each call and count the
work it did. A function is replaced in every module that binds it, so
``from .x import f`` aliases are traced too. Nothing under ``src/``
changes, and the wrappers return what the wrapped function returned, so
a traced run writes the same bytes as an untraced one.

A call's self time is its duration minus the durations of the traced
calls made inside it. Durations come from ``calibrate.clock``, which
leaves out the host-speed probes that interrupt a pass. The tracer keeps
per-function totals rather than one span per call, because the hot paths
run once per document.
"""

import sys
from collections import Counter, defaultdict
from functools import wraps

from calibrate import clock


class Tracer:
    """Call counts, busy and self time per traced function, plus counters."""

    def __init__(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.keys = defaultdict(set)     # distinct inputs per operation
        self.absent = []                 # targets the program no longer has
        self._stack = []                 # child time of each open frame
        self._inside = Counter()         # open frames per name

    def timed(self, name, fn, observe=None):
        """Wrap ``fn``; ``observe(tracer, args, kwargs, result)`` counts work."""
        stack = self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            self._inside[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                self._inside[name] -= 1
                children = stack.pop()
                if stack:
                    stack[-1] += took
                self.calls[name] += 1
                self.busy[name] += took
                self.self_time[name] += took - children
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return wrapper

    def counted(self, name, fn, observe=None):
        """Wrap a hot leaf ``fn`` with a call counter and no clock reads."""
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        return wrapper

    def inside(self, name) -> bool:
        return self._inside[name] > 0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _on_prepare_corpus(tr, args, kwargs, result):
    tr.keys["prepare"].add((str(_arg(args, kwargs, 0, "corpus_dir")),
                            str(_arg(args, kwargs, 1, "lemma_dict_path"))))


def _on_load_corpus(tr, args, kwargs, result):
    # A load outside prepare_corpus pairs the corpus with no lemma
    # dictionary (the quality command's empty LemmaDictionary).
    if not tr.inside("pipeline.prepare_corpus"):
        tr.keys["prepare"].add((str(_arg(args, kwargs, 0, "root_path")),
                                None))


def _on_prepare_document(tr, args, kwargs, result):
    tr.counts["corpus_io.tokens"] += len(result.tokens)


def _on_load_lexicon(tr, args, kwargs, result):
    tr.counts["lexicon.entries"] += len(result)


def _on_score_tokens(tr, args, kwargs, result):
    tr.counts["scoring.tokens"] += len(result)


def _on_build_dataset(tr, args, kwargs, result):
    priors = _arg(args, kwargs, 1, "priors")
    variant = _arg(args, kwargs, 2, "variant")
    rules = _arg(args, kwargs, 3, "rule_cfg")
    sentence = _arg(args, kwargs, 4, "sentence_formula")
    # Narrower variants are prefixes of the widest one at the same level,
    # so the level, not the width, identifies a distinct computation.
    tr.keys["build"].add((tuple(sorted(priors.items())), repr(rules),
                          repr(sentence), variant.level))


def _on_run_cv(tr, args, kwargs, result):
    tr.counts["evaluation.folds"] += len(result.folds)


def _on_train(tr, args, kwargs, result):
    kind = _arg(args, kwargs, 0, "kind")
    rows = _arg(args, kwargs, 1, "rows")
    if kind == "svm":
        n = len(rows)
        tr.counts["classifiers.svm.support_vectors"] += \
            len(result.support_vectors)
        tr.counts["classifiers.svm.kernel_bytes_max"] = max(
            tr.counts["classifiers.svm.kernel_bytes_max"], n * n * 8)
    elif kind == "ann":
        tr.counts["classifiers.ann.models"] += 1
        tr.counts["classifiers.ann.final_mse_sum"] += result.final_error
    elif kind == "dtree":
        nodes, depth = _tree_size(result.root)
        tr.counts["classifiers.dtree.nodes"] += nodes
        tr.counts["classifiers.dtree.depth"] = max(
            tr.counts["classifiers.dtree.depth"], depth)


def _tree_size(root):
    nodes, depth = 0, 0
    todo = [(root, 0)]
    while todo:
        node, d = todo.pop()
        nodes += 1
        depth = max(depth, d)
        if node.left is not None:
            todo.append((node.left, d + 1))
        if node.right is not None:
            todo.append((node.right, d + 1))
    return nodes, depth


def _on_pair_step(tr, args, kwargs, result):
    if result[1]:
        tr.counts["classifiers.svm.pair_moves"] += 1


def _on_rank_frequencies(tr, args, kwargs, result):
    tr.counts["corpus_quality.vocab"] += len(result.entries)


def _on_atomic_write(tr, args, kwargs, result):
    text = _arg(args, kwargs, 1, "text")
    tr.counts["util.bytes_written"] += len(text.encode("utf-8"))


# (module, attribute, traced name, wrapper kind, observer). The traced
# name says which layer the call belongs to: build_dataset lives in
# pipeline.py but is the features layer's work.
TARGETS = (
    ("multisent.cli", "main", "cli.main", "timed", None),
    ("multisent.pipeline", "run_pipeline", "pipeline.run_pipeline",
     "timed", None),
    ("multisent.pipeline", "sweep", "pipeline.sweep", "timed", None),
    ("multisent.pipeline", "prepare_corpus", "pipeline.prepare_corpus",
     "timed", _on_prepare_corpus),
    ("multisent.corpus_io", "load_corpus", "corpus_io.load_corpus",
     "timed", _on_load_corpus),
    ("multisent.corpus_io", "load_lemma_dictionary",
     "corpus_io.load_lemma_dictionary", "timed", None),
    ("multisent.corpus_io", "prepare_document", "corpus_io.prepare_document",
     "timed", _on_prepare_document),
    ("multisent.corpus_io", "remove_diacritics", "corpus_io.remove_diacritics",
     "counted", None),
    ("multisent.lexicon", "load_lexicon", "lexicon.load_lexicon",
     "timed", _on_load_lexicon),
    ("multisent.lexicon", "prior_table", "lexicon.prior_table", "timed", None),
    ("multisent.scoring", "score_tokens", "scoring.score_tokens",
     "timed", _on_score_tokens),
    ("multisent.scoring", "apply_rules", "scoring.apply_rules", "timed", None),
    ("multisent.scoring", "sentence_scores", "scoring.sentence_scores",
     "timed", None),
    ("multisent.pipeline", "build_dataset", "features.build_dataset",
     "timed", _on_build_dataset),
    ("multisent.features", "write_features_csv", "features.write_features_csv",
     "timed", None),
    ("multisent.evaluation", "run_cv", "evaluation.run_cv",
     "timed", _on_run_cv),
    ("multisent.classifiers", "train", "classifiers.train",
     "timed", _on_train),
    ("multisent.classifiers", "predict_labels", "classifiers.predict_labels",
     "timed", None),
    ("multisent.classifiers.io", "save_model", "classifiers.io.save_model",
     "timed", None),
    ("multisent.classifiers.svm", "_pair_step", "classifiers.svm._pair_step",
     "counted", _on_pair_step),
    ("multisent.classifiers.ann", "loss_gradients",
     "classifiers.ann.loss_gradients", "counted", None),
    ("multisent.corpus_quality", "rank_frequencies",
     "corpus_quality.rank_frequencies", "timed", _on_rank_frequencies),
    ("multisent.corpus_quality", "quality_report",
     "corpus_quality.quality_report", "timed", None),
    ("multisent.util", "atomic_write_text", "util.atomic_write_text",
     "timed", _on_atomic_write),
)


# Units by metric-name suffix; everything else is a count.
_UNITS = (("_s", "s"), (".s", "s"), ("_ratio", "ratio"), ("_per_token", "ratio"),
          ("kernel_mb", "MB_computed"), ("final_mse", "mse"),
          ("bytes_written", "bytes"))

# Times of layers that only some workloads enter. They read 0 elsewhere,
# so they are printed but kept out of the result JSON, whose per-layer
# times must be measured on every workload.
HUMAN_ONLY = frozenset({"scoring.sentence_scores_s", "corpus_quality.rank_s",
                        "corpus_quality.report_s"})


def layer_unit(name: str) -> str:
    for suffix, unit in _UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of one traced pass, as {name: value}.

    Times are seconds. A layer the pass never entered reads 0.
    """
    c, busy, own = tr.counts, tr.busy, tr.self_time
    tokens = c["corpus_io.tokens"]
    attempts = c["classifiers.svm._pair_step"]
    ann_models = c["classifiers.ann.models"]
    prepares = tr.calls["corpus_io.load_corpus"]
    builds = tr.calls["features.build_dataset"]
    return {
        "corpus_io.prepare_s": busy["corpus_io.prepare_document"],
        "corpus_io.load_s": busy["corpus_io.load_corpus"]
        + busy["corpus_io.load_lemma_dictionary"],
        "corpus_io.prepare_calls": prepares,
        "corpus_io.useful_ratio": _ratio(len(tr.keys["prepare"]), prepares),
        "corpus_io.tokens": tokens,
        "corpus_io.diacritics_per_token":
            _ratio(c["corpus_io.remove_diacritics"], tokens),
        "lexicon.s": busy["lexicon.load_lexicon"] + busy["lexicon.prior_table"],
        "lexicon.entries": c["lexicon.entries"],
        "scoring.score_tokens_s": busy["scoring.score_tokens"],
        "scoring.apply_rules_s": busy["scoring.apply_rules"],
        "scoring.sentence_scores_s": busy["scoring.sentence_scores"],
        "scoring.tokens": c["scoring.tokens"],
        "features.build_self_s": own["features.build_dataset"],
        "features.build_calls": builds,
        "features.useful_ratio": _ratio(len(tr.keys["build"]), builds),
        "features.write_csv_s": busy["features.write_features_csv"],
        "evaluation.run_cv_self_s": own["evaluation.run_cv"],
        "evaluation.folds": c["evaluation.folds"],
        "classifiers.train_s": busy["classifiers.train"],
        "classifiers.predict_s": busy["classifiers.predict_labels"],
        "classifiers.io.save_s": busy["classifiers.io.save_model"],
        "classifiers.svm.pair_attempts": attempts,
        "classifiers.svm.pair_moves": c["classifiers.svm.pair_moves"],
        "classifiers.svm.move_ratio":
            _ratio(c["classifiers.svm.pair_moves"], attempts),
        "classifiers.svm.support_vectors":
            c["classifiers.svm.support_vectors"],
        "classifiers.svm.kernel_mb":
            c["classifiers.svm.kernel_bytes_max"] / 1e6,
        "classifiers.ann.gradient_calls": c["classifiers.ann.loss_gradients"],
        "classifiers.ann.final_mse":
            _ratio(c["classifiers.ann.final_mse_sum"], ann_models),
        "classifiers.dtree.nodes": c["classifiers.dtree.nodes"],
        "classifiers.dtree.depth": c["classifiers.dtree.depth"],
        "corpus_quality.rank_s": busy["corpus_quality.rank_frequencies"],
        "corpus_quality.report_s": busy["corpus_quality.quality_report"],
        "corpus_quality.vocab": c["corpus_quality.vocab"],
        "pipeline.self_s": own["pipeline.run_pipeline"]
        + own["pipeline.sweep"],
        "util.writes": tr.calls["util.atomic_write_text"],
        "util.write_s": busy["util.atomic_write_text"],
        "util.bytes_written": c["util.bytes_written"],
    }


def install(tracer: Tracer) -> None:
    """Wrap every target in every loaded ``multisent`` module binding it.

    ``multisent`` must already be imported. A target the program no
    longer defines is recorded in ``tracer.absent`` and left out.
    """
    modules = [m for name, m in sys.modules.items()
               if name == "multisent" or name.startswith("multisent.")]
    for module_name, attr, name, kind, observe in TARGETS:
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            tracer.absent.append(name)
            continue
        make = tracer.timed if kind == "timed" else tracer.counted
        wrapper = make(name, original, observe)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
