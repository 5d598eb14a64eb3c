"""Acceptance criteria for the toolkit, one test per criterion.

Each criterion pins its tolerance in the test body; the conftest
terminal-summary hook prints one PASS/FAIL line per criterion after the
run.
"""

import json
import random
import time

import numpy as np
import pytest

from multisent import classifiers
from multisent.classifiers import SvmConfig, TreeConfig
from multisent.cli import main
from multisent.corpus_io import list_corpus
from multisent.corpus_quality import (kl_divergence, quality_report,
                                      rank_frequencies)
from multisent.evaluation import (ConfusionCounts, class_metrics,
                                  stratified_kfold)
from multisent.features import Variant
from multisent.lexicon import (PriorFormula, SenseScore, aggregate_prior,
                               f_avg, f_max, load_lexicon, prior_table)
from multisent.pipeline import build_dataset, prepare_corpus
from multisent.scoring import (Corpus, RuleConfig, SentenceFormula,
                               sentence_scores)
from multisent.util import make_rng

import oracles
from oracles import intensify, negate, s_max, sentence_score

acceptance = pytest.mark.acceptance

FIVE = [SenseScore(p, n) for p, n in oracles.FIVE_SENSES]


@acceptance
def test_criterion_01_formula_oracle_on_five_sense_entry():
    start = time.perf_counter()
    assert f_avg(FIVE).pos == pytest.approx(0.4, abs=1e-12)
    assert f_avg(FIVE).neg == pytest.approx(0.2, abs=1e-12)
    assert f_max(FIVE).pos == pytest.approx(0.75, abs=1e-12)
    assert f_max(FIVE).neg == pytest.approx(0.375, abs=1e-12)
    expected = {PriorFormula.AVG_MAX: 0.4, PriorFormula.MAX_MAX: 0.75,
                PriorFormula.AVG_SUB: 0.2, PriorFormula.MAX_SUB: 0.375,
                PriorFormula.AVG_AVG: 0.1}
    for formula, value in expected.items():
        got = aggregate_prior(FIVE, formula)
        assert got == pytest.approx(value, abs=1e-12)
        assert got == pytest.approx(
            oracles.prior(oracles.FIVE_SENSES, formula.value), abs=1e-12)
    assert time.perf_counter() - start < 1.0


@acceptance
def test_criterion_02_randomized_formula_equivalence():
    start = time.perf_counter()
    rng = random.Random(160306)
    for _ in range(1000):
        pairs = [(rng.random(), rng.random())
                 for _ in range(rng.randint(1, 10))]
        senses = [SenseScore(p, n) for p, n in pairs]
        for formula in PriorFormula:
            assert aggregate_prior(senses, formula) == pytest.approx(
                oracles.prior(pairs, formula.value), abs=1e-12)
        assert aggregate_prior(senses, PriorFormula.AVG_AVG) \
            == aggregate_prior(senses, PriorFormula.AVG_SUB) / 2.0
    assert time.perf_counter() - start < 5.0


@acceptance
def test_criterion_03_sentence_score_oracle():
    start = time.perf_counter()
    rng = random.Random(414243)
    for _ in range(1000):
        scores = [rng.uniform(-1, 1) if rng.random() < 0.8 else 0.0
                  for _ in range(rng.randint(0, 15))]
        pair = s_max(scores)
        want_pos, want_neg = oracles.sentence_pair(scores)
        assert pair.pos == want_pos and pair.neg == want_neg
        sub = sentence_score(pair, SentenceFormula.MAX_SUB)
        mx = sentence_score(pair, SentenceFormula.MAX_MAX)
        assert sub == oracles.sentence_value(want_pos, want_neg, "max_sub")
        assert mx == oracles.sentence_value(want_pos, want_neg, "max_max")
        assert (sub < 0) == (mx < 0)
        if sub > 0:
            assert mx > 0
        # the library's columnar sentence scores give the same bits
        values = np.array(scores)
        positions = np.flatnonzero(values)
        bounds = np.array([0, len(scores)])
        for formula, want in ((SentenceFormula.MAX_SUB, sub),
                              (SentenceFormula.MAX_MAX, mx)):
            got = sentence_scores(positions, values[positions], bounds,
                                  formula)
            assert got.tobytes() == np.array([want]).tobytes()
    assert time.perf_counter() - start < 5.0


@acceptance
def test_criterion_04_rule_properties():
    rng = random.Random(31337)
    for _ in range(500):
        s = rng.uniform(-1, 1)
        assert negate(negate(s)) == s
        if s != 0:
            boosted = intensify(s)
            assert abs(boosted) == 1.0
            assert (boosted > 0) == (s > 0)

    neg_word, int_word = "negtool0", "inttool0"
    cfg = RuleConfig(negation_words=frozenset({neg_word}),
                     intensifier_words=frozenset({int_word}), window=1)

    def adjusted(words, sentences, priors):
        doc = oracles.Doc(id="d", label=1, tokens=list(words),
                          sentences=sentences, lemmas=list(words))
        corpus = Corpus(**oracles.corpus_columns([doc]))
        return corpus.token_scores(
            corpus.word_scores(priors, cfg))[1].tolist()

    # zero priors are never modified
    out = adjusted([neg_word, "plain", int_word], [(0, 3)], {})
    assert out == [0.0, 0.0, 0.0]

    # rules do not reach across the sentence boundary in either direction
    out = adjusted([neg_word, "good", int_word], [(0, 1), (1, 2), (2, 3)],
                   {"good": 0.4})
    assert out[1] == 0.4
    out = adjusted([neg_word, "good", int_word], [(0, 3)], {"good": 0.4})
    assert out[1] == -1.0   # negated, then pushed to the extreme


@acceptance
def test_criterion_05_feature_consistency(full_synth):
    cfg, paths = full_synth
    docs = prepare_corpus(paths.corpus_dir, paths.lemma_dict)
    priors = prior_table(load_lexicon(paths.lexicon), PriorFormula.MAX_SUB)

    term8 = build_dataset(docs, priors, Variant.TERM8)
    term6 = build_dataset(docs, priors, Variant.TERM6)
    for row in term8.rows:
        cp, cn, sp, sn, ap, an = row[:6]
        assert ap * cp == pytest.approx(sp, abs=1e-9)
        assert an * cn == pytest.approx(sn, abs=1e-9)
    assert np.array_equal(term6.rows, term8.rows[:, :6])

    doc7 = build_dataset(docs, priors, Variant.DOC7,
                         sentence_formula=SentenceFormula.MAX_MAX)
    doc5 = build_dataset(docs, priors, Variant.DOC5,
                         sentence_formula=SentenceFormula.MAX_MAX)
    doc4 = build_dataset(docs, priors, Variant.DOC4,
                         sentence_formula=SentenceFormula.MAX_MAX)
    assert np.array_equal(doc5.rows, doc7.rows[:, [0, 1, 4, 5, 6]])
    assert np.array_equal(doc4.rows, doc7.rows[:, :4])

    assert f"{20.2 / 166:.2f}" == "0.12"


@acceptance
def test_criterion_06_cv_protocol(full_synth):
    cfg, paths = full_synth
    labels = np.array([label for _, label, _
                       in list_corpus(paths.corpus_dir)])
    assert labels.sum() == 250 and len(labels) == 500

    folds = stratified_kfold(labels, k=5, seed=2026)
    for f in range(5):
        test = folds == f
        assert test.sum() == 100
        assert labels[test].sum() == 50
        assert labels[~test].sum() == 200
        assert (~test).sum() == 400
    assert sorted(np.unique(folds)) == [0, 1, 2, 3, 4]
    assert folds.tobytes() == stratified_kfold(labels, k=5, seed=2026).tobytes()


@acceptance
def test_criterion_07_metric_oracle():
    m = class_metrics(ConfusionCounts(tp=45, fp=5, tn=0, fn=10))
    assert m["pos"]["p"] == pytest.approx(0.9, abs=1e-5)
    assert m["pos"]["r"] == pytest.approx(0.81818, abs=1e-5)
    assert m["pos"]["f"] == pytest.approx(0.85714, abs=1e-5)

    perfect = class_metrics(ConfusionCounts(tp=10, fp=0, tn=10, fn=0))
    assert (perfect["pos"]["p"], perfect["pos"]["r"], perfect["pos"]["f"],
            perfect["neg"]["p"], perfect["neg"]["r"], perfect["neg"]["f"]) \
        == (1.0,) * 6

    inverted = class_metrics(ConfusionCounts(tp=0, fp=10, tn=0, fn=10))
    assert (inverted["pos"]["p"], inverted["pos"]["r"], inverted["pos"]["f"],
            inverted["neg"]["p"], inverted["neg"]["r"], inverted["neg"]["f"]) \
        == (0.0,) * 6

    degenerate = class_metrics(ConfusionCounts(tp=0, fp=0, tn=4, fn=0))
    assert degenerate["pos"]["p"] == 0.0
    assert "precision_pos" in degenerate["flags"]


@acceptance
def test_criterion_08_numerical_checks():
    # backprop vs central finite differences on a 3-row dataset
    rng = make_rng(808)
    x = rng.normal(size=(3, 4))
    targets = np.array([1.0, -1.0, 1.0])
    w1 = rng.normal(size=(6, 4)) * 0.6
    b1 = rng.normal(size=6) * 0.2
    w2 = rng.normal(size=6) * 0.6
    b2 = -0.1
    _, grads = oracles.ann_loss_gradients(w1, b1, w2, b2, x, targets)
    h = 1e-6
    flat_params = [w1, b1, w2]
    for arr, grad in zip(flat_params, grads[:3]):
        for idx in np.ndindex(arr.shape):
            arr[idx] += h
            up = oracles.ann_mse_loss(w1, b1, w2, b2, x, targets)
            arr[idx] -= 2 * h
            down = oracles.ann_mse_loss(w1, b1, w2, b2, x, targets)
            arr[idx] += h
            numeric = (up - down) / (2 * h)
            analytic = grad[idx]
            rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic),
                                                1e-8)
            assert rel <= 1e-4
    up = oracles.ann_mse_loss(w1, b1, w2, b2 + h, x, targets)
    down = oracles.ann_mse_loss(w1, b1, w2, b2 - h, x, targets)
    numeric = (up - down) / (2 * h)
    assert abs(numeric - grads[3]) / max(abs(numeric), abs(grads[3]),
                                         1e-8) <= 1e-4

    # SVM dual constraints at convergence
    gen = make_rng(909)
    rows = np.vstack([gen.normal(size=(25, 3)) - 2,
                      gen.normal(size=(25, 3)) + 2])
    labels = np.array([0] * 25 + [1] * 25)
    svm_cfg = SvmConfig(c=1.0, seed=5)
    model = classifiers.train("svm", rows, labels, svm_cfg)
    assert np.all(model.alphas >= 0.0)
    assert np.all(model.alphas <= svm_cfg.c)
    assert abs(float(model.alphas @ model.train_labels_pm)) <= 1e-6

    # unpruned tree memorizes conflict-free data
    tree_rows = gen.normal(size=(50, 4))
    tree_labels = (gen.random(50) < 0.5).astype(int)
    tree_labels[:2] = [0, 1]
    tree = classifiers.train("dtree", tree_rows, tree_labels,
                             TreeConfig(min_leaf=1, prune=False))
    predictions = classifiers.predict_labels(tree, tree_rows)
    assert np.array_equal(predictions, tree_labels)


@acceptance
def test_criterion_09_end_to_end_separable_run(full_synth, tmp_path):
    cfg, paths = full_synth
    start = time.perf_counter()
    flags = ["--corpus", str(paths.corpus_dir),
             "--lexicon", str(paths.lexicon),
             "--lemma-dict", str(paths.lemma_dict),
             "--level", "term", "--variant", "8", "--formula", "max_sub",
             "--folds", "5", "--seed", "1160"]
    floors = {"ann": 0.95, "dtree": 0.95, "svm": 0.90}
    for kind, floor in floors.items():
        out = tmp_path / f"run_{kind}"
        assert main(["pipeline", *flags, "--classifier", kind,
                     "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text("utf-8"))
        avg = report["average"]["test"]
        mean_f = (avg["pos"]["f"] + avg["neg"]["f"]) / 2
        assert mean_f >= floor, (kind, mean_f)
    assert time.perf_counter() - start < 120.0


@acceptance
def test_criterion_10_corpus_quality():
    rng = random.Random(1011)
    for _ in range(1000):
        n = rng.randint(2, 10)
        p = [rng.uniform(0.01, 1) for _ in range(n)]
        q = [rng.uniform(0.01, 1) for _ in range(n)]
        p = [v / sum(p) for v in p]
        q = [v / sum(q) for v in q]
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)
        assert kl_divergence(p, q) >= 0.0
    assert kl_divergence((0.5, 0.5), (0.25, 0.75)) \
        == pytest.approx(0.14384, abs=1e-4)

    # a corpus whose counts are exactly 2520/rank for ranks 1..10
    words = [f"w{r:02d}" for r in range(1, 11)]
    word_ids = [r - 1 for r in range(1, 11) for _ in range(2520 // r)]
    table = rank_frequencies(words, word_ids)
    report = quality_report(table, a=1.0)
    assert report.kl_prob <= 1e-9

    ranks = [e[2] for e in table.entries]
    import math
    c = table.entries[0][1]
    for a in (1.0, 1.5):
        logs = [(math.log(r), math.log(c / r ** a)) for r in ranks]
        for (x1, y1), (x2, y2) in zip(logs, logs[1:]):
            assert (y2 - y1) / (x2 - x1) == pytest.approx(-a, abs=1e-12)


@acceptance
def test_criterion_11_pipeline_determinism(small_synth, tmp_path):
    cfg, paths = small_synth
    flags = ["--corpus", str(paths.corpus_dir),
             "--lexicon", str(paths.lexicon),
             "--lemma-dict", str(paths.lemma_dict),
             "--level", "term", "--variant", "8", "--formula", "max_sub",
             "--classifier", "ann", "--max-epochs", "60",
             "--folds", "3", "--seed", "77"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["pipeline", *flags, "--out", str(out_a)]) == 0
    assert main(["pipeline", *flags, "--out", str(out_b)]) == 0
    report_a = (out_a / "report.json").read_bytes()
    report_b = (out_b / "report.json").read_bytes()
    assert report_a == report_b
    assert (out_a / "features.csv").read_bytes() \
        == (out_b / "features.csv").read_bytes()
    for j in range(3):
        assert (out_a / f"model_fold{j}.json").read_bytes() \
            == (out_b / f"model_fold{j}.json").read_bytes()
