import random

import numpy as np
import pytest

from multisent import scoring
from multisent.corpus_io import load_lemma_dictionary
from multisent.features import Variant
from multisent.lexicon import (LexiconEntry, PriorFormula, SenseScore,
                               load_lexicon, prior_table)
from multisent.pipeline import build_dataset, prepare_corpus
from multisent.scoring import (Corpus, RuleConfig, SentenceFormula,
                               load_word_list)
from multisent.synth import SynthConfig, generate

import oracles
from conftest import traced_peak
from oracles import (PolarityPair, apply_rules, intensify, negate, s_max,
                     score_tokens, sentence_score, sentence_scores)

NEG = "لم"        # a negation particle
INT = "جدا"  # an intensifier

RULES = RuleConfig(negation_words=frozenset({NEG, "negword"}),
                   intensifier_words=frozenset({INT, "intword"}),
                   window=1)
RULE_WORDS = RULES.negation_words | RULES.intensifier_words


def doc_from_words(words, sentences=None, label=1):
    tokens = list(words)
    if sentences is None:
        sentences = [(0, len(words))] if words else []
    return oracles.Doc(id="t", label=label, tokens=tokens,
                       sentences=sentences, lemmas=list(words))


def corpus_of(docs):
    return Corpus(**oracles.corpus_columns(docs))


class TestScoreTokens:
    def test_known_lemma_gets_its_prior(self):
        doc = doc_from_words(["hot", "thing"])
        scored = score_tokens(doc, {"hot": 0.375})
        assert scored == [0.375, 0.0]

    def test_unknown_lemma_scores_zero(self):
        doc = doc_from_words(["mystery"])
        assert score_tokens(doc, {})[0] == 0.0

    def test_empty_document(self):
        assert score_tokens(doc_from_words([]), {"a": 1.0}) == []

    def test_rule_words_score_zero_even_if_in_lexicon(self):
        doc = doc_from_words([NEG, "good"])
        scored = score_tokens(doc, {NEG: 0.9, "good": 0.5},
                              rule_words=RULE_WORDS)
        assert scored == [0.0, 0.5]


class TestApplyRules:
    def test_negation_before_flips_sign(self):
        doc = doc_from_words([NEG, "good"])
        scored = score_tokens(doc, {"good": 0.4}, RULE_WORDS)
        out = apply_rules(scored, doc, RULES)
        assert out[1] == -0.4
        assert scored[1] == 0.4

    def test_intensifier_after_pushes_to_one(self):
        doc = doc_from_words(["good", INT])
        scored = score_tokens(doc, {"good": 0.4}, RULE_WORDS)
        assert apply_rules(scored, doc, RULES)[0] == 1.0

    def test_intensifier_before_negative_term(self):
        doc = doc_from_words([INT, "bad"])
        scored = score_tokens(doc, {"bad": -0.2}, RULE_WORDS)
        assert apply_rules(scored, doc, RULES)[1] == -1.0

    def test_negation_then_intensification_order(self):
        # negation first makes the term negative, then the intensifier
        # drives it to the negative extreme
        doc = doc_from_words([NEG, "good", INT])
        scored = score_tokens(doc, {"good": 0.4}, RULE_WORDS)
        assert apply_rules(scored, doc, RULES)[1] == -1.0

    def test_zero_priors_never_modified(self):
        doc = doc_from_words([NEG, "plain", INT])
        scored = score_tokens(doc, {}, RULE_WORDS)
        out = apply_rules(scored, doc, RULES)
        assert all(t == 0.0 for t in out)

    def test_rules_do_not_cross_sentence_boundary(self):
        # negation ends sentence 1; sentiment term opens sentence 2
        doc = doc_from_words([NEG, "good"], sentences=[(0, 1), (1, 2)])
        scored = score_tokens(doc, {"good": 0.4}, RULE_WORDS)
        assert apply_rules(scored, doc, RULES)[1] == 0.4

    def test_intensifier_across_boundary_ignored(self):
        doc = doc_from_words(["good", INT], sentences=[(0, 1), (1, 2)])
        scored = score_tokens(doc, {"good": 0.4}, RULE_WORDS)
        assert apply_rules(scored, doc, RULES)[0] == 0.4

    def test_window_two_reaches_farther(self):
        cfg = RuleConfig(negation_words=RULES.negation_words,
                         intensifier_words=RULES.intensifier_words, window=2)
        doc = doc_from_words([NEG, "filler", "good"])
        scored = score_tokens(doc, {"good": 0.4}, RULE_WORDS)
        assert apply_rules(scored, doc, cfg)[2] == -0.4
        # window 1 does not reach
        assert apply_rules(scored, doc, RULES)[2] == 0.4

    def test_double_negation_restores_exactly(self):
        rng = random.Random(5)
        for _ in range(200):
            s = rng.uniform(-1, 1)
            assert negate(negate(s)) == s

    def test_intensify_saturates_preserving_sign(self):
        assert intensify(0.3) == 1.0
        assert intensify(-0.3) == -1.0
        assert intensify(0.0) == 0.0

    def test_adjusted_magnitude_never_exceeds_one(self):
        rng = random.Random(11)
        words = ["w%d" % i for i in range(30)]
        for trial in range(50):
            priors = {w: rng.uniform(-1, 1) if rng.random() < 0.5 else 0.0
                      for w in words}
            seq = [rng.choice(words + [NEG, INT]) for _ in range(40)]
            doc = doc_from_words(seq, sentences=[(0, 20), (20, 40)])
            scored = score_tokens(doc, priors, RULE_WORDS)
            out = apply_rules(scored, doc, RULES)
            assert all(abs(t) <= 1.0 for t in out)
            for before, after in zip(scored, out):
                if before == 0.0:
                    assert after == 0.0

    def test_no_rules_is_pure_and_repeatable(self):
        doc = doc_from_words(["a", "b", "c"])
        priors = {"a": 0.3, "c": -0.2}
        first = score_tokens(doc, priors)
        second = score_tokens(doc, priors)
        assert first == second

    def test_rule_word_sets_must_be_disjoint(self):
        with pytest.raises(ValueError):
            RuleConfig(negation_words=frozenset({"x"}),
                       intensifier_words=frozenset({"x"}))


class TestSentenceScores:
    def test_mixed_sentence_pair(self):
        assert s_max([0.3, -0.5, 0.2]) == PolarityPair(0.3, 0.5)

    def test_empty_sentence(self):
        assert s_max([]) == PolarityPair(0.0, 0.0)

    def test_single_positive(self):
        assert s_max([0.7]) == PolarityPair(0.7, 0.0)

    def test_sub_formula(self):
        assert sentence_score(PolarityPair(0.3, 0.5),
                              SentenceFormula.MAX_SUB) == pytest.approx(-0.2)

    def test_max_formula_negative_side_wins(self):
        assert sentence_score(PolarityPair(0.3, 0.5),
                              SentenceFormula.MAX_MAX) == -0.5

    def test_neutral_sentence_scores_zero(self):
        for formula in SentenceFormula:
            assert sentence_score(PolarityPair(0.0, 0.0), formula) == 0.0

    def test_max_formula_tie_is_positive(self):
        assert sentence_score(PolarityPair(0.4, 0.4),
                              SentenceFormula.MAX_MAX) == 0.4

    def test_matches_enumeration_oracle_on_random_sentences(self):
        rng = random.Random(2024)
        for _ in range(1000):
            scores = [rng.uniform(-1, 1) if rng.random() < 0.7 else 0.0
                      for _ in range(rng.randint(0, 12))]
            pair = s_max(scores)
            want_pos, want_neg = oracles.sentence_pair(scores)
            assert pair.pos == want_pos
            assert pair.neg == want_neg
            sub = sentence_score(pair, SentenceFormula.MAX_SUB)
            mx = sentence_score(pair, SentenceFormula.MAX_MAX)
            assert sub == oracles.sentence_value(want_pos, want_neg, "max_sub")
            assert mx == oracles.sentence_value(want_pos, want_neg, "max_max")
            # sign agreement: strictly negative together, and a positive
            # subtraction implies a positive maximum
            assert (sub < 0) == (mx < 0)
            if sub > 0:
                assert mx > 0

    def test_single_sign_sentences_agree_in_magnitude(self):
        rng = random.Random(77)
        for _ in range(300):
            sign = rng.choice([1, -1])
            scores = [sign * rng.uniform(0.01, 1)
                      for _ in range(rng.randint(1, 8))]
            pair = s_max(scores)
            sub = sentence_score(pair, SentenceFormula.MAX_SUB)
            mx = sentence_score(pair, SentenceFormula.MAX_MAX)
            peak = max(abs(s) for s in scores)
            assert abs(sub) == pytest.approx(peak)
            assert abs(mx) == pytest.approx(peak)
            assert sub == pytest.approx(mx)

    def test_sentence_scores_per_document(self):
        doc = doc_from_words(["good", "bad", "meh", "good"],
                             sentences=[(0, 2), (2, 4)])
        scored = score_tokens(doc, {"good": 0.6, "bad": -0.9})
        out = sentence_scores(doc, scored, SentenceFormula.MAX_MAX)
        assert out == [-0.9, 0.6]


# The columnar scorer and feature rows against the scalar oracles: every
# row, token score and sentence score must carry the same bits.

GRID_NEG = frozenset({"لم", "negx"})
GRID_INT = frozenset({"جدا", "intx"})
# Rule words as they may appear in text: one carries a fatha (U+064E),
# and "negx" and "intx" are also lexicon lemmas.
GRID_RULE_SURFACES = ("لَم", "negx", "جدا", "intx")


def _grid_lexicon():
    rng = random.Random(606)
    lexicon = {}
    for name in [f"p{i}" for i in range(6)] + [f"n{i}" for i in range(6)] \
            + ["negx", "intx"]:
        senses = [(round(rng.random(), 3), round(rng.random(), 3))
                  for _ in range(rng.randint(1, 4))]
        lexicon[name] = LexiconEntry(
            name, tuple(SenseScore(p, n) for p, n in senses))
    # equal columns: the _sub formulas and avg_avg give +0.0
    lexicon["tie"] = LexiconEntry("tie", (SenseScore(0.5, 0.5),))
    return lexicon


def _grid_docs():
    """Hand-built documents over every case the vectorised path must
    match, plus random ones."""
    rng = random.Random(2718)
    vocab = [f"p{i}" for i in range(6)] + [f"n{i}" for i in range(6)] + [
        "tie", "mz", "pz", "z0", "z1", "z2", *GRID_RULE_SURFACES]

    def doc(words, sentences):
        return oracles.Doc(id=f"d{len(docs)}", label=len(docs) % 2,
                           tokens=list(words), sentences=sentences,
                           lemmas=list(words))

    docs = []
    docs.append(doc([], []))
    docs.append(doc(["p0"], [(0, 1)]))
    docs.append(doc(["negx", "p1", "intx", "z0", "intx"], [(0, 5)]))
    # rule words on both sides of every sentence boundary
    docs.append(doc(["p0", "negx", "p1", "intx", "لَم", "n2", "جدا"],
                    [(0, 2), (2, 4), (4, 5), (5, 7)]))
    # -0.0 and 0.0 priors next to rule words
    docs.append(doc(["negx", "mz", "intx", "pz", "negx", "tie"], [(0, 6)]))
    docs.append(doc([], []))
    # twelve equal positive scores and twelve negative ones: a pairwise
    # sum rounds differently from a left-to-right one
    docs.append(doc(["tenth"] * 12 + ["minus"] * 12, [(0, 12), (12, 24)]))
    for _ in range(40):
        words, sentences = [], []
        for _ in range(rng.randint(0, 6)):
            length = rng.choice([1, 1, 2, 3, 5, 8])
            sentences.append((len(words), len(words) + length))
            words += [rng.choice(vocab) for _ in range(length)]
        docs.append(doc(words, sentences))
    return docs


def _grid_priors(lexicon, formula):
    return {**prior_table(lexicon, formula),
            "mz": -0.0, "pz": 0.0, "tenth": 0.1, "minus": -0.3}


def _assert_bits(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float).reshape(got.shape)
    assert got.tobytes() == want.tobytes()


def _assert_columnar_matches_oracles(corpus, docs, priors, rule_cfg):
    word_scores = corpus.word_scores(priors, rule_cfg)
    token_priors, adjusted = corpus.token_scores(word_scores)
    want = [oracles.score_document(d, priors, rule_cfg) for d in docs]
    _assert_bits(token_priors, [s for p, _ in want for s in p])
    _assert_bits(adjusted, [s for _, a in want for s in a])
    _assert_bits(build_dataset(corpus, priors, Variant.TERM8, rule_cfg).rows,
                 oracles.feature_rows(docs, priors, "term", rule_cfg))
    for sf in SentenceFormula:
        _assert_bits(
            scoring.sentence_scores(*corpus.subjective(word_scores),
                                    corpus.sentence_tokens, sf),
            [v for d, (_, a) in zip(docs, want)
             for v in oracles.sentence_scores(d, a, sf)])
        _assert_bits(
            build_dataset(corpus, priors, Variant.DOC7, rule_cfg, sf).rows,
            oracles.feature_rows(docs, priors, "document", rule_cfg, sf))


GRID_RULES = [None] + [RuleConfig(negation_words=GRID_NEG,
                                  intensifier_words=GRID_INT, window=w)
                       for w in (1, 2, 3, 4)]


@pytest.mark.parametrize("formula", list(PriorFormula), ids=lambda f: f.value)
@pytest.mark.parametrize("rule_cfg", GRID_RULES,
                         ids=["norules", "w1", "w2", "w3", "w4"])
def test_columnar_scores_and_rows_match_scalar_oracles(formula, rule_cfg):
    docs = _grid_docs()
    _assert_columnar_matches_oracles(
        corpus_of(docs), docs, _grid_priors(_grid_lexicon(), formula),
        rule_cfg)


@pytest.mark.parametrize("arabic", [False, True], ids=["ascii", "arabic"])
def test_columnar_matches_oracles_on_a_prepared_corpus(tmp_path, arabic):
    paths = generate(SynthConfig(docs_per_class=15, purity=0.8,
                                 rule_fraction=0.4, arabic_tool_words=arabic,
                                 seed=41), tmp_path)
    lemma_dict = load_lemma_dictionary(paths.lemma_dict)
    docs = [oracles.prepare_document(raw, lemma_dict)
            for raw in oracles.read_corpus(paths.corpus_dir)]
    corpus = prepare_corpus(paths.corpus_dir, paths.lemma_dict)
    lexicon = load_lexicon(paths.lexicon)
    for formula in PriorFormula:
        for window in (1, 3):
            _assert_columnar_matches_oracles(
                corpus, docs, prior_table(lexicon, formula),
                RuleConfig(negation_words=load_word_list(paths.negations),
                           intensifier_words=load_word_list(
                               paths.intensifiers),
                           window=window))


def test_rule_windows_stop_at_the_longest_sentence():
    docs = _grid_docs()
    corpus = corpus_of(docs)
    longest = max(end - start for d in docs for start, end in d.sentences)
    assert corpus.longest_sentence == longest
    masks = {w: corpus.rule_masks(*corpus.word_scores(
                 {}, RuleConfig(GRID_NEG, GRID_INT, window=w))[1])
             for w in (longest - 1, longest, 10 ** 9)}
    for mask in masks.values():
        for got, want in zip(mask, masks[longest - 1]):
            assert np.array_equal(got, want)


# Rows built one block of documents at a time carry the bits of rows built
# over the whole corpus, for any block budget.

def _edge_docs():
    """Empty documents and one-token sentences at the block edges small
    budgets make, with rule words on both sides of document edges."""
    words_and_sentences = [
        ([], []), (["negx"], [(0, 1)]), (["p1"], [(0, 1)]), ([], []),
        (["p0", "intx"], [(0, 1), (1, 2)]), (["intx"], [(0, 1)]),
        (["n2", "negx", "p3"], [(0, 1), (1, 2), (2, 3)]), ([], []), ([], []),
        (["negx", "p1", "intx"], [(0, 3)]), (["n4"], [(0, 1)]), ([], [])]
    return [oracles.Doc(id=f"e{i}", label=i % 2, tokens=list(words),
                        sentences=sentences, lemmas=list(words))
            for i, (words, sentences) in enumerate(words_and_sentences)]


@pytest.mark.parametrize("budget", [1, 5, scoring.BLOCK_TOKENS],
                         ids=["1token", "5tokens", "constant"])
@pytest.mark.parametrize("make_docs", [_edge_docs, _grid_docs],
                         ids=["edges", "grid"])
@pytest.mark.parametrize("rule_cfg", GRID_RULES[:3],
                         ids=["norules", "w1", "w2"])
def test_rows_built_in_blocks_match_scalar_oracles(monkeypatch, budget,
                                                   make_docs, rule_cfg):
    monkeypatch.setattr(scoring, "BLOCK_TOKENS", budget)
    docs = make_docs()
    corpus = corpus_of(docs)
    blocks = list(corpus.blocks())
    assert [first for first, _ in blocks] == list(np.cumsum(
        [0] + [len(block.ids) for _, block in blocks[:-1]]))
    assert sum(len(block.ids) for _, block in blocks) == len(docs)
    for _, block in blocks:
        assert len(block.word_ids) <= budget or len(block.ids) == 1
    if budget == 1:
        assert len(blocks) > len(docs) // 2
    priors = _grid_priors(_grid_lexicon(), PriorFormula.MAX_SUB)
    _assert_bits(build_dataset(corpus, priors, Variant.TERM8, rule_cfg).rows,
                 oracles.feature_rows(docs, priors, "term", rule_cfg))
    for sf in SentenceFormula:
        _assert_bits(
            build_dataset(corpus, priors, Variant.DOC7, rule_cfg, sf).rows,
            oracles.feature_rows(docs, priors, "document", rule_cfg, sf))


@pytest.mark.parametrize("variant,sentence_formula",
                         [(Variant.TERM8, None),
                          (Variant.DOC7, SentenceFormula.MAX_SUB)],
                         ids=["term", "document"])
def test_a_build_holds_a_block_of_tokens_not_the_corpus(variant,
                                                        sentence_formula):
    # 1,000 documents of 640 tokens, 12 of the 17 words subjective, span
    # about ten blocks. Every token-level array of a build spans one
    # block, so its traced peak stays under 48 bytes per token of a block
    # plus 256 per document (about 31 and 0 here); built over the whole
    # corpus at once, the same rows peak at about 16 MB.
    docs, per_doc = 1000, 640
    rng = np.random.default_rng(5)
    vocab = [f"p{i}" for i in range(6)] + [f"n{i}" for i in range(6)] + [
        "negx", "intx", "z0", "z1", "z2"]
    corpus = Corpus(ids=[f"d{i}" for i in range(docs)],
                    labels=np.arange(docs) % 2,
                    words=[(w, w) for w in vocab],
                    word_ids=rng.integers(0, len(vocab), docs * per_doc),
                    doc_tokens=np.arange(docs + 1) * per_doc,
                    sentence_tokens=np.arange(0, docs * per_doc + 1, 10),
                    doc_sentences=np.arange(docs + 1) * (per_doc // 10))
    assert len(list(corpus.blocks())) >= 9
    priors = _grid_priors(_grid_lexicon(), PriorFormula.MAX_SUB)
    _, peak = traced_peak(lambda: build_dataset(
        corpus, priors, variant, GRID_RULES[3], sentence_formula))
    assert peak < 48 * scoring.BLOCK_TOKENS + 256 * docs
