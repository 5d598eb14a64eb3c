from pathlib import Path

import numpy as np
import pytest

from multisent.classifiers import SvmConfig, train_svm
from multisent.corpus_io import load_corpus, load_lemma_dictionary
from multisent.features import Variant
from multisent.lexicon import PriorFormula, load_lexicon, prior_table
from multisent.pipeline import build_dataset, prepare_corpus
from multisent.scoring import RuleConfig, load_word_list
from multisent.synth import SynthConfig, generate


def _tree_bytes(root):
    files = sorted(p for p in Path(root).rglob("*") if p.is_file())
    return [(str(p.relative_to(root)), p.read_bytes()) for p in files]


class TestGenerate:
    def test_outputs_parse_through_the_loaders(self, small_synth):
        cfg, paths = small_synth
        docs = load_corpus(paths.corpus_dir)
        assert len(docs) == cfg.docs_per_class * 2
        lexicon = load_lexicon(paths.lexicon)
        assert len(lexicon) == cfg.pos_lemmas + cfg.neg_lemmas
        lo, hi = cfg.senses_per_lemma
        assert all(lo <= len(e.senses) <= hi for e in lexicon.values())
        lemma_dict = load_lemma_dictionary(paths.lemma_dict)
        assert lemma_dict.lemma("pos000u") == "pos000"
        assert load_word_list(paths.negations)
        assert load_word_list(paths.intensifiers)

    def test_full_scale_document_counts(self, full_synth):
        cfg, paths = full_synth
        docs = load_corpus(paths.corpus_dir)
        assert len(docs) == 500
        assert sum(d.label for d in docs) == 250

    def test_same_seed_is_byte_identical(self, tmp_path):
        cfg = SynthConfig(docs_per_class=6, tokens_per_doc=(20, 40), seed=31)
        a = generate(cfg, tmp_path / "a")
        b = generate(cfg, tmp_path / "b")
        assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")

    def test_different_seed_differs(self, tmp_path):
        generate(SynthConfig(docs_per_class=4, seed=1), tmp_path / "a")
        generate(SynthConfig(docs_per_class=4, seed=2), tmp_path / "b")
        assert _tree_bytes(tmp_path / "a") != _tree_bytes(tmp_path / "b")

    def test_zero_density_gives_all_zero_feature_rows(self, tmp_path):
        cfg = SynthConfig(docs_per_class=4, tokens_per_doc=(20, 30),
                          sentiment_density=0.0, seed=5)
        paths = generate(cfg, tmp_path)
        docs = prepare_corpus(paths.corpus_dir, paths.lemma_dict)
        priors = prior_table(load_lexicon(paths.lexicon),
                             PriorFormula.MAX_SUB)
        ds = build_dataset(docs, priors, Variant.TERM8)
        assert np.all(ds.rows == 0.0)

    def test_high_density_disjoint_vocab_is_svm_separable(self, small_synth):
        cfg, paths = small_synth
        docs = prepare_corpus(paths.corpus_dir, paths.lemma_dict)
        priors = prior_table(load_lexicon(paths.lexicon),
                             PriorFormula.MAX_SUB)
        ds = build_dataset(docs, priors, Variant.TERM8)
        model = train_svm(ds.rows, ds.labels, SvmConfig(seed=0))
        from multisent.classifiers import predict_labels
        assert np.array_equal(predict_labels(model, ds.rows), ds.labels)

    def test_rule_fraction_emits_adjacent_tool_words(self, tmp_path):
        cfg = SynthConfig(docs_per_class=4, tokens_per_doc=(40, 60),
                          sentiment_density=0.5, rule_fraction=0.6, seed=12)
        paths = generate(cfg, tmp_path)
        docs = prepare_corpus(paths.corpus_dir, paths.lemma_dict)
        rule_cfg = RuleConfig(
            negation_words=load_word_list(paths.negations),
            intensifier_words=load_word_list(paths.intensifiers))
        surfaces = [surface for surface, _ in docs.words]
        assert any(s in rule_cfg.negation_words for s in surfaces)
        assert any(s in rule_cfg.intensifier_words for s in surfaces)
        priors = prior_table(load_lexicon(paths.lexicon),
                             PriorFormula.MAX_SUB)
        plain = build_dataset(docs, priors, Variant.TERM8)
        adjusted = build_dataset(docs, priors, Variant.TERM8,
                                 rule_cfg=rule_cfg)
        assert not np.array_equal(plain.rows, adjusted.rows)

    def test_arabic_tool_word_option(self, tmp_path):
        cfg = SynthConfig(docs_per_class=2, arabic_tool_words=True,
                          rule_fraction=0.5, seed=3)
        paths = generate(cfg, tmp_path)
        words = load_word_list(paths.negations)
        assert "لم" in words

    def test_purity_must_exceed_half(self):
        with pytest.raises(ValueError, match="purity"):
            SynthConfig(purity=0.5)

    def test_density_range_checked(self):
        with pytest.raises(ValueError):
            SynthConfig(sentiment_density=1.5)
