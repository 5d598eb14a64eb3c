import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import capped_address_space

from multisent import synth
from multisent.classifiers import SvmConfig, train
from multisent.corpus_io import (list_corpus, load_lemma_dictionary,
                                 read_document)
from multisent.errors import ConfigurationError
from multisent.features import Variant
from multisent.lexicon import PriorFormula, load_lexicon, prior_table
from multisent.pipeline import build_dataset, prepare_corpus
from multisent.scoring import RuleConfig, load_word_list
from multisent.synth import (ARABIC_INTENSIFIERS, ARABIC_NEGATIONS,
                             ASCII_INTENSIFIERS, ASCII_NEGATIONS,
                             PhiloxBatch, SynthConfig, _documents,
                             _lemma_names, _word_table, generate)


def _tree_bytes(root):
    files = sorted(p for p in Path(root).rglob("*") if p.is_file())
    return [(p.relative_to(root).as_posix(), p.read_bytes()) for p in files]


def _tree_digest(root):
    h = hashlib.sha256()
    for name, data in _tree_bytes(root):
        h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


class TestGenerate:
    def test_outputs_parse_through_the_loaders(self, small_synth):
        cfg, paths = small_synth
        docs = list_corpus(paths.corpus_dir)
        assert len(docs) == cfg.docs_per_class * 2
        assert all(read_document(path) for _, _, path in docs)
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
        labels = [label for _, label, _ in list_corpus(paths.corpus_dir)]
        assert len(labels) == 500
        assert sum(labels) == 250

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
        model = train("svm", ds.rows, ds.labels, SvmConfig(seed=0))
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
        with pytest.raises(ConfigurationError, match="purity"):
            SynthConfig(purity=0.5)

    def test_density_range_checked(self):
        with pytest.raises(ConfigurationError):
            SynthConfig(sentiment_density=1.5)


class TestConfigRanges:
    @pytest.mark.parametrize("field,value", [
        ("tokens_per_doc", (10, 9)),
        ("sentence_tokens", (6, 5)),
        ("senses_per_lemma", (3, 2)),
    ])
    def test_lower_bound_above_upper_is_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} lower bound"):
            SynthConfig(**{field: value})

    @pytest.mark.parametrize("value", [(0, 0), (0, 5), (-1, 3)])
    def test_sentence_tokens_below_one_is_rejected(self, value):
        # (0, 0) used to make every sentence empty, so documents never ended.
        with pytest.raises(ConfigurationError, match="sentence_tokens"):
            SynthConfig(sentence_tokens=value)

    @pytest.mark.parametrize("value", [(0, 0), (-2, 0)])
    def test_senses_upper_bound_below_one_is_rejected(self, value):
        # (0, 0) used to write a lexicon with no entries.
        with pytest.raises(ConfigurationError,
                           match="senses_per_lemma upper bound"):
            SynthConfig(senses_per_lemma=value)

    @pytest.mark.parametrize("field", ["pos_lemmas", "neg_lemmas",
                                       "neutral_lemmas"])
    def test_empty_vocabulary_is_rejected(self, field):
        with pytest.raises(ConfigurationError, match=field):
            SynthConfig(**{field: 0})

    @pytest.mark.parametrize("value", [-0.01, 1.01, float("nan")])
    def test_noise_probability_outside_unit_interval_is_rejected(self, value):
        with pytest.raises(ConfigurationError, match="noise_token_prob"):
            SynthConfig(noise_token_prob=value)

    def test_one_token_sentences_and_empty_documents_are_accepted(self):
        cfg = SynthConfig(docs_per_class=1, tokens_per_doc=(0, 0),
                          sentence_tokens=(1, 1), senses_per_lemma=(2, 2),
                          noise_token_prob=1.0)
        assert _documents(cfg, 1, range(2), _word_table(_vocab(cfg))) \
            == ["\n", "\n"]

    @pytest.mark.parametrize("lo,hi", [(0, 0), (5, 4), (0, 2 ** 32),
                                       (-1, 2 ** 32)])
    def test_stream_rejects_ranges_it_does_not_implement(self, lo, hi):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            PhiloxBatch([1, 2]).integers(np.arange(2), lo, hi)

    @pytest.mark.parametrize("lo,hi", [(0, 0), (5, 4), (0, 2 ** 32),
                                       (-1, 2 ** 32)])
    def test_stream_rejects_a_bad_range_on_one_row(self, lo, hi):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            PhiloxBatch([1, 2]).integers(np.arange(2), np.array([0, lo]),
                                         np.array([3, hi]))


# Ranges for the stream test: (0, 1) draws nothing; 3 * 2**30 rejects a
# quarter of its 32-bit draws and 2**31 + 1 almost half; 2**32 - 1 is the
# widest range the stream implements.
STREAM_RANGES = [(0, 1), (7, 8), (0, 2), (0, 3), (-5, 5), (0, 40), (0, 120),
                 (0, 10000), (3 * 2 ** 30 - 1, 6 * 2 ** 30),
                 (0, 3 * 2 ** 30), (0, 3 * 2 ** 30 + 1), (0, 2 ** 31 + 1),
                 (-2 ** 31, 2 ** 31 - 1), (0, 2 ** 32 - 1)]


def _vocab(cfg):
    tool = ((ARABIC_NEGATIONS, ARABIC_INTENSIFIERS) if cfg.arabic_tool_words
            else (ASCII_NEGATIONS, ASCII_INTENSIFIERS))
    return (_lemma_names("pos", cfg.pos_lemmas),
            _lemma_names("neg", cfg.neg_lemmas),
            _lemma_names("neu", cfg.neutral_lemmas)) + tool


class TestPhiloxStream:
    def test_matches_numpy_generator_call_for_call(self):
        # 200 streams, one per seed, each checked against its own
        # Generator. A call draws for a random subset of the rows, with one
        # range for all of them or one per row. Every stream makes 3,000
        # calls on about 2,250 raw outputs, so the 512-output block
        # doubles three times, at times under a row with a 32-bit half
        # pending.
        seeds = range(200)
        stream = PhiloxBatch(seeds)
        gens = [np.random.Generator(np.random.Philox(seed)) for seed in seeds]
        plan = np.random.default_rng(0)
        calls = np.zeros(len(seeds), int)
        pending_at_growth = 0
        while (calls < 3000).any():
            rows = np.flatnonzero((plan.random(len(seeds)) < 0.5)
                                  & (calls < 3000))
            calls[rows] += 1
            at_edge = stream._pos[rows] == stream._raw.shape[1]
            pending_at_growth += int(np.sum(at_edge & stream._pending[rows]))
            k = int(plan.integers(-len(STREAM_RANGES), len(STREAM_RANGES)))
            if k < 0:
                got = stream.random(rows)
                want = [gens[r].random() for r in rows]
            else:
                if plan.random() < 0.5:
                    lo, hi = STREAM_RANGES[k]
                    bounds = [(lo, hi)] * len(rows)
                else:
                    bounds = [STREAM_RANGES[j] for j in plan.integers(
                        0, len(STREAM_RANGES), len(rows))]
                    lo, hi = (np.array([b[end] for b in bounds], np.int64)
                              for end in (0, 1))
                got = stream.integers(rows, lo, hi)
                want = [gens[r].integers(*b) for r, b in zip(rows, bounds)]
            assert got.tolist() == want, (rows, k)
        assert pending_at_growth > 0
        rows = np.arange(len(seeds))
        assert stream.random(rows).tolist() == [g.random() for g in gens]


class TestDocumentsMatchGenerator:
    @pytest.mark.parametrize("arabic,purity,rule_fraction",
                             itertools.product((False, True), (1.0, 0.8),
                                               (0.0, 0.2, 1.0)))
    def test_every_document_equals_the_scalar_oracle(self, arabic, purity,
                                                     rule_fraction):
        shapes = [{"tokens_per_doc": (20, 60)},
                  {"tokens_per_doc": (0, 3), "sentence_tokens": (1, 1)},
                  {"tokens_per_doc": (7, 7), "sentence_tokens": (3, 3)}]
        grid = itertools.product((0.0, 0.02), (0.0, 0.3, 1.0), shapes)
        for seed, (noise, density, shape) in enumerate(grid, start=3):
            cfg = SynthConfig(docs_per_class=4, sentiment_density=density,
                              purity=purity, rule_fraction=rule_fraction,
                              noise_token_prob=noise, arabic_tool_words=arabic,
                              seed=seed * 101, **shape)
            _assert_documents_match(cfg, _vocab(cfg))

    @pytest.mark.parametrize("case", [
        # The two sides of a class differ in size, and so do the tool
        # lists, so one draw has a different span on different rows.
        {"pos_lemmas": 7, "neg_lemmas": 40, "neutral_lemmas": 3,
         "tool_words": 3},
        # Spans of 1 draw nothing: every neutral word, and the
        # one-lemma side.
        {"pos_lemmas": 1, "neg_lemmas": 2, "neutral_lemmas": 1},
        {"pos_lemmas": 1, "neg_lemmas": 1, "neutral_lemmas": 1},
        # Documents that use more raw outputs than the first block holds,
        # beside short ones that end long before them.
        {"tokens_per_doc": (0, 900), "sentiment_density": 0.9},
    ], ids=["unequal_spans", "one_lemma_side", "one_lemma_each",
            "block_growth"])
    def test_varied_spans_and_lengths_equal_the_scalar_oracle(self, case):
        case = dict(case)
        tool_words = case.pop("tool_words", None)
        for seed, arabic in ((5, False), (6, True)):
            cfg = SynthConfig(docs_per_class=12, purity=0.7,
                              rule_fraction=0.5, noise_token_prob=0.05,
                              arabic_tool_words=arabic, seed=seed, **case)
            vocab = _vocab(cfg)
            if tool_words:
                vocab = vocab[:3] + (vocab[3][:tool_words], vocab[4])
            _assert_documents_match(cfg, vocab)

    @pytest.mark.parametrize("batch", [1, 2])
    def test_tree_does_not_depend_on_the_batch_size(self, tmp_path,
                                                    monkeypatch, batch):
        # 5 documents per class: one batch by default, and batches of
        # 1, 2 and 2 when at most 2 documents make one.
        cfg = SynthConfig(docs_per_class=5, purity=0.8, rule_fraction=0.2,
                          seed=9)
        generate(cfg, tmp_path / "default")
        monkeypatch.setattr(synth, "_BATCH", batch)
        generate(cfg, tmp_path / "small")
        assert (_tree_bytes(tmp_path / "small")
                == _tree_bytes(tmp_path / "default"))


def _assert_documents_match(cfg, vocab):
    table = _word_table(vocab)
    indices = range(cfg.docs_per_class)
    for label in (0, 1):
        got = _documents(cfg, label, indices, table)
        for i in indices:
            assert got[i] == oracles.make_document(cfg, label, i, vocab), \
                (cfg, label, i)


class TestStaleFiles:
    @pytest.mark.parametrize("name,written", [
        ("doc_0000.txt", True), ("doc_0009.txt", True),
        ("doc_0010.txt", False), ("doc_00001.txt", False),
        ("doc_1.txt", False), ("doc_٠٠٠١.txt", False),
        ("doc_0001.txt.tmp", False), ("notes.txt", False)])
    def test_names_a_corpus_writes(self, name, written):
        assert synth._writes(name, 10) is written

    def test_huge_corpus_checks_names_without_listing_them(self, tmp_path):
        # A set of all 10**12 names per class used to run out of memory
        # first; with the address space capped, it fails fast.
        stale = tmp_path / "corpus" / "pos"
        stale.mkdir(parents=True)
        (stale / "doc_0003.txt").write_text("kept\n")
        (stale / "doc_1000000000000.txt").write_text("stale\n")
        cfg = SynthConfig(docs_per_class=10 ** 12)
        with capped_address_space(), pytest.raises(
                ConfigurationError, match="1 file.* doc_1000000000000.txt"):
            generate(cfg, tmp_path)
        assert not (tmp_path / "corpus" / "neg").exists()


class TestGoldenCorpus:
    # ``_tree_digest`` of two whole ``generate`` trees (20+20 documents and
    # the lexicon files), recorded when documents came from scalar
    # ``Generator`` calls. A numpy release that changed Philox or its
    # bounded integers would move the stream and the oracle together, so
    # only these pinned digests would catch it.
    @pytest.mark.parametrize("arabic,seed,digest", [
        (False, 7, "ce556857dde34e3e8e86841d5857b5d741fbc40234266c135b0328a377c71354"),
        (True, 12, "39e672e7f22bdae7e10547174935c7180b4547486c07e9a68b1d9e2f054f3c98"),
    ])
    def test_corpus_tree_digest_is_pinned(self, tmp_path, arabic, seed,
                                          digest):
        generate(SynthConfig(docs_per_class=20, purity=0.8, rule_fraction=0.2,
                             arabic_tool_words=arabic, seed=seed), tmp_path)
        assert _tree_digest(tmp_path) == digest
