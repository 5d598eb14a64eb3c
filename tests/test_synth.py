import hashlib
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import capped_address_space, traced_peak

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
        assert all(lo <= len(senses) <= hi for senses in lexicon.values())
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

    def test_the_lexicon_is_written_as_it_is_drawn(self, tmp_path):
        # 19,000 more senses are 0.7 MB of lines; streamed, the memory
        # generate holds does not grow with them.
        def peak(k):
            cfg = SynthConfig(docs_per_class=1, pos_lemmas=1, neg_lemmas=1,
                              senses_per_lemma=(k, k))
            paths, held = traced_peak(lambda: generate(cfg, tmp_path / str(k)))
            assert len(load_lexicon(paths.lexicon)["pos000"]) == k
            return held

        assert peak(20_000) - peak(1_000) < 0.5 * 2 ** 20

    @pytest.mark.parametrize("seed", [4, 10])
    def test_a_lexicon_of_no_sense_is_one_newline(self, tmp_path, seed):
        paths = generate(SynthConfig(docs_per_class=1, pos_lemmas=1,
                                     neg_lemmas=1, senses_per_lemma=(0, 1),
                                     seed=seed), tmp_path)
        assert paths.lexicon.read_bytes() == b"\n"

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
    ], ids=["tokens_per_doc", "sentence_tokens", "senses_per_lemma"])
    def test_lower_bound_above_upper_is_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} lower bound"):
            SynthConfig(**{field: value})

    @pytest.mark.parametrize("value", [(0, 0), (0, 5), (-1, 3)],
                             ids=["0-0", "0-5", "-1-3"])
    def test_sentence_tokens_below_one_is_rejected(self, value):
        # (0, 0) used to make every sentence empty, so documents never ended.
        with pytest.raises(ConfigurationError) as caught:
            SynthConfig(sentence_tokens=value)
        assert str(caught.value) == \
            f"sentence_tokens must be in [1, 4294967294], got {value}"

    @pytest.mark.parametrize("value,message", [
        ((0, 0), "senses_per_lemma upper bound must be >= 1, got 0"),
        ((-2, 0), "senses_per_lemma must be in [0, 9223372036854775806], "
                  "got (-2, 0)"),
    ], ids=["0-0", "-2-0"])
    def test_senses_upper_bound_below_one_is_rejected(self, value, message):
        # (0, 0) used to write a lexicon with no entries.
        with pytest.raises(ConfigurationError) as caught:
            SynthConfig(senses_per_lemma=value)
        assert str(caught.value) == message

    @pytest.mark.parametrize("field", ["pos_lemmas", "neg_lemmas",
                                       "neutral_lemmas"])
    def test_empty_vocabulary_is_rejected(self, field):
        with pytest.raises(ConfigurationError) as caught:
            SynthConfig(**{field: 0})
        assert str(caught.value) == f"{field} must be >= 1, got 0"

    @pytest.mark.parametrize("value", [-0.01, 1.01, float("nan")])
    def test_noise_probability_outside_unit_interval_is_rejected(self, value):
        with pytest.raises(ConfigurationError, match="noise_token_prob"):
            SynthConfig(noise_token_prob=value)

    @pytest.mark.parametrize("field,value", [
        ("tokens_per_doc", (-3, -1)), ("tokens_per_doc", (-1, 4)),
        ("senses_per_lemma", (-1, 2)),
    ], ids=["tokens-negative", "tokens-from-negative", "senses"])
    def test_negative_lower_bounds_are_rejected(self, field, value):
        # (-3, -1) used to write documents that held only a newline.
        with pytest.raises(ConfigurationError) as caught:
            SynthConfig(**{field: value})
        high = {"tokens_per_doc": 4294967294,
                "senses_per_lemma": 9223372036854775806}[field]
        assert str(caught.value) == \
            f"{field} must be in [0, {high}], got {value}"

    @pytest.mark.parametrize("field,value,message", [
        ("tokens_per_doc", (0, 2 ** 33),
         "must be in [0, 4294967294], got (0, 8589934592)"),
        ("sentence_tokens", (1, 2 ** 33),
         "must be in [1, 4294967294], got (1, 8589934592)"),
        ("tokens_per_doc", (0, 10 ** 30),
         f"must be in [0, 4294967294], got (0, {10 ** 30})"),
        ("senses_per_lemma", (1, 10 ** 30),
         f"must be in [0, 9223372036854775806], got (1, {10 ** 30})"),
    ], ids=["tokens-2**33", "sentence-2**33", "tokens-10**30",
            "senses-10**30"])
    def test_pairs_past_what_generate_draws_are_rejected(self, field, value,
                                                         message):
        # Each used to reach generate and end in a bare numpy error.
        with pytest.raises(ConfigurationError) as caught:
            SynthConfig(docs_per_class=1, seed=1, **{field: value})
        assert str(caught.value) == f"{field} {message}"

    def test_a_batch_beyond_memory_is_a_configuration_error(
            self, monkeypatch, on_cpus, tmp_path):
        # (5, 2**31) at seed 1 used to end in numpy's MemoryError for 9.27
        # GiB. Where that allocation succeeds the walk runs for hours, so
        # here every allocation over 1 GiB fails.
        empty = np.empty

        def refuse(shape, *args, **kwargs):
            if np.prod(shape, dtype=float) * 8 > 2 ** 30:
                raise MemoryError
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", refuse)
        cfg = SynthConfig(docs_per_class=1, tokens_per_doc=(5, 2 ** 31),
                          seed=1)
        for cpus in (1, 2):
            with pytest.raises(ConfigurationError) as caught, on_cpus(cpus):
                generate(cfg, tmp_path / str(cpus))
            tokens, size = re.fullmatch(
                r"a batch of 1 document\(s\) of up to ([\d,]+) tokens needs "
                r"([\d,]+) bytes, which do not fit in memory",
                str(caught.value)).groups()
            tokens, size = (int(v.replace(",", "")) for v in (tokens, size))
            assert 5 <= tokens <= 2 ** 31 and size == 16 * tokens > 2 ** 30

    @pytest.mark.parametrize("field,value,kind", [
        ("docs_per_class", 2.5, "an integer"), ("seed", True, "an integer"),
        ("arabic_tool_words", 1, "a bool"),
        ("purity", 10 ** 400, "a finite real number"),
        ("rule_fraction", "0.2", "a finite real number"),
    ], ids=["docs_per_class", "seed", "arabic_tool_words", "purity",
            "rule_fraction"])
    def test_values_of_other_types_are_rejected(self, field, value, kind):
        with pytest.raises(ConfigurationError) as caught:
            SynthConfig(**{field: value})
        assert str(caught.value) == f"{field} must be {kind}, got {value!r}"

    @pytest.mark.parametrize("field", ["tokens_per_doc", "sentence_tokens",
                                       "senses_per_lemma"])
    @pytest.mark.parametrize("value", [
        (2.5, 3), (3, "9"), (3,), (3, 9, 12), [3, 9], (3, True), None, 3,
    ], ids=["fraction", "str", "one", "three", "list", "bool", "none",
            "int"])
    def test_pairs_of_other_types_are_rejected(self, field, value):
        # (2.5, 3) used to reach generate and end in a numpy traceback.
        with pytest.raises(ConfigurationError) as caught:
            SynthConfig(**{field: value})
        assert str(caught.value) == \
            f"{field} must be a pair of integers, got {value!r}"

    def test_a_pair_holding_an_int_too_long_to_print_is_rejected(self):
        with pytest.raises(ConfigurationError) as caught:
            SynthConfig(tokens_per_doc=(3, 10 ** 5000))
        assert str(caught.value) == ("tokens_per_doc must be a pair of "
                                     "integers, got a tuple holding an int "
                                     "too long to print")

    def test_pairs_of_numpy_integers_are_stored_as_python_ints(self):
        cfg = SynthConfig(tokens_per_doc=(np.int64(3), np.uint8(9)),
                          sentence_tokens=(np.int32(2), 4))
        assert cfg.tokens_per_doc == (3, 9) and cfg.sentence_tokens == (2, 4)
        assert {type(v) for v in cfg.tokens_per_doc + cfg.sentence_tokens} \
            == {int}

    def test_one_token_sentences_and_empty_documents_are_accepted(self):
        # sentence_tokens and senses_per_lemma at the lowest bounds
        # they accept.
        cfg = SynthConfig(docs_per_class=1, tokens_per_doc=(0, 0),
                          sentence_tokens=(1, 1), senses_per_lemma=(1, 1),
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
