import random

import numpy as np
import pytest

from multisent import pipeline
from multisent.corpus_io import (LemmaDictionary, encode_texts, list_corpus,
                                 load_lemma_dictionary, read_document,
                                 remove_diacritics)
from multisent.errors import ConfigurationError, DataError, ParseError

import oracles
from conftest import traced_peak
from oracles import RawDocument


def tokenize_and_segment(text):
    """One text through ``encode_texts``: its kept surfaces and its
    sentences as half-open ranges over them."""
    words, word_ids, _, sentence_tokens, _ = encode_texts([text])
    bounds = sentence_tokens.tolist()
    return [words[i] for i in word_ids.tolist()], list(zip(bounds, bounds[1:]))


def write_inputs(root, raws, lemma_dict):
    """Write each raw, byte for byte, to ``root/corpus/<its id>`` and the
    dictionary to ``root/lemmas.tsv``; return the two paths."""
    for raw in raws:
        path = root / "corpus" / raw.id
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(raw.text.encode("utf-8"))
    lemmas = root / "lemmas.tsv"
    lemmas.write_text("".join(f"{surface}\t{lemma}\n" for surface, lemma
                              in lemma_dict.mapping.items()),
                      encoding="utf-8")
    return root / "corpus", lemmas


def prepare(root, raws, lemma_dict):
    """``pipeline.prepare_corpus`` over the raws written under ``root``.
    Their ids name their files, and they must come in the corpus's own
    order: ``neg/`` before ``pos/``, each by file name."""
    return pipeline.prepare_corpus(*write_inputs(root, raws, lemma_dict))


def assert_columns_equal(corpus, want):
    for name, value in want.items():
        got = getattr(corpus, name)
        if isinstance(value, np.ndarray):
            assert got.dtype == value.dtype, name
            assert np.array_equal(got, value), name
        else:
            assert got == value, name


def write_corpus(root, pos_texts, neg_texts):
    for sub, texts in (("pos", pos_texts), ("neg", neg_texts)):
        (root / sub).mkdir(parents=True, exist_ok=True)
        for i, text in enumerate(texts):
            (root / sub / f"d{i}.txt").write_text(text, encoding="utf-8")


def prepare_dir(root):
    """``pipeline.prepare_corpus`` of the corpus directory ``root``, with
    an empty lemma dictionary: the program's listing, then its reads."""
    lemmas = root / "lemmas.tsv"
    lemmas.write_text("", encoding="utf-8")
    return pipeline.prepare_corpus(root, lemmas)


class TestLoadCorpus:
    """Loading a corpus: ``list_corpus`` lists it and ``read_document``
    reads each file, as ``pipeline.prepare_corpus`` does."""

    def test_labels_follow_directory(self, tmp_path):
        write_corpus(tmp_path, ["good film"], ["bad film"])
        docs = list_corpus(tmp_path)
        assert len(docs) == 2
        by_id = {doc_id: label for doc_id, label, _ in docs}
        assert by_id["pos/d0.txt"] == 1
        assert by_id["neg/d0.txt"] == 0

    def test_empty_pos_directory_is_an_error(self, tmp_path):
        write_corpus(tmp_path, [], ["something"])
        with pytest.raises(DataError, match="no positive documents"):
            list_corpus(tmp_path)

    def test_missing_subdirectory_is_config_error(self, tmp_path):
        (tmp_path / "pos").mkdir()
        with pytest.raises(ConfigurationError, match="neg"):
            list_corpus(tmp_path)

    def test_large_corpus_counts(self, tmp_path):
        write_corpus(tmp_path, [f"text {i}" for i in range(250)],
                     [f"text {i}" for i in range(250)])
        labels = [label for _, label, _ in list_corpus(tmp_path)]
        assert len(labels) == 500
        assert sum(labels) == 250

    def test_non_utf8_file_names_the_file(self, tmp_path):
        bad = tmp_path / "zz.txt"
        bad.write_bytes(b"\xff\xfe\x00 garbage")
        with pytest.raises(DataError, match="zz.txt"):
            read_document(bad)

    def test_empty_file_is_an_error(self, tmp_path):
        write_corpus(tmp_path, ["fine", ""], ["fine"])
        with pytest.raises(DataError, match="empty document"):
            read_document(tmp_path / "pos" / "d1.txt")
        with pytest.raises(DataError, match="empty document"):
            prepare_dir(tmp_path)

    def test_ordering_is_deterministic(self, tmp_path):
        write_corpus(tmp_path, ["a", "b"], ["c"])
        ids = [doc_id for doc_id, _, _ in list_corpus(tmp_path)]
        assert ids == sorted(ids)

    def test_files_sort_by_name_bytes_not_creation(self, tmp_path):
        names = ["a.txt", "B.txt", "9.txt", "10.txt"]
        for sub in ("pos", "neg"):
            (tmp_path / sub).mkdir()
            for name in names:
                (tmp_path / sub / name).write_text(name, encoding="utf-8")
        ids, labels, paths = zip(*list_corpus(tmp_path))
        order = ["10.txt", "9.txt", "B.txt", "a.txt"]
        assert list(ids) == ([f"neg/{n}" for n in order]
                             + [f"pos/{n}" for n in order])
        assert [read_document(path) for path in paths] == order * 2
        assert list(labels) == [0] * 4 + [1] * 4

    def test_first_unreadable_file_by_name_is_reported(self, tmp_path):
        write_corpus(tmp_path, ["fine"], ["fine"])
        for name in ("b.txt", "a.txt"):
            (tmp_path / "neg" / name).mkdir()   # a directory cannot be read
        with pytest.raises(DataError, match=r"cannot read \S*/a\.txt:"):
            prepare_dir(tmp_path)

    def test_directory_faults_come_before_document_faults(self, tmp_path):
        # The corpus is listed before any document is read, so a missing or
        # empty pos/ is reported ahead of an unreadable document in neg/,
        # although neg/ is read first.
        (tmp_path / "neg").mkdir()
        (tmp_path / "neg" / "a.txt").mkdir()
        with pytest.raises(ConfigurationError, match="no 'pos/' subdir"):
            prepare_dir(tmp_path)
        (tmp_path / "pos").mkdir()
        with pytest.raises(DataError, match="no positive documents"):
            prepare_dir(tmp_path)
        (tmp_path / "pos" / "b.txt").write_text("fine", encoding="utf-8")
        assert list_corpus(tmp_path) == [
            ("neg/a.txt", 0, tmp_path / "neg" / "a.txt"),
            ("pos/b.txt", 1, tmp_path / "pos" / "b.txt")]
        with pytest.raises(DataError, match=r"cannot read \S*/a\.txt:"):
            prepare_dir(tmp_path)


class TestTokenizeAndSegment:
    def test_period_splits_sentences(self):
        tokens, sentences = tokenize_and_segment(
            "جيد. سيء")
        assert tokens == ["جيد",
                          "سيء"]
        assert sentences == [(0, 1), (1, 2)]

    def test_no_boundary_is_one_sentence(self):
        tokens, sentences = tokenize_and_segment(
            "فيلم رائع")
        assert len(tokens) == 2
        assert sentences == [(0, 2)]

    def test_multi_sentence_review_like_text(self):
        # Arabic-looking multi-sentence sample with three boundary marks;
        # the oracle is the count of boundary characters in the text.
        text = ("فيلم جميل "
                "وممتع. القصة "
                "مؤثرة؟ نعم "
                "بالتأكيد.")
        boundary_count = sum(text.count(ch) for ch in ".!?؟؛")
        assert boundary_count == 3
        _, sentences = tokenize_and_segment(text)
        assert len(sentences) == 3
        assert len(sentences) >= 2

    def test_newline_is_a_boundary(self):
        _, sentences = tokenize_and_segment("one line\nanother line")
        assert sentences == [(0, 2), (2, 4)]

    def test_consecutive_boundaries_make_no_empty_sentence(self):
        tokens, sentences = tokenize_and_segment("wow!!! then... done")
        assert tokens == ["wow", "then", "done"]
        assert sentences == [(0, 1), (1, 2), (2, 3)]

    def test_boundary_inside_chunk_splits_token(self):
        tokens, sentences = tokenize_and_segment("good.bad")
        assert tokens == ["good", "bad"]
        assert sentences == [(0, 1), (1, 2)]

    def test_empty_text(self):
        assert tokenize_and_segment("") == ([], [])

    def test_matches_character_loop_oracle(self, tmp_path):
        # Random corpora over letters, diacritics, tatweel, both boundary
        # sets, every line break (and "\r\n"), Unicode spaces ("\x1f"
        # splits words but breaks no line), digits and punctuation. The
        # one-pass columns must equal the per-text tokenizer's documents
        # packed one token at a time, and that tokenizer must agree with
        # a character loop that strips noise and then remaps sentences.
        # The corpora go through files: an empty file is a data error,
        # so an empty text is written as a blank one, which keeps no
        # token either.
        pool = [*"abXفيلمرائعجيد", *"\u064e\u0650\u0651\u0640",
                *".!?\u061f\u061b", *"\n\r\x0b\x0c\x1c\x1d\x1e\x85",
                "\u2028", "\u2029", "\r\n", "...", " . ",
                *"  \t\x1f\xa0\u3000", *"0123٣", *",:/%-_()\"'"]
        edge_texts = ["", "123 456. 789", ". ! ?\n\n", "a\x85b", "a\x1fb",
                      "a\r\nb", "x . y", "word"]
        lemma_dict = LemmaDictionary({"ab": "lemma_ab", "فيلم": "film"})
        rng = random.Random(2026)
        for corpus in range(20):
            texts = ["".join(rng.choice(pool)
                             for _ in range(rng.randint(0, 40)))
                     for _ in range(500)]
            texts[rng.randrange(500):0] = edge_texts
            for text in texts:
                assert oracles.tokenize_and_segment(text) \
                    == oracles.noise_free_tokens(text)
            raws = [RawDocument(f"{('neg', 'pos')[i % 2]}/d{i:04d}.txt",
                                i % 2, text or " ")
                    for i, text in enumerate(texts)]
            raws.sort(key=lambda raw: raw.id)
            docs = [oracles.prepare_document(raw, lemma_dict)
                    for raw in raws]
            assert_columns_equal(
                prepare(tmp_path / str(corpus), raws, lemma_dict),
                oracles.corpus_columns(docs))


class TestStripNoise:
    """Tokens with no letter are dropped while the text is split."""

    def test_digits_and_punct_removed(self):
        tokens, sentences = tokenize_and_segment("فيلم 123 !")
        assert tokens == ["فيلم"]
        assert sentences == [(0, 1)]

    def test_empty_list(self):
        assert tokenize_and_segment(" \t\n ") == ([], [])

    def test_mixed_ratio_token_removed_letter_token_kept(self):
        # classified with the independent character-class oracle
        for surface in ("رائع", "10/1"):
            assert oracles.is_noise_token(surface) == (surface == "10/1")
        tokens, _ = tokenize_and_segment("رائع 10/1")
        assert tokens == ["رائع"]

    def test_positions_preserved(self):
        # Kept tokens keep their order, and sentence ranges index the
        # kept tokens only.
        assert tokenize_and_segment("x1 99 y") == (["x1", "y"], [(0, 2)])
        assert tokenize_and_segment("x1 99. y") == (["x1", "y"],
                                                    [(0, 1), (1, 2)])

    def test_idempotent_on_random_token_lists(self):
        rng = random.Random(3)
        alphabet = "abفي19.,!/ "
        for _ in range(300):
            words = ["".join(rng.choice(alphabet.strip())
                             for _ in range(rng.randint(1, 6)))
                     for _ in range(rng.randint(0, 10))]
            once, _ = tokenize_and_segment(" ".join(words))
            assert tokenize_and_segment(" ".join(once))[0] == once
            for t in once:
                assert not oracles.is_noise_token(t)

    def test_agrees_with_character_class_oracle(self):
        rng = random.Random(8)
        pool = "xyسمة12 .!-_%"
        for _ in range(500):
            surface = "".join(rng.choice(pool.replace(" ", ""))
                              for _ in range(rng.randint(1, 5)))
            kept, _ = tokenize_and_segment(surface)
            assert bool(kept) == (not oracles.is_noise_token(surface))


class TestLemmatize:
    def test_dictionary_hit(self):
        d = LemmaDictionary({"ساخن": "saxin"})
        assert d.lemma("ساخن") == "saxin"

    def test_miss_with_no_affixes_returns_identity(self):
        d = LemmaDictionary({})
        assert d.lemma("qqq") == "qqq"

    def test_longest_prefix_stripped(self):
        # "wa+al+film" loses its longest matching prefix, not just "wa"
        d = LemmaDictionary({})
        assert d.lemma("والفيلم") == "فيلم"

    def test_prefix_then_suffix(self):
        d = LemmaDictionary({})
        assert d.lemma("الفنانة") == "فنان"

    def test_stripping_rechecks_dictionary(self):
        d = LemmaDictionary({"فيلم": "film_lemma"})
        assert d.lemma("والفيلم") == "film_lemma"

    def test_never_strips_to_below_two_chars(self):
        d = LemmaDictionary({})
        assert d.lemma("وه") == "وه"

    def test_diacritics_removed_before_lookup(self):
        d = LemmaDictionary({"ساخن": "saxin"})
        marked = "سَاخِن"
        assert remove_diacritics(marked) == "ساخن"
        assert d.lemma(marked) == "saxin"

    def test_deterministic_and_total(self):
        d = LemmaDictionary({"aa": "bb"})
        rng = random.Random(4)
        pool = "abوالةxyz"
        for _ in range(300):
            surface = "".join(rng.choice(pool)
                              for _ in range(rng.randint(1, 8)))
            assert d.lemma(surface) == d.lemma(surface)
            assert isinstance(d.lemma(surface), str)

    def test_load_lemma_dictionary(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text("# comment\nsurface\tlemma\n\n", encoding="utf-8")
        d = load_lemma_dictionary(path)
        assert d.lemma("surface") == "lemma"

    def test_load_lemma_dictionary_malformed(self, tmp_path):
        path = tmp_path / "dict.tsv"
        path.write_text("justone\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":1"):
            load_lemma_dictionary(path)


class TestPrepareDocument:
    def test_sentences_partition_token_indices(self):
        tokens, sentences = tokenize_and_segment(
            "good 123 . !! bad stuff\nmore")
        assert tokens == ["good", "bad", "stuff", "more"]
        assert sentences == [(0, 1), (1, 3), (3, 4)]
        covered = [i for s, e in sentences for i in range(s, e)]
        assert covered == list(range(len(tokens)))

    def test_all_noise_document_keeps_zero_tokens(self, tmp_path):
        # "\n" is a document file with no token: an empty one is an error.
        raws = [RawDocument(f"{('neg', 'pos')[i > 1]}/{i}.txt", int(i > 1),
                            text) for i, text in
                enumerate(["123 456. 789", "good. bad", "\n", "!! 7", "x"])]
        corpus = prepare(tmp_path, raws, LemmaDictionary({}))
        assert corpus.words == [("good", "good"), ("bad", "bad"), ("x", "x")]
        assert corpus.word_ids.tolist() == [0, 1, 2]
        assert corpus.doc_tokens.tolist() == [0, 0, 2, 2, 2, 3]
        assert corpus.sentence_tokens.tolist() == [0, 1, 2, 3]
        assert corpus.doc_sentences.tolist() == [0, 0, 2, 2, 2, 3]

    def test_peak_is_bounded_per_token_not_by_text_length(self, tmp_path):
        # Documents are read one at a time and the columns take 8 bytes
        # per token and per sentence, so the traced peak of a prepare stays
        # under 24 bytes per kept token (about 15 here). Padding each of
        # 200 documents with 16,000 blanks (6.4 MB of text in all, as
        # Python holds it) moves the peak by less than 256 KB: a few
        # copies of one padded text, not the corpus's text.
        rng = random.Random(5)
        words = ["جيد", "سيء", "فيلم", "رائع", "qq", "ab", "12", "!"]
        texts = [" ".join(rng.choice(words) + rng.choice(["", "", ".", "\n"])
                          for _ in range(500)) for _ in range(200)]
        peaks = []
        for pad in ("", " \t" * 4000):
            raws = sorted((RawDocument(f"{('neg', 'pos')[i % 2]}/{i:03d}.txt",
                                       i % 2, pad + text + pad)
                           for i, text in enumerate(texts)),
                          key=lambda raw: raw.id)
            paths = write_inputs(tmp_path / str(len(pad)), raws,
                                 LemmaDictionary({}))
            corpus, peak = traced_peak(
                lambda: pipeline.prepare_corpus(*paths))
            assert peak < 24 * len(corpus.word_ids) > 0
            peaks.append(peak)
        assert abs(peaks[1] - peaks[0]) < 256 * 1024

    def test_partition_property_random_texts(self):
        rng = random.Random(12)
        words = ["ok", "fine", "99", "!!", "جيد"]
        for _ in range(200):
            text = " ".join(
                rng.choice(words) + (rng.choice([".", "", "", "?"]))
                for _ in range(rng.randint(0, 25))) or "x"
            tokens, sentences = tokenize_and_segment(text)
            covered = [i for s, e in sentences for i in range(s, e)]
            assert covered == list(range(len(tokens)))
            for (s1, e1), (s2, e2) in zip(sentences, sentences[1:]):
                assert e1 == s2 and s1 < e1
