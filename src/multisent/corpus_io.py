"""Corpus loading, tokenization, sentence segmentation, and lemmatization.

Corpus layout on disk: ``<root>/pos/*.txt`` and ``<root>/neg/*.txt``, one
UTF-8 document per file. Lemma dictionaries are UTF-8 TSV files with one
``surface<TAB>lemma`` pair per line; ``#``-prefixed lines are comments.

Tokens are maximal runs of characters that are neither whitespace nor
sentence boundary characters. Tokens with no letter (digits,
punctuation, symbols) are noise: they are dropped, and a sentence left
with no token is dropped with them.

``encode_texts`` turns a corpus's raw texts into word ids and document
and sentence offsets in one pass, one document at a time; the
per-document scalar tokenizer it reproduces lives in ``tests/oracles.py``.
"""

import re
from array import array
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError, ParseError
from .util import read_text

# Sentence breaks: the ASCII terminators, the Arabic question mark and
# semicolon, and every line break ``str.splitlines`` knows.
_BREAK_RE = re.compile("[.!?؟؛\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")

# Arabic diacritics (tashkeel), Quranic annotation marks, dagger alif, and
# tatweel; stripped before any dictionary or rule-word lookup.
_DIACRITICS_RE = re.compile(r"[ؐ-ًؚ-ٰٟـ]")

# Affixes of the light-stemming fallback, longest first so the longest
# matching affix wins.
_PREFIXES = ("وال", "بال", "كال", "فال", "ال", "لل", "و", "ف")
_SUFFIXES = ("ها", "ان", "ات", "ون", "ين", "ه", "ة", "ي")


def remove_diacritics(text: str) -> str:
    return _DIACRITICS_RE.sub("", text)


class LemmaDictionary:
    """Surface-to-lemma mapping with a light affix-stripping fallback.

    Lookup order: exact dictionary hit on the diacritic-free surface; on a
    miss, strip one longest matching prefix and then one longest matching
    suffix and retry; if the stripped form is not in the dictionary either,
    the stripped form itself is the lemma. Lookup never fails.
    """

    def __init__(self, mapping=None):
        self.mapping = dict(mapping or {})

    def lemma(self, surface: str) -> str:
        form = remove_diacritics(surface)
        hit = self.mapping.get(form)
        if hit is not None:
            return hit
        stripped = self._strip_affixes(form)
        return self.mapping.get(stripped, stripped)

    def _strip_affixes(self, form: str) -> str:
        # A strip must leave at least two characters behind.
        for pre in _PREFIXES:
            if form.startswith(pre) and len(form) - len(pre) >= 2:
                form = form[len(pre):]
                break
        for suf in _SUFFIXES:
            if form.endswith(suf) and len(form) - len(suf) >= 2:
                form = form[:-len(suf)]
                break
        return form


def load_lemma_dictionary(path) -> LemmaDictionary:
    """Read a surface<TAB>lemma TSV into a LemmaDictionary."""
    mapping = {}
    lines = read_text(path, "lemma dictionary").splitlines()
    for n, line in enumerate(lines, start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ParseError(f"{path}:{n}: expected 'surface<TAB>lemma'")
        mapping[remove_diacritics(parts[0])] = parts[1]
    return LemmaDictionary(mapping)


def list_corpus(root_path) -> list[tuple[str, int, Path]]:
    """``(id, label, path)`` of each document of a pos/neg corpus directory.

    Documents are ordered by their relative path so loading is
    deterministic: ``neg/`` before ``pos/``, each sorted by file name.
    Raises ConfigurationError for a missing pos/ or neg/ subdirectory and
    DataError for a class with no ``*.txt`` entry. Nothing is read, so
    these directory faults come before any fault of a document.
    """
    root = Path(root_path)
    docs = []
    for sub, label, kind in (("neg", 0, "negative"), ("pos", 1, "positive")):
        subdir = root / sub
        if not subdir.is_dir():
            raise ConfigurationError(
                f"corpus root {root} has no '{sub}/' subdirectory")
        files = sorted(subdir.glob("*.txt"), key=lambda f: f.name)
        if not files:
            raise DataError(f"no {kind} documents under {subdir}")
        docs += ((f"{sub}/{f.name}", label, f) for f in files)
    return docs


def read_document(path) -> str:
    """The text of one document file. Raises DataError for a file that
    cannot be read, is empty or does not decode as UTF-8."""
    text = read_text(path, "document file")
    if not text:
        raise DataError(f"empty document file: {path}")
    return text


def load_corpus(root_path) -> tuple:
    """``(ids, labels, *encode_texts(texts))`` of a corpus directory in
    ``list_corpus`` order, each text read (``read_document``) and encoded
    as it is reached."""
    ids, labels, paths = zip(*list_corpus(root_path))
    return (list(ids), np.array(labels),
            *encode_texts(map(read_document, paths)))


class _Vocabulary(dict):
    """Surface -> code: for a surface with a letter, one more than its word
    id, given in order of first use; 0 for one without, so that
    ``filter(None, ...)`` drops the noise."""

    def __init__(self):
        super().__init__()
        self.words = []

    def __missing__(self, surface):
        code = 0
        if any(map(str.isalpha, surface)):
            self.words.append(surface)
            code = len(self.words)
        self[surface] = code
        return code


def encode_texts(texts):
    """Tokenize, segment and encode a corpus's texts in one pass.

    Every break closes the current sentence. Noise tokens are dropped,
    and so is a sentence left with no token, so a text with no kept token
    has no sentence. Each text is encoded as it arrives and then let go,
    so ``texts`` may be a generator that reads one document at a time.
    Returns ``(words, word_ids, doc_tokens, sentence_tokens,
    doc_sentences)``: the distinct kept surfaces in order of first use,
    then the columns ``scoring.Corpus`` holds.
    """
    vocabulary = _Vocabulary()
    code = vocabulary.__getitem__
    # Each column grows in a typed buffer that numpy then reads in place.
    word_ids, sentence_tokens = array("q"), array("q")
    doc_tokens, doc_sentences = array("q", [0]), array("q", [0])
    for text in texts:
        for sentence in _BREAK_RE.split(text):
            codes = [*filter(None, map(code, sentence.split()))]
            if codes:
                sentence_tokens.append(len(word_ids))
                word_ids.fromlist(codes)
        doc_tokens.append(len(word_ids))
        doc_sentences.append(len(sentence_tokens))
    sentence_tokens.append(len(word_ids))
    word_ids, *offsets = (np.frombuffer(column, dtype=np.int64) for column
                          in (word_ids, doc_tokens, sentence_tokens,
                              doc_sentences))
    word_ids -= 1   # from codes to word ids, in place
    return vocabulary.words, word_ids, *offsets
