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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError, ParseError
from .util import read_text

# Sentence breaks: the ASCII terminators, the Arabic question mark and
# semicolon, and every line break ``str.splitlines`` knows. Each becomes
# the token ".", which cannot be a word: a "." in the text is a break too.
_BREAK_RE = re.compile("[.!?؟؛\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]")
_BREAK, _NOISE = -1, -2

# Arabic diacritics (tashkeel), Quranic annotation marks, dagger alif, and
# tatweel; stripped before any dictionary or rule-word lookup.
_DIACRITICS_RE = re.compile(r"[ؐ-ًؚ-ٰٟـ]")

# Affixes of the light-stemming fallback, longest first so the longest
# matching affix wins.
_PREFIXES = ("وال", "بال", "كال", "فال", "ال", "لل", "و", "ف")
_SUFFIXES = ("ها", "ان", "ات", "ون", "ين", "ه", "ة", "ي")


def remove_diacritics(text: str) -> str:
    return _DIACRITICS_RE.sub("", text)


@dataclass(frozen=True)
class RawDocument:
    """One labeled document as loaded from disk."""
    id: str
    label: int          # 1 = positive, 0 = negative
    text: str


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


def load_corpus(root_path) -> list[RawDocument]:
    """Load a pos/neg corpus directory into RawDocuments.

    Documents are ordered by their relative path so loading is
    deterministic: ``neg/`` before ``pos/``, each sorted by file name.
    Raises ConfigurationError for a missing pos/ or neg/ subdirectory and
    DataError for empty classes, or for ``*.txt`` entries that cannot be
    read, are empty or do not decode as UTF-8.
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
        for f in files:
            text = read_text(f, "document file")
            if not text:
                raise DataError(f"empty document file: {f}")
            docs.append(RawDocument(id=f"{sub}/{f.name}", label=label,
                                    text=text))
    return docs


class _Vocabulary(dict):
    """Surface -> code: a word id in order of first use for a surface with
    a letter, ``_NOISE`` for one without, ``_BREAK`` for "."."""

    def __init__(self):
        super().__init__({".": _BREAK})
        self.words = []

    def __missing__(self, surface):
        code = _NOISE
        if any(map(str.isalpha, surface)):
            code = len(self.words)
            self.words.append(surface)
        self[surface] = code
        return code


def encode_texts(texts):
    """Tokenize, segment and encode a corpus's texts in one pass.

    Every break closes the current sentence. Noise tokens are dropped,
    and so is a sentence left with no token, so a text with no kept token
    has no sentence. Returns ``(words, word_ids, doc_tokens,
    sentence_tokens, doc_sentences)``: the distinct kept surfaces in
    order of first use, then the columns ``scoring.Corpus`` holds.
    """
    vocabulary = _Vocabulary()
    codes, starts = [], []
    for text in texts:
        # Each document opens with a break, so no sentence spans two.
        starts.append(len(codes))
        codes.append(_BREAK)
        codes += map(vocabulary.__getitem__,
                     _BREAK_RE.sub(" . ", text).split())
    starts.append(len(codes))
    codes = np.array(codes, dtype=np.intp)
    kept = codes >= 0
    doc_tokens = np.searchsorted(np.flatnonzero(kept), starts)
    word_ids = codes[kept]
    # With noise left out, a kept token opens a sentence where a break
    # comes right before it.
    codes = codes[codes != _NOISE]
    opens = np.flatnonzero((codes[:-1] == _BREAK)[codes[1:] >= 0])
    return (vocabulary.words, word_ids, doc_tokens,
            np.append(opens, len(word_ids)),
            np.searchsorted(opens, doc_tokens))
