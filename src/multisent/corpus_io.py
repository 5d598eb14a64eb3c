"""Corpus loading, tokenization, sentence segmentation, and lemmatization.

Corpus layout on disk: ``<root>/pos/*.txt`` and ``<root>/neg/*.txt``, one
UTF-8 document per file. Lemma dictionaries are UTF-8 TSV files with one
``surface<TAB>lemma`` pair per line; ``#``-prefixed lines are comments.

Tokens are maximal runs of characters that are neither whitespace nor
sentence boundary characters. Tokens with no letter (digits,
punctuation, symbols) are noise: they are dropped while the text is
split, and a sentence left with no token is dropped with them.

``prepare_document`` turns one raw document into a ``TokenizedDocument``;
``scoring.Corpus`` then packs a corpus of them into columns, and the
documents themselves are not kept.
"""

import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigurationError, DataError, ParseError

# Sentence boundary characters: ASCII terminators plus the Arabic question
# mark and semicolon. Line breaks always terminate a sentence.
_BOUNDARY_RE = re.compile(r"[.!?؟؛]")

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


@dataclass
class TokenizedDocument:
    """A document after tokenization and lemmatization.

    ``tokens`` holds the surface of each kept token. ``sentences`` holds
    half-open ``(start, end)`` ranges over indices of ``tokens``; the
    ranges are sorted, disjoint, non-empty, and cover every index.
    ``lemmas`` is parallel to ``tokens``.
    """
    id: str
    label: int
    tokens: list[str] = field(default_factory=list)
    sentences: list[tuple[int, int]] = field(default_factory=list)
    lemmas: list[str] = field(default_factory=list)


class LemmaDictionary:
    """Surface-to-lemma mapping with a light affix-stripping fallback.

    Lookup order: exact dictionary hit on the diacritic-free surface; on a
    miss, strip one longest matching prefix and then one longest matching
    suffix and retry; if the stripped form is not in the dictionary either,
    the stripped form itself is the lemma. Lookup never fails.

    Each distinct surface is looked up once and its lemma remembered, so
    a corpus prepared with one dictionary lemmatizes every surface once
    and all tokens of one surface share one lemma string.
    """

    def __init__(self, mapping=None):
        self.mapping = dict(mapping or {})
        self._lemmas = {}

    def lemma(self, surface: str) -> str:
        lemma = self._lemmas.get(surface)
        if lemma is None:
            lemma = self._lemmas[surface] = self._lookup(surface)
        return lemma

    def _lookup(self, surface: str) -> str:
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
    path = Path(path)
    mapping = {}
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        raise DataError(f"lemma dictionary not found: {path}")
    except UnicodeDecodeError:
        raise DataError(f"lemma dictionary is not valid UTF-8: {path}")
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
    deterministic. Raises ConfigurationError for a missing pos/ or neg/
    subdirectory and DataError for empty classes, empty files, or files
    that do not decode as UTF-8.
    """
    root = Path(root_path)
    docs = []
    for sub, label, kind in (("neg", 0, "negative"), ("pos", 1, "positive")):
        subdir = root / sub
        if not subdir.is_dir():
            raise ConfigurationError(
                f"corpus root {root} has no '{sub}/' subdirectory")
        files = sorted(subdir.glob("*.txt"))
        if not files:
            raise DataError(f"no {kind} documents under {subdir}")
        for f in files:
            try:
                text = f.read_text(encoding="utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"file is not valid UTF-8: {f} ({exc.reason})")
            if not text:
                raise DataError(f"empty document file: {f}")
            docs.append(RawDocument(id=f"{sub}/{f.name}", label=label,
                                    text=text))
    docs.sort(key=lambda d: d.id)
    return docs


def tokenize_and_segment(text: str):
    """Split text into token surfaces and sentence ranges, dropping noise.

    Every boundary character and every line break closes the current
    sentence. Words with no letter are dropped as they are split off, and
    a sentence with no kept word is dropped, so consecutive boundaries
    make no empty sentence. A text with no boundary marker is a single
    sentence.

    Returns ``(tokens, sentences)`` where sentences are half-open ranges
    over token indices.
    """
    tokens: list[str] = []
    sentences: list[tuple[int, int]] = []
    for line in text.splitlines():
        for segment in _BOUNDARY_RE.split(line):
            words = [w for w in segment.split()
                     if any(ch.isalpha() for ch in w)]
            if words:
                sentences.append((len(tokens), len(tokens) + len(words)))
                tokens += words
    return tokens, sentences


def prepare_document(raw: RawDocument,
                     lemma_dict: LemmaDictionary) -> TokenizedDocument:
    """Tokenize, segment, and lemmatize one raw document.

    A document whose tokens are all noise yields zero tokens and zero
    sentences.
    """
    tokens, sentences = tokenize_and_segment(raw.text)
    return TokenizedDocument(id=raw.id, label=raw.label, tokens=tokens,
                             sentences=sentences,
                             lemmas=[lemma_dict.lemma(t) for t in tokens])
