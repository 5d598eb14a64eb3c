"""Corpus loading, tokenization, sentence segmentation, and lemmatization.

Corpus layout on disk: ``<root>/pos/*.txt`` and ``<root>/neg/*.txt``, one
UTF-8 document per file. Lemma dictionaries are UTF-8 TSV files with one
``surface<TAB>lemma`` pair per line; ``#``-prefixed lines are comments.

Tokens are maximal non-whitespace runs. Sentence boundary characters
terminate the current token and are not kept as part of any token.
"""

import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .errors import ConfigurationError, DataError, ParseError

# Sentence boundary characters: ASCII terminators plus the Arabic question
# mark and semicolon. Newlines always terminate a sentence.
DEFAULT_BOUNDARY_CHARS = frozenset(".!?؟؛")

# Arabic diacritics (tashkeel), Quranic annotation marks, dagger alif, and
# tatweel; stripped before any dictionary or rule-word lookup.
_DIACRITICS_RE = re.compile(r"[ؐ-ًؚ-ٰٟـ]")

# Default affix lists for the light-stemming fallback.
DEFAULT_PREFIXES = ("و", "ف", "ال", "وال",
                    "بال", "كال",
                    "فال", "لل")
DEFAULT_SUFFIXES = ("ها", "ان", "ات",
                    "ون", "ين", "ه", "ة",
                    "ي")


def remove_diacritics(text: str) -> str:
    return _DIACRITICS_RE.sub("", text)


@dataclass(frozen=True)
class RawDocument:
    """One labeled document as loaded from disk."""
    id: str
    label: int          # 1 = positive, 0 = negative
    text: str


@dataclass(frozen=True)
class Token:
    surface: str
    position: int       # index in the pre-noise-stripping token sequence


@dataclass
class TokenizedDocument:
    """A document after tokenization, noise stripping, and lemmatization.

    ``sentences`` holds half-open ``(start, end)`` ranges over indices of
    ``tokens``; the ranges are sorted, disjoint, and cover every index.
    ``lemmas`` is parallel to ``tokens``.
    """
    id: str
    label: int
    tokens: list[Token] = field(default_factory=list)
    sentences: list[tuple[int, int]] = field(default_factory=list)
    lemmas: list[str] = field(default_factory=list)

    @cached_property
    def forms(self) -> list[str]:
        """Diacritic-free surface of each token, as rule words are matched."""
        return [remove_diacritics(t.surface) for t in self.tokens]


class LemmaDictionary:
    """Surface-to-lemma mapping with a light affix-stripping fallback.

    Lookup order: exact dictionary hit on the diacritic-free surface; on a
    miss, strip one longest matching prefix and then one longest matching
    suffix and retry; if the stripped form is not in the dictionary either,
    the stripped form itself is the lemma. Lookup never fails.
    """

    def __init__(self, mapping=None, prefixes=DEFAULT_PREFIXES,
                 suffixes=DEFAULT_SUFFIXES):
        self.mapping = dict(mapping or {})
        # Longest-first so the longest affix wins.
        self.prefixes = sorted(prefixes, key=len, reverse=True)
        self.suffixes = sorted(suffixes, key=len, reverse=True)

    def lemma(self, surface: str) -> str:
        form = remove_diacritics(surface)
        hit = self.mapping.get(form)
        if hit is not None:
            return hit
        stripped = self._strip_affixes(form)
        return self.mapping.get(stripped, stripped)

    def _strip_affixes(self, form: str) -> str:
        # A strip must leave at least two characters behind.
        for pre in self.prefixes:
            if form.startswith(pre) and len(form) - len(pre) >= 2:
                form = form[len(pre):]
                break
        for suf in self.suffixes:
            if form.endswith(suf) and len(form) - len(suf) >= 2:
                form = form[:-len(suf)]
                break
        return form


def load_lemma_dictionary(path, prefixes=DEFAULT_PREFIXES,
                          suffixes=DEFAULT_SUFFIXES) -> LemmaDictionary:
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
    return LemmaDictionary(mapping, prefixes=prefixes, suffixes=suffixes)


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


def tokenize_and_segment(text: str, boundary_chars=DEFAULT_BOUNDARY_CHARS):
    """Split text into whitespace tokens and sentence ranges.

    Every boundary character (and every newline) closes the current
    sentence; consecutive boundaries do not create empty sentences. A text
    with no boundary marker is a single sentence.

    Returns ``(tokens, sentences)`` where sentences are half-open ranges
    over token indices.
    """
    tokens: list[Token] = []
    sentences: list[tuple[int, int]] = []
    sent_start = 0

    def close_sentence():
        nonlocal sent_start
        if len(tokens) > sent_start:
            sentences.append((sent_start, len(tokens)))
            sent_start = len(tokens)

    for line in text.splitlines():
        for chunk in line.split():
            current: list[str] = []
            for ch in chunk:
                if ch in boundary_chars:
                    if current:
                        tokens.append(Token("".join(current), len(tokens)))
                        current = []
                    close_sentence()
                else:
                    current.append(ch)
            if current:
                tokens.append(Token("".join(current), len(tokens)))
        close_sentence()
    close_sentence()
    return tokens, sentences


def strip_noise(tokens: list[Token]) -> list[Token]:
    """Drop tokens with no letters (digits, punctuation, symbols only).

    Kept tokens retain their original ``position`` values.
    """
    return [t for t in tokens if any(ch.isalpha() for ch in t.surface)]


def prepare_document(raw: RawDocument, lemma_dict: LemmaDictionary,
                     boundary_chars=DEFAULT_BOUNDARY_CHARS) -> TokenizedDocument:
    """Tokenize, segment, noise-strip, and lemmatize one raw document.

    Sentence ranges are remapped onto the surviving token indices;
    sentences left empty by noise stripping are dropped. A document whose
    tokens are all noise yields zero tokens and zero sentences.
    """
    all_tokens, raw_sentences = tokenize_and_segment(raw.text, boundary_chars)
    kept = strip_noise(all_tokens)
    kept_positions = [t.position for t in kept]

    sentences = []
    lo = 0
    for start, end in raw_sentences:
        hi = lo
        while hi < len(kept_positions) and kept_positions[hi] < end:
            hi += 1
        if hi > lo:
            sentences.append((lo, hi))
        lo = hi

    lemmas = [lemma_dict.lemma(t.surface) for t in kept]
    return TokenizedDocument(id=raw.id, label=raw.label, tokens=kept,
                             sentences=sentences, lemmas=lemmas)
