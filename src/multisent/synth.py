"""Deterministic generators for synthetic corpora, lexicons, and lemma
dictionaries, written in the exact file formats the loaders read.

Lemmas are ASCII identifiers by default (``pos012``, ``neg007``,
``neu045``); each has three inflected surface forms mapped back to it by
the emitted lemma dictionary. Positive-class documents draw their
sentiment tokens from the positive vocabulary with probability
``purity`` (and symmetrically), so with purity 1.0 the class vocabularies
are disjoint and the corpus is separable by construction. All randomness
comes from counter-based generators keyed off the single seed, so output
is byte-identical across platforms. ``generate`` refuses a corpus
directory that holds files it would not write, so a corpus is never
mixed from two runs.

Each document reads its own counter-based Philox stream (Salmon et al.,
SC'11), keyed by ``derive_seed(seed, "doc", label, index)``, and a
document is the sequence of draws ``tests/oracles.py`` ``make_document``
makes with scalar ``np.random.Generator(np.random.Philox(seed))`` calls.
The streams are independent, so ``_documents`` reads a batch of them
side by side. ``PhiloxBatch`` holds each stream's raw 64-bit outputs as
one row of a block (doubled when a row runs out), with a read position
and a pending 32-bit half per row, and gives the values ``Generator``
gives: ``random()`` is numpy's ``(raw >> 11) * 2**-53``, and
``integers(lo, hi)`` is numpy's bounded-integer algorithm for ranges
below 2**32, Lemire's multiply-and-reject (ACM TOMACS 29(1), 2019) on
32-bit draws, where each raw output yields its low half and then its
high half; a range of one value draws nothing. A call on some rows moves
only their positions, so each row sees its own stream's values in its
own call order, whatever the other rows draw. The walk then takes one
token slot of every document still short of its length at a time. Each
draw the scalar code makes there is one call on the rows that make it,
in the scalar code's order, and draws of one form share a call: a noise
number and the index of a lemma of any vocabulary are one ``integers``
call with a span per row. Words are codes into one table, whose second
half holds the same words with a full stop for sentence ends, so a
document is one ``" ".join``. A corpus is thus a function of the seed
and of numpy's Philox stream and bounded-integer algorithm.
``tests/test_synth.py`` compares the batch stream with ``Generator``
call by call and every document with the scalar oracle, and pins a
digest of two generated corpora, so a numpy release that changed either
algorithm fails loudly.
"""

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .parallel import map_items
from .util import (atomic_write_chunks, atomic_write_text, check_fields,
                   derive_seed, make_dirs, make_rng)

ASCII_NEGATIONS = ("negtool0", "negtool1")
ASCII_INTENSIFIERS = ("inttool0", "inttool1")
ARABIC_NEGATIONS = ("لا", "لن", "لم",
                    "ليس")
ARABIC_INTENSIFIERS = ("جدا", "مطلق",
                       "إفراط",
                       "كبيرا")


@dataclass(frozen=True)
class SynthConfig:
    docs_per_class: int = field(default=250, metadata={"min": 1})
    pos_lemmas: int = field(default=40, metadata={"min": 1})
    neg_lemmas: int = field(default=40, metadata={"min": 1})
    neutral_lemmas: int = field(default=120, metadata={"min": 1})
    # Empty documents and lemmas without senses are allowed; a negative
    # count is no count, and an empty sentence would never end. The upper
    # bounds keep each draw in range: PhiloxBatch.integers takes fewer
    # than 2**32 values, Generator.integers an int64 upper end.
    tokens_per_doc: tuple[int, int] = field(
        default=(60, 140), metadata={"min": 0, "max": 2 ** 32 - 2})
    sentence_tokens: tuple[int, int] = field(
        default=(5, 12), metadata={"min": 1, "max": 2 ** 32 - 2})
    # probability a slot holds a sentiment word
    sentiment_density: float = field(default=0.3,
                                     metadata={"min": 0, "max": 1})
    # probability it matches the document class: class-matching lemmas
    # must be strictly more likely than opposing ones
    purity: float = field(default=1.0, metadata={"above": 0.5, "max": 1})
    senses_per_lemma: tuple[int, int] = field(
        default=(1, 5), metadata={"min": 0, "max": 2 ** 63 - 2})
    # fraction of sentiment tokens given a rule word
    rule_fraction: float = field(default=0.0, metadata={"min": 0, "max": 1})
    noise_token_prob: float = field(default=0.02,
                                    metadata={"min": 0, "max": 1})
    arabic_tool_words: bool = False
    seed: int = 7

    def __post_init__(self):
        check_fields(self)
        if self.senses_per_lemma[1] < 1:
            raise ConfigurationError("senses_per_lemma upper bound must be "
                                     f">= 1, got {self.senses_per_lemma[1]}")


@dataclass(frozen=True)
class SynthPaths:
    corpus_dir: Path
    lexicon: Path
    lemma_dict: Path
    negations: Path
    intensifiers: Path


_ENDINGS = ("", "u", "an")   # a lemma's three surfaces: lemma + ending


def _lemma_names(prefix: str, count: int) -> list:
    return [f"{prefix}{i:03d}" for i in range(count)]


def _sense_lines(cfg: SynthConfig, pos_names, neg_names, rng):
    """The lexicon's text, yielded as each sense is drawn: the lines joined
    by newlines and ended by one, so a lexicon of no sense is ``"\\n"``."""
    lo, hi = cfg.senses_per_lemma
    sep = ""
    for polarity, lemmas in (("pos", pos_names), ("neg", neg_names)):
        for lemma in lemmas:
            for _ in range(int(rng.integers(lo, hi + 1))):
                strong = round(float(rng.uniform(0.55, 0.95)), 3)
                weak = round(float(rng.uniform(0.0, 0.25)), 3)
                pos, neg = (strong, weak) if polarity == "pos" \
                    else (weak, strong)
                yield f"{sep}{lemma}\t{pos:.3f}\t{neg:.3f}"
                sep = "\n"
    yield "\n"


_RAW = 512   # raw outputs first fetched per stream: about 2.7 per token
_BATCH = 1024   # most documents one map_items item walks in lockstep
_NUMBERS = 10000   # noise tokens are the numbers below this


class PhiloxBatch:
    """``random(rows)`` and ``integers(rows, lo, hi)`` for many Philox
    streams at once: entry ``k`` of a result is the value
    ``np.random.Generator(np.random.Philox(seeds[rows[k]]))`` gives for the
    same call, for ``hi - lo`` in [1, 2**32); see the module docstring.
    ``rows`` is an array of distinct row numbers, and ``lo`` and ``hi`` are
    integers or arrays aligned with it. Raw outputs are fetched in one
    place, ``_next64``: ``_RAW`` per stream at the first draw, then as
    many again whenever a row runs out."""

    def __init__(self, seeds):
        self._bits = [np.random.Philox(seed) for seed in seeds]
        self._raw = np.empty((len(self._bits), 0), np.uint64)
        self._pos = np.zeros(len(self._bits), np.intp)   # next unread output
        # High half of the raw output last split in two, and whether it is
        # still to be drawn.
        self._half = np.zeros(len(self._bits), np.uint64)
        self._pending = np.zeros(len(self._bits), bool)

    def random(self, rows):
        return (self._next64(rows) >> 11) * 2.0 ** -53

    def integers(self, rows, lo, hi):
        span = np.subtract(hi, lo, dtype=np.int64)
        if not np.all((span >= 1) & (span <= 0xFFFFFFFF)):
            raise ValueError(f"integers({lo}, {hi}): hi - lo must be in "
                             "[1, 2**32)")
        if span.ndim == 0:
            if span == 1:   # a span of 1 draws nothing
                return np.full(len(rows), lo, np.int64)
            return lo + self._bounded(rows, int(span))
        value = np.zeros(len(rows), np.int64)
        draw = np.flatnonzero(span > 1)
        if draw.size:
            value[draw] = self._bounded(rows[draw],
                                        span[draw].astype(np.uint64))
        return lo + value

    def _bounded(self, rows, span):
        """Lemire's multiply-and-reject: one value in [0, span) per row,
        redrawing only the rows whose product falls below the threshold."""
        m = self._next32(rows) * span
        threshold = (2 ** 32 - span) % span
        bad = np.flatnonzero((m & 0xFFFFFFFF) < threshold)
        if bad.size:
            span = np.broadcast_to(span, m.shape)
            threshold = np.broadcast_to(threshold, m.shape)
            while bad.size:
                m[bad] = self._next32(rows[bad]) * span[bad]
                bad = bad[(m[bad] & 0xFFFFFFFF) < threshold[bad]]
        return (m >> 32).astype(np.int64)

    def _next32(self, rows):
        out = self._half[rows]
        fresh = ~self._pending[rows]
        self._pending[rows] = fresh
        rows = rows[fresh]
        raw = self._next64(rows)
        out[fresh] = raw & 0xFFFFFFFF
        self._half[rows] = raw >> 32
        return out

    def _next64(self, rows):
        pos = self._pos[rows]
        if pos.size and pos.max() >= self._raw.shape[1]:
            width = self._raw.shape[1] or _RAW
            more = np.array([b.random_raw(width) for b in self._bits],
                            np.uint64).reshape(len(self._bits), width)
            self._raw = np.hstack([self._raw, more])
        self._pos[rows] = pos + 1
        return self._raw[rows, pos]


def _word_table(vocab):
    """The words documents are made of, followed by the same words with a
    full stop, and the first code and count of each vocabulary: noise
    numbers, then three surfaces per lemma of the positive, negative and
    neutral vocabularies, then the negations and intensifiers."""
    words = [str(i) for i in range(_NUMBERS)]
    parts = []
    for k, part in enumerate(vocab):
        parts.append((len(words), len(part)))
        words += ([lemma + ending for lemma in part for ending in _ENDINGS]
                  if k < 3 else list(part))
    return words + [word + "." for word in words], parts


def _writes(name: str, docs_per_class: int) -> bool:
    """Whether a corpus of ``docs_per_class`` documents per class writes a
    file of this name into each class directory."""
    match = re.fullmatch(r"doc_(\d{4,})\.txt", name)
    return (match is not None and f"{int(match[1]):04d}" == match[1]
            and int(match[1]) < docs_per_class)


def _documents(cfg: SynthConfig, label: int, indices, table) -> list:
    """The documents of class ``label`` with these indices, walked in
    lockstep: each token slot is one set of array operations over every
    document still short of its length (module docstring). A batch whose
    word codes do not fit in memory is a ConfigurationError."""
    words, (pos, neg, neutral, negations, intensifiers) = table
    (own_at, own_n), (other_at, other_n) = (pos, neg) if label == 1 \
        else (neg, pos)
    full_stop = len(words) // 2
    stream = PhiloxBatch([derive_seed(cfg.seed, "doc", label, i)
                          for i in indices])
    target = stream.integers(np.arange(len(indices)), cfg.tokens_per_doc[0],
                             cfg.tokens_per_doc[1] + 1)
    longest = int(target.max(initial=0))
    try:
        codes = np.empty((len(indices), 2 * longest), np.int64)
    except MemoryError:
        raise ConfigurationError(
            f"a batch of {len(indices)} document(s) of up to {longest:,} "
            f"tokens needs {16 * len(indices) * longest:,} bytes, which do "
            "not fit in memory") from None
    count = np.zeros(len(indices), np.intp)   # words written so far
    left = np.zeros(len(indices), np.int64)   # slots left in the sentence
    cuts = (cfg.noise_token_prob,
            cfg.noise_token_prob + cfg.sentiment_density)
    # First code and span of each kind of word; a sentiment word's side
    # sets its own.
    starts = np.array([0, 0, neutral[0]])
    spans = np.array([_NUMBERS, 1, neutral[1]])
    lo, hi = cfg.sentence_tokens
    for t in range(longest):
        live = np.flatnonzero(target > t)   # documents longer than t
        opening = live[left[live] == 0]
        if opening.size:
            left[opening] = np.minimum(stream.integers(opening, lo, hi + 1),
                                       target[opening] - t)
        # 0: noise number, 1: sentiment word, 2: neutral word.
        kind = np.searchsorted(cuts, stream.random(live), side="right")
        start, span = starts[kind], spans[kind]
        sentiment = np.flatnonzero(kind == 1)
        rows = live[sentiment]
        mine = stream.random(rows) < cfg.purity
        start[sentiment] = np.where(mine, own_at, other_at)
        span[sentiment] = np.where(mine, own_n, other_n)
        value = stream.integers(live, 0, span)   # a number or a lemma
        lemma = np.flatnonzero(kind)   # a lemma then draws its ending
        value[lemma] = 3 * value[lemma] + stream.integers(live[lemma], 0, 3)
        word = start + value
        ruled = sentiment[stream.random(rows) < cfg.rule_fraction]
        at = count[live]
        if ruled.size:   # a rule word before or after the sentiment word
            rows, surface = live[ruled], word[ruled]
            before = stream.random(rows) < 0.5   # a negation before it
            tool = np.where(before, negations[0], intensifiers[0]) \
                + stream.integers(rows, 0, np.where(before, negations[1],
                                                    intensifiers[1]))
            word[ruled] = np.where(before, tool, surface)
            codes[rows, at[ruled] + 1] = np.where(before, surface, tool)
            count[rows] += 1
        codes[live, at] = word
        count[live] += 1
        slots = left[live] - 1
        left[live] = slots
        ended = live[slots == 0]
        codes[ended, count[ended] - 1] += full_stop
    return [" ".join(map(words.__getitem__, row[:k].tolist())) + "\n"
            for row, k in zip(codes, count.tolist())]


def generate(cfg: SynthConfig, out_dir) -> SynthPaths:
    """Write corpus, lexicon, lemma dictionary, and tool-word lists. A
    batch of documents that does not fit in memory is a
    ConfigurationError naming its documents and bytes."""
    out = Path(out_dir)
    corpus_dir = out / "corpus"
    pos_names = _lemma_names("pos", cfg.pos_lemmas)
    neg_names = _lemma_names("neg", cfg.neg_lemmas)
    neutral_names = _lemma_names("neu", cfg.neutral_lemmas)

    if cfg.arabic_tool_words:
        negations, intensifiers = ARABIC_NEGATIONS, ARABIC_INTENSIFIERS
    else:
        negations, intensifiers = ASCII_NEGATIONS, ASCII_INTENSIFIERS

    dict_lines = []
    for lemma in pos_names + neg_names + neutral_names:
        for ending in _ENDINGS:
            dict_lines.append(f"{lemma}{ending}\t{lemma}")

    # Refuse to mix into an earlier corpus before anything is written.
    for sub in ("neg", "pos"):
        if (corpus_dir / sub).is_dir():
            stale = sorted(p.name for p in (corpus_dir / sub).iterdir()
                           if not _writes(p.name, cfg.docs_per_class))
            if stale:
                raise ConfigurationError(
                    f"{corpus_dir / sub} holds {len(stale)} file(s) this "
                    f"corpus would not write, such as {stale[0]}; write it "
                    "to a new directory")
    for sub in ("neg", "pos"):
        make_dirs(corpus_dir / sub)

    table = _word_table((pos_names, neg_names, neutral_names, negations,
                         intensifiers))
    n = cfg.docs_per_class
    batches = -(-n // _BATCH)   # per class, of near-equal size

    def write_batch(j):
        b, label = divmod(j, 2)
        indices = range(b * n // batches, (b + 1) * n // batches)
        directory = corpus_dir / ("neg", "pos")[label]
        for i, text in zip(indices, _documents(cfg, label, indices, table)):
            atomic_write_text(directory / f"doc_{i:04d}.txt", text)

    # Documents depend on nothing but their index; the files are the
    # result. Items are batches of one class's documents and alternate
    # between the classes, so on an even number of CPUs each process
    # writes into one directory: a file's creation and rename take its
    # directory's lock, and two processes writing into one directory
    # measured no faster than one.
    map_items(write_batch, 2 * batches)

    paths = SynthPaths(corpus_dir=corpus_dir,
                       lexicon=out / "lexicon.tsv",
                       lemma_dict=out / "lemma_dict.tsv",
                       negations=out / "negations.txt",
                       intensifiers=out / "intensifiers.txt")
    atomic_write_chunks(paths.lexicon, _sense_lines(
        cfg, pos_names, neg_names,
        make_rng(derive_seed(cfg.seed, "lexicon"))))
    atomic_write_text(paths.lemma_dict, "\n".join(dict_lines) + "\n")
    atomic_write_text(paths.negations, "\n".join(negations) + "\n")
    atomic_write_text(paths.intensifiers, "\n".join(intensifiers) + "\n")
    return paths
