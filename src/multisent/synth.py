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

Documents draw from ``PhiloxStream``, which reads each document's raw
64-bit Philox outputs (Salmon et al., SC'11) in chunks and turns them
into the values ``np.random.Generator(np.random.Philox(seed))`` gives,
with plain integer code rather than one numpy call per draw:
``random()`` is numpy's ``(raw >> 11) * 2**-53``, and ``integers(lo, hi)``
is numpy's bounded-integer algorithm for ranges below 2**32, Lemire's
multiply-and-reject (ACM TOMACS 29(1), 2019) on 32-bit draws, where each
raw output yields its low half and then its high half. A corpus is thus
a function of the seed and of numpy's Philox stream and bounded-integer
algorithm. ``tests/test_synth.py`` compares the stream with ``Generator``
call by call and every document with the scalar ``Generator`` version
kept in ``tests/oracles.py``, and pins a digest of two generated corpora,
so a numpy release that changed either algorithm fails loudly.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .util import atomic_write_text, derive_seed, make_dirs, make_rng

ASCII_NEGATIONS = ("negtool0", "negtool1")
ASCII_INTENSIFIERS = ("inttool0", "inttool1")
ARABIC_NEGATIONS = ("لا", "لن", "لم",
                    "ليس")
ARABIC_INTENSIFIERS = ("جدا", "مطلق",
                       "إفراط",
                       "كبيرا")


@dataclass(frozen=True)
class SynthConfig:
    docs_per_class: int = 250
    pos_lemmas: int = 40
    neg_lemmas: int = 40
    neutral_lemmas: int = 120
    tokens_per_doc: tuple = (60, 140)
    sentence_tokens: tuple = (5, 12)
    sentiment_density: float = 0.3   # probability a slot holds a sentiment word
    purity: float = 1.0              # probability it matches the document class
    senses_per_lemma: tuple = (1, 5)
    rule_fraction: float = 0.0       # fraction of sentiment tokens given a rule word
    noise_token_prob: float = 0.02
    arabic_tool_words: bool = False
    seed: int = 7

    def __post_init__(self):
        if self.docs_per_class < 1:
            raise ValueError("docs_per_class must be at least 1, got "
                             f"{self.docs_per_class}")
        for name in ("pos_lemmas", "neg_lemmas", "neutral_lemmas"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got "
                                 f"{getattr(self, name)}")
        for name in ("tokens_per_doc", "sentence_tokens", "senses_per_lemma"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} lower bound {lo} is above its "
                                 f"upper bound {hi}")
        if self.sentence_tokens[0] < 1:
            raise ValueError("sentence_tokens lower bound must be at least "
                             f"1, got {self.sentence_tokens[0]}")
        if not 0.0 <= self.sentiment_density <= 1.0:
            raise ValueError("sentiment_density must be in [0, 1]")
        if not 0.5 < self.purity <= 1.0:
            raise ValueError(
                "purity must be in (0.5, 1]: class-matching lemmas must be "
                "strictly more likely than opposing ones")
        if not 0.0 <= self.rule_fraction <= 1.0:
            raise ValueError("rule_fraction must be in [0, 1]")
        if not 0.0 <= self.noise_token_prob <= 1.0:
            raise ValueError("noise_token_prob must be in [0, 1]")


@dataclass(frozen=True)
class SynthPaths:
    corpus_dir: Path
    lexicon: Path
    lemma_dict: Path
    negations: Path
    intensifiers: Path


def _surfaces(lemma: str) -> tuple:
    return (lemma, lemma + "u", lemma + "an")


def _lemma_names(prefix: str, count: int) -> list:
    return [f"{prefix}{i:03d}" for i in range(count)]


def _sense_lines(cfg: SynthConfig, lemmas, polarity: str, rng) -> list:
    lines = []
    lo, hi = cfg.senses_per_lemma
    for lemma in lemmas:
        for _ in range(int(rng.integers(lo, hi + 1))):
            strong = round(float(rng.uniform(0.55, 0.95)), 3)
            weak = round(float(rng.uniform(0.0, 0.25)), 3)
            pos, neg = (strong, weak) if polarity == "pos" else (weak, strong)
            lines.append(f"{lemma}\t{pos:.3f}\t{neg:.3f}")
    return lines


_CHUNK = 256   # raw outputs fetched at a time; a 100-token document uses ~280


def _raw_outputs(bits):
    while True:
        yield from bits.random_raw(_CHUNK).tolist()


class PhiloxStream:
    """``random()`` and ``integers(lo, hi)`` with the values of
    ``np.random.Generator(np.random.Philox(seed))``, for ``hi - lo`` in
    [1, 2**32); see the module docstring."""

    __slots__ = ("_next", "_half")

    def __init__(self, seed: int):
        self._next = _raw_outputs(np.random.Philox(seed)).__next__
        self._half = None   # high half of the last raw output split in two

    def random(self) -> float:
        return (self._next() >> 11) * 2.0 ** -53

    def integers(self, lo: int, hi: int) -> int:
        rng = hi - lo - 1
        if not 0 <= rng < 0xFFFFFFFF:
            raise ValueError(f"integers({lo}, {hi}): hi - lo must be in "
                             "[1, 2**32)")
        if rng == 0:
            return lo
        span = rng + 1
        m = self._next32() * span
        if (m & 0xFFFFFFFF) < span:
            threshold = (0xFFFFFFFF - rng) % span
            while (m & 0xFFFFFFFF) < threshold:
                m = self._next32() * span
        return lo + (m >> 32)

    def _next32(self) -> int:
        half = self._half
        if half is None:
            raw = self._next()
            self._half = raw >> 32
            return raw & 0xFFFFFFFF
        self._half = None
        return half


def _make_document(cfg: SynthConfig, label: int, index: int, vocab) -> str:
    rng = PhiloxStream(derive_seed(cfg.seed, "doc", label, index))
    pos_vocab, neg_vocab, neutral_vocab, negations, intensifiers = vocab
    own, other = (pos_vocab, neg_vocab) if label == 1 else (neg_vocab, pos_vocab)

    target = rng.integers(cfg.tokens_per_doc[0], cfg.tokens_per_doc[1] + 1)
    sentences = []
    emitted = 0
    while emitted < target:
        slots = rng.integers(cfg.sentence_tokens[0],
                             cfg.sentence_tokens[1] + 1)
        slots = min(slots, target - emitted)
        words = []
        for _ in range(slots):
            u = rng.random()
            if u < cfg.noise_token_prob:
                words.append(str(rng.integers(0, 10000)))
            elif u < cfg.noise_token_prob + cfg.sentiment_density:
                side = own if rng.random() < cfg.purity else other
                lemma = side[rng.integers(0, len(side))]
                surface = _surfaces(lemma)[rng.integers(0, 3)]
                if rng.random() < cfg.rule_fraction:
                    if rng.random() < 0.5:
                        words.append(negations[rng.integers(0, len(negations))])
                        words.append(surface)
                    else:
                        words.append(surface)
                        words.append(intensifiers[rng.integers(0, len(intensifiers))])
                else:
                    words.append(surface)
            else:
                lemma = neutral_vocab[rng.integers(0, len(neutral_vocab))]
                words.append(_surfaces(lemma)[rng.integers(0, 3)])
            emitted += 1
        sentences.append(" ".join(words) + ".")
    return " ".join(sentences) + "\n"


def generate(cfg: SynthConfig, out_dir) -> SynthPaths:
    """Write corpus, lexicon, lemma dictionary, and tool-word lists."""
    out = Path(out_dir)
    corpus_dir = out / "corpus"
    pos_names = _lemma_names("pos", cfg.pos_lemmas)
    neg_names = _lemma_names("neg", cfg.neg_lemmas)
    neutral_names = _lemma_names("neu", cfg.neutral_lemmas)

    if cfg.arabic_tool_words:
        negations, intensifiers = ARABIC_NEGATIONS, ARABIC_INTENSIFIERS
    else:
        negations, intensifiers = ASCII_NEGATIONS, ASCII_INTENSIFIERS

    rng_lex = make_rng(derive_seed(cfg.seed, "lexicon"))
    lexicon_lines = _sense_lines(cfg, pos_names, "pos", rng_lex) \
        + _sense_lines(cfg, neg_names, "neg", rng_lex)

    dict_lines = []
    for lemma in pos_names + neg_names + neutral_names:
        for surface in _surfaces(lemma):
            dict_lines.append(f"{surface}\t{lemma}")

    # Refuse to mix into an earlier corpus before anything is written.
    names = {f"doc_{i:04d}.txt" for i in range(cfg.docs_per_class)}
    for sub in ("neg", "pos"):
        if (corpus_dir / sub).is_dir():
            stale = sorted(p.name for p in (corpus_dir / sub).iterdir()
                           if p.name not in names)
            if stale:
                raise ConfigurationError(
                    f"{corpus_dir / sub} holds {len(stale)} file(s) this "
                    f"corpus would not write, such as {stale[0]}; write it "
                    "to a new directory")
    for sub in ("neg", "pos"):
        make_dirs(corpus_dir / sub)

    vocab = (pos_names, neg_names, neutral_names, negations, intensifiers)
    for label, sub in ((0, "neg"), (1, "pos")):
        for i in range(cfg.docs_per_class):
            text = _make_document(cfg, label, i, vocab)
            atomic_write_text(corpus_dir / sub / f"doc_{i:04d}.txt", text)

    paths = SynthPaths(corpus_dir=corpus_dir,
                       lexicon=out / "lexicon.tsv",
                       lemma_dict=out / "lemma_dict.tsv",
                       negations=out / "negations.txt",
                       intensifiers=out / "intensifiers.txt")
    atomic_write_text(paths.lexicon, "\n".join(lexicon_lines) + "\n")
    atomic_write_text(paths.lemma_dict, "\n".join(dict_lines) + "\n")
    atomic_write_text(paths.negations, "\n".join(negations) + "\n")
    atomic_write_text(paths.intensifiers, "\n".join(intensifiers) + "\n")
    return paths
