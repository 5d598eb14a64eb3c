"""The corpus as columns, token scoring, negation/intensification rules,
and sentence scores.

``Corpus`` holds every token of a prepared corpus in one array of word
ids, plus document and sentence offsets; a word is a distinct surface
with its lemma. ``corpus_io.encode_texts`` makes these columns straight
from the raw texts. Each token receives the prior polarity of its lemma
(0 when the lemma is unknown or its surface is a rule word). The rule
stage then adjusts scores inside sentence boundaries: a negation word
within the window before a sentiment term flips its sign, after which
an intensifier within the window on either side pushes the score to +1
or -1 according to its current sign. Sentence scores collapse a
sentence's term scores through the (max positive, max |negative|) pair.

Scores are computed with array operations and kept only where they are
nonzero: zero scores pass the rules unchanged and add nothing to any
feature. Callers walk a corpus in blocks of whole documents
(``Corpus.blocks``), so no token-level array spans more than a block;
rule masks too are computed per block, not once per ``RuleConfig``.
Every document starts a sentence and no rule window, sum or maximum
crosses a document, so a block's scores carry the bits the whole
corpus's would. The scalar definitions these arrays reproduce bit for
bit live in ``tests/oracles.py``.
"""

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus_io import remove_diacritics
from .util import read_text

# The tokens of whole documents a block of ``Corpus.blocks`` holds at most;
# a longer document forms a block on its own.
BLOCK_TOKENS = 2 ** 16


class SentenceFormula(enum.Enum):
    """How a sentence's (pos, neg) maxima collapse into one score."""
    MAX_SUB = "max_sub"   # positive max minus negative max
    MAX_MAX = "max_max"   # larger side wins, minus sign if it is the negative

    @classmethod
    def from_name(cls, name: str) -> "SentenceFormula":
        try:
            return cls(name.lower())
        except ValueError:
            valid = ", ".join(f.value for f in cls)
            raise ValueError(
                f"unknown sentence formula {name!r} (one of: {valid})")


@dataclass(frozen=True)
class RuleConfig:
    """Negation/intensifier word sets and the adjacency window (>= 1)."""
    negation_words: frozenset = frozenset()
    intensifier_words: frozenset = frozenset()
    window: int = 1

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        overlap = self.negation_words & self.intensifier_words
        if overlap:
            raise ValueError(
                f"words listed as both negation and intensifier: {sorted(overlap)}")


def load_word_list(path) -> frozenset:
    """One word per line, UTF-8; diacritics removed for matching."""
    lines = read_text(path, "word list").splitlines()
    return frozenset(remove_diacritics(w.strip()) for w in lines if w.strip())


@dataclass(eq=False)
class Corpus:
    """A prepared corpus, or a block of one, as columns over its tokens.

    - ``ids`` and ``labels``: one entry per document, in corpus order.
    - ``words``: a (surface, lemma) pair per distinct surface, in order
      of first use; ``word_ids[t]`` is the word of corpus token ``t``.
    - ``doc_tokens`` (documents + 1) and ``sentence_tokens`` (sentences
      + 1): token offsets; document ``d`` holds tokens
      ``doc_tokens[d]:doc_tokens[d + 1]``.
    - ``doc_sentences`` (documents + 1): sentence offsets of each
      document.

    ``pipeline.prepare_corpus`` builds it from ``corpus_io.encode_texts``.
    """
    ids: list
    labels: np.ndarray
    words: list
    word_ids: np.ndarray
    doc_tokens: np.ndarray
    sentence_tokens: np.ndarray
    doc_sentences: np.ndarray

    @cached_property
    def longest_sentence(self) -> int:
        return int(np.diff(self.sentence_tokens).max(initial=0))

    def blocks(self):
        """``(first, block)`` in corpus order: ``block`` is a ``Corpus`` of
        the whole documents ``first, first + 1, ...`` of at most
        ``BLOCK_TOKENS`` tokens in all, or of one longer document, that
        shares ``words`` and slices the token columns, its offsets rebased
        to 0."""
        docs, doc_tokens = len(self.ids), self.doc_tokens
        first = 0
        while first < docs:
            end = max(first + 1, int(np.searchsorted(
                doc_tokens, doc_tokens[first] + BLOCK_TOKENS,
                side="right")) - 1)
            tokens = doc_tokens[first:end + 1]
            sentences = self.doc_sentences[first:end + 1]
            yield first, Corpus(
                self.ids[first:end], self.labels[first:end], self.words,
                self.word_ids[tokens[0]:tokens[-1]], tokens - tokens[0],
                self.sentence_tokens[sentences[0]:sentences[-1] + 1]
                - tokens[0],
                sentences - sentences[0])
            first = end

    def word_scores(self, priors: dict, rule_cfg: RuleConfig | None = None):
        """``(values, rules)``: per word, the prior of its lemma (0 when
        unknown); with ``rule_cfg``, ``rules`` is ``(negation,
        intensifier, window)``, whether each word's surface is a negation
        word or an intensifier, and ``None`` without. Rule words score 0,
        so they never act as sentiment terms. The blocks of a corpus share
        its words, so these hold for each of them."""
        values = np.array([priors.get(lemma, 0.0) for _, lemma in self.words],
                          dtype=float)
        if rule_cfg is None:
            return values, None
        forms = [remove_diacritics(surface) for surface, _ in self.words]
        negation = np.array([f in rule_cfg.negation_words for f in forms],
                            dtype=bool)
        intensifier = np.array([f in rule_cfg.intensifier_words
                                for f in forms], dtype=bool)
        values[negation | intensifier] = 0.0
        return values, (negation, intensifier, rule_cfg.window)

    def rule_masks(self, negation, intensifier, window: int):
        """``(negated, intensified)``: per token, whether a ``negation``
        word lies within ``window`` tokens before it in its sentence, and
        whether an ``intensifier`` lies within the window on either side
        (``negation`` and ``intensifier`` flag words, as ``word_scores``
        gives them)."""
        # continues[t]: tokens t - 1 and t share a sentence.
        continues = np.ones(len(self.word_ids), dtype=bool)
        continues[self.sentence_tokens[:-1]] = False
        # After d shifts a carry marks the tokens with a rule word d
        # tokens back (or ahead) in their sentence; past the longest
        # sentence every carry is empty.
        neg_back = negation[self.word_ids]
        int_back = intensifier[self.word_ids]
        int_ahead = int_back.copy()
        negated = np.zeros_like(neg_back)
        intensified = np.zeros_like(int_back)
        for _ in range(min(window, self.longest_sentence - 1)):
            for back in (neg_back, int_back):
                back[1:] = back[:-1] & continues[1:]
                back[0] = False
            int_ahead[:-1] = int_ahead[1:] & continues[1:]
            int_ahead[-1] = False
            negated |= neg_back
            intensified |= int_back
            intensified |= int_ahead
        return negated, intensified

    def subjective(self, word_scores):
        """``(positions, scores)``: the positions of the tokens with a
        nonzero prior, ascending, and their scores after the rules, from
        ``word_scores``.

        Negation flips the sign first, then intensification pushes the
        result to +/-1. Every other token scores 0 (or a -0.0 prior) both
        before and after the rules.
        """
        values, rules = word_scores
        positions = np.flatnonzero((values != 0.0)[self.word_ids])
        scores = values[self.word_ids[positions]]
        if rules is not None:
            negated, intensified = self.rule_masks(*rules)
            flip = negated[positions]
            scores[flip] = -scores[flip]
            push = intensified[positions]
            scores[push] = np.sign(scores[push])
        return positions, scores

    def token_scores(self, word_scores):
        """Every token's prior and its score after the rules, as two
        arrays over the tokens, from ``word_scores``; without rules both
        are the priors."""
        token_priors = word_scores[0][self.word_ids]
        if word_scores[1] is None:
            return token_priors, token_priors
        adjusted = token_priors.copy()
        positions, scores = self.subjective(word_scores)
        adjusted[positions] = scores
        return token_priors, adjusted


def sentence_scores(positions, scores, sentence_tokens,
                    formula: SentenceFormula) -> np.ndarray:
    """Collapse each sentence's (max positive, max |negative|) score pair.

    ``positions`` and ``scores`` are a corpus's nonzero token scores;
    ``sentence_tokens`` holds the sentences' token offsets. Either side of
    a pair is 0 when the sentence has no term of that sign. MAX_SUB
    subtracts the pair; MAX_MAX keeps the larger side, signed, and an
    exact tie returns the positive value.
    """
    bounds = np.searchsorted(positions, sentence_tokens)
    occupied = np.flatnonzero(bounds[1:] > bounds[:-1])
    pos = np.zeros(len(sentence_tokens) - 1)
    neg = np.zeros(len(sentence_tokens) - 1)
    pos[occupied] = np.maximum.reduceat(np.where(scores > 0, scores, 0.0),
                                        bounds[occupied])
    neg[occupied] = np.maximum.reduceat(np.where(scores < 0, -scores, 0.0),
                                        bounds[occupied])
    if formula is SentenceFormula.MAX_SUB:
        return pos - neg
    return np.where(neg > pos, -neg, pos)
