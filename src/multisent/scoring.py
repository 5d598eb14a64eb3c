"""Token scoring, negation/intensification rules, and sentence scores.

Each token receives the prior polarity of its lemma (0 when the lemma is
unknown or is itself a rule word). The rule stage then adjusts scores
inside sentence boundaries: a negation word within the window before a
sentiment term flips its sign, after which an intensifier within the
window on either side pushes the score to +1 or -1 according to its
current sign. Sentence scores collapse a sentence's term scores through
the (max positive, max |negative|) pair.
"""

import enum
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .corpus_io import TokenizedDocument, remove_diacritics
from .errors import DataError
from .lexicon import PolarityPair


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

    @cached_property
    def all_words(self) -> frozenset:
        return self.negation_words | self.intensifier_words


def load_word_list(path) -> frozenset:
    """One word per line, UTF-8; diacritics removed for matching."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        raise DataError(f"word list not found: {path}")
    except UnicodeDecodeError:
        raise DataError(f"word list is not valid UTF-8: {path}")
    return frozenset(remove_diacritics(w.strip()) for w in lines if w.strip())


def score_tokens(doc: TokenizedDocument, priors: dict[str, float],
                 rule_words: frozenset = frozenset()) -> list[float]:
    """Each token's lemma prior polarity, in token order.

    Unknown lemmas score 0. Tokens whose surface (diacritic-free) is a
    rule word also score 0 so negation particles never act as sentiment
    terms.
    """
    if not rule_words:
        return [priors.get(lemma, 0.0) for lemma in doc.lemmas]
    return [0.0 if form in rule_words else priors.get(lemma, 0.0)
            for form, lemma in zip(doc.forms, doc.lemmas)]


def negate(score: float) -> float:
    """Sign flip applied by a preceding negation word; self-inverse."""
    return -score


def intensify(score: float) -> float:
    """Push a nonzero score to the nearest signed extreme."""
    if score > 0:
        return 1.0
    if score < 0:
        return -1.0
    return 0.0


def apply_rules(priors: list[float], doc: TokenizedDocument,
                cfg: RuleConfig) -> list[float]:
    """Token priors adjusted for negation and intensification.

    Negation applies first (a negation word within ``cfg.window`` tokens
    before the term, same sentence), then intensification (an intensifier
    within the window on either side) pushes the post-negation sign to
    +/-1. Zero-score tokens pass through unchanged, and no rule looks
    across a sentence boundary.
    """
    forms = doc.forms
    adjusted = list(priors)

    for start, end in doc.sentences:
        for i in range(start, end):
            value = priors[i]
            if value == 0.0:
                continue
            before = range(max(start, i - cfg.window), i)
            after = range(i + 1, min(end, i + 1 + cfg.window))
            if any(forms[j] in cfg.negation_words for j in before):
                value = negate(value)
            if any(forms[j] in cfg.intensifier_words
                   for j in (*before, *after)):
                value = intensify(value)
            adjusted[i] = value
    return adjusted


def score_document(doc: TokenizedDocument, priors: dict[str, float],
                   rule_cfg: RuleConfig | None = None):
    """Each token's prior and its score after the rules, as two lists;
    without ``rule_cfg`` both lists are the priors."""
    if rule_cfg is None:
        token_priors = score_tokens(doc, priors)
        return token_priors, token_priors
    token_priors = score_tokens(doc, priors, rule_cfg.all_words)
    return token_priors, apply_rules(token_priors, doc, rule_cfg)


def s_max(term_scores) -> PolarityPair:
    """Per-sentence maxima: (max positive score, max |negative score|).

    Either side is 0 when the sentence has no term of that sign.
    """
    pos = 0.0
    neg = 0.0
    for s in term_scores:
        if s > 0:
            pos = max(pos, s)
        elif s < 0:
            neg = max(neg, abs(s))
    return PolarityPair(pos=pos, neg=neg)


def sentence_score(pair: PolarityPair, formula: SentenceFormula) -> float:
    """Collapse a sentence's (pos, neg) maxima into one signed score.

    An exact tie under MAX_MAX returns the positive value.
    """
    if formula is SentenceFormula.MAX_SUB:
        return pair.pos - pair.neg
    return -pair.neg if pair.neg > pair.pos else pair.pos


def sentence_scores(doc: TokenizedDocument, scores: list[float],
                    formula: SentenceFormula) -> list[float]:
    """One score per sentence from the tokens' adjusted scores."""
    return [sentence_score(s_max(scores[start:end]), formula)
            for start, end in doc.sentences]
