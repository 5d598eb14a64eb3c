"""Independent brute-force oracles used to pin expected test values.

Everything here is written from the operation definitions with plain
loops and no imports from the package, so a test comparing the library
against these functions is a genuine dual-route check. The tokenizer,
corpus packing, token scoring, rule, sentence-score and feature-row
oracles are the package's former per-document scalar code; they take
``Doc`` and ``RawDocument`` documents and the package's lemma
dictionaries and rule configurations by their attributes;
``read_corpus`` reads a corpus directory into ``RawDocument``s.
``make_document`` is the synthetic-corpus generator's former scalar
``Generator`` code, with the seed derivation and surface forms it used.
``tree_grow_then_prune`` is the decision tree's former two-pass growth
and pruning.
"""

import hashlib
import math
import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np


def pair_avg(senses):
    pos = [abs(p) for p, _ in senses]
    neg = [abs(n) for _, n in senses]
    return sum(pos) / len(pos), sum(neg) / len(neg)


def pair_max(senses):
    return (max(abs(p) for p, _ in senses),
            max(abs(n) for _, n in senses))


def prior(senses, formula):
    """Literal evaluation of the five aggregation formulas."""
    if formula in ("avg_max", "avg_sub", "avg_avg"):
        pos, neg = pair_avg(senses)
    elif formula in ("max_max", "max_sub"):
        pos, neg = pair_max(senses)
    else:
        raise ValueError(formula)
    if formula.endswith("_max"):
        biggest = max(pos, neg)
        if biggest == neg and neg > pos:
            return -biggest
        return biggest
    if formula.endswith("_sub"):
        return pos - neg
    return (pos + (-neg)) / 2.0


def sentence_pair(scores):
    """Enumerate the (max positive, max |negative|) pair of a sentence."""
    pos = 0.0
    for s in scores:
        if s > 0 and s > pos:
            pos = s
    neg = 0.0
    for s in scores:
        if s < 0 and -s > neg:
            neg = -s
    return pos, neg


def sentence_value(pos, neg, formula):
    if formula == "max_sub":
        return pos - neg
    if formula == "max_max":
        if neg > pos:
            return -neg
        return pos
    raise ValueError(formula)


def is_noise_token(surface):
    """True when the token carries no letter in any Unicode script."""
    return all(not unicodedata.category(ch).startswith("L")
               for ch in surface)


BOUNDARY_CHARS = frozenset(".!?؟؛")


def char_loop_tokens(text):
    """Character-loop tokenizer: ``(surface, position)`` tokens, noise
    included, and sentence ranges over them.

    Every boundary character (and every newline) closes the current
    sentence; consecutive boundaries do not create empty sentences.
    """
    tokens = []
    sentences = []
    sent_start = 0

    def close_sentence():
        nonlocal sent_start
        if len(tokens) > sent_start:
            sentences.append((sent_start, len(tokens)))
            sent_start = len(tokens)

    for line in text.splitlines():
        for chunk in line.split():
            current = []
            for ch in chunk:
                if ch in BOUNDARY_CHARS:
                    if current:
                        tokens.append(("".join(current), len(tokens)))
                        current = []
                    close_sentence()
                else:
                    current.append(ch)
            if current:
                tokens.append(("".join(current), len(tokens)))
        close_sentence()
    close_sentence()
    return tokens, sentences


def strip_noise(tokens):
    """Drop tokens with no letters; kept tokens retain their position."""
    return [t for t in tokens if any(ch.isalpha() for ch in t[0])]


def noise_free_tokens(text):
    """Tokenize, strip noise, then remap each sentence range onto the
    surviving tokens through their positions; sentences left empty are
    dropped. Returns ``(surfaces, sentences)``."""
    all_tokens, raw_sentences = char_loop_tokens(text)
    kept = strip_noise(all_tokens)
    kept_positions = [position for _, position in kept]

    sentences = []
    lo = 0
    for start, end in raw_sentences:
        hi = lo
        while hi < len(kept_positions) and kept_positions[hi] < end:
            hi += 1
        if hi > lo:
            sentences.append((lo, hi))
        lo = hi
    return [surface for surface, _ in kept], sentences


BOUNDARY_RE = re.compile(r"[.!?؟؛]")


def tokenize_and_segment(text):
    """Split text into token surfaces and sentence ranges, dropping noise.

    Every boundary character and every ``str.splitlines`` break closes
    the current sentence. Words with no letter are dropped, and a
    sentence with no kept word is dropped. Returns ``(tokens,
    sentences)`` with sentences as half-open ranges over token indices.
    """
    tokens = []
    sentences = []
    for line in text.splitlines():
        for segment in BOUNDARY_RE.split(line):
            words = [w for w in segment.split()
                     if any(ch.isalpha() for ch in w)]
            if words:
                sentences.append((len(tokens), len(tokens) + len(words)))
                tokens += words
    return tokens, sentences


@dataclass(frozen=True)
class RawDocument:
    """One labeled document as read from disk: 1 = positive, 0 = negative."""
    id: str
    label: int
    text: str


def read_corpus(root):
    """Every document of a ``pos/``/``neg/`` corpus directory, ``neg/``
    first and each class by file name, as UTF-8 text with universal
    newlines, as the package reads it."""
    return [RawDocument(f"{sub}/{path.name}", label,
                        path.read_text(encoding="utf-8"))
            for label, sub in enumerate(("neg", "pos"))
            for path in sorted(Path(root, sub).glob("*.txt"),
                               key=lambda path: path.name)]


@dataclass
class Doc:
    """One tokenized document: surfaces, sentence ranges over them, and a
    lemma per surface."""
    id: str
    label: int
    tokens: list = field(default_factory=list)
    sentences: list = field(default_factory=list)
    lemmas: list = field(default_factory=list)


def prepare_document(raw, lemma_dict):
    """Tokenize, segment and lemmatize one raw document."""
    tokens, sentences = tokenize_and_segment(raw.text)
    return Doc(raw.id, raw.label, tokens, sentences,
               [lemma_dict.lemma(t) for t in tokens])


def corpus_columns(docs):
    """Pack documents into the columns of ``scoring.Corpus``, one token at
    a time; each document's sentences must tile its tokens."""
    ids, labels, lemmas, word_index, word_ids = [], [], {}, {}, []
    doc_tokens, doc_sentences, sentence_tokens = [0], [0], []
    for doc in docs:
        start = doc_tokens[-1]
        edge = 0
        for a, b in doc.sentences:
            assert a == edge < b, f"sentences of {doc.id} do not tile"
            sentence_tokens.append(start + a)
            edge = b
        assert edge == len(doc.tokens), f"sentences of {doc.id} do not tile"
        for surface, lemma in zip(doc.tokens, doc.lemmas):
            assert lemmas.setdefault(surface, lemma) == lemma
            word_ids.append(word_index.setdefault(surface, len(word_index)))
        ids.append(doc.id)
        labels.append(doc.label)
        doc_tokens.append(start + len(doc.tokens))
        doc_sentences.append(len(sentence_tokens))
    sentence_tokens.append(doc_tokens[-1])
    return {"ids": ids,
            "labels": np.array(labels, dtype=int),
            "words": list(lemmas.items()),
            "word_ids": np.array(word_ids, dtype=np.intp),
            "doc_tokens": np.array(doc_tokens, dtype=np.intp),
            "sentence_tokens": np.array(sentence_tokens, dtype=np.intp),
            "doc_sentences": np.array(doc_sentences, dtype=np.intp)}


# Arabic diacritics, Quranic annotation marks, dagger alif and tatweel,
# which are stripped before any rule-word match.
DIACRITICS = frozenset(map(chr, [*range(0x0610, 0x061B),
                                 *range(0x064B, 0x0660), 0x0670, 0x0640]))


def forms(doc):
    """Each token's surface without diacritics, as rule words are matched."""
    return ["".join(ch for ch in t if ch not in DIACRITICS)
            for t in doc.tokens]


def sum_left(values):
    """``values`` added left to right from 0.0."""
    total = 0.0
    for v in values:
        total += v
    return total


@dataclass(frozen=True)
class PolarityPair:
    pos: float
    neg: float


def score_tokens(doc, priors, rule_words=frozenset()):
    """Each token's lemma prior polarity, in token order.

    Unknown lemmas score 0. Tokens whose surface (diacritic-free) is a
    rule word also score 0 so negation particles never act as sentiment
    terms.
    """
    if not rule_words:
        return [priors.get(lemma, 0.0) for lemma in doc.lemmas]
    return [0.0 if form in rule_words else priors.get(lemma, 0.0)
            for form, lemma in zip(forms(doc), doc.lemmas)]


def negate(score):
    """Sign flip applied by a preceding negation word; self-inverse."""
    return -score


def intensify(score):
    """Push a nonzero score to the nearest signed extreme."""
    if score > 0:
        return 1.0
    if score < 0:
        return -1.0
    return 0.0


def apply_rules(priors, doc, cfg):
    """Token priors adjusted for negation and intensification.

    Negation applies first (a negation word within ``cfg.window`` tokens
    before the term, same sentence), then intensification (an intensifier
    within the window on either side) pushes the post-negation sign to
    +/-1. Zero-score tokens pass through unchanged, and no rule looks
    across a sentence boundary.
    """
    doc_forms = forms(doc)
    adjusted = list(priors)

    for start, end in doc.sentences:
        for i in range(start, end):
            value = priors[i]
            if value == 0.0:
                continue
            before = range(max(start, i - cfg.window), i)
            after = range(i + 1, min(end, i + 1 + cfg.window))
            if any(doc_forms[j] in cfg.negation_words for j in before):
                value = negate(value)
            if any(doc_forms[j] in cfg.intensifier_words
                   for j in (*before, *after)):
                value = intensify(value)
            adjusted[i] = value
    return adjusted


def score_document(doc, priors, rule_cfg=None):
    """Each token's prior and its score after the rules, as two lists;
    without ``rule_cfg`` both lists are the priors."""
    if rule_cfg is None:
        token_priors = score_tokens(doc, priors)
        return token_priors, token_priors
    token_priors = score_tokens(
        doc, priors, rule_cfg.negation_words | rule_cfg.intensifier_words)
    return token_priors, apply_rules(token_priors, doc, rule_cfg)


def s_max(term_scores):
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


def sentence_score(pair, formula):
    """Collapse a sentence's (pos, neg) maxima into one signed score.

    An exact tie under MAX_MAX returns the positive value.
    """
    if formula.value == "max_sub":
        return pair.pos - pair.neg
    return -pair.neg if pair.neg > pair.pos else pair.pos


def sentence_scores(doc, scores, formula):
    """One score per sentence from the tokens' adjusted scores."""
    return [sentence_score(s_max(scores[start:end]), formula)
            for start, end in doc.sentences]


def term_features(scores):
    """Build one TERM8 row from a document's adjusted token scores.

    first_subj/last_subj are the first and last nonzero scores (0 when
    the document has no subjective token).
    """
    pos = [s for s in scores if s > 0]
    neg = [s for s in scores if s < 0]
    subjective = [s for s in scores if s != 0]
    sum_pos, sum_neg = sum_left(pos), sum_left(neg)
    return [
        float(len(pos)),
        float(len(neg)),
        sum_pos,
        sum_neg,
        sum_pos / len(pos) if pos else 0.0,
        sum_neg / len(neg) if neg else 0.0,
        subjective[0] if subjective else 0.0,
        subjective[-1] if subjective else 0.0,
    ]


def doc_features(values):
    """Build one DOC7 row from a document's sentence scores.

    first/middle/last are the scores at sentence index 0, (n-1)//2, and
    n-1. A document with zero sentences yields an all-zero row.
    """
    pos = [v for v in values if v > 0]
    neg = [v for v in values if v < 0]
    n = len(values)
    return [
        float(len(pos)),
        float(len(neg)),
        max(pos) if pos else 0.0,
        min(neg) if neg else 0.0,
        values[0] if n else 0.0,
        values[(n - 1) // 2] if n else 0.0,
        values[-1] if n else 0.0,
    ]


def feature_rows(docs, priors, level, rule_cfg=None, sentence_formula=None):
    """Full-width rows of ``docs``, one document at a time."""
    rows = []
    for doc in docs:
        _, scores = score_document(doc, priors, rule_cfg)
        if level == "term":
            rows.append(term_features(scores))
        else:
            rows.append(doc_features(
                sentence_scores(doc, scores, sentence_formula)))
    return rows


def stratified_kfold(labels, k, seed):
    """Fold indices dealt member by member: each class's members, in a
    seeded shuffle, go round-robin to folds 0..k-1."""
    folds = [-1] * len(labels)
    rng = make_rng(derive_seed(seed, "kfold"))
    for cls in sorted(set(labels)):
        members = [i for i, label in enumerate(labels) if label == cls]
        order = rng.permutation(len(members))
        for slot, m in enumerate(order.tolist()):
            folds[members[m]] = slot % k
    return folds


def metrics(tp, fp, tn, fn):
    """Direct evaluation of the per-class precision/recall/F formulas."""
    def safe(num, den):
        return num / den if den else 0.0

    p_pos = safe(tp, tp + fp)
    r_pos = safe(tp, tp + fn)
    p_neg = safe(tn, tn + fn)
    r_neg = safe(tn, tn + fp)

    def f(p, r):
        return safe(2 * p * r, p + r)

    return {"p_pos": p_pos, "r_pos": r_pos, "f_pos": f(p_pos, r_pos),
            "p_neg": p_neg, "r_neg": r_neg, "f_neg": f(p_neg, r_neg)}


def kl_terms(p, q):
    """Termwise p_i * ln(p_i / q_i), summed with plain math."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0:
            total += pi * math.log(pi / qi)
    return total


def rbf_kernel(a, b, gamma):
    """exp(-gamma * ||a_i - b_j||^2) for all pairs: the package's former
    formula, with its three full-size temporaries."""
    sq = (np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
          - 2.0 * a @ b.T)
    return np.exp(-gamma * np.maximum(sq, 0.0))


SMO_STEP_EPS = 1e-7


def smo_pair_step(i, j, alphas, y, kernel, errors_fn, b, c, tol):
    """Scalar SMO pair update: both errors and the box on every attempt."""
    if i == j:
        return b, False
    e_i, e_j = errors_fn(i), errors_fn(j)
    a_i_old, a_j_old = alphas[i], alphas[j]
    if y[i] != y[j]:
        lo = max(0.0, a_j_old - a_i_old)
        hi = min(c, c + a_j_old - a_i_old)
    else:
        lo = max(0.0, a_i_old + a_j_old - c)
        hi = min(c, a_i_old + a_j_old)
    if hi - lo < SMO_STEP_EPS:
        return b, False
    eta = 2.0 * kernel[i, j] - kernel[i, i] - kernel[j, j]
    if eta >= 0:
        return b, False
    a_j = a_j_old - y[j] * (e_i - e_j) / eta
    a_j = min(hi, max(lo, a_j))
    if abs(a_j - a_j_old) < SMO_STEP_EPS:
        return b, False
    a_i = a_i_old + y[i] * y[j] * (a_j_old - a_j)
    a_i = min(c, max(0.0, a_i))
    alphas[i], alphas[j] = a_i, a_j

    b1 = b - e_i - y[i] * (a_i - a_i_old) * kernel[i, i] \
        - y[j] * (a_j - a_j_old) * kernel[i, j]
    b2 = b - e_j - y[i] * (a_i - a_i_old) * kernel[i, j] \
        - y[j] * (a_j - a_j_old) * kernel[j, j]
    if 0.0 < a_i < c:
        return b1, True
    if 0.0 < a_j < c:
        return b2, True
    return (b1 + b2) / 2.0, True


def smo(kernel, y, c, tol, max_passes, rng):
    """Scalar SMO over a precomputed kernel: (alphas, bias, moves).

    Each error is a fresh O(n) dot product, recomputed on every pair
    attempt; the partner order is one ``rng.permutation(n)`` per KKT
    violator. A vectorised trainer drawing from the same ``rng`` must
    reach the same alphas and bias bit for bit.
    """
    n = len(y)
    alphas = np.zeros(n)
    b = 0.0
    moves = 0

    def error(i):
        return float(kernel[i] @ (alphas * y) + b - y[i])

    for _ in range(max_passes):
        violations = 0
        progressed = 0
        for i in range(n):
            r_i = y[i] * error(i)
            if (r_i < -tol and alphas[i] < c) or (r_i > tol and alphas[i] > 0):
                violations += 1
                for j in rng.permutation(n):
                    b, moved = smo_pair_step(int(j), i, alphas, y, kernel,
                                             error, b, c, tol)
                    if moved:
                        progressed += 1
                        break
        moves += progressed
        if violations == 0 or progressed == 0:
            break
    return alphas, b, moves


TREE_GAIN_EPS = 1e-12


def tree_entropy(counts):
    total = sum(counts)
    if total == 0:
        return 0.0
    ent = 0.0
    for c in counts:
        if c:
            p = c / total
            ent -= p * math.log2(p)
    return ent


def best_split(rows, labels, min_leaf):
    """Scalar gain-ratio split search: every cut of every feature in turn.

    Highest-gain-ratio (feature, threshold) with positive gain, or None;
    ties go to the lower feature, then the lower threshold.
    """
    n = len(labels)
    parent_entropy = tree_entropy((int(np.sum(labels == 0)),
                                   int(np.sum(labels == 1))))
    best = None  # (gain_ratio, gain, feature, threshold)
    for f in range(rows.shape[1]):
        order = np.argsort(rows[:, f], kind="stable")
        values = rows[order, f]
        ordered_labels = labels[order]
        # Prefix counts of positives ahead of each possible cut position.
        pos_prefix = np.cumsum(ordered_labels)
        for cut in range(min_leaf, n - min_leaf + 1):
            if cut < 1 or cut > n - 1 or values[cut - 1] == values[cut]:
                continue
            left_pos = int(pos_prefix[cut - 1])
            left = (cut - left_pos, left_pos)
            right = (n - cut - (int(pos_prefix[-1]) - left_pos),
                     int(pos_prefix[-1]) - left_pos)
            child_entropy = (cut / n) * tree_entropy(left) \
                + ((n - cut) / n) * tree_entropy(right)
            gain = parent_entropy - child_entropy
            if gain <= TREE_GAIN_EPS:
                continue
            split_info = tree_entropy((cut, n - cut))
            ratio = gain / split_info
            threshold = (values[cut - 1] + values[cut]) / 2.0
            # Adjacent floats can round the midpoint up onto values[cut],
            # which would move rows across the split; pin it below.
            if threshold >= values[cut]:
                threshold = values[cut - 1]
            key = (ratio, gain, -f, -threshold)
            if best is None or key > best[0]:
                best = (key, f, threshold)
    if best is None:
        return None
    return best[1], best[2]


def tree_added_errors(n, e, confidence):
    """Extra errors implied by the upper confidence bound of e errors in n:
    exact binomial for e = 0, the normal approximation otherwise."""
    if n == 0:
        return 0.0
    if e == 0:
        return n * (1.0 - confidence ** (1.0 / n))
    if e + 0.5 >= n:
        return max(n - e, 0.0)
    z = NormalDist().inv_cdf(1.0 - confidence)
    f = (e + 0.5) / n
    upper = (f + z * z / (2 * n)
             + z * math.sqrt(f / n - f * f / n + z * z / (4 * n * n))) \
        / (1 + z * z / n)
    return upper * n - e


def tree_grow_then_prune(rows, labels, min_leaf, confidence, prune,
                         split=best_split):
    """A decision tree's pre-order node list, left children first, in two
    passes: grow the whole tree, appending each node as it leaves the
    stack, then (if ``prune``) walk the list backwards, replacing each
    subtree whose leaf estimate errs no more than its children's with that
    leaf, and copy the nodes left into a renumbered list. ``split`` is
    the split search, ``best_split`` or one that returns its splits."""
    nodes, todo = [], [({}, "root", rows, labels)]
    while todo:
        parent, side, rows, labels = todo.pop()
        parent[side] = len(nodes)
        node = {"counts": [int(np.sum(labels == 0)),
                           int(np.sum(labels == 1))]}
        nodes.append(node)
        if 0 in node["counts"] or len(labels) < 2 * min_leaf:
            continue
        found = split(rows, labels, min_leaf)
        if found is None:
            continue
        f, threshold = found
        node["feature"], node["threshold"] = f, float(threshold)
        mask = rows[:, f] <= threshold
        todo += [(node, "right", rows[~mask], labels[~mask]),
                 (node, "left", rows[mask], labels[mask])]
    if not prune:
        return nodes
    estimates = [0.0] * len(nodes)   # estimated errors of pruned subtrees
    for i in reversed(range(len(nodes))):   # children before parents
        node = nodes[i]
        errors = min(node["counts"])
        as_leaf = errors + tree_added_errors(sum(node["counts"]), errors,
                                             confidence)
        if "left" in node:
            as_subtree = estimates[node["left"]] + estimates[node["right"]]
            if as_leaf > as_subtree + 1e-10:
                estimates[i] = as_subtree
                continue
            for key in ("feature", "threshold", "left", "right"):
                del node[key]
        estimates[i] = as_leaf
    kept, todo = [], [({}, "root", nodes[0])]
    while todo:
        parent, side, node = todo.pop()
        parent[side] = len(kept)
        kept.append(node)
        if "left" in node:
            todo += [(node, "right", nodes[node["right"]]),
                     (node, "left", nodes[node["left"]])]
    return kept


ANN_ERROR_RATIO_TOLERANCE = 1.04


def ann_forward(w1, b1, w2, b2, x):
    hidden = np.tanh(x @ w1.T + b1)
    return np.tanh(hidden @ w2 + b2)


def ann_mse_loss(w1, b1, w2, b2, x, targets):
    out = ann_forward(w1, b1, w2, b2, x)
    return float(np.mean((out - targets) ** 2))


def ann_loss_gradients(w1, b1, w2, b2, x, targets):
    """Backpropagated MSE gradients from a fresh forward pass:
    ``(loss, (g_w1, g_b1, g_w2, g_b2))``."""
    hidden = np.tanh(x @ w1.T + b1)
    out = np.tanh(hidden @ w2 + b2)
    err = out - targets
    loss = float(np.mean(err ** 2))

    d_out = (2.0 / len(x)) * err * (1.0 - out ** 2)
    g_w2 = hidden.T @ d_out
    g_b2 = float(np.sum(d_out))
    d_hidden = np.outer(d_out, w2) * (1.0 - hidden ** 2)
    g_w1 = d_hidden.T @ x
    g_b1 = d_hidden.sum(axis=0)
    return loss, (g_w1, g_b1, g_w2, g_b2)


def ann_run_once(x, targets, cfg, run_seed):
    """One ``traingdx`` run with three fresh passes per epoch: forward and
    backward at the current weights, then forward at the candidate.
    Returns (params, final_error) or None on divergence."""
    rng = np.random.Generator(np.random.Philox(run_seed))
    n_features = x.shape[1]
    w1 = rng.normal(size=(cfg.hidden, n_features)) / np.sqrt(n_features)
    b1 = np.zeros(cfg.hidden)
    w2 = rng.normal(size=cfg.hidden) / np.sqrt(cfg.hidden)
    b2 = 0.0
    velocity = [np.zeros_like(w1), np.zeros_like(b1), np.zeros_like(w2), 0.0]

    lr = cfg.lr
    error = ann_mse_loss(w1, b1, w2, b2, x, targets)
    for _ in range(cfg.max_epochs):
        if error <= cfg.goal:
            break
        _, grads = ann_loss_gradients(w1, b1, w2, b2, x, targets)
        velocity = [cfg.momentum * v - lr * g for v, g in zip(velocity, grads)]
        cand = [p + v for p, v in zip((w1, b1, w2, b2), velocity)]
        new_error = ann_mse_loss(*cand, x, targets)
        if not np.isfinite(new_error):
            return None
        if new_error > error * ANN_ERROR_RATIO_TOLERANCE:
            # Reject the step: keep the old weights, damp the rate,
            # and restart the momentum from zero.
            lr *= cfg.lr_down
            velocity = [np.zeros_like(w1), np.zeros_like(b1),
                        np.zeros_like(w2), 0.0]
            continue
        if new_error < error:
            lr *= cfg.lr_up
        w1, b1, w2, b2 = cand
        error = new_error
    return (w1, b1, w2, b2), error


def ann_best_run(runs):
    """The first of ``runs`` with the lowest final error; diverged (None)
    runs are skipped, and None means every run diverged."""
    best = None
    for result in runs:
        if result is None:
            continue
        if best is None or result[1] < best[1]:
            best = result
    return best


def tree_walk(nodes, row):
    """The leaf one row reaches in a tree's pre-order node list, one node
    at a time: left where ``row[feature] <= threshold``, right otherwise
    (``nan`` included)."""
    node = nodes[0]
    while "left" in node:
        node = nodes[node["left"] if row[node["feature"]] <= node["threshold"]
                     else node["right"]]
    return node


def derive_seed(seed, *labels):
    key = "|".join([str(int(seed))] + [str(l) for l in labels])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def make_rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _surfaces(lemma):
    return (lemma, lemma + "u", lemma + "an")


def make_document(cfg, label, index, vocab):
    """One synthetic document from scalar ``Generator`` calls, two or three
    per token; ``cfg`` is a ``SynthConfig``."""
    rng = make_rng(derive_seed(cfg.seed, "doc", label, index))
    pos_vocab, neg_vocab, neutral_vocab, negations, intensifiers = vocab
    own, other = (pos_vocab, neg_vocab) if label == 1 else (neg_vocab, pos_vocab)

    target = int(rng.integers(cfg.tokens_per_doc[0], cfg.tokens_per_doc[1] + 1))
    sentences = []
    emitted = 0
    while emitted < target:
        slots = int(rng.integers(cfg.sentence_tokens[0],
                                 cfg.sentence_tokens[1] + 1))
        slots = min(slots, target - emitted)
        words = []
        for _ in range(slots):
            u = rng.random()
            if u < cfg.noise_token_prob:
                words.append(str(rng.integers(0, 10000)))
            elif u < cfg.noise_token_prob + cfg.sentiment_density:
                side = own if rng.random() < cfg.purity else other
                lemma = side[int(rng.integers(0, len(side)))]
                surface = _surfaces(lemma)[int(rng.integers(0, 3))]
                if rng.random() < cfg.rule_fraction:
                    if rng.random() < 0.5:
                        words.append(negations[int(rng.integers(0, len(negations)))])
                        words.append(surface)
                    else:
                        words.append(surface)
                        words.append(intensifiers[int(rng.integers(0, len(intensifiers)))])
                else:
                    words.append(surface)
            else:
                lemma = neutral_vocab[int(rng.integers(0, len(neutral_vocab)))]
                words.append(_surfaces(lemma)[int(rng.integers(0, 3))])
            emitted += 1
        sentences.append(" ".join(words) + ".")
    return " ".join(sentences) + "\n"


# The five-sense example entry used throughout the formula tests:
# positive column (0.375, 0.75, 0.5, 0.25, 0.125), negative column
# (0.25, 0.125, 0.375, 0.25, 0.0).
FIVE_SENSES = ((0.375, 0.25), (0.75, 0.125), (0.5, 0.375),
               (0.25, 0.25), (0.125, 0.0))
