"""Multilevel sentiment analysis toolkit.

Term-level and document-level polarity classification built on multi-sense
lexicon aggregation, negation/intensification rules, hand-rolled ANN,
decision-tree, and SVM classifiers, stratified cross-validation, and
Zipf/KL corpus quality statistics.
"""

__version__ = "0.1.0"

from .corpus_io import (LemmaDictionary, encode_texts, list_corpus,
                        load_corpus, load_lemma_dictionary, read_document)
from .corpus_quality import (FrequencyTable, QualityReport, kl_divergence,
                             ideal_zipf_frequency, quality_report,
                             rank_frequencies)
from .errors import ConfigurationError, DataError, ParseError
from .features import Dataset, Variant, doc_rows, term_rows
from .lexicon import (LexiconEntry, PolarityPair, PriorFormula, SenseScore,
                      aggregate_prior, f_avg, f_max, load_lexicon,
                      prior_table)
from .pipeline import (PipelineConfig, build_dataset, prepare_corpus,
                       run_pipeline, sweep)
from .scoring import Corpus, RuleConfig, SentenceFormula, sentence_scores
from .synth import SynthConfig, generate
