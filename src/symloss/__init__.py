"""symloss: robust BER/AUC learning from corrupted labels with symmetric losses.

The package is organized around one algebraic fact: when a margin loss
satisfies l(z) + l(-z) = K, balanced-error and pairwise-ranking risks
computed on mutually contaminated data are affine transforms of their
clean counterparts, so the minimizers coincide and the mixture
proportions never need to be known or estimated.

Modules
-------
losses          catalog of margin losses with symmetry/convexity metadata
distributions   mutually contaminated densities, samplers, PU/UU reductions
risks           empirical and exact risks, decomposition checks, metrics
training        linear/MLP scorers, gradient-based risk minimization
threshold       ranking-score-to-classifier threshold selection
textpipe        keywords-plus-unlabeled-documents classification pipeline
datasets        bundled mini corpus, keywords, and experiment configs
experiments     config-driven experiment runners behind the CLI
cli             the ``symloss`` command
"""

from .distributions import (
    DiscreteBinaryDistribution,
    GaussianPairConfig,
    McdParams,
    SampleSet,
    corrupt_distribution,
    pu_params,
    sample_mcd,
    uu_params,
)
from .losses import (
    LOSS_NAMES,
    LOSSES,
    SYMMETRIC_LOSS_NAMES,
    LossSpec,
    get_loss,
)
from .risks import (
    DecompositionCheck,
    auc_decomposition_check,
    auc_score,
    ber_decomposition_check,
    classification_metrics,
    empirical_ber_risk,
    exact_auc_risk,
    exact_ber_risk,
    exact_cer_risk,
)
from .textpipe import (
    Corpus,
    KeywordSet,
    PipelineConfig,
    PipelineReport,
    build_vectorizer,
    pseudo_label,
    run_pipeline,
)
from .threshold import (
    ThresholdResult,
    default_threshold,
    heuristic_threshold,
    select_threshold,
)
from .training import (
    Scorer,
    TrainConfig,
    TrainTrace,
    brute_force_minimizer,
    finite_difference_check,
    train_auc,
    train_ber,
)

__version__ = "0.1.0"
