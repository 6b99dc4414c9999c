"""Reduced-order LTI models from noisy input-output data via matrix pencils.

The package estimates impulse-response coefficients from noisy time-domain
records (least squares or the regularized signal-matrix estimator), bridges
them to frequency-domain samples with an FFT, and realizes reduced-order
descriptor models through Hankel or Loewner pencils.
"""

from .errors import (
    DegenerateDenominator,
    DegenerateReference,
    DimensionError,
    FormatError,
    GridError,
    IllConditionedSaddle,
    InsufficientLags,
    MethodUnsupported,
    NoValidN,
    NotPersistentlyExciting,
    NumericalError,
    OrderError,
    OutOfRange,
    PencilIdError,
    PointCollision,
    PoleHit,
    RankDeficientRegressor,
    SingularE,
    SpectralDivisionError,
)
from .lti import (
    DescriptorModel,
    MarkovSequence,
    SignalSequence,
    descriptor_to_standard,
    discretize_zoh,
    frequency_response,
    impulse_response,
    is_stable,
    load_markov,
    load_model,
    save_markov,
    save_model,
    simulate,
)
from .dataio import (
    Dataset,
    generate_experiment,
    load_dataset,
    save_dataset,
)
from .estimation import (
    BehavioralMatrices,
    TuningConfig,
    block_hankel,
    build_behavioral,
    check_persistency,
    cross_correlation,
    data_driven_response,
    estimate_markov_ls,
    estimate_markov_smm,
    estimate_noise_variance,
    select_L0,
    select_N,
)
from .spectral import (
    FrequencySamples,
    estimate_frf_spectral,
    load_frequency_samples,
    markov_to_frequency,
)
from .pencils import (
    Pencil,
    SvdReport,
    build_hankel,
    build_loewner,
    hankel_reduce,
    loewner_reduce,
    partition,
    reduce,
    svd_order,
)
from .metrics import (
    eval_grid_logspace,
    fit_percentage,
    h2_freq_error,
    h2_impulse_error,
)
from .pipeline import (
    PipelineConfig,
    building_surrogate,
    run_baseline,
    run_benchmark,
    run_smm_hf,
    run_smm_lf,
)

__version__ = "0.1.0"
