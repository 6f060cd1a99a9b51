"""Task-oriented feature-subset optimization for path loss prediction.

A Bernoulli selection policy over binary feature masks, refined by
evolutionary search and elite-guided moving-average updates, scored by a
composite of prediction RMSE, trend-consistency error, and feature
compactness, on synthetic propagation scenarios.
"""

from .baselines import (
    MIRanking,
    full_feature_mask,
    mi_category_subset,
    mi_ranking,
    mutual_information,
    random_subset_mask,
)
from .dataset import (
    Dataset,
    Sample,
    build_dataset,
    concat_datasets,
    read_csv,
    split_dataset,
    standardize,
    write_csv,
)
from .predictor import (
    Candidate,
    PredictorConfig,
    PredictorModel,
    evaluate_mask,
    evaluate_masks,
    fit,
    predict,
)
from .scenario import (
    FeatureCatalog,
    Scatterer,
    Scene,
    SceneConfig,
    extract_features,
    generate_scene,
    ground_truth_path_loss,
    scene_features_and_path_loss,
)
from .scoring import (
    ScoreBreakdown,
    ScoreWeights,
    rmse,
    total_score,
    trend_consistency_error,
)
from .search import (
    GenerationRecord,
    SearchConfig,
    SearchResult,
    crossover,
    elite_mean,
    mutate,
    normalized_entropy,
    population_diversity,
    run_search,
    sample_population,
    select_elites,
    update_policy,
)

__version__ = "0.1.0"
