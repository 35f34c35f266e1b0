"""Automated identification of algae from multi-band fluorescence imagery.

Pipeline stages: illumination correction, per-band Otsu segmentation
with the union of the band masks and connected-component grouping,
spectral-morphological feature extraction, a small feedforward
classifier, and a Monte Carlo cross-validation harness. A deterministic synthetic-scene generator stands
in for microscope data so the whole pipeline runs end to end.
"""

from .classifier import (Network, TrainConfig, TrainedModel, backward,
                         fit_models, forward_batch, load_model, loss, predict_batch,
                         relu, save_model, softmax, train, train_runs)
from .evaluation import (ConfusionMatrix, MccvReport, TTestResult, accuracy,
                         build_report, mccv_split, paired_t_test,
                         render_report_text, run_mccv, t_two_sided_p)
from .features import (FeatureVector, ModelVariant, Normalizer,
                       apply_normalizer, assemble, compute_features,
                       equivalent_diameter, extent, feature_vectors,
                       fit_normalizer, read_features_csv, write_features_csv)
from .illumination import (CorrectionConfig, estimate_background,
                           gaussian_lowpass, morphological_opening,
                           subtract_background)
from .segmentation import (LabelMap, Organism, binarize, connected_components,
                           extract_organisms, fuse_masks, otsu_threshold,
                           segment)
from .stack_io import ImageStack, load_stack, save_stack
from .synthgen import (SceneSpec, SpeciesSpec, default_catalog,
                       generate_corpus, generate_scene)

__version__ = "0.1.0"
