"""Monte Carlo cross-validation, accuracy statistics, and the pairwise
paired-sample t-test used to compare classifier variants.

Each run draws a fresh train/test split without replacement, fits the
normalizer on the training split only, trains a network, and scores the
held-out samples. All randomness derives from (master seed, run index),
and the split schedule depends only on those two, so different variants
evaluated with the same master seed see identical splits run by run; that
index pairing is what makes the paired t-test valid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import classifier, fields
from .features import ModelVariant, assemble


@dataclass(frozen=True)
class ConfusionMatrix:
    """k x k counts; rows are true classes, columns predicted classes."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError(f"confusion matrix must be square, got {c.shape}")
        if np.any(c < 0):
            raise ValueError("confusion matrix entries must be non-negative")
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    @property
    def total(self):
        return int(self.counts.sum())


def accuracy(cm):
    """Trace over total: the fraction of evaluated samples predicted
    correctly."""
    total = cm.total
    if total == 0:
        raise ValueError("confusion matrix is empty")
    return float(np.trace(cm.counts)) / total


def confusion_from_predictions(y_true, y_pred, num_classes):
    k = int(num_classes)
    cells = k * np.asarray(y_true, dtype=np.int64) + np.asarray(y_pred, dtype=np.int64)
    return ConfusionMatrix(counts=np.bincount(cells, minlength=k * k).reshape(k, k))


# significance level of every paired t-test, the paper's
ALPHA = 0.01

# share of the samples each MCCV run trains on, the paper's 70/30 split
TRAIN_FRACTION = 0.7


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: int
    p_value: float

    @property
    def reject(self):
        return self.p_value < ALPHA


@dataclass(frozen=True)
class MccvReport:
    """Per-run confusion matrices, and so accuracies, for one variant, with
    the master seed needed to reproduce them."""

    variant: ModelVariant
    confusions: tuple
    master_seed: int
    class_names: tuple = ()

    @property
    def runs(self):
        return len(self.confusions)

    @property
    def accuracies(self):
        return [accuracy(cm) for cm in self.confusions]

    @property
    def mean(self):
        return float(np.mean(self.accuracies))

    @property
    def std(self):
        return float(np.std(self.accuracies, ddof=1))

    @property
    def best_run_index(self):
        return int(np.argmax(self.accuracies))


# --- Student's t distribution (regularized incomplete beta route) ---

def _betacf(a, b, x):
    """Continued fraction for the incomplete beta function (modified
    Lentz's method)."""
    max_iter = 300
    eps = 3e-16
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        # the even and then the odd step of the fraction
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < fpmin:
                d = fpmin
            c = 1.0 + aa / c
            if abs(c) < fpmin:
                c = fpmin
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a, b, x):
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if x < 0.0 or x > 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_two_sided_p(t, df):
    """Two-sided p-value P(|T| >= |t|)."""
    if df < 1:
        raise ValueError("df must be >= 1")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


def paired_t_test(a, b):
    """Paired-sample t-test at level `ALPHA` on per-run accuracy differences d = a - b.

    Degenerate conventions: identical lists give p = 1 and no rejection;
    zero-variance differences with a nonzero mean give an infinite t,
    p = 0, and rejection.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired samples must be 1-D lists of equal length")
    n = len(a)
    if n < 2:
        raise ValueError("paired t-test needs at least 2 pairs")
    d = a - b
    df = n - 1
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, df=df, p_value=1.0)
        t = math.inf if mean > 0 else -math.inf
        return TTestResult(t=t, df=df, p_value=0.0)
    t = mean / (sd / math.sqrt(n))
    p = t_two_sided_p(t, df)
    return TTestResult(t=t, df=df, p_value=p)


# --- Monte Carlo cross-validation ---

@dataclass(frozen=True)
class MccvConfig:
    """The `mccv` config section: `run_mccv`'s run settings. `runs` is
    range-checked there."""
    runs: int = 20
    master_seed: int = 0

    def __post_init__(self):
        fields.coerce(self)
        fields.non_negative(self, "master_seed")


def mccv_split(n, seed):
    """Disjoint covering (train, test) index arrays: round(TRAIN_FRACTION*n)
    samples drawn uniformly without replacement, deterministically per seed.
    Both parts are non-empty for every n >= 2.
    """
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    n_train = int(round(TRAIN_FRACTION * n))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def _run_seeds(master_seed, run_index):
    split_seed = np.random.SeedSequence([int(master_seed), int(run_index), 0])
    train_seed = int(np.random.SeedSequence(
        [int(master_seed), int(run_index), 1]).generate_state(1)[0])
    return split_seed, train_seed


def run_mccv(fvs, variants, cfg=None, runs=MccvConfig.runs,
             master_seed=MccvConfig.master_seed, class_names=()):
    """MCCV over labeled feature vectors; one report per variant, in order.

    Per run: split, then fit each variant's model on the training split
    alone, and score the held-out split through that model. Every variant
    sees the same splits and train seeds run by run. All variants' runs are
    fit in one `classifier.fit_models` call, which trains them together,
    each with its own seed, exactly as if trained one after another.
    Reports per-run accuracies and confusion matrices plus their mean and
    sample standard deviation.
    """
    cfg = cfg or classifier.TrainConfig()
    if runs < 2:
        raise ValueError("runs must be >= 2")
    labels = [fv.label for fv in fvs]
    if any(lab is None for lab in labels):
        raise ValueError("every feature vector must carry a label")
    y = np.array(labels, dtype=np.int64)
    if len(np.unique(y)) < 2:
        raise ValueError("dataset must contain at least 2 classes")
    xs = [assemble(fvs, variant) for variant in variants]
    # one class per name, else per label up to the largest; a test split
    # may hold a label that no training split does, so all are checked here
    k = len(class_names) or int(y.max()) + 1
    if y.max() >= k:
        raise ValueError(f"num_classes={k} too small for labels up to {y.max()}")

    split_seeds, train_seeds = zip(*(_run_seeds(master_seed, r) for r in range(runs)))
    splits = [mccv_split(len(fvs), seed) for seed in split_seeds]
    models = classifier.fit_models(
        [(variant, x, train, seed) for variant, x in zip(variants, xs)
         for (train, _), seed in zip(splits, train_seeds)],
        y, cfg=cfg, num_classes=k, class_names=class_names)
    return [MccvReport(
        variant=variant,
        confusions=tuple(confusion_from_predictions(y[test], model.predict_features(x[test]), k)
                         for (model, _), (_, test) in zip(models[v * runs:], splits)),
        master_seed=int(master_seed),
        class_names=tuple(class_names),
    ) for v, (variant, x) in enumerate(zip(variants, xs))]


# --- reporting ---

def build_report(reports):
    """Machine-readable summary: accuracy statistics per variant, the best
    run's confusion matrix, and a paired t-test of every pair of reports, in
    report order. A degenerate test's infinite t is written as the string
    "inf" or "-inf", which JSON can hold."""
    doc = {"variants": {}, "ttests": []}
    for rep in reports:
        best = rep.best_run_index
        doc["variants"][rep.variant.value] = {
            "runs": rep.runs,
            "train_fraction": TRAIN_FRACTION,
            "master_seed": rep.master_seed,
            "accuracies": list(rep.accuracies),
            "mean_accuracy": rep.mean,
            "std_accuracy": rep.std,
            "best_run_index": best,
            "best_run_confusion": rep.confusions[best].counts.tolist(),
            "class_names": list(rep.class_names),
            "per_run_confusions": [cm.counts.tolist() for cm in rep.confusions],
        }
    for rep_a, rep_b in itertools.combinations(reports, 2):
        res = paired_t_test(rep_a.accuracies, rep_b.accuracies)
        doc["ttests"].append({
            "a": rep_a.variant.value,
            "b": rep_b.variant.value,
            "t": res.t if math.isfinite(res.t) else str(res.t),
            "df": res.df,
            "p_value": res.p_value,
            "alpha": ALPHA,
            "reject": res.reject,
        })
    return doc


def render_report_text(doc):
    """Human-readable report: mean/std block, pairwise decisions, and the
    best-run confusion matrix per variant."""
    lines = []
    lines.append("Identification accuracy (mean +/- std over MCCV runs)")
    lines.append("-" * 54)
    for name, v in doc["variants"].items():
        lines.append(
            f"{name:>10}: {100 * v['mean_accuracy']:5.1f}% +/- "
            f"{100 * v['std_accuracy']:.1f}%   "
            f"({v['runs']} runs, {round(100 * v['train_fraction'])}/"
            f"{round(100 * (1 - v['train_fraction']))} train/test split)"
        )
    if doc["ttests"]:
        lines.append("")
        lines.append("Pairwise paired-sample t-tests")
        lines.append("-" * 54)
        for tt in doc["ttests"]:
            verdict = "yes" if tt["reject"] else "no"
            lines.append(
                f"{tt['a']} vs {tt['b']}: reject null: {verdict}   "
                f"(t={float(tt['t']):.4g}, p={tt['p_value']:.3g}, alpha={tt['alpha']:g})"
            )
    for name, v in doc["variants"].items():
        lines.append("")
        lines.append(f"Best-run confusion matrix, {name} "
                     f"(run {v['best_run_index']}, rows true / cols predicted)")
        names = v["class_names"] or [str(i) for i in range(len(v["best_run_confusion"]))]
        width = max(len(str(n)) for n in names) + 2
        header = " " * width + "".join(f"{str(n):>{width}}" for n in names)
        lines.append(header)
        for cname, row in zip(names, v["best_run_confusion"]):
            lines.append(f"{str(cname):>{width}}" +
                         "".join(f"{c:>{width}}" for c in row))
    return "\n".join(lines) + "\n"
