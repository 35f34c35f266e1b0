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

import math
from dataclasses import dataclass

import numpy as np

from . import classifier
from .features import ModelVariant, apply_normalizer, assemble, fit_normalizer


@dataclass(frozen=True)
class ConfusionMatrix:
    """k x k counts; rows are true classes, columns predicted classes."""

    counts: np.ndarray
    class_names: tuple = ()

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


def confusion_from_predictions(y_true, y_pred, num_classes, class_names=()):
    counts = np.zeros((num_classes, num_classes), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        counts[int(t), int(p)] += 1
    return ConfusionMatrix(counts=counts, class_names=tuple(class_names))


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: int
    p_value: float
    alpha: float
    reject: bool


@dataclass
class MccvReport:
    """Per-run accuracies and confusion matrices for one variant, with the
    seed and split settings needed to reproduce them."""

    variant: ModelVariant
    accuracies: list
    confusions: list
    master_seed: int
    runs: int
    train_fraction: float
    class_names: tuple = ()

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
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
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


def t_cdf(t, df):
    """Cumulative distribution of Student's t with df degrees of freedom."""
    if df < 1:
        raise ValueError("df must be >= 1")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return 1.0 - tail if t > 0 else tail


def t_two_sided_p(t, df):
    """Two-sided p-value P(|T| >= |t|)."""
    if df < 1:
        raise ValueError("df must be >= 1")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


def paired_t_test(a, b, alpha=0.01):
    """Paired-sample t-test on per-run accuracy differences d = a - b.

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
            return TTestResult(t=0.0, df=df, p_value=1.0, alpha=alpha, reject=False)
        t = math.inf if mean > 0 else -math.inf
        return TTestResult(t=t, df=df, p_value=0.0, alpha=alpha, reject=0.0 < alpha)
    t = mean / (sd / math.sqrt(n))
    p = t_two_sided_p(t, df)
    return TTestResult(t=t, df=df, p_value=p, alpha=alpha, reject=p < alpha)


# --- Monte Carlo cross-validation ---

def mccv_split(n, train_fraction, seed):
    """Disjoint covering (train, test) index arrays: round(train_fraction*n)
    samples drawn uniformly without replacement, deterministically per seed.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    n_train = int(round(train_fraction * n))
    if n_train == 0 or n_train == n:
        raise ValueError(
            f"degenerate split: {n_train} train / {n - n_train} test from {n}"
        )
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def _run_seeds(master_seed, run_index):
    split_seed = np.random.SeedSequence([int(master_seed), int(run_index), 0])
    train_seed = int(np.random.SeedSequence(
        [int(master_seed), int(run_index), 1]).generate_state(1)[0])
    return split_seed, train_seed


def run_mccv(fvs, variant, cfg=None, runs=20, train_fraction=0.7,
             master_seed=0, class_names=()):
    """MCCV over labeled feature vectors for one variant.

    Per run: split, fit the normalizer on the training split only, train,
    and score the held-out split. The runs train together in lockstep
    (`classifier.train_runs`), each with its own seed, init and
    permutations, exactly as if trained one after another. Reports per-run
    accuracies and confusion matrices plus their mean and sample standard
    deviation.
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
    x = assemble(fvs, variant)
    k = max(int(y.max()) + 1, len(class_names))

    splits, normalizers, train_seeds = [], [], []
    for r in range(runs):
        split_seed, train_seed = _run_seeds(master_seed, r)
        train_idx, test_idx = mccv_split(len(fvs), train_fraction, split_seed)
        splits.append((train_idx, test_idx))
        normalizers.append(fit_normalizer(x[train_idx]))
        train_seeds.append(train_seed)
    trained = classifier.train_runs(
        np.stack([apply_normalizer(nrm, x[train_idx])
                  for nrm, (train_idx, _) in zip(normalizers, splits)]),
        np.stack([y[train_idx] for train_idx, _ in splits]),
        train_seeds, cfg=cfg, num_classes=k,
    )

    accuracies = []
    confusions = []
    for (net, _), nrm, (_, test_idx) in zip(trained, normalizers, splits):
        y_pred = classifier.predict_batch(net, apply_normalizer(nrm, x[test_idx]))
        cm = confusion_from_predictions(y[test_idx], y_pred, k, class_names)
        confusions.append(cm)
        accuracies.append(accuracy(cm))
    return MccvReport(
        variant=variant,
        accuracies=accuracies,
        confusions=confusions,
        master_seed=int(master_seed),
        runs=runs,
        train_fraction=train_fraction,
        class_names=tuple(class_names),
    )


# --- reporting ---

def build_report(reports, ttests=None):
    """Machine-readable summary: accuracy statistics per variant, the best
    run's confusion matrix, and pairwise test decisions."""
    doc = {"variants": {}, "ttests": []}
    for rep in reports:
        best = rep.best_run_index
        doc["variants"][rep.variant.value] = {
            "runs": rep.runs,
            "train_fraction": rep.train_fraction,
            "master_seed": rep.master_seed,
            "accuracies": list(rep.accuracies),
            "mean_accuracy": rep.mean,
            "std_accuracy": rep.std,
            "best_run_index": best,
            "best_run_confusion": rep.confusions[best].counts.tolist(),
            "class_names": list(rep.class_names),
            "per_run_confusions": [cm.counts.tolist() for cm in rep.confusions],
        }
    for name_a, name_b, res in (ttests or []):
        doc["ttests"].append({
            "a": name_a,
            "b": name_b,
            "t": res.t,
            "df": res.df,
            "p_value": res.p_value,
            "alpha": res.alpha,
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
                f"(t={tt['t']:.4g}, p={tt['p_value']:.3g}, alpha={tt['alpha']:g})"
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
