"""Independent computations the benchmark checks the program's outputs
against. None of them calls into algaeid."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np


class CheckFailed(AssertionError):
    """A program output disagrees with an oracle or a required property."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def gaussian_lowpass(band, sigma):
    """Separable Gaussian, kernel truncated at ceil(3 sigma), edge-replicated."""
    r = math.ceil(3.0 * sigma)
    k = np.exp(-0.5 * (np.arange(-r, r + 1) / sigma) ** 2)
    k /= k.sum()
    h, w = band.shape
    rows = np.pad(band, ((0, 0), (r, r)), mode="edge")
    tmp = sum(k[i] * rows[:, i:i + w] for i in range(2 * r + 1))
    cols = np.pad(tmp, ((r, r), (0, 0)), mode="edge")
    return sum(k[i] * cols[i:i + h, :] for i in range(2 * r + 1))


def otsu_index_exact(counts):
    """Split index minimizing the within-class variance, found by trying
    every split with exact rational arithmetic. Returns (index, objective
    per split)."""
    counts = [int(c) for c in counts]
    total_w = sum(counts)
    total_m = sum(i * c for i, c in enumerate(counts))
    total_s = sum(i * i * c for i, c in enumerate(counts))
    objective = []
    w0 = m0 = s0 = 0
    for k in range(len(counts) - 1):
        w0 += counts[k]
        m0 += k * counts[k]
        s0 += k * k * counts[k]
        w1, m1, s1 = total_w - w0, total_m - m0, total_s - s0
        within = Fraction(0)
        if w0:
            within += s0 - Fraction(m0 * m0, w0)
        if w1:
            within += s1 - Fraction(m1 * m1, w1)
        objective.append(within)
    best = min(range(len(objective)), key=lambda k: (objective[k], k))
    return best, objective


def flood_fill(fg):
    """8-connected component ids by flood fill, numbered in raster order of
    each component's first pixel. Returns (labels, count)."""
    h, w = fg.shape
    mask = fg.tolist()
    labels = [[0] * w for _ in range(h)]
    count = 0
    for sy, sx in np.argwhere(fg).tolist():
        if labels[sy][sx]:
            continue
        count += 1
        labels[sy][sx] = count
        todo = [(sy, sx)]
        while todo:
            y, x = todo.pop()
            for ny in (y - 1, y, y + 1):
                if not 0 <= ny < h:
                    continue
                row, lab = mask[ny], labels[ny]
                for nx in (x - 1, x, x + 1):
                    if 0 <= nx < w and row[nx] and not lab[nx]:
                        lab[nx] = count
                        todo.append((ny, nx))
    return np.array(labels, dtype=np.int64), count


def majority_truth(labels, truth):
    """For each component id of `labels`, the truth id covering most of its
    pixels (ties to the smaller id), or 0 when it overlaps no truth pixel."""
    both = (labels > 0) & (truth > 0)
    ids, counts = np.unique(
        np.stack([labels[both], truth[both]], axis=1), axis=0, return_counts=True)
    best = {}
    for (lab, tru), c in zip(ids.tolist(), counts.tolist()):
        if lab not in best or c > best[lab][1]:
            best[lab] = (tru, c)
    return {lab: tru for lab, (tru, _) in best.items()}


def t_two_sided_p(t, df, steps=4000):
    """P(|T| >= |t|) by Simpson integration of the Student t density over
    the tail, with x = |t| / u mapping (|t|, inf) onto (0, 1]."""
    if t == 0.0:
        return 1.0
    if math.isinf(t):
        return 0.0
    c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
    a = abs(t)

    def integrand(u):
        if u == 0.0:
            return 0.0
        x = a / u
        return c * (1.0 + x * x / df) ** (-(df + 1) / 2) * a / (u * u)

    h = 1.0 / steps
    total = integrand(0.0) + integrand(1.0)
    for i in range(1, steps):
        total += (4.0 if i % 2 else 2.0) * integrand(i * h)
    return 2.0 * total * h / 3.0


def read_pgm(path):
    """Binary 16-bit PGM as written by a plain P5 encoder (no comments)."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    require(header is not None and int(header[3]) > 255, f"{path}: not a 16-bit P5 PGM")
    w, h = int(header[1]), int(header[2])
    raster = data[header.end():header.end() + 2 * w * h]
    return np.frombuffer(raster, dtype=">u2").reshape(h, w).astype(np.int64)
