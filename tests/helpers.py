"""Shared test utilities: fixture builders and small independent oracles."""

import tracemalloc

import numpy as np

from algaeid.classifier import PROB_FLOOR, TrainConfig, init_network
from algaeid.segmentation import Organism


def organism_from_pixels(pixels, org_id=1):
    """Build an Organism directly from (row, col) pixel coordinates."""
    px = np.array(sorted(set(map(tuple, pixels))), dtype=np.int64)
    return Organism(id=org_id, pixels=px)


def traced_peak(fn, *args):
    """Peak bytes allocated while `fn(*args)` runs, above what was allocated
    when it started, by tracemalloc's count; numpy reports its array
    buffers to tracemalloc, so their temporaries count."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not tracing:
            tracemalloc.stop()


def numpy_build():
    """numpy's version and BLAS build, which float results can depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def same_bits(a, b):
    """Whether a and b have one shape and dtype and the same bit patterns.
    Unlike np.array_equal, this tells -0.0 from 0.0 (and compares NaNs by
    their bits); it takes values of 1, 2, 4 or 8 bytes, such as float64 or
    uint16, in any memory layout."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(f"u{a.itemsize}"), b.view(f"u{b.itemsize}")))


def disk_pixels(radius, cy=0, cx=0):
    """Pixels of the inclusive rasterized disk dx^2+dy^2 <= r^2."""
    r = int(radius)
    out = []
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            if dx * dx + dy * dy <= r * r:
                out.append((cy + dy, cx + dx))
    return out


def ellipse_pixels(semi_x, semi_y, cy=0, cx=0):
    """Pixels with (dx/semi_x)^2 + (dy/semi_y)^2 <= 1."""
    out = []
    for dy in range(-int(semi_y) - 1, int(semi_y) + 2):
        for dx in range(-int(semi_x) - 1, int(semi_x) + 2):
            if (dx / semi_x) ** 2 + (dy / semi_y) ** 2 <= 1.0:
                out.append((cy + dy, cx + dx))
    return out


# --- naive morphology oracle (dense offset loops) ---

def disk_offsets(radius):
    r = int(radius)
    return [(dy, dx) for dy in range(-r, r + 1) for dx in range(-r, r + 1)
            if dx * dx + dy * dy <= r * r]


def naive_erode(img, radius):
    r = int(radius)
    padded = np.pad(img, r, mode="edge")
    h, w = img.shape
    out = np.full(img.shape, np.inf)
    for dy, dx in disk_offsets(radius):
        out = np.minimum(out, padded[r + dy:r + dy + h, r + dx:r + dx + w])
    return out


def naive_dilate(img, radius):
    r = int(radius)
    padded = np.pad(img, r, mode="edge")
    h, w = img.shape
    out = np.full(img.shape, -np.inf)
    for dy, dx in disk_offsets(radius):
        out = np.maximum(out, padded[r + dy:r + dy + h, r + dx:r + dx + w])
    return out


def oracle_dilate1(mask):
    """Per-pixel 8-neighbour dilation onto a canvas one pixel wider on each
    side: canvas pixel (y, x) sits over mask pixel (y - 1, x - 1)."""
    h, w = mask.shape
    out = np.zeros((h + 2, w + 2), dtype=bool)
    for y in range(h + 2):
        for x in range(w + 2):
            out[y, x] = any(mask[my, mx]
                            for my in range(max(y - 2, 0), min(y + 1, h))
                            for mx in range(max(x - 2, 0), min(x + 1, w)))
    return out


def naive_opening(img, radius):
    return naive_dilate(naive_erode(img, radius), radius)


def oracle_disk_is_open(big, r):
    """Whether the disk of radius `big` is the union of the translates of
    the disk of radius r that fit inside it, by listing those translates."""
    from numpy.lib.stride_tricks import sliding_window_view

    def indicator(radius):
        mask = np.zeros((2 * radius + 1, 2 * radius + 1), dtype=bool)
        for dy, dx in disk_offsets(radius):
            mask[radius + dy, radius + dx] = True
        return mask

    small = indicator(r)
    canvas = np.pad(indicator(big), r)
    fits = sliding_window_view(canvas, small.shape)[..., small].all(axis=-1)
    union = np.zeros_like(canvas)
    for ty, tx in np.argwhere(fits):
        union[ty:ty + 2 * r + 1, tx:tx + 2 * r + 1] |= small
    return np.array_equal(union, canvas)


def naive_gaussian(img, sigma):
    """Dense 2-D convolution with the truncated Gaussian kernel,
    edge-replicated borders."""
    import math
    r = math.ceil(3.0 * sigma)
    x = np.arange(-r, r + 1, dtype=np.float64)
    k1 = np.exp(-0.5 * (x / sigma) ** 2)
    k1 /= k1.sum()
    k2 = np.outer(k1, k1)
    padded = np.pad(img, r, mode="edge")
    h, w = img.shape
    out = np.zeros(img.shape)
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            out += k2[dy + r, dx + r] * padded[r + dy:r + dy + h, r + dx:r + dx + w]
    return out


def separable_gaussian(img, sigma):
    """The truncated Gaussian as two passes of shifted, weighted slices of
    the edge-padded image, one pass per axis, summed tap by tap."""
    import math
    r = math.ceil(3.0 * sigma)
    x = np.arange(-r, r + 1, dtype=np.float64)
    k = np.exp(-0.5 * (x / sigma) ** 2)
    k /= k.sum()
    h, w = img.shape
    rows = np.zeros(img.shape)
    padded = np.pad(img, ((0, 0), (r, r)), mode="edge")
    for i, weight in enumerate(k):
        rows += weight * padded[:, i:i + w]
    out = np.zeros(img.shape)
    padded = np.pad(rows, ((r, r), (0, 0)), mode="edge")
    for i, weight in enumerate(k):
        out += weight * padded[i:i + h, :]
    return out


def background_digest():
    """sha256 of the background bytes of a fixed 3-band 150x97 raw stack,
    whose sides are not whole low-pass tiles."""
    import hashlib
    from algaeid.illumination import estimate_background
    from algaeid.stack_io import ImageStack
    rng = np.random.default_rng(29)
    stack = ImageStack(bands=tuple(rng.random((150, 97)) * 1000 for _ in range(3)),
                       wavelengths_nm=(405.0, 430.0, 455.0), role_tag="raw")
    digest = hashlib.sha256()
    for band in estimate_background(stack).bands:
        digest.update(band.tobytes())
    return digest.hexdigest()


def flood_fill_components(mask):
    """Stack-based flood-fill labeling oracle, 8-connectivity, ids in
    raster-scan order of seed pixels. Returns (labels, count)."""
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=np.int32)
    count = 0
    for sy in range(h):
        for sx in range(w):
            if not mask[sy, sx] or labels[sy, sx]:
                continue
            count += 1
            stack = [(sy, sx)]
            labels[sy, sx] = count
            while stack:
                y, x = stack.pop()
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = y + dy, x + dx
                        if 0 <= ny < h and 0 <= nx < w \
                                and mask[ny, nx] and not labels[ny, nx]:
                            labels[ny, nx] = count
                            stack.append((ny, nx))
    return labels, count


def random_histogram(rng):
    """Mixed unimodal/bimodal integer histograms with empty bins."""
    bins = int(rng.integers(16, 256))
    idx = np.arange(bins)
    kind = rng.integers(0, 3)
    if kind == 0:  # unimodal
        mu = rng.uniform(0, bins)
        sd = rng.uniform(bins / 20, bins / 3)
        shape = np.exp(-0.5 * ((idx - mu) / sd) ** 2)
    elif kind == 1:  # bimodal
        mu1, mu2 = rng.uniform(0, bins, size=2)
        sd1, sd2 = rng.uniform(bins / 30, bins / 6, size=2)
        shape = (np.exp(-0.5 * ((idx - mu1) / sd1) ** 2)
                 + rng.uniform(0.2, 2.0) * np.exp(-0.5 * ((idx - mu2) / sd2) ** 2))
    else:  # rough noise
        shape = rng.random(bins)
    counts = np.floor(shape * rng.uniform(5, 500)).astype(np.int64)
    counts[rng.random(bins) < 0.3] = 0
    if counts.sum() == 0:
        counts[int(rng.integers(0, bins))] = 1
    return counts


def oracle_otsu_index(counts):
    """Exhaustive within-class variance minimization, computed from the
    literal definition: for every split, weighted squared deviation of each
    class from its own mean. Class membership is expressed by masking the
    full-length histogram (not slicing) so that moving an empty bin across
    the split leaves every sum bitwise unchanged, exactly as a zero count
    should."""
    c = np.asarray(counts, dtype=np.float64)
    n = len(c)
    idx = np.arange(n, dtype=np.float64)
    splits = np.arange(n - 1)
    lo = c[None, :] * (idx[None, :] <= splits[:, None])
    hi = c[None, :] * (idx[None, :] > splits[:, None])
    total = np.zeros(n - 1)
    for cls in (lo, hi):
        weight = cls.sum(axis=1)
        safe = np.where(weight > 0, weight, 1.0)
        mean = (cls * idx[None, :]).sum(axis=1) / safe
        dev = (cls * (idx[None, :] - mean[:, None]) ** 2).sum(axis=1)
        total += np.where(weight > 0, dev, 0.0)
    return int(np.argmin(total))


# --- convex hull oracle (gift wrapping plus half-plane membership) ---

def gift_wrap_hull(points):
    """Jarvis-march convex hull over integer (x, y) tuples; collinear
    inputs collapse to their extreme pair."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) <= 2:
        return pts
    hull = []
    start = min(pts)
    point = start
    while True:
        hull.append(point)
        candidate = pts[0] if pts[0] != point else pts[1]
        for q in pts:
            if q == point:
                continue
            cross = ((candidate[0] - point[0]) * (q[1] - point[1])
                     - (candidate[1] - point[1]) * (q[0] - point[0]))
            if cross < 0:
                candidate = q
            elif cross == 0:
                # keep the farthest collinear candidate
                d_c = (candidate[0] - point[0]) ** 2 + (candidate[1] - point[1]) ** 2
                d_q = (q[0] - point[0]) ** 2 + (q[1] - point[1]) ** 2
                if d_q > d_c:
                    candidate = q
        point = candidate
        if point == start:
            break
        if len(hull) > len(pts):
            raise AssertionError("gift wrapping failed to close")
    if len(hull) < 3:
        return [pts[0], pts[-1]]
    signed2 = sum(a[0] * b[1] - b[0] * a[1]
                  for a, b in zip(hull, hull[1:] + hull[:1]))
    return hull if signed2 > 0 else hull[::-1]


def oracle_convex_area(pixels):
    """Count bounding-box pixels inside all half-planes of the hull."""
    import math
    points = [(int(x), int(y)) for (y, x) in pixels]
    hull = gift_wrap_hull(points)
    if len(hull) == 1:
        return 1
    if len(hull) == 2:
        (x0, y0), (x1, y1) = hull
        return math.gcd(abs(x1 - x0), abs(y1 - y0)) + 1
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    count = 0
    for gy in range(min(ys), max(ys) + 1):
        for gx in range(min(xs), max(xs) + 1):
            inside = True
            for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
                if (x1 - x0) * (gy - y0) - (y1 - y0) * (gx - x0) < 0:
                    inside = False
                    break
            if inside:
                count += 1
    return count


# --- per-organism feature reference (one numpy reduction per value) ---

def reference_convex_area(org):
    """Convex area of one organism on its own: its pixels sorted by row,
    the first and last pixel of each row fed to two monotone chains over
    all of them, and the lattice points counted by Pick's theorem."""
    import math
    px = org.pixels[np.lexsort((org.pixels[:, 1], org.pixels[:, 0]))]
    new_row = np.diff(px[:, 0]) != 0
    ends = np.concatenate(([True], new_row)) | np.concatenate((new_row, [True]))
    points = px[ends].tolist()
    hull = []
    for sweep in (points, points[::-1]):
        chain = []
        for y, x in sweep:
            while len(chain) >= 2:
                (y0, x0), (y1, x1) = chain[-2], chain[-1]
                if (y1 - y0) * (x - x0) - (x1 - x0) * (y - y0) > 0:
                    break
                chain.pop()
            chain.append((y, x))
        hull += chain[:-1]
    twice_area = boundary = 0
    for (y0, x0), (y1, x1) in zip(hull, hull[1:] + hull[:1]):
        twice_area += x0 * y1 - x1 * y0
        boundary += math.gcd(abs(x1 - x0), abs(y1 - y0))
    return (abs(twice_area) - boundary) // 2 + 1 + boundary


def reference_eccentricity(org):
    """Eccentricity of one organism from `.var()` and `.mean()` of its own
    coordinates, with the +1/12 pixel term."""
    import math
    ys = org.pixels[:, 0].astype(np.float64)
    xs = org.pixels[:, 1].astype(np.float64)
    mu_xx = xs.var() + 1.0 / 12.0
    mu_yy = ys.var() + 1.0 / 12.0
    mu_xy = float(((xs - xs.mean()) * (ys - ys.mean())).mean())
    half_trace = (mu_xx + mu_yy) / 2.0
    spread = math.hypot((mu_xx - mu_yy) / 2.0, mu_xy)
    l1 = half_trace + spread
    l2 = half_trace - spread
    if l1 <= 0:
        return 0.0
    return math.sqrt(max(0.0, 1.0 - l2 / l1))


def reference_spectral_means(org, corrected):
    """`.mean()` of each band over exactly the organism's pixels."""
    ys, xs = org.pixels[:, 0], org.pixels[:, 1]
    return tuple(float(band[ys, xs].mean()) for band in corrected.bands)


def pixel_bbox(org):
    """(x_min, y_min, x_max, y_max) of an organism's pixels, inclusive."""
    ys, xs = org.pixels[:, 0], org.pixels[:, 1]
    return (int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max()))


def reference_features(org, corrected, label=None):
    """The FeatureVector of one organism, each value computed on its own."""
    import math
    from algaeid.features import FeatureVector
    x_min, y_min, x_max, y_max = pixel_bbox(org)
    return FeatureVector(
        organism_id=org.id, label=label, area=org.area,
        convex_area=reference_convex_area(org),
        eccentricity=reference_eccentricity(org),
        equivalent_diameter=math.sqrt(4.0 * org.area / math.pi),
        extent=org.area / ((x_max - x_min + 1) * (y_max - y_min + 1)),
        spectral=reference_spectral_means(org, corrected))


def random_organism(rng, max_size=14):
    """A random 8-connected component harvested from a random mask."""
    from algaeid.segmentation import connected_components
    while True:
        h = int(rng.integers(4, max_size))
        w = int(rng.integers(4, max_size))
        mask = rng.random((h, w)) < 0.55
        lab = connected_components(mask)
        if lab.count == 0:
            continue
        comp = int(rng.integers(1, lab.count + 1))
        pixels = np.argwhere(lab.labels == comp)
        return organism_from_pixels(pixels)


# --- per-run SGD oracle (one network, one mini-batch at a time) ---

def _reference_forward_trace(net, x):
    """Pre-activations and activations for every layer; x is (n, d_in)."""
    zs = []
    activations = [x]
    a = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T + b
        zs.append(z)
        if i == last:
            e = np.exp(z - z.max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
        else:
            a = np.maximum(0.0, z)
        activations.append(a)
    return zs, activations


def _reference_backward_batch(net, x, labels):
    """Mean gradients over a batch, with the output delta formed by
    subtracting 1 at each sample's label."""
    n = x.shape[0]
    zs, activations = _reference_forward_trace(net, x)
    probs = activations[-1]
    delta = probs.copy()
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grads_w = [None] * len(net.weights)
    grads_b = [None] * len(net.weights)
    for i in range(len(net.weights) - 1, -1, -1):
        grads_w[i] = delta.T @ activations[i]
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ net.weights[i]) * (zs[i - 1] > 0)
    return grads_w, grads_b


def reference_train(x, y, cfg=None, num_classes=None):
    """One network trained on its own: He-uniform init and one permutation
    per epoch from default_rng(cfg.seed), then 2-D matmuls per mini-batch.
    Returns (network, final mean loss) like one run of `train_runs`."""
    cfg = cfg or TrainConfig()
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = x.shape
    if len(np.unique(y)) < 2:
        raise ValueError("training data must contain at least 2 classes")
    k = int(num_classes) if num_classes is not None else int(y.max()) + 1

    rng = np.random.default_rng(cfg.seed)
    net = init_network(d, k, rng)
    lr = cfg.learning_rate
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            grads_w, grads_b = _reference_backward_batch(net, x[idx], y[idx])
            for i in range(len(net.weights)):
                net.weights[i] -= lr * grads_w[i]
                net.biases[i] -= lr * grads_b[i]
    _, activations = _reference_forward_trace(net, x)
    probs = activations[-1]
    p_true = np.maximum(probs[np.arange(n), y], PROB_FLOOR)
    final_loss = float(-np.log(p_true).mean())
    return net, final_loss


def reference_predict(net, x):
    """Most probable class per row of x under the oracle's forward pass."""
    return np.argmax(_reference_forward_trace(net, x)[1][-1], axis=1)
