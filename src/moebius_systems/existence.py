"""Parameter-space map for the two-hyperbolic-generator family.

One generator contracts toward 1, the other toward -1, parameterized by
their derivatives q_a, q_b in (0,1) at the stable fixed points.  For
each parameter cell we run two independent certificates:

  * cover: the closed expansion intervals of all words up to a depth
    bound cover the circle (a number system exists);
  * inward: an explicit family of word-hyperbolicity conditions plus
    parameter rectangles that force a nontrivial inward set (no number
    system can exist).

The two certificates are mutually exclusive by construction; a cell
where both fire indicates a numerical or formula bug and raises.
Cells certified by neither stay labelled unknown.

The cover search runs on numpy arrays over a batch of cells at once,
one level of words at a time: each level composes the words with both
generators, generator-major, and takes their expansion arcs, the
half-width as arctan(1/|beta|) and the centre as arg(alpha*beta); from
level 5 on, and at the last level, it sweeps each cell's arcs by sorting
their starts and their ends apart and drops the cells found covered,
compacting the other cells' arcs in place.  Each batch takes its level
arrays (the arc rows, the sweep's sorted copies, two generations of
children and the product temporary) from one workspace, allocated per
call and dropped on return, and every slot of it that a sweep or a level
reads is written first.  render_grid hands it blocks of consecutive cells
(sharded over worker processes if asked), whose generator entries come
from one array formula that two_hyperbolic_system reads too, and
cover_search is a batch of one.
The inward test stays per cell and builds no map objects: only where a
cell's parameters lie in one of the certificate's rectangles does it
fold the certificate's words over the generator entries, as Python
complexes read from the block's arrays.

numpy is imported on first use of the kernel, inside each function that
calls it, and multiprocessing only by a render of more than one block
with workers > 1: the package and every `moebius` command but
existence-map load neither.
"""

from __future__ import annotations

import json
import csv
from dataclasses import dataclass

from .errors import NotDiscPreserving, ParamOutOfRange
from .transforms import EPS_NORM, EPS_ROTATION, TAU, DiscMoebius

EPS_GAP = 1e-10    # gaps between expansion arcs narrower than this count as covered

LABEL_UNKNOWN, LABEL_COVER, LABEL_INWARD = 0, 1, 2
_PGM_VALUES = {LABEL_COVER: 255, LABEL_INWARD: 128, LABEL_UNKNOWN: 0}
_LABEL_NAMES = {LABEL_COVER: "cover", LABEL_INWARD: "inward", LABEL_UNKNOWN: "unknown"}


def two_hyperbolic_system(q_a: float, q_b: float) -> tuple[DiscMoebius, DiscMoebius]:
    """The generator pair: F_a fixes 1 (stable, derivative q_a) and -i;
    F_b fixes -1 (stable, derivative q_b) and i."""
    import numpy as np
    entries = _generator_entries(np.array([q_a], dtype=float), np.array([q_b], dtype=float))
    alpha_a, beta_a, alpha_b, beta_b = (complex(z[0]) for z in entries)
    return DiscMoebius._product(alpha_a, beta_a), DiscMoebius._product(alpha_b, beta_b)


def _generator_entries(q_a: np.ndarray, q_b: np.ndarray) -> tuple[np.ndarray, ...]:
    """Entries alpha_a, beta_a, alpha_b, beta_b of the generator pair at each
    (q_a, q_b): the one formula of the family.

    With s = 2 sqrt(q), F_a is [(1 + q_a) - (1 - q_a) i, (1 - q_a)(1 + i)] / s_a
    and F_b is [(1 + q_b) - (1 - q_b) i, -(1 - q_b)(1 + i)] / s_b, of
    determinant 1 in exact arithmetic.  Each entry is then normalised by
    the DiscMoebius constructor's arithmetic, part by part: the norm
    |alpha|^2 - |beta|^2 with |z| = hypot(Re z, Im z), as Python's abs
    computes it, and both entries times 1/sqrt of it; np.abs would differ
    from abs in the last ulp, and two_hyperbolic_system reads these
    entries as the constructor's.  Re alpha > 0, so
    the sign is canonical already.  Raises ParamOutOfRange for a q outside
    (0, 1) and NotDiscPreserving where the norm is not positive, as the
    constructor would.
    """
    import numpy as np
    for q in (q_a, q_b):
        bad = ~((0.0 < q) & (q < 1.0))
        if bad.any():
            raise ParamOutOfRange(f"parameters must lie in (0, 1); got {float(q[bad][0])}")
    entries = []
    for q in (q_a, q_b):
        s = 2.0 * np.sqrt(q)
        re, im = (1.0 + q) / s, (1.0 - q) / s   # F_a's alpha = re - im i, beta = im + im i
        a, b = np.hypot(re, im), np.hypot(im, im)
        with np.errstate(over="ignore", invalid="ignore"):  # q near 0: NaN, rejected below
            n2 = a * a - b * b
        if not (n2 > EPS_NORM).all():
            raise NotDiscPreserving(f"|alpha|^2 - |beta|^2 = {float(n2[~(n2 > EPS_NORM)][0]):.3g}"
                                    f" <= 0; not a disc-preserving pair")
        t = 1.0 / np.sqrt(n2)
        re, im = re * t, im * t
        entries += [re - 1j * im, im + 1j * im]
    alpha_a, beta_a, alpha_b, beta_b = entries
    return alpha_a, beta_a, alpha_b, -beta_b


# Word maps per level that one render block may reach: blocks of 1,024
# cells at depth <= 8, proportionally fewer cells deeper.  A block's kernel
# workspace takes 128 bytes per word map of its last level, so at most
# 32 MiB: with _v_arcs' temporaries of that level, this bounds a render's
# memory per process.
_BLOCK_WORDS = 1 << 18
# The first level the pruned cover search sweeps: an early sweep costs about
# as much as a whole early level, and a cell covered before level 5 costs at
# most 60 more word maps by waiting for the level-5 sweep.
_FIRST_SWEEP = 5


def _cover_batch(alpha_a: np.ndarray, beta_a: np.ndarray, alpha_b: np.ndarray,
                 beta_b: np.ndarray, depth: int, prune: bool = True) -> np.ndarray:
    """cover_search for a batch of cells, one generator entry per cell.

    Level-synchronous: level k holds the 2^k word maps of each active cell
    as a row of complex arrays.  Each level composes every word map with
    both generators and writes the children's expansion arcs into the
    cell's row of arcs.  The last level sweeps every row; with prune=True,
    so does each level from _FIRST_SWEEP on, dropping the cells it finds
    covered.  Which levels in between are swept moves no label: arcs only
    accumulate, so a row covered at one level is covered at the last.
    Rotations (|beta| <= EPS_ROTATION) leave padding in place of an arc,
    and their subtrees are still explored.

    starts and ends hold one row per active cell and a column per word of
    every level, 2^(depth+1) - 2 in all; the first `filled` columns hold
    the levels taken so far.  Dropping covered cells moves the kept rows'
    filled columns up in place, within the workspace, and leaves their
    later columns stale: every level writes its columns before a sweep
    reads them.

    The batch takes its level arrays from one workspace, a single float
    array allocated per call and dropped on return, laid out as
      * starts and ends, n x (2^(depth+1) - 2) each, a column written by
        its level (_v_arcs gives a rotation its padding);
      * the sweep's sorted copies of starts and of ends + EPS_GAP, the same
        size again;
      * in complex entries, two generations of the children's (alpha,
        beta): level k writes generation (depth - k) % 2, so a level never
        writes the generation its parents are read from; generation 0
        takes 2n 2^depth entries, level depth's, and generation 1 takes
        n 2^depth, level depth - 1's;
      * _children's product temporary, n 2^depth complex entries;
    128n 2^depth - 64n bytes in all, for n cells.  It is not initialised,
    and may hold what an earlier batch left: every slot a sweep or a level
    reads is written first.  A level writes its children and their product
    temporary before it reads them, its arcs before the sweep reads them,
    and the sweep its sorted copies before it sorts them.  Arrays
    allocated level by level would let the allocator trim the heap after
    one small batch and fault it back in for the next.
    """
    import numpy as np
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    if depth > 16:
        raise ValueError("depth > 16 means more than 2^17 words; refusing")
    n = len(alpha_a)
    covered = np.zeros(n, dtype=bool)
    if depth <= 0 or n == 0:
        return covered
    cells = np.arange(n)
    gens = np.stack((alpha_a, alpha_b, beta_a, beta_b), axis=1).astype(complex)
    gens = np.concatenate((gens, gens[:, [2, 3, 0, 1]].conj()), axis=1)[:, :, None]
    alpha = np.ones((n, 1), dtype=complex)
    beta = np.zeros((n, 1), dtype=complex)
    size, top = n * (2 ** (depth + 1) - 2), n << depth
    work = np.empty(4 * size + 8 * top)
    arcs, sweep = work[:2 * size].reshape(2, n, -1), work[2 * size:4 * size]
    starts, ends = arcs
    entries = work[4 * size:].view(complex)
    generations, t = (entries[:2 * top], entries[2 * top:3 * top]), entries[3 * top:]
    filled = 0
    for level in range(1, depth + 1):
        alpha, beta = _children(alpha, beta, gens, generations[(depth - level) % 2], t)
        new = slice(filled, filled + alpha.shape[1])
        filled = new.stop
        starts[:, new], ends[:, new] = _v_arcs(alpha, beta)
        if prune and level >= _FIRST_SWEEP or level == depth:
            done = _closed_arcs_cover(starts[:, :filled], ends[:, :filled], sweep)
            covered[cells[done]] = True
            if level == depth or done.all():
                break
            if done.any():
                keep = ~done
                cells, alpha, beta, gens = cells[keep], alpha[keep], beta[keep], gens[keep]
                m = len(cells)
                starts[:m, :filled] = starts[keep, :filled]
                ends[:m, :filled] = ends[keep, :filled]
                starts, ends = starts[:m], ends[:m]
    return covered


def _closed_arcs_cover(starts: np.ndarray, ends: np.ndarray,
                       scratch: np.ndarray) -> np.ndarray:
    """Sweep test, one circle per row: do the closed arcs [start, end] of
    each row cover the circle?  scratch, a flat float array of at least
    2 * starts.size entries, takes the sorted copies s and e, written before
    they are read.

    Starts lie in [0, 2*pi); an entry with start and end -inf is padding
    that never fails the sweep nor extends it, and a row of padding only
    is not covered.  Gaps narrower than EPS_GAP count as covered, and so
    does the coverage the arcs carry past 2*pi, which wraps around the
    origin.  With s the sorted starts, e the sorted fl(end + EPS_GAP),
    top the greatest end and floor = fl(fl(top - 2*pi) + EPS_GAP), a row
    is covered iff top >= 2*pi - EPS_GAP, s[0] <= floor and, for every
    k >= 1, s[k] <= max(e[k-1], floor).

    This is, float for float, the sweep over the arcs in start order that
    fails where a start s[k] lies beyond fl(max(R, top - 2*pi) + EPS_GAP),
    R the greatest end of the k arcs before it.  Rounding is monotone, so
    that bound is max(fl(R + EPS_GAP), floor), and fl(R + EPS_GAP) is the
    greatest fl(end + EPS_GAP) of those k arcs.  Every arc has
    fl(end + EPS_GAP) >= end >= start (padding too), so the k-th smallest
    fl(end + EPS_GAP), e[k-1], lies below s[k] exactly when k arcs end,
    plus EPS_GAP, below s[k]; those k arcs start below s[k], so they are
    the k arcs before it, and the sweep fails there.  Only the sorted
    values enter, so neither the order of the arcs nor which start and
    end belong together can change a verdict.
    """
    import numpy as np
    top = ends.max(axis=1)
    floor = (top - TAU) + EPS_GAP
    s, e = scratch[:2 * starts.size].reshape(2, *starts.shape)
    s[...] = starts
    s.sort(axis=1)
    np.add(ends, EPS_GAP, out=e)
    e.sort(axis=1)
    reach = np.maximum(e[:, :-1], floor[:, None], out=e[:, :-1])
    return (top >= TAU - EPS_GAP) & (s[:, 0] <= floor) & (s[:, 1:] <= reach).all(axis=1)


def _children(alpha: np.ndarray, beta: np.ndarray, gens: np.ndarray,
              out: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's W word maps composed with the row's two generators,
    generator-major: child j of word i is entry j*W + i, so each product
    runs over the words in its inner loop.  gens, of shape (n, 8, 1),
    holds each row's alpha_a, alpha_b, beta_a, beta_b and then the
    conjugates of beta_a, beta_b, alpha_a, alpha_b, taken once per batch.
    The children's alpha and beta are written into the first 4nW entries
    of the flat complex array out, and t, of at least 2nW entries, takes
    the product temporary; neither may overlap alpha or beta.
    Like DiscMoebius.compose, the products are not renormalised: the
    generators are, and a product's determinant drifts from 1 by only a
    few rounding errors per level."""
    import numpy as np
    n, w = alpha.shape
    a1, b1 = alpha[:, None, :], beta[:, None, :]
    alpha, beta = out[:4 * n * w].reshape(2, n, 2, w)
    t = t[:2 * n * w].reshape(n, 2, w)
    np.multiply(a1, gens[:, 0:2], out=alpha)
    alpha += np.multiply(b1, gens[:, 4:6], out=t)
    np.multiply(a1, gens[:, 2:4], out=beta)
    beta += np.multiply(b1, gens[:, 6:8], out=t)
    return alpha.reshape(n, -1), beta.reshape(n, -1)


def _v_arcs(alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expansion arcs [start, end] of the maps with the given entries, the
    array form of arcs._v_arc; rotations (and NaN entries) give the
    padding (-inf, -inf).

    The formula is arcs._v_arc's, half = arctan(1/|beta|) and
    center = arg(alpha*beta); the two forms differ only where numpy's
    arctan, arctan2 and complex multiply differ from math's and cmath's in
    the last ulp, and test_batched_kernel_matches_scalar_reference holds
    them to the same labels.  |beta| = 0 gives arctan(inf) = pi/2 with the
    divide warning silenced; the padding overwrites it.  alpha*beta cannot
    overflow: constructible generators have entries below about 1e8 and
    depth is at most 16, so |alpha*beta| <= (2e8)^32, about 4e265.

    The start is (center - half) % TAU, float for float, wrapped without
    the remainder: center lies in [-pi, pi] and half in [0, pi/2], so
    x = center - half lies in (-2*pi, 2*pi), where fmod(x, TAU) is x and
    x % TAU is fl(x + TAU) for x < 0 and x + 0.0 otherwise (+0.0 for -0.0).

    |beta| is np.abs(beta), several times cheaper than np.hypot on the real
    and imaginary parts and sometimes an ulp away from it.
    _generator_entries keeps np.hypot, whose entries must be the
    DiscMoebius constructor's bit for bit.
    """
    import numpy as np
    b = np.abs(beta)
    with np.errstate(divide="ignore"):  # rotations: padding below
        half = np.arctan(1.0 / b)
    p = alpha * beta
    starts = np.arctan2(p.imag, p.real) - half
    starts += np.where(starts < 0.0, TAU, 0.0)
    pad = ~(b > EPS_ROTATION)
    starts[pad] = -np.inf
    ends = starts + 2.0 * half
    ends[pad] = -np.inf  # a NaN half would leave a NaN end
    return starts, ends


def cover_search(fa: DiscMoebius, fb: DiscMoebius, depth: int) -> bool:
    """Do the closed expansion intervals of all words of length <= depth
    cover the circle?

    The coverage test, run on every level from the fifth on, stops the
    search as soon as the intervals collected so far suffice; the result
    is identical to the exhaustive scan of cover_search_unpruned because
    deeper levels only add intervals.  Word maps that come out as
    rotations contribute no interval but their subtrees are still
    explored.
    """
    import numpy as np
    entries = np.array([[fa.alpha], [fa.beta], [fb.alpha], [fb.beta]])
    return bool(_cover_batch(*entries, depth)[0])


def cover_search_unpruned(fa: DiscMoebius, fb: DiscMoebius, depth: int) -> bool:
    """Exhaustive reference enumerator: collect every interval, test once."""
    import numpy as np
    entries = np.array([[fa.alpha], [fa.beta], [fb.alpha], [fb.beta]])
    return bool(_cover_batch(*entries, depth, prune=False)[0])


def inward_region_test(q_a: float, q_b: float, n_max: int) -> bool:
    """Certificate that the generator pair has a nontrivial inward set.

    The parameter square decomposes into strips indexed by n; in each
    strip the certificate is hyperbolicity of two specific words (one for
    n = 0) combined with open rectangle constraints on (q_a, q_b).  Only
    strips with |n| <= n_max are examined.
    """
    fa, fb = two_hyperbolic_system(q_a, q_b)
    words = _certificate_words(q_a, q_b, _strips(n_max))
    return bool(words) and _hyperbolic_words(fa.alpha, fa.beta, fb.alpha, fb.beta, words)


def _hyperbolic_words(alpha_a: complex, beta_a: complex, alpha_b: complex, beta_b: complex,
                      words: tuple[str, ...]) -> bool:
    """Is the map of every word hyperbolic, t*t > 4 with t = 2 Re alpha,
    for the generators with the given entries?  Each word map is read by
    _word_entries."""
    maps = {"a": (alpha_a, beta_a), "b": (alpha_b, beta_b)}
    for word in words:
        t = 2.0 * _word_entries(maps, word)[0].real
        if not t * t > 4.0:
            return False
    return True


def _word_entries(maps: dict, word: str) -> tuple[complex, complex]:
    """The entries (alpha, beta) of the map of word, given each letter's
    entries in maps: the left fold of its letters' maps with exactly
    DiscMoebius.compose's products.  compose's canonical sign is left out:
    it negates both entries, which negates every later product exactly (a
    zero part may change sign, and no product or sum passes that on to a
    nonzero part), so the entries are compose's up to their common sign."""
    alpha, beta = maps[word[0]]
    for ch in word[1:]:
        a2, b2 = maps[ch]
        alpha, beta = alpha * a2 + beta * b2.conjugate(), alpha * b2 + beta * a2.conjugate()
    return alpha, beta


def _strips(n_max: int) -> list[tuple[int, float, float]]:
    """(n, 2^(-1/n), 2^(-1/(n + 1))) for the strips n = 1..n_max."""
    if n_max < 0:
        raise ParamOutOfRange(f"n_max must be >= 0, got {n_max}")
    bounds = [2.0 ** (-1.0 / n) for n in range(1, n_max + 2)]
    return list(zip(range(1, n_max + 1), bounds, bounds[1:]))


def _certificate_words(q_a: float, q_b: float,
                       strips: list[tuple[int, float, float]]) -> tuple[str, ...]:
    """The words whose hyperbolicity certifies an inward set at (q_a, q_b),
    none outside every rectangle.  The open rectangles are disjoint, so a
    cell lies in at most one."""
    if q_a < 0.5 and q_b < 0.5:
        return ("ab",)
    for n, lo, hi in strips:
        if lo < q_a < hi and 0.0 < q_b < 0.5:
            return ("a" * n + "b", "a" * (n + 1) + "b")
        if lo < q_b < hi and 0.0 < q_a < 0.5:
            return ("a" + "b" * n, "a" + "b" * (n + 1))
    return ()


def _cell_centre(rect: tuple[float, float, float, float], width: int, height: int,
                 row: int, col: int) -> tuple[float, float]:
    """(q_a, q_b) at the centre of the cell in the given row and column of a
    width x height grid over rect; row 0 is the top (largest q_b)."""
    x0, x1, y0, y1 = rect
    return (x0 + (col + 0.5) * (x1 - x0) / width,
            y1 - (row + 0.5) * (y1 - y0) / height)


@dataclass
class CoverageGrid:
    """Per-cell labels over the parameter rectangle.

    Row 0 is the top of the image (largest q_b); column 0 is the left
    (smallest q_a).  Cell centers are sampled.
    """

    width: int
    height: int
    depth: int
    n_max: int
    rect: tuple[float, float, float, float]  # (qa_min, qa_max, qb_min, qb_max)
    labels: np.ndarray  # uint8, shape (height, width)

    def cell_params(self, row: int, col: int) -> tuple[float, float]:
        return _cell_centre(self.rect, self.width, self.height, row, col)

    def fractions(self) -> dict[str, float]:
        import numpy as np
        total = self.labels.size
        return {
            name: float(np.count_nonzero(self.labels == code)) / total
            for code, name in _LABEL_NAMES.items()
        }

    def summary(self) -> dict:
        return {
            "resolution": [self.width, self.height],
            "depth": self.depth,
            "n_max": self.n_max,
            "rect": list(self.rect),
            "fractions": self.fractions(),
        }

    def write_pgm(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"P2\n{self.width} {self.height}\n255\n")
            for row in self.labels:
                fh.write(" ".join(str(_PGM_VALUES[int(v)]) for v in row) + "\n")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["q_a", "q_b", "label"])
            for row in range(self.height):
                for col in range(self.width):
                    qa, qb = self.cell_params(row, col)
                    writer.writerow([f"{qa:.12g}", f"{qb:.12g}",
                                     _LABEL_NAMES[int(self.labels[row, col])]])

    def write_json(self, path) -> None:
        """The summary, what each label code means and the labels, one list
        per row from the top, on one line."""
        data = {**self.summary(), "label_codes": _LABEL_NAMES, "labels": self.labels.tolist()}
        with open(path, "w") as fh:
            json.dump(data, fh)
            fh.write("\n")


def _render_block(args) -> list[int]:
    """Labels of the cells first..stop-1, numbered row by row.  Only the
    cells inside a rectangle of the inward certificate fold its words."""
    import numpy as np
    first, stop, width, height, depth, n_max, rect = args
    strips = _strips(n_max)
    qa, qb = _cell_centre(rect, width, height, *np.divmod(np.arange(first, stop), width))
    entries = _generator_entries(qa, qb)
    covered = _cover_batch(*entries, depth)
    labels = []
    for q_a, q_b, cover, *pair in zip(*(x.tolist() for x in (qa, qb, covered, *entries))):
        words = _certificate_words(q_a, q_b, strips)
        inward = bool(words) and _hyperbolic_words(*pair, words)
        if cover and inward:
            raise RuntimeError(
                f"cell ({q_a}, {q_b}) certified both covering and inward; "
                f"this contradicts their mutual exclusion and indicates a bug"
            )
        labels.append(LABEL_COVER if cover else LABEL_INWARD if inward else LABEL_UNKNOWN)
    return labels


def render_grid(width: int, height: int, depth: int, n_max: int,
                rect: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 1.0),
                workers: int = 1, on_progress=None) -> CoverageGrid:
    """Label every cell of the grid; deterministic regardless of workers.

    The cells, numbered row by row, go to the cover-search kernel in
    blocks of consecutive cells; workers > 1 spreads the blocks over a
    pool of at most one process per block.  on_progress, if given, is
    called as on_progress(rows_done, height) once per finished row, in
    order.
    """
    import numpy as np
    if width < 1 or height < 1:
        raise ValueError(f"grid size must be at least 1x1, got {width}x{height}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    # worst case ~2^(depth+1) word maps per cell
    if width * height * 2.0 ** (depth + 1) > 5e9:
        raise ValueError(
            f"{width}x{height} cells at depth {depth} exceeds the render budget"
        )
    cells, step = width * height, max(1, _BLOCK_WORDS >> max(depth, 8))
    jobs = [(first, min(first + step, cells), width, height, depth, n_max, rect)
            for first in range(0, cells, step)]
    labels = np.zeros(cells, dtype=np.uint8)

    def collect(blocks):
        for (first, stop, *_), block in zip(jobs, blocks):
            labels[first:stop] = block
            if on_progress:
                for row in range(first // width, stop // width):
                    on_progress(row + 1, height)

    processes = min(workers, len(jobs))
    if processes > 1:
        from multiprocessing import Pool
        with Pool(processes) as pool:
            collect(pool.imap(_render_block, jobs))
    else:
        collect(map(_render_block, jobs))
    return CoverageGrid(width=width, height=height, depth=depth, n_max=n_max,
                        rect=rect, labels=labels.reshape(height, width))
