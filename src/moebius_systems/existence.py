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
one level of words at a time.  render_grid hands it blocks of
consecutive cells (sharded over worker processes if asked), and
cover_search is a batch of one.  The inward test stays per cell.
"""

from __future__ import annotations

import json
import math
import csv
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .arcs import _closed_arcs_cover
from .errors import BudgetExceeded, ParamOutOfRange
from .transforms import EPS_ROTATION, RENORM_MAX, TAU, DiscMoebius

LABEL_UNKNOWN, LABEL_COVER, LABEL_INWARD = 0, 1, 2
_PGM_VALUES = {LABEL_COVER: 255, LABEL_INWARD: 128, LABEL_UNKNOWN: 0}
_LABEL_NAMES = {LABEL_COVER: "cover", LABEL_INWARD: "inward", LABEL_UNKNOWN: "unknown"}


def two_hyperbolic_system(q_a: float, q_b: float) -> tuple[DiscMoebius, DiscMoebius]:
    """The generator pair: F_a fixes 1 (stable, derivative q_a) and -i;
    F_b fixes -1 (stable, derivative q_b) and i."""
    for q in (q_a, q_b):
        if not 0.0 < q < 1.0:
            raise ParamOutOfRange(f"parameters must lie in (0, 1); got {q}")
    sa = 2.0 * math.sqrt(q_a)
    fa = DiscMoebius(
        complex(1.0 + q_a, -(1.0 - q_a)) / sa,
        complex(1.0 - q_a, 1.0 - q_a) / sa,
    )
    sb = 2.0 * math.sqrt(q_b)
    fb = DiscMoebius(
        complex(1.0 + q_b, -(1.0 - q_b)) / sb,
        complex(-(1.0 - q_b), -(1.0 - q_b)) / sb,
    )
    return fa, fb


# Word maps per level that one render block may reach: blocks of 1,024
# cells at depth <= 8, proportionally fewer cells deeper.
_BLOCK_WORDS = 1 << 18


def _cover_batch(alpha_a: np.ndarray, beta_a: np.ndarray, alpha_b: np.ndarray,
                 beta_b: np.ndarray, depth: int, prune: bool = True) -> np.ndarray:
    """cover_search for a batch of cells, one generator entry per cell.

    Level-synchronous: level k holds the 2^k word maps of each active cell
    as a row of complex arrays.  Each level composes every word map with
    both generators, writes the children's expansion arcs into the cell's
    row of arcs and, with prune=True, sweeps each row and drops the cells
    it finds covered.  Rotations (|beta| <= EPS_ROTATION) leave padding in
    place of an arc, and their subtrees are still explored.
    """
    if depth > 16:
        raise BudgetExceeded("depth > 16 means more than 2^17 words; refusing")
    n = len(alpha_a)
    covered = np.zeros(n, dtype=bool)
    if depth <= 0 or n == 0:
        return covered
    cells = np.arange(n)
    gen_alpha = np.stack((alpha_a, alpha_b), axis=1).astype(complex)[:, None, :]
    gen_beta = np.stack((beta_a, beta_b), axis=1).astype(complex)[:, None, :]
    alpha = np.ones((n, 1), dtype=complex)
    beta = np.zeros((n, 1), dtype=complex)
    starts = np.full((n, 2 ** (depth + 1) - 2), -np.inf)  # -inf: padding
    ends = starts.copy()
    filled = 0
    for level in range(1, depth + 1):
        alpha, beta = _children(alpha, beta, gen_alpha, gen_beta)
        new = slice(filled, filled + alpha.shape[1])
        filled = new.stop
        starts[:, new], ends[:, new] = _v_arcs(alpha, beta)
        if prune or level == depth:
            done = _closed_arcs_cover(starts[:, :filled], ends[:, :filled])
            covered[cells[done]] = True
            if level == depth or done.all():
                break
            if done.any():
                keep = ~done
                cells, alpha, beta = cells[keep], alpha[keep], beta[keep]
                gen_alpha, gen_beta = gen_alpha[keep], gen_beta[keep]
                starts, ends = starts[keep], ends[keep]
    return covered


def _children(alpha: np.ndarray, beta: np.ndarray, gen_alpha: np.ndarray,
              gen_beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's word maps composed with the row's two generators (the
    children of word i are 2i and 2i + 1), renormalised as DiscMoebius
    renormalises: only below RENORM_MAX, where the difference of squares
    still carries information."""
    a1, b1 = alpha[:, :, None], beta[:, :, None]
    alpha = a1 * gen_alpha
    alpha += b1 * gen_beta.conj()
    beta = a1 * gen_beta
    beta += b1 * gen_alpha.conj()
    alpha, beta = alpha.reshape(len(alpha), -1), beta.reshape(len(beta), -1)
    abs_alpha = np.hypot(alpha.real, alpha.imag)
    small = abs_alpha < RENORM_MAX
    norm = np.ones_like(abs_alpha)
    norm[small] = np.sqrt(abs_alpha[small] ** 2
                          - np.hypot(beta.real[small], beta.imag[small]) ** 2)
    for part in (alpha.real, alpha.imag, beta.real, beta.imag):
        part /= norm  # dividing by 1.0 leaves the other entries as they are
    return alpha, beta


def _v_arcs(alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expansion arcs [start, end] of the maps with the given entries, the
    array form of arcs._v_arc; rotations give the padding (-inf, -inf)."""
    b = np.hypot(beta.real, beta.imag)
    arc = b > EPS_ROTATION
    half = np.arccos(b / np.sqrt(1.0 + b * b))
    center = np.angle(np.divide(alpha, beta.conj(), out=np.zeros_like(alpha), where=arc))
    starts = np.where(arc, (center - half) % TAU, -np.inf)
    return starts, starts + 2.0 * half


def cover_search(fa: DiscMoebius, fb: DiscMoebius, depth: int, prune: bool = True) -> bool:
    """Do the closed expansion intervals of all words of length <= depth
    cover the circle?

    With prune=True the level-by-level coverage test stops the search as
    soon as the intervals collected so far suffice; the result is
    identical to the exhaustive scan because deeper levels only add
    intervals.  Word maps that come out as rotations contribute no
    interval but their subtrees are still explored.
    """
    entries = np.array([[fa.alpha], [fa.beta], [fb.alpha], [fb.beta]])
    return bool(_cover_batch(*entries, depth, prune)[0])


def cover_search_unpruned(fa: DiscMoebius, fb: DiscMoebius, depth: int) -> bool:
    """Exhaustive reference enumerator: collect every interval, test once."""
    return cover_search(fa, fb, depth, prune=False)


def _is_hyperbolic_word(fa: DiscMoebius, fb: DiscMoebius, word: str) -> bool:
    f = None
    for ch in word:
        g = fa if ch == "a" else fb
        f = g if f is None else f.compose(g)
    return f.trace_squared > 4.0


def inward_region_test(q_a: float, q_b: float, n_max: int) -> bool:
    """Certificate that the generator pair has a nontrivial inward set.

    The parameter square decomposes into strips indexed by n; in each
    strip the certificate is hyperbolicity of two specific words (one for
    n = 0) combined with open rectangle constraints on (q_a, q_b).  Only
    strips with |n| <= n_max are examined.
    """
    if n_max < 0:
        raise ParamOutOfRange("n_max must be >= 0")
    fa, fb = two_hyperbolic_system(q_a, q_b)
    if q_a < 0.5 and q_b < 0.5 and _is_hyperbolic_word(fa, fb, "ab"):
        return True
    for n in range(1, n_max + 1):
        lo, hi = 2.0 ** (-1.0 / n), 2.0 ** (-1.0 / (n + 1))
        if lo < q_a < hi and 0.0 < q_b < 0.5:
            if _is_hyperbolic_word(fa, fb, "a" * n + "b") and \
               _is_hyperbolic_word(fa, fb, "a" * (n + 1) + "b"):
                return True
        if lo < q_b < hi and 0.0 < q_a < 0.5:
            if _is_hyperbolic_word(fa, fb, "a" + "b" * n) and \
               _is_hyperbolic_word(fa, fb, "a" + "b" * (n + 1)):
                return True
    return False


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
        x0, x1, y0, y1 = self.rect
        qa = x0 + (col + 0.5) * (x1 - x0) / self.width
        qb = y1 - (row + 0.5) * (y1 - y0) / self.height
        return qa, qb

    def fractions(self) -> dict[str, float]:
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
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=2)
            fh.write("\n")


def _label_cell(qa: float, qb: float, covered: bool, n_max: int) -> int:
    inward = inward_region_test(qa, qb, n_max)
    if covered and inward:
        raise RuntimeError(
            f"cell ({qa}, {qb}) certified both covering and inward; "
            f"this contradicts their mutual exclusion and indicates a bug"
        )
    if covered:
        return LABEL_COVER
    if inward:
        return LABEL_INWARD
    return LABEL_UNKNOWN


def _render_block(args) -> list[int]:
    """Labels of the cells first..stop-1, numbered row by row."""
    first, stop, width, height, depth, n_max, rect = args
    x0, x1, y0, y1 = rect
    params = []
    for cell in range(first, stop):
        row, col = divmod(cell, width)
        params.append((x0 + (col + 0.5) * (x1 - x0) / width,
                       y1 - (row + 0.5) * (y1 - y0) / height))
    entries = np.array([(fa.alpha, fa.beta, fb.alpha, fb.beta)
                        for fa, fb in (two_hyperbolic_system(qa, qb) for qa, qb in params)])
    covered = _cover_batch(*entries.T, depth)
    return [_label_cell(qa, qb, c, n_max) for (qa, qb), c in zip(params, covered)]


def render_grid(width: int, height: int, depth: int, n_max: int,
                rect: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 1.0),
                workers: int = 1, on_progress=None) -> CoverageGrid:
    """Label every cell of the grid; deterministic regardless of workers.

    The cells, numbered row by row, go to the cover-search kernel in
    blocks of consecutive cells; workers > 1 spreads the blocks over a
    process pool.  on_progress, if given, is called as
    on_progress(rows_done, height) once per finished row, in order.
    """
    # worst case ~2^(depth+1) word maps per cell
    if width * height * 2.0 ** (depth + 1) > 5e9:
        raise BudgetExceeded(
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

    if workers > 1:
        with Pool(workers) as pool:
            collect(pool.imap(_render_block, jobs))
    else:
        collect(map(_render_block, jobs))
    return CoverageGrid(width=width, height=height, depth=depth, n_max=n_max,
                        rect=rect, labels=labels.reshape(height, width))
