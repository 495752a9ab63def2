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
"""

from __future__ import annotations

import json
import math
import csv
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from .arcs import _closed_arcs_cover, _v_arc
from .errors import BudgetExceeded, ParamOutOfRange
from .transforms import RENORM_MAX, DiscMoebius

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


def cover_search(fa: DiscMoebius, fb: DiscMoebius, depth: int, prune: bool = True) -> bool:
    """Do the closed expansion intervals of all words of length <= depth
    cover the circle?

    With prune=True the level-by-level coverage test stops the search as
    soon as the intervals collected so far suffice; the result is
    identical to the exhaustive scan because deeper levels only add
    intervals.  Word maps that come out as rotations contribute no
    interval but their subtrees are still explored.
    """
    if depth > 16:
        raise BudgetExceeded("depth > 16 means more than 2^17 words; refusing")
    gens = ((fa.alpha, fa.beta), (fb.alpha, fb.beta))
    renorm_max = RENORM_MAX
    arcs = []
    level = [(1.0 + 0j, 0j)]
    for _ in range(depth):
        nxt = []
        for a1, b1 in level:
            for a2, b2 in gens:
                na = a1 * a2 + b1 * b2.conjugate()
                nb = a1 * b2 + b1 * a2.conjugate()
                if abs(na) < renorm_max:  # see DiscMoebius: the difference cancels at scale
                    norm = math.sqrt(abs(na) ** 2 - abs(nb) ** 2)
                    na, nb = na / norm, nb / norm
                nxt.append((na, nb))
                arc = _v_arc(na, nb)
                if arc is not None:
                    arcs.append(arc)
        level = nxt
        if prune and _closed_arcs_cover(arcs):
            return True
    return _closed_arcs_cover(arcs) if not prune else False


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


def _label_cell(qa: float, qb: float, depth: int, n_max: int) -> int:
    fa, fb = two_hyperbolic_system(qa, qb)
    covered = cover_search(fa, fb, depth)
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


def _render_row(args) -> list[int]:
    row, width, height, depth, n_max, rect = args
    x0, x1, y0, y1 = rect
    out = []
    for col in range(width):
        qa = x0 + (col + 0.5) * (x1 - x0) / width
        qb = y1 - (row + 0.5) * (y1 - y0) / height
        out.append(_label_cell(qa, qb, depth, n_max))
    return out


def render_grid(width: int, height: int, depth: int, n_max: int,
                rect: tuple[float, float, float, float] = (0.0, 1.0, 0.0, 1.0),
                workers: int = 1, on_progress=None) -> CoverageGrid:
    """Label every cell of the grid; deterministic regardless of workers.

    on_progress, if given, is called as on_progress(rows_done, height)
    after each finished row (in order).
    """
    # worst case ~2^(depth+1) word maps per cell
    if width * height * 2.0 ** (depth + 1) > 5e9:
        raise BudgetExceeded(
            f"{width}x{height} cells at depth {depth} exceeds the render budget"
        )
    jobs = [(row, width, height, depth, n_max, rect) for row in range(height)]
    rows = []
    if workers > 1:
        with Pool(workers) as pool:
            for row in pool.imap(_render_row, jobs):
                rows.append(row)
                if on_progress:
                    on_progress(len(rows), height)
    else:
        for j in jobs:
            rows.append(_render_row(j))
            if on_progress:
                on_progress(len(rows), height)
    labels = np.array(rows, dtype=np.uint8)
    return CoverageGrid(width=width, height=height, depth=depth, n_max=n_max,
                        rect=rect, labels=labels)
