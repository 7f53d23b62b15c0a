"""The dense k > 0 engine: histogram laws folded one message at a time, and the k > 0 pair.

A law of N messages over d symbols is one dense array of shape
(S,)*(d-1), indexed by the counts of symbols 0..d-2 (the last count is
implied).  Each message is added in place, one block of cells at a time
(`_fold`), so a law takes one array and a fixed scratch.  The pair
(T_{n,k}, T_{n,k+1}) with k > 0 folds its last message once per block
into both laws (`_pair_blocks`), for the atoms (`_fold_atoms`, which
`exact_dist.lr_atoms` calls at k > 0) and for the dense ratio table that
the sampler and the diagnostics read (`_ratio_table`).  The k = 0 pair
never folds: it is the closed-form chain of `exact_dist`.
"""

import numpy as np

from .channels import Channel, _Record
from .exact_dist import LrAtomization, _atomize, _check_cap, _fsum, _kept_cells
from .records import DEFAULT_ATOM_CAP, Composition, _table_to_csv


class HistogramLaw(_Record):
    """Exact law of the message histogram, as a dense array.

    `mass[h_0, ..., h_{d-2}]` is the mass of the histogram whose last count
    is n minus the others.  `renormalized_by` is the factor applied to make
    the masses sum to one after the convolution (within ~1e-12 of 1).
    """

    n: int
    d: int
    mass: np.ndarray
    renormalized_by: float = 1.0

    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Count vectors (rows) and masses of the positive cells, in descending lexicographic order."""
        pos, counts = _descending_cells(self.mass > 0.0)
        return counts, self.mass.ravel()[pos]


# Cells per block of the in-place fold (`_blocks`): each message is added
# one block of axis-0 slabs at a time, so its scratch is of this size.
_FOLD_BLOCK = 1 << 14


def _fold_block(law: np.ndarray, W: np.ndarray, box: tuple, out: np.ndarray, product: np.ndarray) -> np.ndarray:
    """The cells `box` of `law` with one message drawn from W added.

    A law of N messages is held in an array of its final shape (S,)*(d-1),
    indexed by the counts of symbols 0..d-2 (the count of symbol d-1 is
    implied), and is zero at counts summing beyond N.  `box` (from `_blocks`)
    is a run of axis-0 slabs lo..hi-1 trimmed, on the other axes, to the
    counts below N+2-lo, which hold every cell of those slabs after the
    message.  The block reads slabs lo-1..hi-1 of `law` in that trim; its
    new cells are written to the front of the flat buffer `out` and returned
    as a view of it, and the flat buffer `product` holds the products
    W[y] * law.  Terms are added with y = d-1 first and then downwards,
    which makes every cell the same floating-point sum as a fold over
    histograms taken in descending lexicographic order; a term from off the
    support adds an exact +0.0.
    """
    src = law[box]
    res = out[: src.size].reshape(src.shape)
    prod = product[: src.size].reshape(src.shape)
    np.multiply(src, W[-1], out=res)
    for y in range(W.size - 2, 0, -1):
        lower = (slice(None),) * y + (slice(None, -1),)
        upper = res[(slice(None),) * y + (slice(1, None),)]
        np.add(upper, np.multiply(src[lower], W[y], out=prod[lower]), out=upper)
    # symbol 0 raises count 0: slab a takes the old slab a-1
    lo, hi = box[0].start, box[0].stop
    first = 1 if lo == 0 else 0
    below = law[(slice(lo + first - 1, hi - 1),) + box[1:]]
    upper = res[first:]
    np.add(upper, np.multiply(below, W[0], out=prod[first:]), out=upper)
    return res


def _blocks(law: np.ndarray, N: int):
    """The boxes that fold one message into `law`, a law of N messages, top slab first.

    Each is a run of axis-0 slabs holding about _FOLD_BLOCK cells (at least
    one slab), trimmed on the other axes as `_fold_block` describes.  Walked
    in this order, a block in place reads only slabs not yet overwritten.
    """
    rows = max(1, _FOLD_BLOCK // (N + 2) ** (law.ndim - 1))
    for hi in range(N + 2, 0, -rows):
        lo = max(0, hi - rows)
        yield (slice(lo, hi),) + (slice(0, N + 2 - lo),) * (law.ndim - 1)


def _block_buffers(law: np.ndarray, count: int) -> list:
    """`count` flat buffers with room for any block of a fold into `law`."""
    size = min(law.size, max(_FOLD_BLOCK, law.shape[0] ** (law.ndim - 1)))
    return [np.empty(size) for _ in range(count)]


def _fold(law: np.ndarray, N: int, messages) -> None:
    """Add one message drawn from each of `messages`, in order, to `law` (a
    law of N messages in an array of its final shape), in place."""
    out, product = _block_buffers(law, 2)
    for N, W in enumerate(messages, N):
        for box in _blocks(law, N):
            law[box] = _fold_block(law, W, box, out, product)


def _dense_shape(n: int, d: int, cap: int) -> tuple:
    """The shape (n+1,)*(d-1) of a dense law of n messages, refused beyond `cap` cells."""
    _check_cap((n + 1) ** (d - 1), f"dense histogram law for {n} messages, d={d}", cap)
    return (n + 1,) * (d - 1)


def _base_law(channel: Channel, zeros: int, ones: int, room: int, cap: int) -> tuple[np.ndarray, float]:
    """Renormalized dense law of `zeros` W0- then `ones` W1-messages and its factor.

    The law is held in an array with room for `room` more messages, so that
    they can be folded in place.  Raises EnumerationCapError when that array
    has more than `cap` cells.
    """
    law = np.zeros(_dense_shape(zeros + ones + room, channel.d, cap))
    law[(0,) * (channel.d - 1)] = 1.0
    _fold(law, 0, [channel.W0] * zeros + [channel.W1] * ones)
    factor = 1.0 / _fsum(law[law > 0.0])
    law *= factor
    return law, factor


def _descending_cells(keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices and full count vectors of the cells where `keep` holds,
    in descending lexicographic order (the reverse of C order)."""
    pos = keep.size - 1 - np.flatnonzero(keep.ravel()[::-1])
    head = np.unravel_index(pos, keep.shape)
    counts = np.column_stack(head + (keep.shape[0] - 1 - sum(head),))
    return pos, counts


def histogram_law(channel: Channel, comp: Composition, cap: int = DEFAULT_ATOM_CAP) -> HistogramLaw:
    """Exact law of the histogram for n users of which k have input one.

    Users are folded in one at a time, all input-0 users first (the law only
    depends on (n, k) by exchangeability), in place in the one array of the
    law.  `HistogramLaw.cells` lists the histograms of positive mass.

    Raises:
        EnumerationCapError: the dense law would exceed `cap` cells.
    """
    law, factor = _base_law(channel, comp.n - comp.k, comp.k, 0, cap)
    return HistogramLaw(n=comp.n, d=channel.d, mass=law, renormalized_by=factor)


def mean_histogram(channel: Channel, comp: Composition) -> np.ndarray:
    """E[N] = (n-k) W0 + k W1, exactly."""
    return (comp.n - comp.k) * channel.W0 + comp.k * channel.W1


def law_to_csv(law: HistogramLaw, header_lines: tuple[str, ...] = ()) -> str:
    """Serialize a histogram law with columns h_0,...,h_{d-1},prob."""
    columns = tuple(f"h_{i}" for i in range(law.d)) + ("prob",)
    counts, mass = law.cells()
    return _table_to_csv(columns, np.column_stack((counts, mass))[::-1], header_lines)


# ---------------------------------------------------------------------------
# the k > 0 pair


def _pair_blocks(channel: Channel, null: np.ndarray):
    """The pair `null` + one W0- against `null` + one W1-message, one block of the last message at a time.

    `null` is a `_base_law` array with room for the last message, which alone runs over the boxes
    of `_blocks`, yielding [p_null, p_alt, lr, box]: the box's masses under the two laws
    (`_fold_block`) and their quotient, read only where `_kept_cells` keeps, all scratch that the
    next block overwrites.  A reader may write the null block into `null[box]`, as `_fold` does.
    """
    W0, W1 = channel.W0, channel.W1
    null_out, alt_out, product = _block_buffers(null, 3)
    for box in _blocks(null, null.shape[0] - 2):
        p_null, p_alt = _fold_block(null, W0, box, null_out, product), _fold_block(null, W1, box, alt_out, product)
        with np.errstate(all="ignore"):  # 0/0, x/0 and overflow, on cells no reader reads
            lr = np.divide(p_alt, p_null, out=product[: p_null.size].reshape(p_null.shape))
        yield [p_null, p_alt, lr, box]


def _ratio_table(channel: Channel, comp: Composition, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense null law of a k > 0 pair, checked by its readers (the sampler, the score and the residual),
    and its ratio L = alt / null: two dense arrays, no alt law.  The null law is completed in the
    capped array of T_{n-1,k}; L is NaN where `_kept_cells` drops, which refuses as the atoms do."""
    null = _base_law(channel, comp.n - 1 - comp.k, comp.k, 1, cap)[0]
    ratio = np.full(null.shape, np.nan)
    for keep, (p_null, _, lr, box) in _kept_cells(_pair_blocks(channel, null)):
        null[box], ratio[box] = p_null, np.where(keep, lr, np.nan)
    return null, ratio


def _fold_atoms(channel: Channel, comp: Composition, cap: int) -> LrAtomization:
    """Atoms of the pair at (n, k) from the dense fold of its base T_{n-1,k}; the
    cells enter `_atomize` in descending lexicographic order (reversed C
    order), and the dense law is freed before they are sorted."""
    n, k = comp.n, comp.k
    blocks = _pair_blocks(channel, _base_law(channel, n - 1 - k, k, 1, cap)[0])
    return _atomize(n, k, ([cells.ravel()[::-1] for cells in block[:3]] for block in blocks))
