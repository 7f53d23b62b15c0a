"""The records, checks and CSV format every subcommand shares, without numpy.

A composition (n users, k ones) and its adjacent pair's range and pi, the
epsilon grid and its check, the direction of a privacy curve and the curve
record itself, and the CSV writer and reader all engines and the CLI use.
Nothing here imports numpy at module level, so the closed-form jobs
(`curve --engine gdp|chernoff`), which read only these and Python floats,
never load it; `parse_csv` imports it to return its array.
"""

import enum
import math
import numbers
import sys

from .channels import _Record
from .errors import ValidationError

# Refuse exact enumeration beyond this many dense histogram-law cells.
DEFAULT_ATOM_CAP = 30_000_000


class Composition(_Record, frozen=True):
    """Number of users n and number of ones k in the (fixed) input dataset."""

    n: int
    k: int

    def __post_init__(self):
        for name in ("n", "k"):
            object.__setattr__(self, name, _check_count(name, getattr(self, name), 0))
        if self.k > self.n:
            raise ValidationError(f"need 0 <= k <= n, got k={self.k}, n={self.n}")


class Sidedness(enum.Enum):
    """Direction of a privacy curve between the null and alt histogram laws.

    FORWARD measures how much the alt law (one more one) can exceed the
    null law; REVERSE the opposite; TWO_SIDED takes the pointwise maximum.
    """

    FORWARD = "forward"
    REVERSE = "reverse"
    TWO_SIDED = "two-sided"


class PrivacyCurve(_Record):
    """A hockey-stick curve delta(eps) evaluated on a grid."""

    eps: "np.ndarray"
    delta: "np.ndarray"
    sidedness: Sidedness

    def to_csv(self, header_lines: tuple[str, ...] = ()) -> str:
        return _table_to_csv(("epsilon", "delta"), _rows(self.eps, self.delta), header_lines)


# ---------------------------------------------------------------------------
# checks


def _check_count(name: str, value, minimum: int = 1) -> int:
    """A count must be an integer (not a bool) >= minimum; NaN and 2.5 fail.

    It must also convert to a double, which the bounds and asymptotics take
    it as.  Returns it as a Python int, so numpy integers cannot overflow later.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if value > sys.float_info.max:
        raise ValidationError(f"{name} must be at most {sys.float_info.max!r}, got {value!r}")
    return int(value)


def _pair_pi(n: int, k: int) -> float:
    """The pair (k, k+1) of n users: its range 0 <= k <= n-1, refused otherwise, and its
    composition pi = k/(n-1), the appended user's share of ones among the others (0 at n = 1)."""
    if not 0 <= k <= n - 1:
        raise ValidationError(f"the pair (k, k+1) needs k <= n-1; got k={k}, n={n}")
    return k / (n - 1) if n > 1 else 0.0


def _check_eps_grid(eps) -> list:
    """The epsilon grid as a list of floats: one real, a sequence of reals, or
    an array (read flat).  An empty grid, or an entry that is not finite and
    nonnegative, is refused."""
    if isinstance(eps, numbers.Real):
        grid = [float(eps)]
    else:
        grid = [float(e) for e in (eps.ravel().tolist() if hasattr(eps, "ravel") else eps)]
    if not grid:
        raise ValidationError("epsilon grid is empty")
    if not all(math.isfinite(e) and e >= 0.0 for e in grid):
        raise ValidationError("epsilon grid entries must be finite and >= 0")
    return grid


# ---------------------------------------------------------------------------
# CSV serialization (17 significant digits; round-trips exactly)


_FLOAT_FORMAT = "%.17g"


def _fmt(x: float) -> str:
    return _FLOAT_FORMAT % float(x)


def _rows(*columns) -> list:
    """The rows of equal-length columns, each a sequence of floats or a 1-d array (read by `tolist`)."""
    return list(zip(*(column.tolist() if hasattr(column, "tolist") else column for column in columns)))


def _table_to_csv(columns, table, header_lines=()) -> str:
    """CSV of a table, a 2-D array or a list of rows, with one column per name; each value as `_fmt` writes it.

    One `%` formats every row from one flat list of floats, which is faster
    and holds fewer temporaries than a string per cell or per row.
    """
    values = table.ravel().tolist() if hasattr(table, "ravel") else [x for row in table for x in row]
    lines = [line if line.startswith("#") else f"# {line}" for line in header_lines]
    lines.append(",".join(columns))
    row = "\n" + ",".join([_FLOAT_FORMAT] * len(columns))
    return "\n".join(lines) + (row * len(table)) % tuple(values) + "\n"


def parse_csv(text: str) -> tuple:
    """Read back a CSV written by this module: (column names, value array)."""
    import numpy as np

    rows = []
    columns: list[str] | None = None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if columns is None:
            columns = line.split(",")
            continue
        rows.append([float(tok) for tok in line.split(",")])
    if columns is None:
        raise ValidationError("CSV has no header row")
    return columns, np.array(rows, dtype=np.float64)
