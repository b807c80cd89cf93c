"""Data model, CSV ingestion and basis expansion.

A :class:`Dataset` holds the outcome, the exposure, one or more instrument
columns and the raw covariates as immutable numpy arrays.  A
:class:`BasisSpec` is an ordered list of term descriptors which, evaluated on
a dataset, produces a design matrix; every model in the package (outcome,
exposure, instrument, index) is parameterised through such a basis.  The
intercept is never implicit: a basis that wants one must list the ``1`` term.
"""

from __future__ import annotations

import csv
import ctypes
import math
import os
import re
import warnings
import weakref
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Callable, Hashable, Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import EstimationError, ParseError, SchemaError, SingularDesignError, TermSpecError
from .glm import _check, _fit_stack, _held

__all__ = [
    "Dataset",
    "ColumnMap",
    "BasisSpec",
    "Intercept",
    "Raw",
    "Power",
    "Product",
    "InstrumentColumn",
    "InstrumentByTerm",
    "parse_term",
    "build_design",
    "load_csv",
    "write_csv",
]


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Intercept:
    def label(self) -> str:
        return "1"


@dataclass(frozen=True)
class Raw:
    index: int

    def label(self) -> str:
        return f"c{self.index}"


@dataclass(frozen=True)
class Power:
    index: int
    exponent: int

    def label(self) -> str:
        return f"c{self.index}^{self.exponent}"


@dataclass(frozen=True)
class Product:
    left: "Term"
    right: "Term"

    def label(self) -> str:
        return f"{self.left.label()}*{self.right.label()}"


@dataclass(frozen=True)
class InstrumentColumn:
    index: int

    def label(self) -> str:
        return f"z{self.index}"


@dataclass(frozen=True)
class InstrumentByTerm:
    index: int
    term: "Term"

    def label(self) -> str:
        return f"z{self.index}:{self.term.label()}"


Term = Union[Intercept, Raw, Power, Product, InstrumentColumn, InstrumentByTerm]


def z_degree(term: Term) -> int:
    """Polynomial degree of a term in the instrument columns."""
    if isinstance(term, (Intercept, Raw, Power)):
        return 0
    if isinstance(term, InstrumentColumn):
        return 1
    if isinstance(term, InstrumentByTerm):
        return 1 + z_degree(term.term)
    if isinstance(term, Product):
        return z_degree(term.left) + z_degree(term.right)
    raise TermSpecError(f"unknown term {term!r}")


def parse_term(text: str) -> Term:
    """Parse a term string: ``1``, ``c0``, ``c0^2``, ``z0``, ``z0:c1``, ``c0*c1``."""
    text = text.strip()
    if "*" in text:
        parts = text.split("*")
        term = parse_term(parts[0])
        for p in parts[1:]:
            term = Product(term, parse_term(p))
        return term
    if text == "1":
        return Intercept()
    if text.startswith("z"):
        body = text[1:]
        if ":" in body:
            idx_s, rest = body.split(":", 1)
            return InstrumentByTerm(_parse_index(idx_s, text), parse_term(rest))
        return InstrumentColumn(_parse_index(body, text))
    if text.startswith("c"):
        body = text[1:]
        if "^" in body:
            idx_s, exp_s = body.split("^", 1)
            return Power(_parse_index(idx_s, text), _parse_index(exp_s, text))
        return Raw(_parse_index(body, text))
    raise TermSpecError(f"cannot parse term {text!r}")


def _parse_index(s: str, context: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise TermSpecError(f"bad index {s!r} in term {context!r}") from None


# ---------------------------------------------------------------------------
# Dataset
# ---------------------------------------------------------------------------

def _as_locked_array(a, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1 and ndim == 2:
        arr = arr[:, None]
    if arr.ndim != ndim:
        raise SchemaError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise SchemaError(f"{name} contains non-finite values")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


# Rows of one chunk of linked datasets (Monte Carlo replicates in
# run_monte_carlo, bootstrap resamples in bootstrap_ci): 16 datasets at n=500,
# 8 at n=1000, 2 at n=4000 and n=8000, 1 above n=8192.  Measured cost sets it:
# a chunk's fixed cost (numpy's call overhead) is a fifth of an 8000-row
# replicate's, and the few (B, n) arrays a stacked op streams fit a per-core L2.
CHUNK_ROWS = 8192


def _chunk_size(n: int) -> int:
    """Datasets of ``n`` rows per chunk: CHUNK_ROWS rows, two where one fits, one where none."""
    return max(CHUNK_ROWS // n, 2 if n <= CHUNK_ROWS else 1)


def _linked_estimates(count: int, n: int, make: Callable[[range], list["Dataset"]],
                      estimators: dict[str, Callable]) -> Iterator[tuple]:
    """Each estimator on items 0, ..., ``count`` - 1, datasets of ``n`` rows,
    chunk by chunk (the Monte Carlo harness and the bootstrap): one call
    ``make(items)`` builds :func:`_chunk_size` consecutive items, linked
    (:meth:`Dataset.link`) so that the first estimator call fills its memo
    (:meth:`Dataset.memo`) for all.  Yields ``(item, name, est)`` in item, then
    estimator order; ``est`` is a 1-D float array, or None where the
    estimator raised an EstimationError or returned a non-finite value."""
    size = _chunk_size(n)
    for first in range(0, count, size):
        chunk = make(range(first, min(first + size, count)))
        Dataset.link(chunk)
        for item, data in enumerate(chunk, start=first):
            for name, estimator in estimators.items():
                try:
                    est = np.atleast_1d(np.asarray(estimator(data), dtype=float))
                except EstimationError:
                    est = None
                yield item, name, est if est is not None and np.isfinite(est).all() else None


# The C-heap policy, set by a process's first dataset.  Fits allocate and free
# arrays of a few hundred kB to a few MB many times over; by default glibc
# serves some by mmap and hands the free top of its heap back to the kernel,
# so each replicate or resample faults in fresh pages (unless an import such
# as scipy.special's has raised glibc's dynamic thresholds).  Setting the mmap
# threshold to 4 MiB and the trim threshold to 64 MiB (both: one alone turns
# off the dynamic thresholds) stops that.  Nothing is set off glibc, or when
# the environment sets a glibc malloc parameter.  Results do not depend on it.
HEAP_MMAP_THRESHOLD = 4 << 20
HEAP_TRIM_THRESHOLD = 64 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MALLOC_ENV = ("MALLOC_TOP_PAD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_",
               "MALLOC_MMAP_MAX_")
_heap_pinned = False        # True once the policy has been decided


def _libc():
    """The C library of this process if it is glibc, else None."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return None
    return libc if hasattr(libc, "gnu_get_libc_version") else None


def _pin_heap() -> None:
    """Apply the C-heap policy above, once per process."""
    global _heap_pinned
    _heap_pinned = True
    if (any(name in os.environ for name in _MALLOC_ENV)
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Columnar observations: outcome y, exposure x, instruments z, covariates.

    All arrays are validated to be finite and are frozen after construction.

    Each instance also memoises the stages that are computed for a whole
    chunk of linked datasets at once, as ``(stages, row)`` (:meth:`memo`):
    those of an estimator bundle, keyed by its stack function, and of the
    bias-reduced pair of :func:`~lineariv.adaptive.br_gamma_estimate` and
    :func:`~lineariv.adaptive.br_beta_estimate`, keyed by their bases.  A
    memoised value (an estimation error included) is a pure function of the
    frozen data and its key; bundle estimates are copied and bias-reduced
    results built afresh on every call, so no caller can alter what another
    sees.  :func:`_linked_estimates` makes and links the chunks (:meth:`link`)
    of the Monte Carlo harness and the bootstrap.  ``take`` builds new,
    unlinked instances with empty memos.

    Equality and hashing are by identity, like the memo: two datasets with
    equal contents are distinct objects.  Compare the arrays to compare contents.
    """

    y: np.ndarray
    x: np.ndarray
    z: np.ndarray
    c_raw: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False)
    _chunk: tuple = field(default=(), init=False, repr=False)

    def __post_init__(self):
        for name, ndim in (("y", 1), ("x", 1), ("z", 2), ("c_raw", 2)):
            object.__setattr__(self, name, _as_locked_array(getattr(self, name), name, ndim))
        n = self.y.shape[0]
        if n < 1:
            raise SchemaError("dataset must contain at least one observation")
        for name in ("x", "z", "c_raw"):
            if getattr(self, name).shape[0] != n:
                raise SchemaError(f"column {name} has length {getattr(self, name).shape[0]}, expected {n}")
        if self.z.shape[1] < 1:
            raise SchemaError("at least one instrument column is required")
        if not _heap_pinned:
            _pin_heap()

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def n_instruments(self) -> int:
        return self.z.shape[1]

    @property
    def n_covariates(self) -> int:
        return self.c_raw.shape[1]

    def memo(self, key: Hashable, stack: Callable[[list["Dataset"]], dict]) -> tuple:
        """``(stages, row)`` kept under ``key``: the stage dict of ``stack``
        on this dataset's chunk and its row there.  A miss fills ``key`` for
        every dataset of the chunk (:func:`_linked_estimates`; an unlinked
        dataset is a chunk of one) that lacks it, through one
        :func:`~lineariv.glm._fit_stack`; ``stack`` must be a pure function
        of each dataset.  A kept EstimationError raises, on every call; any
        other error stores nothing."""
        try:
            value = self._memo[key]
        except KeyError:
            chunk = [ds for ds in (ref() for ref in self._chunk) if ds is not None] or [self]
            pending = [ds for ds in chunk if key not in ds._memo]
            for ds, entry in zip(pending, _fit_stack(stack, pending)):
                ds._memo[key] = entry
            value = self._memo[key]
        return _held(value)

    @staticmethod
    def link(datasets: Sequence["Dataset"]) -> None:
        """Make ``datasets`` one chunk for :meth:`memo`: the first miss of a
        key on any of them computes it for all.  :func:`_linked_estimates`
        links each chunk it makes.  The chunk holds weak references, so
        linking keeps no dataset alive."""
        chunk = tuple(weakref.ref(ds) for ds in datasets)
        for ds in datasets:
            object.__setattr__(ds, "_chunk", chunk)

    def take(self, rows) -> "Dataset":
        """Row subset/resample (used by the bootstrap): a new, unlinked
        dataset with an empty memo.

        One non-empty 1-D run of integer row numbers is gathered without a
        second validation: rows of this dataset are finite, and the gather
        is already a fresh copy, made read-only here.  Any other index goes
        through the validating constructor.
        """
        idx = np.asarray(rows)
        if idx.ndim != 1 or not idx.size or idx.dtype.kind not in "iu":
            return Dataset(self.y[idx], self.x[idx], self.z[idx], self.c_raw[idx])
        columns = (self.y[idx], self.x[idx], self.z[idx], self.c_raw[idx])
        for column in columns:
            column.flags.writeable = False
        return Dataset._trusted(*columns)

    @staticmethod
    def _trusted(y, x, z, c_raw) -> "Dataset":
        """A dataset of read-only columns that the constructor would accept
        unchanged, taken as they are: no second check, no copy."""
        if not _heap_pinned:
            _pin_heap()
        data = object.__new__(Dataset)
        vars(data).update(y=y, x=x, z=z, c_raw=c_raw, _memo={}, _chunk=())
        return data

    def z_is_binary(self) -> bool:
        return bool(np.all((self.z == 0.0) | (self.z == 1.0)))


# ---------------------------------------------------------------------------
# BasisSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisSpec:
    """Ordered list of term descriptors; evaluates to an n-by-p design matrix."""

    terms: tuple[Term, ...]

    def __init__(self, terms: Iterable[Term | str]):
        parsed = tuple(parse_term(t) if isinstance(t, str) else t for t in terms)
        object.__setattr__(self, "terms", parsed)
        object.__setattr__(self, "_hash", hash(parsed))     # a memo key, hashed once

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.terms)

    def labels(self) -> list[str]:
        return [t.label() for t in self.terms]

    def is_linear_in_z(self) -> bool:
        return all(z_degree(t) <= 1 for t in self.terms)

    def append(self, term: Term | str) -> "BasisSpec":
        return BasisSpec(self.terms + (parse_term(term) if isinstance(term, str) else term,))

    def _evaluate(self, z: np.ndarray, c: np.ndarray) -> np.ndarray:
        """The design at instruments ``z`` (..., n, q) and covariates ``c``
        (..., n, r), over any leading batch axes: a fresh, read-only,
        C-contiguous (..., n, p) array whose column j is term j evaluated
        pointwise (:func:`_term_values`), with numpy's warnings off.  A term
        that is not finite at some row, such as ``c0^-1`` at c0 = 0, is a
        SingularDesignError that names it, per member of the leading axes
        (see :func:`~lineariv.glm._check`)."""
        with np.errstate(all="ignore"):
            design = (np.stack([_term_values(t, z, c) for t in self.terms], axis=-1)
                      if self.terms else np.empty((*z.shape[:-1], 0)))
        if not np.isfinite(design).all():
            finite = np.isfinite(design).all(-2).reshape(-1, len(self.terms))
            _check([None if row.all() else SingularDesignError(
                f"basis term {self.terms[row.argmin()].label()!r} is not finite at some row")
                for row in finite])
        design.flags.writeable = False
        return design


def _term_values(term: Term, z: np.ndarray, c: np.ndarray) -> np.ndarray:
    """One term at instruments ``z`` and covariates ``c``, the only place a
    term is evaluated; one that names a column ``z`` or ``c`` lacks raises
    TermSpecError."""
    if isinstance(term, Intercept):
        return np.ones(z.shape[:-1])
    if isinstance(term, (Raw, Power)):
        if not 0 <= term.index < c.shape[-1]:
            raise TermSpecError(f"covariate index {term.index} out of range (dataset has {c.shape[-1]})")
        column = c[..., term.index]
        return column if isinstance(term, Raw) else column ** term.exponent
    if isinstance(term, Product):
        return _term_values(term.left, z, c) * _term_values(term.right, z, c)
    if isinstance(term, (InstrumentColumn, InstrumentByTerm)):
        if not 0 <= term.index < z.shape[-1]:
            raise TermSpecError(f"instrument index {term.index} out of range (dataset has {z.shape[-1]})")
        column = z[..., term.index]
        return column if isinstance(term, InstrumentColumn) else column * _term_values(term.term, z, c)
    raise TermSpecError(f"unknown term {term!r}")


def build_design(data: Dataset, spec: BasisSpec) -> np.ndarray:
    """Evaluate a basis on a dataset, column j = term j evaluated pointwise:
    a fresh, read-only array on every call."""
    return spec._evaluate(data.z, data.c_raw)


# ---------------------------------------------------------------------------
# CSV I/O
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnMap:
    """Names of the CSV columns holding y, x, the instruments and covariates."""

    y: str
    x: str
    z: tuple[str, ...]
    covariates: tuple[str, ...] = field(default_factory=tuple)

    def __init__(self, y: str, x: str, z: Sequence[str], covariates: Sequence[str] = ()):
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", tuple(z))
        object.__setattr__(self, "covariates", tuple(covariates))


def _parse_cell(raw: str, row: int, col: str) -> float:
    text = raw.strip()
    if not text:
        raise ParseError(f"empty cell at data row {row}, column {col!r}")
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"cannot parse {raw!r} at data row {row}, column {col!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {raw!r} at data row {row}, column {col!r}")
    return value


# a byte that is not valid UTF-8, decoded with "surrogateescape"
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _has_escaped_byte(record: list[str]) -> bool:
    # the isascii test alone settles nearly every record, in C
    text = "".join(record)
    return not text.isascii() and _ESCAPED_BYTE.search(text) is not None


def _load_clean(fh, n_fields: int, cols: list[int]) -> np.ndarray | None:
    """Columns ``cols`` of the rest of ``fh``, parsed by numpy's C reader;
    ``None`` if it raised or warned, or gave no rows, or anything but
    ``n_fields`` finite values a row.  No ``usecols``: with it, ragged rows pass."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            block = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, dtype=float, ndmin=2)
        except (ValueError, Warning):
            return None
    if block.shape[0] and block.shape[1] == n_fields and np.isfinite(block).all():
        return block[:, cols]
    return None


def _parse_rows(reader, path: Path, n_fields: int, cols: list[int], names) -> np.ndarray:
    """Columns ``cols`` of the data rows of ``reader`` (possibly none); the
    first fault raises, a row the reader rejects (``csv.Error``) or that
    holds an undecodable byte included."""
    select = itemgetter(*cols)
    values: list[list[float]] = []
    i = 0
    try:
        for i, row in enumerate(reader, start=1):
            if _has_escaped_byte(row):
                raise ParseError(f"{path}: data row {i} is not valid UTF-8")
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != n_fields:
                raise ParseError(f"{path}: data row {i} has {len(row)} fields, expected {n_fields}")
            values.append([_parse_cell(raw, i, name) for raw, name in zip(select(row), names)])
    except csv.Error as err:
        raise ParseError(f"{path}: data row {i + 1}: {err}") from None
    return np.array(values, dtype=float).reshape(len(values), len(cols))


def _columns(reader, path: Path, names: tuple[str, ...]) -> tuple[int, list[int]]:
    """Reads the header row: (fields a row, indices of the columns ``names``)."""
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"{path}: file is empty, expected a header row") from None
    except csv.Error as err:
        raise ParseError(f"{path}: header row: {err}") from None
    if _has_escaped_byte(header):
        raise ParseError(f"{path}: header row is not valid UTF-8")
    header = [h.strip() for h in header]
    for name in names:
        if name not in header:
            raise SchemaError(f"{path}: required column {name!r} not found in header {header}")
    return len(header), [header.index(name) for name in names]


def _read_table(fh, path: Path, names: tuple[str, ...]) -> np.ndarray:
    """The columns ``names`` of the CSV text ``fh``, in that order (possibly no rows)."""
    reader = csv.reader(fh)
    n_fields, cols = _columns(reader, path, names)
    arr = _load_clean(fh, n_fields, cols)
    if arr is None:
        fh.seek(0)
        next(reader)
        arr = _parse_rows(reader, path, n_fields, cols, names)
    return arr


def load_csv(path, columns: ColumnMap) -> Dataset:
    """Read an RFC-4180 style CSV (header row required) into a Dataset.

    The file is UTF-8; a leading byte-order mark is ignored.  Columns are
    matched by name, so extra columns and any column order are accepted.
    Rows are kept in file order.  Data rows are numbered from 1 (the header
    is row 0); blank lines are skipped but still counted, so the numbers in
    error messages are line numbers after the header, quoted line breaks
    aside.

    A selected cell holds one number in Python ``float`` syntax, optionally
    quoted and surrounded by whitespace: ``" 1.5 "``, ``"3"``, ``1e-3`` and
    ``1_0`` are all accepted.  Empty, unparseable and non-finite cells
    (``nan``, ``inf``, or values that overflow) raise :class:`ParseError`, as
    does a row with the wrong number of fields, a row that is not valid
    UTF-8 and a row the ``csv`` module rejects (such as a field longer than
    ``csv.field_size_limit()``).  When a file has several faults, the first
    one in file order is reported.  A path that cannot be read raises SchemaError.

    The file is decoded once, with ``surrogateescape``: a byte that is not
    valid UTF-8 becomes one character in U+DC80-U+DCFF and is a fault of the
    record (the header or a data row, in any field) that holds it, found by
    the ``csv.reader`` loop like any other.

    A file whose every data field is a finite ASCII number (all
    :func:`write_csv` output) is parsed by numpy's C reader, which converts
    like ``float``.  Any other (a fault, an undecodable byte among them,
    ``1_0``, non-ASCII digits, a whitespace-only line, a text column) is
    re-read by the ``csv.reader`` loop, which alone reports faults, with the
    messages and row numbers above.
    """
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"file not found: {path}")
    names = (columns.y, columns.x, *columns.z, *columns.covariates)
    try:
        with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
            arr = _read_table(fh, path, names)
    except OSError as err:
        raise SchemaError(f"cannot read {path}: {err.strerror}") from None
    if not len(arr):
        raise SchemaError(f"{path}: no data rows")
    nz = len(columns.z)
    return Dataset(
        y=arr[:, 0],
        x=arr[:, 1],
        z=arr[:, 2:2 + nz],
        c_raw=arr[:, 2 + nz:],
    )


def write_csv(data: Dataset, path, columns: ColumnMap | None = None) -> None:
    """Write a dataset as CSV with full round-trip precision (shortest repr)."""
    if columns is None:
        z_names = ("z",) if data.n_instruments == 1 else tuple(f"z{j}" for j in range(data.n_instruments))
        c_names = ("v",) if data.n_covariates == 1 else tuple(f"v{j}" for j in range(data.n_covariates))
        columns = ColumnMap(y="y", x="x", z=z_names, covariates=c_names)
    header = [columns.y, columns.x, *columns.z, *columns.covariates]
    block = np.column_stack([data.y, data.x, data.z, data.c_raw])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in block:
            writer.writerow([repr(float(v)) for v in row])
