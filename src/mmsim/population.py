"""Finite household populations: ingestion, synthesis, labelling, CSV output.

A population is stored as numpy arrays, one per household attribute and
two row-major outcome stores, and is immutable after construction, so it
can be shared read-only across worker processes.  Each
household carries a source mode (how it answered the survey the microdata
came from) and, once a response rule has been applied, a response label:
responds to a web invitation, responds only to the face-to-face (ftf)
follow-up, or never responds.
"""

from __future__ import annotations

import csv
import math
import re
import reprlib
import warnings
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    IntegrityError,
    ParseError,
    SchemaError,
    ValidationError,
)

# Source modes (from ingested or generated microdata).
MODE_WEB, MODE_MAIL, MODE_FTF = 0, 1, 2
MODE_NAMES = ("WEB", "MAIL", "FTF")

# Response labels under the web-then-ftf protocol.
LABEL_WEB, LABEL_FTF, LABEL_NONE = 0, 1, 2
LABEL_NAMES = ("W", "F", "N")

# Label of each source mode (WEB, MAIL, FTF) under rules A-D; _SPLIT
# halves a mode's households at random into ftf and none.
_SPLIT = -1
RULES = {"A": (LABEL_WEB, LABEL_FTF, LABEL_NONE), "B": (LABEL_WEB, _SPLIT, _SPLIT),
         "C": (LABEL_WEB, LABEL_FTF, LABEL_FTF), "D": (_SPLIT, LABEL_WEB, _SPLIT)}

_SQRT3 = math.sqrt(3.0)

# Households per chunk when a population is generated or read, and when it
# is written out as Python strings.
_CHUNK_ROWS = 2**16
_WRITE_ROWS = 2**13

# Uniforms that PCG64 draws in about the time of one jump of a stochastic
# label lookup (``PCG64.advance`` plus a call to draw a run).
_JUMP_ROWS = 2**10

# Characters of a mode or label field np.loadtxt keeps: it cuts a longer
# field to this width, so a field that fills it is read again in full.
_NAME_WIDTH = 8

# Mode or label code of a field whose stored text may have been cut.
_CUT = -2

# Stands for NUL, which Python 3.10's csv module refuses, in rescans: no
# decoded UTF-8 text holds a lone surrogate.
_NUL_STANDIN = "\ud800"

# Where a synthetic population's spec is read from in a run configuration.
_SPEC_PATH = "population.synthetic"

# Households a synthetic spec may call for at most: they are counted in int64.
_MAX_HOUSEHOLDS = np.iinfo(np.int64).max

# Largest magnitude of a continuous variable's mean or sd.  Generation
# squares them, and below this bound every variance and value stays finite.
_MAX_CONTINUOUS = 1e150


@dataclass(frozen=True)
class Population:
    """Immutable roster of households.

    ``modes`` is each household's source mode; ``labels`` is None for a raw
    population and a per-household response label once a rule is applied.
    ``propensities`` is the stochastic rule's (3, 2) table of
    ``(phi_w, phi_f)``, read by mode.

    Outcomes are kept in two row-major stores, ``binary[j]`` telling which
    holds variable j: ``bits``, the binary variables packed eight per byte
    in ``np.packbits`` order, [N, ceil(nb / 8)] uint8, and ``block``, the
    others, a float64 [N, nc] matrix, each in variable order.
    ``outcomes(rows)`` gathers rows with one read of each store, as float64
    variables-major; ``column(j)`` is one variable for every household, and
    ``y``, every row's outcomes row-major, is a copy built on each read
    that no run reads.

    A household is its row, and no household id is kept: the microdata
    reader checks the file's ids are distinct and drops them.  Nor is a
    PSU id: the PSU frame is ``psus``, the distinct ids ascending, and
    ``starts``, where each PSU starts (then N).  PSU p's rows are
    ``members[starts[p]:starts[p + 1]]``, or that range itself when the
    ids are non-decreasing and ``members`` is None.  ``psu_frame_of``
    builds the frame of per-household ids; ``psu_ids`` rebuilds them.

    Construction checks the whole object, once per population: it is
    nonempty, the stores hold N = ``starts[-1]`` rows of the variables
    ``binary`` sorts into them, ``block`` is finite, ``labels`` has length
    N, and a propensity table is valid.  Copies made by ``with_labels`` (a
    rule's labels, one per row) and ``attach_propensities`` (which checks
    its table) skip these checks, which copy nothing population-sized:
    finiteness is read off the block's minimum and maximum.
    """

    psus: np.ndarray
    starts: np.ndarray
    bits: np.ndarray
    block: np.ndarray
    binary: tuple[bool, ...]
    modes: np.ndarray
    labels: np.ndarray | None
    variable_names: tuple[str, ...]
    members: np.ndarray | None = None
    propensities: np.ndarray | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n_households
        if n == 0:
            raise IntegrityError("population is empty")
        nb = sum(self.binary)
        want = ((n, -(-nb // 8)), (n, len(self.binary) - nb))
        if (len(self.binary) != len(self.variable_names) or self.bits.dtype != np.uint8
                or (self.bits.shape, self.block.shape) != want):
            raise IntegrityError(
                f"outcome stores of shapes {self.bits.shape} and {self.block.shape} do not "
                f"match {n} households x {len(self.variable_names)} variables, {nb} binary")
        if self.block.size and not np.isfinite([self.block.min(), self.block.max()]).all():
            raise IntegrityError("outcome matrix has non-finite values")
        if self.labels is not None and len(self.labels) != n:
            raise IntegrityError("labels length mismatch")
        if self.propensities is not None:
            _check_propensities(self.propensities)

    @property
    def n_households(self) -> int:
        return int(self.starts[-1])

    psu_ids = property(lambda self: self.psus[self.psu_codes()])
    y = property(lambda self: np.stack([self.column(j) for j in range(len(self.binary))],
                                       axis=1).astype(float, copy=False))

    def column(self, j: int) -> np.ndarray:
        """Variable j for every household: uint8 unpacked from its bit, or a
        float64 view of its column of ``block``."""
        b = sum(self.binary[:j])  # binary variables before j
        if self.binary[j]:
            return (self.bits[:, b // 8] >> (7 - b % 8)) & 1
        return self.block[:, j - b]

    def outcomes(self, rows) -> np.ndarray:
        """C-contiguous float64 [variables, rows] outcomes at an index array or
        slice: one row read of each store, bits unpacked variables-major
        (by shifts, which take less time than ``np.unpackbits``)."""
        if isinstance(rows, slice):
            bits, block = self.bits[rows], self.block[rows]
        else:
            bits, block = np.take(self.bits, rows, axis=0), np.take(self.block, rows, axis=0)
        binary = np.array(self.binary, dtype=bool)
        b = np.arange(np.count_nonzero(binary))
        out = np.empty((len(binary), len(block)))
        out[binary] = (bits.T[b // 8] >> (7 - b % 8).astype(np.uint8)[:, None]) & 1
        out[~binary] = block.T
        return out

    def totals(self) -> np.ndarray:
        """Each variable's population total, bit for bit ``y.sum(axis=0)``
        without building ``y``.  That sum adds a lone column pairwise and
        each of several in row order, as ``block.sum(axis=0)`` does a block
        of one or several columns; a 0/1 column's count is exact in any."""
        out, binary = np.empty(len(self.binary)), np.array(self.binary, dtype=bool)
        out[binary] = [self.column(j).sum(dtype=float) for j in np.flatnonzero(binary)]
        lone = self.block.shape[1] == 1 < len(binary)  # one of several variables
        out[~binary] = [_row_order_sum(self.block[:, 0])] if lone else self.block.sum(axis=0)
        return out

    def psu_frame(self) -> tuple[np.ndarray, np.ndarray]:
        """The frame's distinct PSU ids, ascending, and their household
        counts, the steps between its ``starts``."""
        return self.psus, np.diff(self.starts)

    def psu_codes(self) -> np.ndarray:
        """Each household's dense PSU code, its PSU's index into ``psus``;
        built anew on every call and not kept."""
        codes = _slice_codes(self.starts, slice(0, self.n_households))
        if self.members is not None:
            codes[self.members] = codes.copy()
        return codes

    def frame_cache(self, key, build):
        """``build()``, computed once per population and kept with it, shared
        by the copies ``_derive`` makes."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def with_labels(self, labels: np.ndarray) -> "Population":
        return _derive(self, labels=labels)


def _derive(obj, **changes):
    """Copy of a frozen dataclass with ``changes`` applied, without running
    ``__post_init__``; the caller checks the fields it sets.  Cached state
    such as ``Population._cache`` carries over."""
    new = object.__new__(type(obj))
    vars(new).update(vars(obj), **changes)
    return new


def _row_order_sum(col: np.ndarray) -> float:
    """``col``'s sum, added in row order one chunk at a time."""
    total = 0.0
    for rows in _chunks(len(col), _CHUNK_ROWS):
        total = np.add.accumulate(np.concatenate([[total], col[rows]]))[-1]
    return total


def psu_frame_of(psu_ids: np.ndarray) -> dict:
    """The ``Population`` frame fields ``psus``, ``starts`` and ``members``
    of per-household PSU ids; non-decreasing ids keep no ``members``."""
    starts = _runs(psu_ids)
    members, starts = (None, starts) if starts is not None else _group(psu_ids)
    first = starts[:-1] if members is None else members[starts[:-1]]
    return {"psus": psu_ids[first], "starts": starts, "members": members}


def _slice_codes(starts: np.ndarray, rows: slice) -> np.ndarray:
    """PSU codes of the rows ``rows.start`` to ``rows.stop`` of a frame
    without ``members``, where PSU p's rows are ``starts[p]`` to
    ``starts[p + 1]``: one repeat of the PSUs they fall in."""
    lo, hi = rows.start, rows.stop
    first, last = starts.searchsorted([lo, hi - 1], side="right") - 1
    return np.repeat(np.arange(first, last + 1), np.diff(starts[first:last + 2].clip(lo, hi)))


def _group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``keys`` grouped by value, and where each group starts.

    Returns ``(order, starts)``: group g, the g-th smallest distinct
    value, is ``order[starts[g]:starts[g + 1]]`` with positions ascending
    (one stable sort); ``starts`` ends with ``len(keys)``.  Keys that
    are already non-decreasing skip the sort, whose order would be the
    identity.
    """
    starts = _runs(keys)
    if starts is not None:
        return np.arange(len(keys)), starts
    order = np.argsort(keys, kind="stable")
    return order, _runs(keys[order])


def _runs(keys: np.ndarray) -> np.ndarray | None:
    """Where each run of equal non-decreasing ``keys`` starts, then ``len(keys)``;
    None if keys decrease.  Compared 4096 at a time: no key-length temporary."""
    n, step = len(keys), 2**12
    firsts = [np.arange(min(n, 1))]
    for lo in range(1, n, step):
        cur, prev = keys[lo:lo + step], keys[lo - 1:min(lo + step, n) - 1]
        if (cur < prev).any():
            return None
        firsts.append(lo + np.flatnonzero(cur != prev))
    return np.concatenate([*firsts, [n]])


def _first_duplicate(ids: np.ndarray) -> int | None:
    """Smallest id that occurs more than once, or None; one sort and one
    adjacent-equal scan, unless the ids are strictly ascending."""
    if (ids[1:] > ids[:-1]).all():
        return None
    s = np.sort(ids)
    dups = s[1:][s[1:] == s[:-1]]
    return int(dups[0]) if len(dups) else None


@dataclass(frozen=True)
class MicrodataSchema:
    """Column mapping for household microdata CSV files."""

    variables: tuple[str, ...]
    id: str = "id"
    psu: str = "psu"
    mode: str = "mode"
    label: str | None = None


@dataclass(frozen=True)
class VariableSpec:
    """One synthetic analysis variable with per-source-mode means."""

    name: str
    mean_web: float
    mean_mail: float
    mean_ftf: float
    kind: str = "binary"  # "binary" | "continuous"
    sd: float | None = None  # within-mode sd, continuous only

    def mode_means(self) -> np.ndarray:
        return np.array([self.mean_web, self.mean_mail, self.mean_ftf])


@dataclass(frozen=True)
class SyntheticPopSpec:
    """Recipe for a clustered synthetic population.

    PSU-level random effects are additive on both the outcome means and
    the web-mode share; loadings are calibrated in closed form so the
    realized outcome intraclass correlation matches ``icc_outcome``.
    """

    n_psus: int
    households_min: int
    households_max: int
    share_web: float
    share_mail: float
    variables: tuple[VariableSpec, ...]
    icc_outcome: float = 0.0
    icc_response: float = 0.0
    seed: int = 0

    @property
    def share_ftf(self) -> float:
        return 1.0 - self.share_web - self.share_mail

    def __post_init__(self):
        """Raise a ValidationError, whose message starts with the config
        path of the field at fault, unless the spec can be generated."""
        at = _SPEC_PATH
        if not 0 <= self.seed < 2**64:
            raise ValidationError(f"{at}.seed: must be in [0, 2**64), got {self.seed}")
        for key in ("n_psus", "households_min"):
            if getattr(self, key) < 1:
                raise ValidationError(f"{at}.{key}: PSU and household counts must be positive")
        if self.households_max < self.households_min:
            raise ValidationError(f"{at}.households_max: households_max < households_min")
        if self.n_psus * self.households_max > _MAX_HOUSEHOLDS:
            raise ValidationError(
                f"{at}.households_max: {self.n_psus} PSUs of up to {self.households_max} "
                f"households can exceed {_MAX_HOUSEHOLDS}, the most a 64-bit count holds")
        if not self.variables:
            raise ValidationError(f"{at}.variables: at least one variable is required")
        for key, s, what in (("share_web", self.share_web, ""),
                             ("share_mail", self.share_mail, ""),
                             ("share_mail", self.share_ftf,
                              " for share_ftf = 1 - share_web - share_mail")):
            if not 0.0 <= s <= 1.0:
                raise ValidationError(f"{at}.{key}: mode shares must lie in the simplex, "
                                      f"got {s}{what}")
        for key in ("icc_outcome", "icc_response"):
            icc = getattr(self, key)
            if not 0.0 <= icc < 1.0:
                raise ValidationError(f"{at}.{key}: intraclass correlation must be "
                                      f"in [0, 1), got {icc}")
        for i, v in enumerate(self.variables):
            at_v = f"{at}.variables[{i}]"
            if v.kind not in ("binary", "continuous"):
                raise ValidationError(f"{at_v}.kind: {v.name}: unknown kind {v.kind!r}")
            if v.kind == "binary":
                for key in ("mean_web", "mean_mail", "mean_ftf"):
                    m = getattr(v, key)
                    if not 0.0 < m < 1.0:
                        raise ValidationError(
                            f"{at_v}.{key}: {v.name}: binary mean {m} outside (0, 1)"
                        )
                loads = _binary_loadings(v.mode_means(),
                                         _mode_shares(self), self.icc_outcome)
                lo = v.mode_means() - loads * _SQRT3
                hi = v.mode_means() + loads * _SQRT3
                if lo.min() < 0.0 or hi.max() > 1.0:
                    raise ValidationError(
                        f"{at}.icc_outcome: {v.name}: icc_outcome={self.icc_outcome} pushes "
                        f"a PSU-level probability outside [0, 1]; reduce the icc or move "
                        f"the means"
                    )
            else:
                if v.sd is None or v.sd <= 0:
                    raise ValidationError(f"{at_v}.sd: {v.name}: continuous variables "
                                          f"need sd > 0")
                for key in ("mean_web", "mean_mail", "mean_ftf", "sd"):
                    value = getattr(v, key)
                    if not np.isfinite(value):
                        raise ValidationError(f"{at_v}.{key}: {v.name}: {key} must be "
                                              f"finite, got {value}")
                    if abs(value) > _MAX_CONTINUOUS:
                        raise ValidationError(
                            f"{at_v}.{key}: {v.name}: {key} must be at most "
                            f"{_MAX_CONTINUOUS:g} in magnitude, got {value}")
        b = _response_loading(self)
        if self.share_web - b * _SQRT3 < 0 or self.share_web + b * _SQRT3 > 1:
            raise ValidationError(
                f"{at}.icc_response: icc_response pushes a PSU-level web share "
                f"outside [0, 1]"
            )


def _mode_shares(spec: SyntheticPopSpec) -> np.ndarray:
    return np.array([spec.share_web, spec.share_mail, spec.share_ftf])


def _total_variance(means: np.ndarray, shares: np.ndarray, within: np.ndarray) -> float:
    """Population variance of one variable: within-mode plus between-mode."""
    grand = float(shares @ means)
    between = float(shares @ means**2) - grand**2
    return float(shares @ within) + between


def _binary_loadings(means: np.ndarray, shares: np.ndarray, icc: float) -> np.ndarray:
    """PSU-effect loadings per mode so the overall outcome ICC equals ``icc``.

    With a shared standardized PSU effect u and success probability
    p_c + b_c * u in mode c, the between-PSU variance is (sum_c g_c b_c)^2.
    Choosing b_c proportional to sqrt(p_c q_c) and scaling the common factor
    to icc * Var_total gives the exact target.
    """
    if icc == 0.0:
        return np.zeros_like(means)
    pq = means * (1.0 - means)
    v_tot = _total_variance(means, shares, pq)
    denom = float(shares @ np.sqrt(pq))
    return np.sqrt(icc * v_tot) / denom * np.sqrt(pq)


def _response_loading(spec: SyntheticPopSpec) -> float:
    if spec.icc_response == 0.0:
        return 0.0
    return math.sqrt(spec.icc_response * spec.share_web * (1.0 - spec.share_web))


def _chunks(n: int, size: int) -> list[slice]:
    """Consecutive row slices of at most ``size`` rows covering ``n`` rows."""
    return [slice(lo, min(lo + size, n)) for lo in range(0, n, size)]


@contextmanager
def _allocating(key: str, count: int, what: str):
    """Report arrays numpy refuses to allocate as a config error naming
    ``population.synthetic.<key>``."""
    try:
        yield
    except (ValueError, MemoryError) as exc:  # too many elements or bytes
        raise ConfigError(f"{_SPEC_PATH}.{key}: cannot allocate arrays for {count} "
                          f"{what} ({exc})") from None


def generate_synthetic(spec: SyntheticPopSpec) -> Population:
    """Generate a raw clustered population (modes assigned, labels unset).

    Households are drawn in row chunks written straight into the
    preallocated ``modes``, ``bits`` and ``block``, a binary draw into its
    bit, so the build needs the population's own arrays plus one chunk of
    temporaries.  Each step continues the generator stream chunk by chunk,
    which reproduces its unchunked draw bit for bit: the population and the
    generator's final state do not depend on the chunk size.

    What is constant within a PSU is computed once per PSU: the mode
    thresholds, and each variable's outcome probability or mean as a table
    over (PSU, mode) cells that one gather per chunk reads.  The tables
    take the same floating-point operations, in the same order, as the
    per-household expressions ``clip(mean[m] + load[m] * u[p], 0, 1)`` and
    ``mean[m] + b * u[p]``, so the population is bit for bit the one those
    expressions give.
    """
    rng = np.random.default_rng(spec.seed)
    with _allocating("n_psus", spec.n_psus, "PSUs"):
        sizes = rng.integers(spec.households_min, spec.households_max + 1, spec.n_psus)
        starts = np.concatenate(([0], np.cumsum(sizes)))  # PSU p's rows: the frame
    n = int(starts[-1])
    with _allocating("households_max", n, "households"):
        modes = np.empty(n, dtype=np.int8)
        binary = tuple(v.kind == "binary" for v in spec.variables)
        bits = np.zeros((n, -(-sum(binary) // 8)), dtype=np.uint8)
        block = np.empty((n, len(binary) - sum(binary)))
    chunks = _chunks(n, _CHUNK_ROWS)
    # Chunk buffers for the uniforms, the PSU or cell values read per
    # household, the cell codes and a binary variable's bits: a new
    # chunk-sized temporary per chunk would cost fresh page faults.
    draws, values = np.empty(min(n, _CHUNK_ROWS)), np.empty(min(n, _CHUNK_ROWS))
    cells = np.empty(len(draws), dtype=np.intp)
    hits = np.empty(len(draws), dtype=np.uint8)

    # Mode assignment: the PSU effect shifts the web share; mail and ftf
    # split the remainder in their marginal proportions.  A household's
    # code counts the thresholds its uniform reaches: web (0) below q_web,
    # mail (1) below q_web + q_mail, else ftf (2).
    u_resp = rng.uniform(-_SQRT3, _SQRT3, spec.n_psus)
    b_resp = _response_loading(spec)
    q_web = np.clip(spec.share_web + b_resp * u_resp, 0.0, 1.0)
    rest = 1.0 - spec.share_web
    q_mail = spec.share_mail * (1.0 - q_web) / rest if rest > 0 else np.zeros_like(q_web)
    q_web_mail = q_web + q_mail
    for rows in chunks:
        k = rows.stop - rows.start
        u, psu = rng.random(out=draws[:k]), _slice_codes(starts, rows)
        np.greater_equal(u, q_web.take(psu, out=values[:k]), out=modes[rows])
        modes[rows] += u >= q_web_mail.take(psu, out=values[:k])

    # Outcomes: one shared standardized PSU effect per variable.  Its
    # success probability or mean is a table over (PSU, mode) cells, read
    # at cell psu * 3 + mode.
    shares = _mode_shares(spec)
    for j, v in enumerate(spec.variables):
        bit = sum(binary[:j])  # binary variables before j
        col = bits[:, bit // 8] if binary[j] else block[:, j - bit]
        u_psu = rng.uniform(-_SQRT3, _SQRT3, spec.n_psus)[:, None]
        mode_means = v.mode_means()
        if v.kind == "binary":
            loads = _binary_loadings(mode_means, shares, spec.icc_outcome)
            table = np.clip(mode_means + loads * u_psu, 0.0, 1.0).ravel()
        else:
            v_tot = _total_variance(mode_means, shares, np.full(3, v.sd**2))
            b = math.sqrt(spec.icc_outcome * v_tot)
            sd_within = math.sqrt(max(v.sd**2 - b**2, 0.0))
            table = (mode_means + b * u_psu).ravel()
        for rows in chunks:
            k = rows.stop - rows.start
            cell = np.multiply(_slice_codes(starts, rows), 3, out=cells[:k])
            cell += modes[rows]
            if v.kind == "binary":
                hit = np.less(rng.random(out=draws[:k]), table.take(cell, out=values[:k]),
                              out=hits[:k])
                hit *= np.uint8(1 << (7 - bit % 8))  # faster than numpy's uint8 shift
                np.bitwise_or(col[rows], hit, out=col[rows])
            else:
                np.add(table.take(cell, out=values[:k]), rng.normal(0.0, sd_within, k),
                       out=col[rows])

    return Population(
        psus=np.arange(spec.n_psus, dtype=np.int64),
        starts=starts,
        bits=bits,
        block=block,
        binary=binary,
        modes=modes,
        labels=None,
        variable_names=tuple(v.name for v in spec.variables),
    )


def build_pseudopopulation(raw: Population, rule: str, rng: np.random.Generator) -> Population:
    """Assign response labels from source modes under rule A, B, C or D.

    Each household reads its mode's label in ``RULES[rule]``; then the
    modes marked as splits are split, in mode order.  A split is exact:
    shuffle the mode's households, first half becomes ftf respondents,
    remainder (plus the odd one) nonrespondents.
    """
    table = np.array(RULES[rule], dtype=np.int8)
    labels = table[raw.modes]
    for mode in np.flatnonzero(table == _SPLIT):
        _half_split(labels, np.flatnonzero(raw.modes == mode), rng)
    return raw.with_labels(labels)


def _half_split(labels: np.ndarray, idx: np.ndarray, rng: np.random.Generator) -> None:
    """Label a random half of rows ``idx`` ftf and the rest none, shuffling
    ``idx`` in place: the draws of ``rng.permutation(len(idx))``."""
    rng.shuffle(idx)
    half = len(idx) // 2
    labels[idx[:half]] = LABEL_FTF
    labels[idx[half:]] = LABEL_NONE


def _propensity_fault(phi_w: float, phi_f: float) -> str | None:
    """Why ``(phi_w, phi_f)`` cannot be a mode's propensities, or None."""
    if not (0.0 <= phi_w <= 1.0 and 0.0 <= phi_f <= 1.0):  # NaN fails both comparisons
        return "propensities must lie in [0, 1]"
    if not 0.0 < phi_w + phi_f <= 1.0 + 1e-12:
        return "phi_w + phi_f must lie in (0, 1]"
    return None


def _check_propensities(table: np.ndarray) -> None:
    if table.shape != (3, 2):
        raise IntegrityError(f"propensity table must be (3, 2), one row per mode, "
                             f"got {table.shape}")
    for name, phi in zip(MODE_NAMES, table.tolist()):
        if fault := _propensity_fault(*phi):
            raise ValidationError(f"{name}: {fault}, got {phi}")


def attach_propensities(pop: Population, by_mode: Mapping[str, tuple[float, float]]) -> Population:
    """The population with the (3, 2) propensity table of ``by_mode``, the
    ``(phi_w, phi_f)`` pair of each mode name, checked once."""
    table = np.array([by_mode[name] for name in MODE_NAMES], dtype=float)
    _check_propensities(table)
    return _derive(pop, propensities=table)


def _classify(u: np.ndarray, modes: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Labels of uniforms ``u`` of households in source ``modes`` against
    the propensity ``table``: web below phi_w, ftf below phi_w + phi_f, else
    none.  A label counts the thresholds of its mode that ``u`` reaches."""
    cuts = np.cumsum(table, axis=1)  # by mode: phi_w, phi_w + phi_f
    return (u >= cuts[modes, 0]).astype(np.int8) + (u >= cuts[modes, 1])


def draw_stochastic_labels(pop: Population, rng: np.random.Generator) -> Population:
    """Draw labels from the per-mode propensity table.

    A household responds by web with probability phi_w, otherwise by ftf
    with the conditional probability phi_f / (1 - phi_w).  This labels
    every household: ``StochasticLabels`` read at every row.
    """
    return pop.with_labels(StochasticLabels(pop, rng)[:])


class StochasticLabels:
    """One propensity draw, classified only at the rows looked up.

    Household i's uniform is the i-th of one ``rng.random(N)`` draw, so
    ``lookup[idx]`` equals ``draw_stochastic_labels(pop, rng).labels[idx]``
    bit for bit, and ``rng`` is left where that draw leaves it.  From a
    PCG64 stream a lookup of non-negative rows draws only what it reads:
    it splits the sorted rows into runs at gaps of more than ``_JUMP_ROWS``
    and, from the stream's start, jumps each gap (``PCG64.advance``) and
    draws each run.  When the runs would cost more than half the whole
    draw, which a later lookup could just index, for a slice, or from
    another generator, it makes the whole draw once and keeps it.
    """

    def __init__(self, pop: Population, rng: np.random.Generator):
        self._n, self._modes, self._table = pop.n_households, pop.modes, pop.propensities
        self._u, bg = None, rng.bit_generator
        if not isinstance(bg, np.random.PCG64):
            self._u = rng.random(self._n)
            return
        # the stream's start, on a generator of its own (its seed is overwritten)
        self._start, self._gen = bg.state, np.random.Generator(np.random.PCG64(0))
        bg.advance(self._n)  # which also drops the buffered 32-bit half random(N) keeps
        bg.state = {**bg.state, **{k: self._start[k] for k in ("has_uint32", "uinteger")}}

    def __getitem__(self, idx) -> np.ndarray:
        return _classify(self._uniforms(idx), self._modes[idx], self._table)

    def _uniforms(self, idx) -> np.ndarray:
        if self._u is not None:
            return self._u[idx]
        gen = self._gen
        gen.bit_generator.state = self._start
        if not isinstance(idx, slice):
            rows = np.asarray(idx, dtype=np.intp)
            at = np.sort(rows)
            ends = np.flatnonzero(at[1:] - at[:-1] > _JUMP_ROWS)  # of each run but the last
            first = np.concatenate((at[:1], at[ends + 1]))
            end = np.concatenate((at[ends], at[-1:])) + 1
            if len(first) * _JUMP_ROWS + (end - first).sum() < self._n / 2:
                drawn, pos, o = np.empty((end - first).sum()), 0, 0
                for a, b in zip(first.tolist(), end.tolist()):
                    gen.bit_generator.advance(a - pos)
                    gen.random(out=drawn[o:o + b - a])
                    pos, o = b, o + b - a
                # row r of a run starting at first, drawn from o, is at r + o - first
                shift = np.cumsum(end - first) - end
                return drawn[rows + shift[np.searchsorted(first, rows, side="right") - 1]]
        self._u = gen.random(self._n)
        return self._u[idx]


def estimate_icc(values: np.ndarray, codes: np.ndarray) -> float:
    """One-way ANOVA (method of moments) intraclass correlation of
    ``values`` grouped by dense group codes 0..k-1, such as
    ``Population.psu_codes()``."""
    sizes = np.bincount(codes)
    k = len(sizes)
    n = len(values)
    if not sizes.all():
        raise ValidationError("group codes must be dense: a code below the largest is unused")
    if k < 2 or n <= k:
        raise ValidationError("need at least 2 groups and more units than groups")
    sums = np.bincount(codes, weights=values)
    grand = values.sum() / n
    ss_between = float((sums**2 / sizes).sum() - n * grand**2)
    ss_within = float((values**2).sum() - (sums**2 / sizes).sum())
    msb = ss_between / (k - 1)
    msw = ss_within / (n - k)
    n0 = (n - float((sizes**2).sum()) / n) / (k - 1)
    denom = msb + (n0 - 1.0) * msw
    return float((msb - msw) / denom) if denom > 0 else 0.0


# ---------------------------------------------------------------------------
# CSV interchange.  Header row required; columns id, psu, mode (WEB/MAIL/FTF),
# one numeric column per variable, and optionally a label column (W/F/N).
# ---------------------------------------------------------------------------

def load_microdata(path: str | Path, schema: MicrodataSchema) -> Population:
    """Read a household microdata CSV into a raw population.

    The file is UTF-8 text, with or without a byte-order mark: a header
    row naming the columns, then one row per household, fields separated
    by ``,`` and quoted with ``"`` where they hold a comma, quote or
    newline.  There are no comment lines (``#`` is data) and blank lines
    are skipped.  Each schema column is named once in the header, in any
    order; other columns are ignored.
    Ids and PSUs are decimal int64 values; ids must be distinct and are
    not kept.  Outcomes are finite decimal numbers, parsed with correct
    rounding to the double ``float()`` gives, without the ``_`` digit
    separators ``float()`` accepts.  Modes
    (WEB/MAIL/FTF) and labels (W/F/N) match ignoring case and surrounding
    whitespace.  Any problem raises a ``DataError`` (the CLI exits 3)
    whose message names the file, and the line and column where there is
    one.  Rows are parsed ``_CHUNK_ROWS`` at a time into the population's
    own arrays, so reading needs the population plus one chunk.  Modes
    and labels are read as ``_NAME_WIDTH``-character text, with no Python
    object per row; only fields that fill that width are read again.
    """
    path = Path(path)
    if not schema.variables:
        raise SchemaError("schema lists no variable columns")
    ids, psu_ids, y, modes, labels = _read_columns(path, schema)
    if (dup := _first_duplicate(ids)) is not None:  # the one check not made while reading
        row = np.flatnonzero(ids == dup)[1]
        raise IntegrityError(f"{_where(path, row)}: duplicate household id {dup}")
    return Population(**psu_frame_of(psu_ids), bits=np.empty((len(y), 0), np.uint8), block=y,
                      binary=(False,) * len(schema.variables), modes=modes, labels=labels,
                      variable_names=tuple(schema.variables))


def _read_columns(path: Path, schema: MicrodataSchema) -> tuple[np.ndarray, ...]:
    """The ids, PSU ids, outcomes, mode codes and label codes (None without
    a label column) of every data row.  ``np.loadtxt`` reads one open handle
    ``_CHUNK_ROWS`` rows per call, and each chunk is checked and stored
    into arrays sized by the file's line count, then trimmed in place.
    Modes and labels are read as ``_NAME_WIDTH``-character text, with no
    Python object per row.  The fields that fill that width, and every
    field of a file holding a NUL byte (numpy text drops NULs from its
    end, so there the width cannot tell a cut field), are classified from
    their full text in one more pass after the last chunk.
    Raises a DataError naming file:line and column."""
    text = f"U{_NAME_WIDTH}"
    columns = [schema.id, schema.psu, schema.mode, *schema.variables]
    dtype = [("id", np.int64), ("psu", np.int64), ("mode", text),
             ("y", np.float64, (len(schema.variables),))]
    if schema.label is not None:
        columns.append(schema.label)
        dtype.append(("label", text))
    header: list[str] = []
    n = 0  # data rows stored: the first row of the chunk being read
    try:
        cap, nul = _prescan(path)
        ids, psu_ids = np.empty(cap, np.int64), np.empty(cap, np.int64)
        y, modes = np.empty((cap, len(schema.variables))), np.empty(cap, np.int8)
        labels = None if schema.label is None else np.empty(cap, np.int8)
        named = [("mode", modes, schema.mode, MODE_NAMES)]
        if labels is not None:
            named.append(("label", labels, schema.label, LABEL_NAMES))
        with path.open(encoding="utf-8-sig", newline="") as fh, warnings.catch_warnings():
            # The call that meets the end of the file reads no data, and blank
            # lines are skipped, with or without max_rows.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            warnings.filterwarnings("ignore", r"Input line \d+ contained no data")
            # Older numpy parses "1.5" into an int64 field with this warning.
            warnings.filterwarnings("error", category=DeprecationWarning)
            header = next(csv.reader(fh), [])
            for col in columns:
                if col not in header:
                    raise SchemaError(f"required column {col!r} missing from {path.name}")
                if header.count(col) > 1:
                    raise SchemaError(f"column {col!r} appears twice in {path.name}")
            usecols = [header.index(c) for c in columns]
            # Stop only at an empty chunk: whether max_rows counts blank
            # lines differs between numpy versions.
            while len(table := np.loadtxt(fh, dtype=dtype, delimiter=",", usecols=usecols,
                                          comments=None, quotechar='"', ndmin=1,
                                          max_rows=_CHUNK_ROWS)):
                rows = slice(n, n + len(table))
                for key, codes, column, names in named:
                    codes[rows] = _CUT if nul else _codes(table[key], names, path, column, n)
                if not np.isfinite(table["y"]).all():
                    row, j = np.argwhere(~np.isfinite(table["y"]))[0]
                    raise ParseError(f"{_where(path, n + row)}: non-finite value "
                                     f"{float(table['y'][row, j])} "
                                     f"in column {schema.variables[j]!r}")
                ids[rows], psu_ids[rows], y[rows] = table["id"], table["psu"], table["y"]
                n = rows.stop
        _read_cut_fields(path, [(codes[:n], column, names) for _, codes, column, names in named])
    except OSError as exc:
        raise DataError(f"cannot read microdata {path}: {exc}") from None
    except UnicodeDecodeError:
        raise ParseError(f"{path.name}:{_undecodable_line(path)}: not UTF-8 text") from None
    except (ValueError, DeprecationWarning, csv.Error) as exc:
        message = str(exc)
        # loadtxt counts a call's data rows from 0 in the first message and
        # from 1 in the second; columns from 1 in the first and from 0 in the second.
        if m := re.search(r"could not convert string (.*) to (\w+) at row (\d+), "
                          r"column (\d+)", message):
            raise ParseError(f"{_where(path, n + int(m[3]))}: {m[1]} is not a valid {m[2]} "
                             f"in column {header[int(m[4]) - 1]!r}") from None
        if m := re.search(r"invalid column index (\d+) at row (\d+)", message):
            raise ParseError(f"{_where(path, n + int(m[2]) - 1)}: no value "
                             f"in column {header[int(m[1])]!r}") from None
        raise ParseError(f"{path.name}: {message}") from None
    if n == 0:
        raise ParseError(f"{path.name}: no data rows")
    arrays = (ids, psu_ids, y, modes, labels)
    for a in arrays:
        if a is not None:
            a.resize((n, *a.shape[1:]), refcheck=False)
    return arrays


def _prescan(path: Path) -> tuple[int, bool]:
    """At least the number of lines in ``path``, ended by ``\\n``, ``\\r\\n``
    or ``\\r`` (a bound on its data rows), and whether it holds a NUL
    byte, read in 64 KiB blocks."""
    lines, nul = 1, False  # a last line without its line end
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(2**16), b""):
            lines += int(np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n")))
            if b"\r" in block:
                lines += block.count(b"\r") - block.count(b"\r\n")
            nul = nul or b"\0" in block
    return lines, nul


def _codes(raw: np.ndarray, names: tuple[str, ...], path: Path, column: str,
           first: int) -> np.ndarray:
    """Index into ``names`` of each fixed-width text in ``raw``, data rows
    ``first`` on, ignoring case and surrounding whitespace, or ``_CUT``
    where the text fills the width and may be the start of a longer field.
    Whole arrays are compared, exact spellings first, so only the other
    values pay for normalization."""
    codes = np.full(len(raw), -1, dtype=np.int8)
    for code, name in enumerate(names):
        codes[raw == name] = code
    rest = np.flatnonzero(codes < 0)
    if len(rest):
        text = raw[rest]
        norm = np.char.upper(np.char.strip(text))
        for code, name in enumerate(names):
            codes[rest[norm == name]] = code
        codes[rest[np.char.str_len(text) == _NAME_WIDTH]] = _CUT
        if (codes == -1).any():
            row = np.argmax(codes == -1)
            raise ParseError(_unknown(_where(path, first + row), str(raw[row]), column, names))
    return codes


def _read_cut_fields(path: Path, fields: list[tuple[np.ndarray, str, tuple[str, ...]]]) -> None:
    """Replace each ``_CUT`` code in the (codes, column, names) ``fields``
    with the code of the field's full text, read by one pass of the csv
    module that ends at the last such row, like ``_where``.  A file
    without such codes is not read again."""
    todo = np.flatnonzero(np.logical_or.reduce([codes == _CUT for codes, _, _ in fields]))
    if not len(todo):
        return
    with closing(_csv_rows(path)) as rows:
        header = [name.replace(_NUL_STANDIN, "\0") for name in next(rows)[1]]
        index = [header.index(column) for _, column, _ in fields]
        data = enumerate(rows)
        for want in todo.tolist():
            for row, (line, values) in data:
                if row == want:
                    break
            else:
                raise ParseError(f"{path.name}: the csv module reads fewer data rows "
                                 "than np.loadtxt")
            for (codes, column, names), i in zip(fields, index):
                if codes[row] == _CUT:
                    codes[row] = _code(values[i].replace(_NUL_STANDIN, "\0"), names,
                                       f"{path.name}:{line}", column)


def _code(text: str, names: tuple[str, ...], where: str, column: str) -> int:
    """Index into ``names`` of a field's full text, matched as ``_codes``
    matches stored text (numpy text drops NULs from its end)."""
    key = text.rstrip("\0").strip().rstrip("\0").upper()
    if key not in names:
        raise ParseError(_unknown(where, text, column, names))
    return names.index(key)


def _unknown(where: str, value: str, column: str, names: tuple[str, ...]) -> str:
    return (f"{where}: unknown value {reprlib.repr(value)} "
            f"in column {column!r}, expected one of {'/'.join(names)}")


def _csv_rows(path: Path) -> Iterator[tuple[int, list[str]]]:
    """(line on which the row starts, fields) of each row of ``path`` as the
    csv module reads it, blank lines skipped: the header, then the data
    rows.  Fields may be of any length below 2**31 and hold NULs, given as
    ``_NUL_STANDIN``.  Closing the generator restores the csv module's
    field size limit."""
    limit = csv.field_size_limit(2**31 - 1)
    try:
        with path.open(encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(line.replace("\0", _NUL_STANDIN) for line in fh)
            start = 1
            for fields in reader:
                if fields:
                    yield start, fields
                start = reader.line_num + 1
    finally:
        csv.field_size_limit(limit)


def _where(path: Path, row: int) -> str:
    """``file:line`` of the line on which data row ``row`` (from 0, blank
    lines not counted) starts, or ``file (data row n)`` where the csv
    module cannot rescan that far.  The file is rescanned only to report
    an error, so valid input never pays for line numbers."""
    try:
        with closing(_csv_rows(path)) as rows:
            for seen, (line, _) in enumerate(rows, start=-1):
                if seen == row:
                    return f"{path.name}:{line}"
    except csv.Error:  # a field of 2**31 characters or more
        pass
    return f"{path.name} (data row {row + 1})"


def _undecodable_line(path: Path) -> int:
    """First line holding bytes that are not UTF-8."""
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return lineno
    return lineno


def write_population_csv(pop: Population, path: str | Path) -> None:
    """Write a population back out in the interchange layout, one row
    chunk at a time; a household's id is its row number."""
    header = ["id", "psu", "mode", *pop.variable_names]
    if pop.labels is not None:
        header.append("label")
    codes = None if pop.members is None else pop.psu_codes()  # else a chunk's at a time
    with Path(path).open("w", newline="") as fh:
        # Only the header can hold a comma or quote, so only it goes through csv.
        csv.writer(fh, lineterminator="\n").writerow(header)
        for rows in _chunks(pop.n_households, _WRITE_ROWS):
            columns = [map(str, range(rows.start, rows.stop)),
                       map(str, pop.psus[_slice_codes(pop.starts, rows) if codes is None
                                         else codes[rows]].tolist()),
                       [MODE_NAMES[m] for m in pop.modes[rows].tolist()],
                       *(map(repr, col) for col in pop.outcomes(rows).tolist())]
            if pop.labels is not None:
                columns.append([LABEL_NAMES[c] for c in pop.labels[rows].tolist()])
            fh.writelines(",".join(row) + "\n" for row in zip(*columns))

