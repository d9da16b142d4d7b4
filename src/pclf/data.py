"""Rating-file parsing, scale normalization, cross-domain indexing and Given-N splits.

A dataset holds Z domains whose users and items live in disjoint index
spaces (two domains may reuse the same raw ID string without referring to
the same entity).  All ratings are normalized onto a shared discrete scale
1..R before anything downstream sees them.

Ratings are held as columns: a dataset is built from raw ratings
(``build_dataset``, behind ``read_domains``, the one path from rating
files) or from an (S, 4) integer array of (domain, user, item, level)
rows (``CrossDomainDataset.from_indexed``), and cut with one position
array per domain (``restrict``).  ``given_n_split`` still returns lists
of ``RatingTriple``, a NamedTuple, made without a Python-level call per
rating; ``_given_n_positions`` gives the same split as positions for
``restrict``.

Numbers become CSV bytes in one place, the block writer ``_csv_rows``:
``save_dataset`` writes ratings.csv through it, and ``pclf predict`` its
predictions.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np


class DataError(ValueError):
    """Malformed input data or an infeasible data request."""


@dataclass(frozen=True)
class ScaleSpec:
    """Source rating scale and the number of discrete target levels."""

    min: float
    max: float
    target_levels: int = 5

    def __post_init__(self):
        # exact for an int past the largest float, and false for NaN
        finite = all(abs(x) <= sys.float_info.max
                     for x in (self.min, self.max, self.max - self.min))
        if not (finite and self.min < self.max):
            raise DataError("scale needs min < max, both and their span finite, "
                            f"got [{self.min}, {self.max}]")
        if not 2 <= self.target_levels <= np.iinfo(np.int64).max:
            raise DataError(
                f"target_levels must lie in [2, 2**63 - 1], got {self.target_levels}")


@dataclass(frozen=True)
class DomainSource:
    """One domain's rating file and how to parse it."""

    path: str
    scale: ScaleSpec
    name: str = ""
    delimiter: str = "\t"
    columns: tuple[int, int, int] = (0, 1, 2)
    skip_header: bool = False

    def __post_init__(self):
        if len(self.columns) != 3:
            raise DataError(f"columns needs 3 entries (user, item, rating), got {self.columns}")
        if "\n" in self.name or "\r" in self.name:   # it would split a row of table.txt
            raise DataError(f"a domain name must not hold a line break, got {self.name!r}")


@dataclass(frozen=True)
class RawRating:
    user_id: str
    item_id: str
    value: float


class RatingTriple(NamedTuple):
    """One observed rating: (domain, dense user index, dense item index, level).

    A tuple, so it equals the plain tuple of its four ints."""

    domain: int
    user: int
    item: int
    rating: int


def normalize_scale(value: float, scale: ScaleSpec) -> int:
    """Map a source-scale value onto the discrete levels 1..R.

    Linear map followed by half-up rounding, clamped to {1..R}.  On a 1-6
    source scale with R=5 this sends 6 to 5 and leaves 1..5 fixed.
    """
    if value < scale.min or value > scale.max:
        raise DataError(
            f"rating {value} outside declared scale [{scale.min}, {scale.max}]"
        )
    levels = scale.target_levels
    x = 1.0 + (levels - 1) * (value - scale.min) / (scale.max - scale.min)
    return int(min(max(math.floor(x + 0.5), 1), levels))


def parse_ratings(
    path: str,
    delimiter: str = "\t",
    column_map: tuple[int, int, int] = (0, 1, 2),
    scale: ScaleSpec = ScaleSpec(1, 5),
    skip_header: bool = False,
) -> list[RawRating]:
    """Read one rating per line from a delimited text file.

    ``column_map`` gives the (user, item, rating) column positions: exactly
    three distinct ones, none of them negative.  Rows are validated against
    ``scale`` bounds; any malformed row, or a rating that is not a finite
    number, is reported with its 1-based line number.  Blank lines are
    skipped.
    """
    if not delimiter:
        raise DataError("the delimiter must not be empty")
    if len(column_map) != 3:
        raise DataError(f"the column map needs 3 entries (user, item, rating), "
                        f"got {list(column_map)}")
    for col in column_map:
        if col < 0:
            raise DataError(f"column indices must not be negative, got {col}")
    if len(set(column_map)) != len(column_map):
        raise DataError(f"column indices must be distinct, got {list(column_map)}")
    ucol, icol, rcol = column_map
    needed = max(column_map) + 1
    out = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read ratings file {path}: {exc}") from exc
    with handle:
        for lineno, line in enumerate(text_lines(handle, path), start=1):
            if skip_header and lineno == 1:
                continue
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            fields = line.split(delimiter)
            if len(fields) < needed:
                raise DataError(
                    f"{path}:{lineno}: expected at least {needed} columns, got {len(fields)}"
                )
            try:
                value = float(fields[rcol])
            except ValueError as exc:
                raise DataError(
                    f"{path}:{lineno}: rating {fields[rcol]!r} is not a number"
                ) from exc
            if not math.isfinite(value):
                raise DataError(f"{path}:{lineno}: rating {fields[rcol]!r} is not finite")
            if value < scale.min or value > scale.max:
                raise DataError(
                    f"{path}:{lineno}: rating {value} outside scale "
                    f"[{scale.min}, {scale.max}]"
                )
            out.append(RawRating(fields[ucol].strip(), fields[icol].strip(), value))
    return out


def select_subset(
    ratings: list[RawRating],
    n_users: int | None = None,
    n_items: int | None = None,
    min_user_ratings: int = 0,
    min_item_ratings: int = 0,
    seed: int = 0,
) -> list[RawRating]:
    """Restrict ratings to a seeded random sample of qualifying users and items.

    A user qualifies with strictly more than ``min_user_ratings`` ratings
    (items analogously), so a threshold of 16 keeps users that rated at
    least 17 items; a count of None keeps every qualifying one, drawn as
    that count would be.  Candidates are ordered by first appearance, so
    the same (input, seed) pair always yields the same subset.
    """
    if min_user_ratings < 0 or min_item_ratings < 0:
        raise DataError("rating-count thresholds must be >= 0")
    if any(n is not None and n < 0 for n in (n_users, n_items)):
        raise DataError(f"subset counts must be >= 0, got {n_users} users and {n_items} items")
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    user_counts: dict[str, int] = {}
    item_counts: dict[str, int] = {}
    for r in ratings:
        user_counts[r.user_id] = user_counts.get(r.user_id, 0) + 1
        item_counts[r.item_id] = item_counts.get(r.item_id, 0) + 1
    users = [u for u, c in user_counts.items() if c > min_user_ratings]
    items = [i for i, c in item_counts.items() if c > min_item_ratings]
    n_users = len(users) if n_users is None else n_users
    n_items = len(items) if n_items is None else n_items
    if len(users) < n_users:
        raise DataError(
            f"requested {n_users} users but only {len(users)} have more than "
            f"{min_user_ratings} ratings"
        )
    if len(items) < n_items:
        raise DataError(
            f"requested {n_items} items but only {len(items)} have more than "
            f"{min_item_ratings} ratings"
        )
    rng = np.random.default_rng(seed)
    keep_users = set(np.array(users, dtype=object)[rng.choice(len(users), n_users, replace=False)])
    keep_items = set(np.array(items, dtype=object)[rng.choice(len(items), n_items, replace=False)])
    return [r for r in ratings if r.user_id in keep_users and r.item_id in keep_items]


@dataclass
class CrossDomainDataset:
    """Indexed rating pools for Z domains plus derived pooled views.

    ``users[z]``, ``items[z]`` and ``ratings[z]`` are parallel arrays of
    dense per-domain indices and levels 1..R.  ``n_users[z]`` / ``n_items[z]``
    give the index-space sizes; ID maps translate back to the raw strings.
    """

    n_levels: int
    users: list[np.ndarray]
    items: list[np.ndarray]
    ratings: list[np.ndarray]
    n_users: list[int]
    n_items: list[int]
    user_ids: list[list[str]]
    item_ids: list[list[str]]
    user_offsets: np.ndarray = field(init=False)
    item_offsets: np.ndarray = field(init=False)

    def __post_init__(self):
        self.user_offsets = np.concatenate(([0], np.cumsum(self.n_users)))
        self.item_offsets = np.concatenate(([0], np.cumsum(self.n_items)))
        for z in range(self.n_domains):
            s = len(self.users[z])
            if len(self.items[z]) != s or len(self.ratings[z]) != s:
                raise DataError(f"domain {z}: ragged triple arrays")

    @property
    def n_domains(self) -> int:
        return len(self.users)

    @property
    def n_ratings(self) -> list[int]:
        return [len(u) for u in self.users]

    @property
    def total_users(self) -> int:
        return int(self.user_offsets[-1])

    @property
    def total_items(self) -> int:
        return int(self.item_offsets[-1])

    def pooled(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated (global user, global item, level) arrays over all domains."""
        gu = np.concatenate(
            [self.users[z] + self.user_offsets[z] for z in range(self.n_domains)]
        )
        gv = np.concatenate(
            [self.items[z] + self.item_offsets[z] for z in range(self.n_domains)]
        )
        r = np.concatenate(self.ratings)
        return gu, gv, r

    def domain_view(self, domain: int) -> "CrossDomainDataset":
        """Single-domain dataset sharing this one's index space for that domain."""
        self._check_domain(domain)
        z = domain
        return CrossDomainDataset(
            n_levels=self.n_levels,
            users=[self.users[z].copy()],
            items=[self.items[z].copy()],
            ratings=[self.ratings[z].copy()],
            n_users=[self.n_users[z]],
            n_items=[self.n_items[z]],
            user_ids=[list(self.user_ids[z])],
            item_ids=[list(self.item_ids[z])],
        )

    def restrict(self, positions: list[np.ndarray]) -> "CrossDomainDataset":
        """Dataset holding, for each domain, the ratings at that domain's
        ``positions`` (an index array into its arrays), in that order, and
        keeping the full index space.  Used to train on a split's train pool
        while preserving user/item identities for later evaluation.
        """
        if len(positions) != self.n_domains:
            raise DataError(f"restrict needs {self.n_domains} position arrays, "
                            f"got {len(positions)}")
        users, items, ratings = ([col[pos] for col, pos in zip(cols, positions)]
                                 for cols in (self.users, self.items, self.ratings))
        return CrossDomainDataset(
            n_levels=self.n_levels,
            users=users,
            items=items,
            ratings=ratings,
            n_users=list(self.n_users),
            n_items=list(self.n_items),
            user_ids=[list(ids) for ids in self.user_ids],
            item_ids=[list(ids) for ids in self.item_ids],
        )

    def _check_domain(self, domain: int) -> None:
        if not 0 <= domain < self.n_domains:
            raise DataError(f"domain {domain} out of range [0, {self.n_domains})")

    @classmethod
    def from_indexed(
        cls,
        n_levels: int,
        triples: np.ndarray,
        n_users: list[int],
        n_items: list[int],
    ) -> "CrossDomainDataset":
        """Build a dataset from already-dense triples with declared index sizes.

        ``triples`` is an (S, 4) integer array of (domain, user, item, level)
        rows.  The first row outside the declared sizes, in order, is
        reported.
        """
        z, u, v, r = np.asarray(triples, dtype=np.int64).reshape(-1, 4).T
        n_dom = len(n_users)
        dom_ok = (z >= 0) & (z < n_dom)
        # an out-of-range domain looks up the sizes of an empty extra domain
        zi = np.where(dom_ok, z, n_dom)
        ok = (dom_ok & (u >= 0) & (u < np.append(n_users, 0)[zi])
              & (v >= 0) & (v < np.append(n_items, 0)[zi]) & (r >= 1) & (r <= n_levels))
        if not ok.all():
            i = np.argmin(ok)
            _check_triple((int(z[i]), int(u[i]), int(v[i]), int(r[i])),
                          n_levels, n_users, n_items)
        return cls(
            n_levels=n_levels,
            users=[u[z == d] for d in range(n_dom)],
            items=[v[z == d] for d in range(n_dom)],
            ratings=[r[z == d] for d in range(n_dom)],
            n_users=list(n_users),
            n_items=list(n_items),
            user_ids=[[str(i) for i in range(m)] for m in n_users],
            item_ids=[[str(i) for i in range(n)] for n in n_items],
        )


def _check_triple(row, n_levels: int, n_users: list[int], n_items: list[int]) -> None:
    """Raise ``DataError`` if the (domain, user, item, level) ``row`` lies
    outside the declared sizes."""
    t = RatingTriple(*row)
    if not 0 <= t.domain < len(n_users):
        raise DataError(f"domain {t.domain} out of range")
    if not (0 <= t.user < n_users[t.domain] and 0 <= t.item < n_items[t.domain]):
        raise DataError(f"triple {t} outside declared index space")
    if not 1 <= t.rating <= n_levels:
        raise DataError(f"rating level {t.rating} outside 1..{n_levels}")


def build_dataset(
    per_domain: list[tuple[list[RawRating], ScaleSpec]],
) -> CrossDomainDataset:
    """Index raw ratings into a cross-domain dataset.

    Dense indices follow first appearance within each domain; duplicate
    (domain, user, item) keys keep the last value seen (a revised rating
    replaces the earlier one).  All domains must target the same number of
    levels.
    """
    if not per_domain:
        raise DataError("at least one domain is required")
    levels = {scale.target_levels for _, scale in per_domain}
    if len(levels) != 1:
        raise DataError(f"domains disagree on target_levels: {sorted(levels)}")
    n_levels = levels.pop()

    users, items, ratings = [], [], []
    m_z, n_z, user_ids, item_ids = [], [], [], []
    for z, (raw, scale) in enumerate(per_domain):
        if not raw:
            raise DataError(f"domain {z} has no ratings")
        uid_map: dict[str, int] = {}
        iid_map: dict[str, int] = {}
        cells: dict[tuple[int, int], int] = {}
        for r in raw:
            u = uid_map.setdefault(r.user_id, len(uid_map))
            v = iid_map.setdefault(r.item_id, len(iid_map))
            cells[(u, v)] = normalize_scale(r.value, scale)
        keys = np.array(list(cells.keys()), dtype=np.int64)
        users.append(keys[:, 0])
        items.append(keys[:, 1])
        ratings.append(np.array(list(cells.values()), dtype=np.int64))
        m_z.append(len(uid_map))
        n_z.append(len(iid_map))
        user_ids.append(list(uid_map))
        item_ids.append(list(iid_map))
    return CrossDomainDataset(
        n_levels=n_levels,
        users=users,
        items=items,
        ratings=ratings,
        n_users=m_z,
        n_items=n_z,
        user_ids=user_ids,
        item_ids=item_ids,
    )


def read_domains(sources: list[DomainSource], subset: dict | None = None,
                 seed: int = 0) -> CrossDomainDataset:
    """Parse each source's file, cut it by ``select_subset(**subset, seed=seed)``
    when ``subset`` is given, and index the domains with ``build_dataset``."""
    per_domain = []
    for src in sources:
        raw = parse_ratings(src.path, delimiter=src.delimiter, column_map=src.columns,
                            scale=src.scale, skip_header=src.skip_header)
        if subset is not None:
            raw = select_subset(raw, **subset, seed=seed)
        per_domain.append((raw, src.scale))
    return build_dataset(per_domain)


@dataclass
class GivenNSplit:
    """Train/evaluation partition of one domain under the Given-N protocol."""

    train_pool: list[RatingTriple]
    eval_set: list[RatingTriple]
    n_given: int
    seed: int


def given_n_split(
    dataset: CrossDomainDataset,
    domain: int,
    n_train_users: int,
    n_given: int,
    seed: int,
) -> GivenNSplit:
    """Split one domain: the first ``n_train_users`` users contribute everything,
    each remaining (test) user contributes a random sample of ``n_given``
    ratings to the train pool and the rest to the evaluation set.

    Both lists run by user ascending and keep the dataset's order within
    a user.
    """
    train, evaluation = _given_n_positions(dataset, domain, n_train_users, n_given, seed)
    columns = (dataset.users[domain], dataset.items[domain], dataset.ratings[domain])

    def triples(positions):
        rows = zip(repeat(domain), *(c[positions].tolist() for c in columns))
        # tuple.__new__ makes each RatingTriple without a Python-level call
        return list(map(tuple.__new__, repeat(RatingTriple), rows))

    return GivenNSplit(train_pool=triples(train), eval_set=triples(evaluation),
                       n_given=n_given, seed=seed)


def _given_n_positions(
    dataset: CrossDomainDataset,
    domain: int,
    n_train_users: int,
    n_given: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``given_n_split`` as positions into the domain's arrays: (train, eval).

    Test users draw their ``n_given`` kept ratings with one
    ``rng.choice(n_rated, size=min(n_given, n_rated), replace=False)``
    each, in ascending user order.
    """
    dataset._check_domain(domain)
    m = dataset.n_users[domain]
    if not 0 <= n_train_users < m:
        raise DataError(f"n_train_users must be in [0, {m}), got {n_train_users}")
    if n_given < 0:
        raise DataError("n_given must be >= 0")
    order = np.argsort(dataset.users[domain], kind="stable")
    users = dataset.users[domain][order]
    starts = np.flatnonzero(np.diff(users, prepend=-1))
    counts = np.diff(np.append(starts, len(users)))
    first_test = int(np.searchsorted(users[starts], n_train_users))
    keep = np.zeros(len(users), dtype=bool)
    keep[:starts[first_test] if first_test < len(starts) else len(users)] = True
    rng = np.random.default_rng(seed)
    for start, count in zip(starts[first_test:].tolist(), counts[first_test:].tolist()):
        keep[start + rng.choice(count, size=min(n_given, count), replace=False)] = True
    return order[keep], order[~keep]


DATASET_FORMAT = "pclf-dataset-v1"
_MANIFEST_TYPES = {"format": str, "n_domains": int, "n_levels": int, "n_users": [int],
                   "n_items": [int], "n_ratings": [int], "user_ids": [[str]], "item_ids": [[str]]}
RATINGS_HEADER = ["domain", "user_idx", "item_idx", "rating"]


@contextlib.contextmanager
def atomic_write(path: str):
    """Open a sibling temp file for writing and rename it over ``path`` when
    the block ends; a failed write removes it and leaves ``path`` as it was.

    The temp file is a hidden sibling with a random fixed-length name,
    created exclusively, so it is unique across processes and threads and
    fits wherever ``path`` fits; it gets the mode a plain ``open`` would.
    A ``path`` that is a symlink, or exists and is not a regular file (a
    FIFO, a device), is written in place, so the link or special file
    stays; a failed write there can leave part of the output."""
    if os.path.islink(path) or os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            yield fh
        return
    tmp = os.path.join(os.path.dirname(path), f".{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# rows formatted per call of _csv_rows, which bounds its buffers
BLOCK_ROWS = 1 << 14


def row_blocks(n_rows: int, width: int) -> list[slice]:
    """Slices of consecutive rows of ``width`` cells: as many rows as fit in
    ``BLOCK_ROWS`` cells, and at least one."""
    step = max(1, BLOCK_ROWS // max(width, 1))
    return [slice(lo, lo + step) for lo in range(0, n_rows, step)]


def _digit_words(text) -> np.ndarray:
    """One uint32 per number 0..999: the bytes of ``text(i)`` right-aligned
    in three, NUL-padded, then a NUL."""
    return np.frombuffer(b"".join(text(i).rjust(3, b"\0") + b"\0" for i in range(1000)),
                         dtype=np.uint32)


_FULL = _digit_words(lambda i: b"%03d" % i)            # a group below the leading one
_LEAD = _digit_words(lambda i: b"%d" % i if i else b"")  # a leading group above the units
_UNITS = _digit_words(lambda i: b"%d" % i)             # the units group when it leads


def _write_rows(write, *columns, newline: str = "\n") -> None:
    """Write CSV rows of ``columns`` through ``write``, ``BLOCK_ROWS`` at a time."""
    for start in range(0, len(columns[0]), BLOCK_ROWS):
        write(_csv_rows(*(c[start:start + BLOCK_ROWS] for c in columns), newline=newline))


def _csv_rows(*columns, newline: str = "\n") -> str:
    """CSV lines of equal-length columns, each ended by ``newline``:
    non-negative integers in decimal, floats as ``f"{x:.6f}"`` does, byte
    for byte.

    Every field is a row of 4-byte words, three ASCII digits and a NUL
    each, with leading zeros as NUL and the separator in the last NUL;
    a line end's further bytes take one word each.  The rows are laid
    side by side and the NULs dropped."""
    first, *rest = newline.encode()
    ends = [b","] * (len(columns) - 1) + [bytes([first])]
    words = [(_float_words if c.dtype.kind == "f" else _int_words)(c, end)
             for c, end in zip(columns, ends)]
    words += [np.full((len(columns[0]), 1), _end_word(bytes([b]))) for b in rest]
    block = np.concatenate(words, axis=1)
    return block.tobytes().translate(None, b"\0").decode("ascii")


def _int_words(x: np.ndarray, end: bytes, groups: int = 1) -> np.ndarray:
    """Non-negative integers as (n, >= groups) words of 3-digit groups,
    most significant first; the last word ends in ``end``."""
    top = int(x.max()) if len(x) else 0
    while top >= 1000 ** groups:
        groups += 1
    out = np.zeros((len(x), groups), np.uint32)
    rest = x
    for col in range(groups - 1, -1, -1):
        table = _UNITS if col == groups - 1 else _LEAD
        if top < 1000 ** (groups - col):    # no row has digits above this group
            out[:, col] = table[rest]
            break
        higher = rest // 1000
        group = rest - 1000 * higher
        out[:, col] = np.where(higher > 0, _FULL[group], table[group])
        rest = higher
    out[:, -1] |= _end_word(end)
    return out


def _end_word(end: bytes) -> np.uint32:
    """The word with ``end`` in its last byte, to OR into a field's last word."""
    return np.frombuffer(b"\0\0\0" + end, dtype=np.uint32)[0]


def _float_words(x: np.ndarray, end: bytes) -> np.ndarray:
    """``f"{v:.6f}"`` of every value as words, as ``_int_words`` lays them.

    Values in [0, 1000) are rounded as x * 1e6, which lies within 6e-8 of
    the exact product there.  A value whose product falls within 1e-6 of a
    half unit, where that error or a tie could change the rounding, and
    every negative, non-finite or larger value are formatted by the
    f-string itself."""
    fast = ~np.signbit(x) & (x < 1e3)
    scaled = np.where(fast, x, 0.0) * 1e6
    fast &= np.abs(scaled - np.floor(scaled) - 0.5) > 1e-6
    units = np.rint(scaled).astype(np.int64)
    whole = units // 1_000_000
    decimals = units - 1_000_000 * whole
    high = decimals // 1000
    slow = np.flatnonzero(~fast)
    texts = [f"{v:.6f}".encode() for v in x[slow].tolist()]
    # room for the widest text before the separator byte
    groups = max([1] + [-(-(len(t) + 1) // 4) - 2 for t in texts])
    low = _FULL[decimals - 1000 * high] | _end_word(end)
    out = np.concatenate([_int_words(whole, b".", groups), _FULL[high][:, None], low[:, None]],
                         axis=1)
    if texts:
        field = out.view(np.uint8)
        width = field.shape[1] - 1
        field[slow, :width] = 0
        for i, text in zip(slow.tolist(), texts):
            field[i, width - len(text):width] = np.frombuffer(text, dtype=np.uint8)
    return out


def save_dataset(dataset: CrossDomainDataset, directory: str) -> None:
    """Write the canonical dump: ratings.csv plus manifest.json with counts and ID maps.

    ratings.csv holds the header and one (domain, user_idx, item_idx,
    rating) row per rating, domain by domain, each line ending in CRLF as
    ``csv.writer`` ends it; the rows go through the block CSV writer."""
    columns = [np.repeat(np.arange(dataset.n_domains), dataset.n_ratings)] + [
        np.concatenate(cols).astype(np.int64, copy=False)
        for cols in (dataset.users, dataset.items, dataset.ratings)]
    if any(len(c) and c.min() < 0 for c in columns):
        raise DataError("cannot save a dataset holding a negative index or level")
    os.makedirs(directory, exist_ok=True)
    with atomic_write(os.path.join(directory, "ratings.csv")) as fh:
        fh.write(",".join(RATINGS_HEADER) + "\r\n")
        _write_rows(fh.write, *columns, newline="\r\n")
    manifest = {
        "format": DATASET_FORMAT,
        "n_domains": dataset.n_domains,
        "n_levels": dataset.n_levels,
        "n_users": list(dataset.n_users),
        "n_items": list(dataset.n_items),
        "n_ratings": dataset.n_ratings,
        "user_ids": dataset.user_ids,
        "item_ids": dataset.item_ids,
    }
    with atomic_write(os.path.join(directory, "manifest.json")) as fh:
        fh.write(json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n")


def read_json(path: str, what: str, error: type[Exception]):
    """The JSON document in ``path``; a file that cannot be read, is not
    UTF-8 or is not JSON raises ``error`` naming ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
               dict: "an object", list: "a list", None: "null"}


def _is(value, kind) -> bool:
    """Whether ``value`` has the JSON type ``kind``: int, float (any
    number), bool, str, dict, list, None (null) or object (anything);
    [type] is a list of that type, and a tuple lists alternatives."""
    if isinstance(kind, tuple):
        return any(_is(value, k) for k in kind)
    if isinstance(kind, list):
        return isinstance(value, list) and all(_is(v, kind[0]) for v in value)
    if kind is None:
        return value is None
    if isinstance(value, bool) and kind in (int, float):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _describe(kind) -> str:
    if isinstance(kind, tuple):
        return " or ".join(_describe(k) for k in kind)
    if isinstance(kind, list):
        return f"a list, each {_describe(kind[0])}"
    return _TYPE_NAMES[kind]


def _checked(mapping, types: dict, where: str, required=()) -> dict:
    """``mapping``, once it is a JSON object with every ``required`` key,
    no key outside ``types`` and values of the types ``types`` gives;
    else ``DataError`` names the first fault."""
    if not isinstance(mapping, dict):
        raise DataError(f"{where} must be a JSON object")
    for key, value in mapping.items():
        if key not in types:
            raise DataError(f"unknown key {key!r} in {where}")
        if not _is(value, types[key]):
            raise DataError(f"{key!r} in {where} must be {_describe(types[key])}, "
                            f"got {json.dumps(value)}")
    for key in required:
        if key not in mapping:
            raise DataError(f"{where} is missing key {key!r}")
    return mapping


def load_dataset(directory: str) -> CrossDomainDataset:
    """Read a dataset written by ``save_dataset``.  The manifest's types and
    list lengths are checked, it needs at least one domain, every row must
    lie inside its declared sizes, and a manifest's ``n_ratings``, when
    present, must match each domain's row count; any fault raises one
    ``DataError``."""
    manifest_path = os.path.join(directory, "manifest.json")
    manifest = read_json(manifest_path, "dataset manifest", DataError)
    fmt = manifest.get("format") if isinstance(manifest, dict) else None
    if fmt != DATASET_FORMAT:
        raise DataError(f"unsupported dataset format {fmt!r}, expected {DATASET_FORMAT!r}")
    where = f"dataset manifest {manifest_path}"
    _checked(manifest, _MANIFEST_TYPES, where,
             ("n_levels", "n_users", "n_items", "user_ids", "item_ids"))
    n_domains = manifest.get("n_domains", len(manifest["n_users"]))
    for key in ("n_users", "n_items", "n_ratings", "user_ids", "item_ids"):
        if key in manifest and len(manifest[key]) != n_domains:
            raise DataError(f"{key!r} in {where} needs one entry per domain ({n_domains}), "
                            f"got {len(manifest[key])}")
    if not n_domains:
        raise DataError(f"{where} has no domains; at least one domain is required")
    for ids, counts in (("user_ids", "n_users"), ("item_ids", "n_items")):
        for z, (names, n) in enumerate(zip(manifest[ids], manifest[counts])):
            if len(names) != n:
                raise DataError(f"{ids!r} in {where} has {len(names)} entries for domain {z}, "
                                f"where {counts!r} says {n}")
    n_levels, n_users, n_items = (manifest[key] for key in ("n_levels", "n_users", "n_items"))
    path = os.path.join(directory, "ratings.csv")
    ds = CrossDomainDataset.from_indexed(
        n_levels, _read_ratings_csv(path, n_levels, n_users, n_items), n_users, n_items)
    for z, (held, n) in enumerate(zip(ds.n_ratings, manifest.get("n_ratings", ds.n_ratings))):
        if held != n:
            raise DataError(f"{path} holds {held} ratings for domain {z}, "
                            f"where 'n_ratings' in {where} says {n}")
    ds.user_ids = manifest["user_ids"]
    ds.item_ids = manifest["item_ids"]
    return ds


def text_lines(handle, path: str):
    """The lines of a text file opened as UTF-8; a byte that is not UTF-8
    raises ``DataError`` naming ``path``."""
    try:
        yield from handle
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc.reason}") from None


def read_int_rows(data: bytes) -> np.ndarray | None:
    """Rows of comma-separated decimal integers as an (n, width) int64 array.

    Only text made of digits, commas and LF or CRLF line ends, with no
    blank line and the same number of non-empty fields on every line, is
    read; anything else gives None, and the caller's line-by-line parser
    then accepts or rejects it with a diagnostic.
    """
    text = data.replace(b"\r\n", b"\n")
    if (not text or text.startswith(b"\n") or b"\n\n" in text
            or text.translate(None, b"0123456789,\n")):
        return None
    try:
        return np.loadtxt(io.StringIO(text.decode("ascii")), dtype=np.int64,
                          delimiter=",", ndmin=2)
    except ValueError:
        return None


def _read_ratings_csv(path: str, n_levels: int, n_users: list[int],
                      n_items: list[int]) -> np.ndarray:
    """ratings.csv as (S, 4) rows; a file ``read_int_rows`` does not take
    goes through ``_parse_ratings_csv`` with the declared sizes."""
    with open(path, "rb") as fh:
        data = fh.read()
    head, _, body = data.partition(b"\n")
    if head.removesuffix(b"\r") == ",".join(RATINGS_HEADER).encode():
        if not body:
            return np.empty((0, 4), dtype=np.int64)
        rows = read_int_rows(body)
        if rows is not None and rows.shape[1] == 4:
            return rows
    return _parse_ratings_csv(path, n_levels, n_users, n_items)


def _parse_ratings_csv(path: str, n_levels: int, n_users: list[int],
                       n_items: list[int]) -> np.ndarray:
    """Parse ratings.csv row by row into (S, 4) rows, naming the line of a
    malformed row.  A value past int64 lies outside every declared size, so
    a file holding one reports the first row, in order, outside
    ``n_levels``, ``n_users`` and ``n_items``."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.reader(text_lines(fh, path))
        header = next(reader, None)
        if header != RATINGS_HEADER:
            raise DataError(f"unexpected ratings.csv header: {header}")
        for row in reader:
            try:
                z, u, v, r = (int(x) for x in row)
            except ValueError:
                raise DataError(
                    f"{path}:{reader.line_num}: expected 4 integers, got {row}"
                ) from None
            rows.append((z, u, v, r))
    try:
        return np.array(rows, dtype=np.int64).reshape(-1, 4)
    except OverflowError:
        for row in rows:
            _check_triple(row, n_levels, n_users, n_items)
        raise
