"""Blocking strategies: cheap candidate-pair generation for resolution.

Comparing all record pairs is quadratic; blocking buckets records by a
cheap key and only compares within buckets.  Provided strategies:

* token blocking — one block per token of the blocking attribute;
* prefix blocking — block by the first ``k`` characters;
* key blocking — exact match on a key attribute (ISBN / ISSN / EIN,
  how the paper's datasets were clustered);
* MinHash-LSH blocking (``lsh_keys``) — banded MinHash signatures over
  character shingles.  Token blocking degrades on *high-cardinality*
  attributes: a popular token ("Street", "Inc") puts thousands of
  records in one block and the within-block scan goes O(block²).  LSH
  keys collide only for values whose shingle sets are actually similar
  (tunable via bands × rows), so blocks stay near-duplicate-sized no
  matter how common the vocabulary is.  Composable with token keys via
  :func:`combine_keys` and selectable by name via
  :func:`make_block_keys` (the CLI's ``--blocking`` modes).

For streaming workloads the raw ``key -> members`` dict grows without
bound and cannot be split across worker processes; :class:`BlockIndex`
wraps the same mapping in a structure that is **partitioned by stable
block-key hash** (each key lives in exactly one of N shards, identical
across runs and processes) and **bounded** (per-key member lists rotate
out their oldest entries past a retention limit, so similarity-mode
blocks stop growing with stream length).  Every key function here
yields process-stable keys, so LSH blocks partition and rotate exactly
like token blocks.
"""

from __future__ import annotations

import zlib
from collections import defaultdict
from functools import lru_cache
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

BlockKeyFn = Callable[[str], Iterable[Hashable]]


def stable_hash(key: Hashable) -> int:
    """A process-stable hash for shard routing.

    Python's built-in ``hash`` on strings is salted per process
    (``PYTHONHASHSEED``), so it cannot route work to shard processes
    deterministically.  CRC-32 over the key's canonical ``repr`` is
    stable across runs, processes, and platforms — the property the
    ``--shards 1`` vs ``--shards N`` byte-identical-model guarantee
    rests on.
    """
    if isinstance(key, str):
        payload = key
    else:
        payload = repr(key)
    return zlib.crc32(payload.encode("utf-8"))


class BlockIndex:
    """A shard-partitioned ``block key -> member`` index with rotation.

    * **Partitioned** — keys are routed to one of ``shards`` partitions
      by :func:`stable_hash`; a partition is the unit of parallel work
      (all members of a block, hence all pairs a block can ever
      generate, live in exactly one partition).
    * **Bounded** — with ``retention`` set, each block keeps only its
      newest ``retention`` members: appending past the limit rotates
      the oldest member out (and reports it, so owners can drop
      per-member state once a member leaves its last block).  Old
      records typically already merged into their clusters through the
      union-find, so dropping them from the *comparison frontier* keeps
      recall while capping per-arrival cost.
    """

    def __init__(
        self, shards: int = 1, retention: Optional[int] = None
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if retention is not None and retention < 1:
            raise ValueError("retention must be >= 1 (or None)")
        self.shards = shards
        self.retention = retention
        self._partitions: List[Dict[Hashable, List[str]]] = [
            {} for _ in range(shards)
        ]
        #: number of block lists each member currently appears in
        self._refs: Dict[str, int] = {}
        self.rotated_out = 0

    # -- routing -----------------------------------------------------------

    def shard_of(self, key: Hashable) -> int:
        """The partition owning ``key`` (stable across processes)."""
        return stable_hash(key) % self.shards

    # -- writing -----------------------------------------------------------

    def add(self, key: Hashable, member: str) -> List[str]:
        """Append ``member`` to ``key``'s block.

        Returns the members this append *evicted* — non-empty only with
        ``retention`` set — whose eviction dropped their last block
        reference (i.e. they left the comparison frontier entirely).
        """
        block = self._partitions[self.shard_of(key)].setdefault(key, [])
        block.append(member)
        self._refs[member] = self._refs.get(member, 0) + 1
        gone: List[str] = []
        if self.retention is not None and len(block) > self.retention:
            evicted = block[: len(block) - self.retention]
            del block[: len(block) - self.retention]
            for old in evicted:
                self.rotated_out += 1
                remaining = self._refs.get(old, 0) - 1
                if remaining <= 0:
                    self._refs.pop(old, None)
                    gone.append(old)
                else:
                    self._refs[old] = remaining
        return gone

    # -- reading -----------------------------------------------------------

    def members(self, key: Hashable) -> Sequence[str]:
        """Current members of ``key``'s block (append order)."""
        return self._partitions[self.shard_of(key)].get(key, ())

    def __contains__(self, member: str) -> bool:
        return member in self._refs

    @property
    def num_keys(self) -> int:
        return sum(len(p) for p in self._partitions)

    @property
    def num_entries(self) -> int:
        return sum(self._refs.values())

    def __repr__(self) -> str:
        return (
            f"BlockIndex(shards={self.shards}, "
            f"retention={self.retention}, keys={self.num_keys}, "
            f"entries={self.num_entries})"
        )


def token_keys(value: str) -> Iterable[Hashable]:
    """One block key per lowercase token."""
    return {t.lower() for t in value.split()}


def prefix_keys(length: int = 3) -> BlockKeyFn:
    """Block by the lowercase ``length``-prefix of the value."""

    def fn(value: str) -> Iterable[Hashable]:
        cleaned = value.strip().lower()
        return {cleaned[:length]} if cleaned else set()

    return fn


def exact_keys(value: str) -> Iterable[Hashable]:
    """One block per exact value (key-based clustering)."""
    return {value} if value else set()


def build_blocks(
    values: Sequence[str],
    key_fn: BlockKeyFn = token_keys,
) -> Dict[Hashable, List[int]]:
    """``block key -> record indices``."""
    blocks: Dict[Hashable, List[int]] = defaultdict(list)
    for idx, value in enumerate(values):
        for key in key_fn(value):
            blocks[key].append(idx)
    return dict(blocks)


# -- MinHash-LSH blocking ---------------------------------------------------

#: 64-bit mask for the multiply-shift universal hash family.
_MASK64 = (1 << 64) - 1


def char_shingles(value: str, size: int = 3) -> Set[str]:
    """The value's lowercase character ``size``-grams (whitespace
    normalized to single spaces); short values shingle whole."""
    cleaned = " ".join(value.lower().split())
    if not cleaned:
        return set()
    if len(cleaned) <= size:
        return {cleaned}
    return {cleaned[i : i + size] for i in range(len(cleaned) - size + 1)}


def _hash_family(num_hashes: int) -> List[Tuple[int, int]]:
    """``num_hashes`` multiply-shift parameter pairs, derived from
    CRC-32 so signatures are identical across runs, processes, and
    platforms (the same property :func:`stable_hash` guarantees for
    shard routing)."""
    params: List[Tuple[int, int]] = []
    for i in range(num_hashes):
        a = (
            stable_hash(f"lsh-a-hi-{i}") << 32 | stable_hash(f"lsh-a-lo-{i}")
        ) | 1  # odd multiplier
        b = stable_hash(f"lsh-b-hi-{i}") << 32 | stable_hash(f"lsh-b-lo-{i}")
        params.append((a & _MASK64, b))
    return params


class MinHasher:
    """Process-stable MinHash signatures over character shingles.

    Each of the ``num_hashes`` hash functions is a multiply-shift
    ``((a * x + b) mod 2^64) >> 32`` over the shingle's CRC-32; the
    signature component is the minimum over the value's shingles.  Two
    values agree on a component with probability equal to the Jaccard
    similarity of their shingle sets — the estimator banded LSH keys
    are built on.
    """

    def __init__(self, num_hashes: int, shingle: int = 3) -> None:
        if num_hashes < 1:
            raise ValueError("num_hashes must be >= 1")
        if shingle < 1:
            raise ValueError("shingle must be >= 1")
        self.num_hashes = num_hashes
        self.shingle = shingle
        self._params = _hash_family(num_hashes)

    def signature(self, value: str) -> Tuple[int, ...]:
        """The value's MinHash signature; ``()`` for empty values."""
        shingles = char_shingles(value, self.shingle)
        if not shingles:
            return ()
        crc32 = zlib.crc32
        bases = [crc32(shingle.encode("utf-8")) for shingle in shingles]
        mask = _MASK64
        # >> 32 is monotone, so it commutes with min: shift once after.
        return tuple(
            min([(a * x + b) & mask for x in bases]) >> 32
            for a, b in self._params
        )


def lsh_keys(
    bands: int = 16,
    rows: int = 3,
    shingle: int = 3,
    cache_size: int = 65536,
) -> BlockKeyFn:
    """A :data:`BlockKeyFn` blocking by banded MinHash signature.

    The ``bands * rows``-component signature is cut into ``bands``
    bands of ``rows`` rows; each band becomes one block key, so two
    values share a block iff some band of their signatures agrees
    exactly.  For shingle-Jaccard ``j`` that happens with probability
    ``1 - (1 - j^rows)^bands`` — the classic S-curve: near-duplicates
    almost surely collide somewhere, unrelated values almost never do,
    and a popular token no longer lands everyone in one block.

    Keys are ``("lsh", band index, band hash)`` tuples: hashable,
    process-stable (CRC-32 over the band's components), and emitted in
    band order, so they route through :class:`BlockIndex` partitioning
    and rotation exactly like token keys.  Signatures are memoized with
    an LRU of ``cache_size`` values (streams re-derive keys for the
    same value when indexing and matching).
    """
    if bands < 1:
        raise ValueError("bands must be >= 1")
    if rows < 1:
        raise ValueError("rows must be >= 1")
    hasher = MinHasher(bands * rows, shingle)

    @lru_cache(maxsize=cache_size)
    def keys(value: str) -> Tuple[Tuple[str, int, int], ...]:
        signature = hasher.signature(value)
        if not signature:
            return ()
        return tuple(
            (
                "lsh",
                band,
                stable_hash(signature[band * rows : (band + 1) * rows]),
            )
            for band in range(bands)
        )

    def fn(value: str) -> Iterable[Hashable]:
        return keys(value)

    fn.bands = bands  # type: ignore[attr-defined]
    fn.rows = rows  # type: ignore[attr-defined]
    fn.shingle = shingle  # type: ignore[attr-defined]
    fn.hasher = hasher  # type: ignore[attr-defined]
    return fn


#: Signature budget :func:`derive_lsh_params` fits ``bands * rows``
#: into — 48 components keeps per-value hashing cheap while leaving
#: room for every useful (bands, rows) shape between thresholds 0.5
#: and 0.9.
DEFAULT_LSH_HASHES = 48


def _collision_probability(s: float, bands: int, rows: int) -> float:
    """The S-curve: P(two values with shingle-Jaccard ``s`` share at
    least one band) under ``bands`` bands of ``rows`` rows."""
    return 1.0 - (1.0 - s**rows) ** bands


@lru_cache(maxsize=256)
def derive_lsh_params(
    threshold: float, num_hashes: int = DEFAULT_LSH_HASHES
) -> Tuple[int, int]:
    """The ``(bands, rows)`` pair tuned for a similarity threshold.

    Sweeps every banding of at most ``num_hashes`` signature components
    and picks the one minimizing the integrated S-curve error: the area
    under the collision curve below ``threshold`` (false positives —
    dissimilar pairs that still collide) plus the area above the curve
    beyond it (false negatives — similar pairs that never do).  The
    winner's S-curve crosses ≈0.5 collision probability near
    ``threshold``, which is exactly the "steep cliff at the threshold"
    the banded-MinHash construction is chosen for; explicit
    ``--lsh-bands`` / ``--lsh-rows`` flags bypass this entirely.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(
            f"threshold must be in (0, 1), got {threshold}"
        )
    if num_hashes < 1:
        raise ValueError("num_hashes must be >= 1")
    steps = 256
    dx = 1.0 / steps
    best: Optional[Tuple[float, int, int]] = None
    for rows in range(1, num_hashes + 1):
        for bands in range(1, num_hashes // rows + 1):
            error = 0.0
            for i in range(steps):
                s = (i + 0.5) * dx
                p = _collision_probability(s, bands, rows)
                error += (p if s < threshold else 1.0 - p) * dx
            if best is None or error < best[0]:
                best = (error, bands, rows)
    assert best is not None
    return best[1], best[2]


def combine_keys(*key_fns: BlockKeyFn) -> BlockKeyFn:
    """One :data:`BlockKeyFn` yielding every function's keys, deduped,
    in function-then-emission order — e.g. token blocks for recall on
    short values plus LSH blocks for high-cardinality vocabularies."""

    def fn(value: str) -> Iterable[Hashable]:
        seen: Set[Hashable] = set()
        out: List[Hashable] = []
        for key_fn in key_fns:
            for key in key_fn(value):
                if key not in seen:
                    seen.add(key)
                    out.append(key)
        return out

    return fn


#: ``--blocking`` mode names accepted by :func:`make_block_keys`.
BLOCKING_MODES = ("token", "lsh", "token+lsh")


def make_block_keys(
    mode: str,
    bands: int = 16,
    rows: int = 3,
    shingle: int = 3,
) -> BlockKeyFn:
    """The similarity-mode block-key function for a ``--blocking`` mode
    name: ``token`` (historical behaviour), ``lsh``, or ``token+lsh``
    (both key sets combined)."""
    if mode == "token":
        return token_keys
    if mode == "lsh":
        return lsh_keys(bands, rows, shingle)
    if mode == "token+lsh":
        return combine_keys(token_keys, lsh_keys(bands, rows, shingle))
    raise ValueError(
        f"unknown blocking mode {mode!r} (expected one of {BLOCKING_MODES})"
    )


def candidate_pairs(
    blocks: Dict[Hashable, List[int]],
    max_block_size: int = 50,
) -> Set[Tuple[int, int]]:
    """Distinct within-block index pairs; oversized blocks are skipped
    (standard guard against stop-word blocks going quadratic)."""
    pairs: Set[Tuple[int, int]] = set()
    for members in blocks.values():
        if len(members) > max_block_size:
            continue
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = members[i], members[j]
                pairs.add((a, b) if a < b else (b, a))
    return pairs
