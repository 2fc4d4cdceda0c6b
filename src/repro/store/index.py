# repro-lint: allow-file=API001 -- bisect here does sorted-key prefix
# range lookup over an on-disk index; nothing feeds the event scheduler.
"""The in-shard index: content-hash lookup + spec-key prefix ranges.

The shard file is the source of truth; the index is a *cache* of where
each record lives, persisted as an append-only JSONL sidecar so an
index append costs O(1) like the shard append it mirrors.  Each line
covers one block::

    [block_offset, block_end, [[key, spec_key], ...]]

On load the sidecar is validated structurally — lines must advance
monotonically and stay inside the shard file.  The first malformed or
inconsistent line (a torn append, a stale copy) discards that line and
everything after it, and the sidecar is atomically rewritten to the
trusted prefix; the shard tail scan then re-derives whatever was lost.
Trust flows one way: from shard bytes to index, never back.

Two views are maintained in memory:

* ``key -> (block_offset, block_length, ordinal)`` — latest record
  wins, which is how an append-only store overwrites.  ``ordinal`` is
  the record's position inside its block, which the sidecar gives for
  free (a line lists the block's pairs in block order), so a keyed
  read can pick its record without parsing the neighbours;
* a sorted list of ``(spec_key, key)`` pairs for prefix range queries
  (``scenario=permutation/fabric=...``) via binary search.
"""

from __future__ import annotations

import bisect
import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

#: (block offset, block length, ordinal of the record inside the block)
Location = Tuple[int, int, int]
Pairs = List[Tuple[str, str]]  # [(key, spec_key), ...]


class ShardIndex:
    """Record locations for one shard, with a persisted sidecar."""

    def __init__(self, sidecar: Path) -> None:
        self.sidecar = sidecar
        #: key -> (block_offset, block_length, ordinal); latest append
        #: wins, and inside one block the last occurrence.
        self.by_key: Dict[str, Location] = {}
        #: sorted (spec_key, key) pairs for prefix range scans; a key
        #: re-put under the same spec_key stays listed once.
        self._ordered: List[Tuple[str, str]] = []
        #: every indexed block, in file order: (offset, end).
        self.blocks: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def load(self, file_size: int, first_block: int) -> int:
        """Load the sidecar; returns the offset the shard tail scan
        should resume from (``first_block`` when nothing is usable)."""
        self.by_key.clear()
        self._ordered = []
        self.blocks = []
        try:
            text = self.sidecar.read_text(encoding="utf-8")
        except (FileNotFoundError, OSError):
            return first_block
        resume = first_block
        good_lines: List[str] = []
        dirty = False
        for line in text.splitlines():
            stripped = line.strip()
            if not stripped:
                continue
            try:
                offset, end, entries = json.loads(stripped)
                if not (
                    isinstance(offset, int)
                    and isinstance(end, int)
                    and resume <= offset < end <= file_size
                ):
                    dirty = True
                    break
                pairs = [(str(k), str(sk)) for k, sk in entries]
            except (ValueError, TypeError):
                dirty = True
                break
            self._record_block(offset, end, pairs, sort_each=False)
            good_lines.append(stripped)
            resume = end
        self._ordered.sort()
        if dirty:
            self._rewrite(good_lines)
        return resume

    def _rewrite(self, lines: List[str]) -> None:
        """Atomically replace the sidecar with the trusted prefix."""
        tmp = self.sidecar.with_suffix(self.sidecar.suffix + ".tmp")
        try:
            tmp.write_text(
                "".join(line + "\n" for line in lines), encoding="utf-8"
            )
            tmp.replace(self.sidecar)
        except OSError:
            # Read-only media: the in-memory index is still correct;
            # the next writable open will heal the sidecar.
            pass

    def append_line(self, offset: int, end: int, pairs: Pairs) -> None:
        """Persist one block's entries (mirrors the shard append)."""
        line = json.dumps(
            [offset, end, [[k, sk] for k, sk in pairs]],
            separators=(",", ":"),
        )
        with self.sidecar.open("a", encoding="utf-8") as fh:
            fh.write(line)
            fh.write("\n")

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def _record_block(
        self, offset: int, end: int, pairs: Pairs, sort_each: bool = True
    ) -> None:
        self.blocks.append((offset, end))
        length = end - offset
        for ordinal, (key, spec_key) in enumerate(pairs):
            if key not in self.by_key:
                if sort_each:
                    bisect.insort(self._ordered, (spec_key, key))
                else:
                    self._ordered.append((spec_key, key))
            self.by_key[key] = (offset, length, ordinal)

    def add_block(self, offset: int, end: int, pairs: Pairs) -> None:
        """Register a freshly appended (or tail-scanned) block."""
        self._record_block(offset, end, pairs, sort_each=True)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Location]:
        return self.by_key.get(key)

    def prefix_pairs(self, prefix: str) -> Iterator[Tuple[str, str]]:
        """All ``(spec_key, key)`` pairs whose spec_key starts with
        ``prefix``, in spec-key order (empty prefix = everything)."""
        if not prefix:
            yield from self._ordered
            return
        lo = bisect.bisect_left(self._ordered, (prefix, ""))
        for spec_key, key in self._ordered[lo:]:
            if not spec_key.startswith(prefix):
                break
            yield spec_key, key

    def __len__(self) -> int:
        return len(self.by_key)
