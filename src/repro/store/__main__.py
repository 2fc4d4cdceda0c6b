"""Store maintenance CLI: ``python -m repro.store``.

Examples::

    # Push a deterministic synthetic sweep through the real store path
    # (what the nightly CI job does at 10k cells):
    python -m repro.store synth --cells 10000 --store /tmp/synth-store

    # CRC-verify every block of a store:
    python -m repro.store verify .experiment-store

    # What is this store? (versions, shard fill, blocks per codec)
    python -m repro.store info .experiment-store

Sweep *queries* live on the experiments CLI
(``python -m repro.experiments query``); this command owns the layer
below — bytes, checksums, shards, synthetic volume.  ``verify`` and
``info`` on a path that holds no record store print one ``error:`` line
and exit non-zero, creating nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from typing import Dict, List, Optional

from repro.cli import run_main
from repro.store.cells import RecordStore, open_record_store
from repro.store.format import StoreFormatError, block_codec
from repro.store.query import verify_store
from repro.store.synth import fill_store


def cmd_synth(args: argparse.Namespace) -> int:
    store = RecordStore(
        args.store,
        num_shards=args.shards,
        flush_records=args.flush_records,
    )
    started = time.perf_counter()
    count = fill_store(store, args.cells, seed=args.seed, progress=print)
    elapsed = time.perf_counter() - started
    stats = verify_store(args.store)
    size_kb = stats["shard_bytes"] / 1024
    print(
        f"{count} synthetic cells -> {args.store} in {elapsed:.1f}s "
        f"({count / elapsed:.0f} cells/s)"
    )
    print(
        f"{stats['blocks']} blocks, {size_kb:.0f} KiB on disk "
        f"({size_kb * 1024 / max(count, 1):.0f} B/cell), "
        f"{stats['corrupt_blocks']} corrupt"
    )
    return 0 if stats["corrupt_blocks"] == 0 else 1


def _codec_counts(counts: Dict[str, int]) -> str:
    """``{"bz2": 19, "zlib": 6}`` as ``bz2 19, zlib 6``."""
    return ", ".join(f"{name} {n}" for name, n in sorted(counts.items())) or "-"


def cmd_verify(args: argparse.Namespace) -> int:
    stats = verify_store(args.store)
    for field in (
        "records", "distinct_keys", "blocks", "corrupt_blocks", "shard_bytes",
    ):
        print(f"{field + ':':<16} {stats[field]}")
    print(f"{'codec_blocks:':<16} {_codec_counts(stats['codec_blocks'])}")
    if stats["corrupt_blocks"]:
        print("INTEGRITY FAILURE: corrupt blocks detected", file=sys.stderr)
        return 1
    print("ok: every record CRC-verified")
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    store = open_record_store(args.store)
    print(json.dumps(store.meta, indent=1, sort_keys=True))
    # ``params.codec`` above is what the store was *created* with; what
    # its blocks hold is read off their headers (nothing decompressed).
    total: Dict[str, int] = Counter()
    for shard in store.open_shards():
        codecs = Counter(map(block_codec, shard.read_blocks(head_only=True)))
        total.update(codecs)
        print(
            f"{shard.path.name}: {len(shard)} records, "
            f"{len(shard.blocks())} blocks ({_codec_counts(codecs)}), "
            f"{shard.path.stat().st_size} bytes"
        )
    print(f"blocks per codec: {_codec_counts(total)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="sharded result store maintenance tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser(
        "synth", help="store a deterministic synthetic sweep"
    )
    p_synth.add_argument("--cells", type=int, default=1000)
    p_synth.add_argument("--store", required=True)
    p_synth.add_argument("--seed", type=int, default=1)
    p_synth.add_argument("--shards", type=int, default=None)
    p_synth.add_argument("--flush-records", type=int, default=128)
    p_synth.set_defaults(fn=cmd_synth)

    p_verify = sub.add_parser("verify", help="CRC-verify every record")
    p_verify.add_argument("store")
    p_verify.set_defaults(fn=cmd_verify)

    p_info = sub.add_parser("info", help="store metadata and shard fill")
    p_info.add_argument("store")
    p_info.set_defaults(fn=cmd_info)

    args = parser.parse_args(argv)
    try:
        return int(args.fn(args))
    except StoreFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    run_main(main)
