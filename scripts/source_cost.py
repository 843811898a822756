#!/usr/bin/env python
"""Per-source cost of the serving route for loop text: parse, extract, predict.

A compiler client that sends loop source pays, per request, for
``parse_program`` (scan, build and validate the loop), ``extract_features``
(the 38 static features) and the ensemble's ``predict_loop_detail`` (which
extracts again, then predicts).  This prints the median per-source cost of
each on the serve workload's pool, then checks that parsing the printed
text reproduces every generated loop: every field but the instruction ids,
the provenance (``benchmark``) and the array sizes (the text carries
neither; the parser derives sizes from the trip count), with bit-identical
feature vectors and the same ensemble answer.  Exit status 1 on any
mismatch.

    PYTHONPATH=src python scripts/source_cost.py MODEL

The pool is ``generate_suite(seed=POOL_SEED, loops_scale=POOL_SCALE)``
printed with ``to_source``, the same sources the ``serve-source`` benchmark
workload sends.
"""

from __future__ import annotations

import argparse
import dataclasses
import statistics
import sys
import time

from repro.features.extract import extract_features
from repro.frontend import LexError, ParseError, parse_program, to_source
from repro.registry import load_artifact
from repro.workloads.generator import generate_suite

REPEAT = 5  # timing repeats; the median is printed
POOL_SEED = 1
POOL_SCALE = 0.3  # 868 loops, mean ~600 characters


def _fields(loop) -> tuple:
    """What the text carries: every field except instruction ids,
    provenance and array sizes (array names are kept)."""
    body = tuple(
        tuple(getattr(inst, f.name) for f in dataclasses.fields(inst) if f.name != "uid")
        for inst in loop.body
    )
    return (
        loop.name, body, loop.trip, loop.nest_level, loop.language,
        loop.entry_count, sorted(loop.arrays), loop.unroll_factor,
    )


def _per_item_ms(call, items) -> float:
    runs = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        for item in items:
            call(item)
        runs.append((time.perf_counter() - start) / len(items))
    return 1e3 * statistics.median(runs)


def _parse_all(loops, sources):
    """Parse every source: the (loop, source, rebuilt loop) triples of those
    that parse to exactly one loop, and a line for each that does not."""
    parsed, found = [], []
    for loop, source in zip(loops, sources):
        try:
            entries = parse_program(source)
        except (LexError, ParseError) as err:
            found.append(f"{loop.name}: {err}")
            continue
        if len(entries) != 1:
            found.append(f"{loop.name}: parsed into {len(entries)} loops")
            continue
        parsed.append((loop, source, entries[0].loop))
    return parsed, found


def _mismatches(parsed, ensemble) -> list[str]:
    found = []
    for loop, _, rebuilt in parsed:
        if _fields(rebuilt) != _fields(loop):
            found.append(f"{loop.name}: fields differ")
        elif extract_features(rebuilt).tobytes() != extract_features(loop).tobytes():
            found.append(f"{loop.name}: feature vectors differ")
        elif ensemble.predict_loop_detail(rebuilt) != ensemble.predict_loop_detail(loop):
            found.append(f"{loop.name}: ensemble answers differ")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("model", help="a .rma model artifact (repro train --out)")
    args = parser.parse_args(argv)

    ensemble = load_artifact(args.model).ensemble
    loops = generate_suite(seed=POOL_SEED, loops_scale=POOL_SCALE).all_loops()
    sources = [to_source(loop) for loop in loops]
    parsed, found = _parse_all(loops, sources)
    rebuilt = [entry[2] for entry in parsed]
    mean_chars = sum(map(len, sources)) / len(sources)
    print(f"pool: {len(sources)} sources, mean {mean_chars:.0f} characters, median of {REPEAT}")
    if not parsed:
        return _report(found, len(loops))

    # Timed on the sources that parse to one loop; the rest are reported below.
    parse_ms = _per_item_ms(parse_program, [entry[1] for entry in parsed])
    extract_ms = _per_item_ms(extract_features, rebuilt)
    predict_ms = _per_item_ms(ensemble.predict_loop_detail, rebuilt)
    print(f"{'parse_program':<26}{parse_ms:>9.4f} ms/source")
    print(f"{'extract_features':<26}{extract_ms:>9.4f} ms/source")
    print(f"{'parse + extract':<26}{parse_ms + extract_ms:>9.4f} ms/source")
    print(f"{'predict_loop_detail':<26}{predict_ms:>9.4f} ms/source (extracts again)")

    return _report(found + _mismatches(parsed, ensemble), len(loops))


def _report(found: list[str], total: int) -> int:
    if found:
        print(f"FAIL: {len(found)} of {total} sources do not reproduce their loop")
        for line in found[:10]:
            print(f"  {line}")
        return 1
    print(f"ok: parse_program(to_source(loop)) reproduces all {total} loops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
