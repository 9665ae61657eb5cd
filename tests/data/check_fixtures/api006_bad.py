"""Fixture: API006 must flag raw pools/segments outside repro/perf."""

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from multiprocessing.shared_memory import SharedMemory


def fan_out_with_raw_pool(items):
    # Bypasses parallel_map's ordering and crash-recovery contract.
    with multiprocessing.Pool(processes=4) as pool:
        return pool.map(str, items)


def fan_out_with_raw_executor(items):
    with ProcessPoolExecutor(max_workers=4) as executor:
        return list(executor.map(str, items))


def share_with_raw_segment(payload):
    # Needs unlink and resource-tracker bookkeeping in every process.
    segment = SharedMemory(create=True, size=len(payload))
    segment.buf[: len(payload)] = payload
    return segment.name
