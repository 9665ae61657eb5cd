"""Cross-module worker task: writes module state."""
RESULTS = {}


def accumulate(item):
    RESULTS[item] = item * 2
    return item
