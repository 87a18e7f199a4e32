"""Every memo of the cdclab modules is bounded."""

import inspect

from conftest import MEMOS


def test_every_memo_is_bounded():
    # a long-lived process must not grow a memo keyed by its inputs
    # without limit; only a function of no arguments, which holds one
    # entry at most, may have an unbounded memo
    names = {memo.__qualname__ for memo in MEMOS}
    assert {"_facts", "_part", "_edge_bits", "_last_validation",
            "_base"} <= names
    for memo in MEMOS:
        if memo.cache_info().maxsize is None:
            assert not inspect.signature(memo).parameters, memo.__qualname__
