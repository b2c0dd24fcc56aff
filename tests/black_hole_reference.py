"""The black-hole check as it was before it read paths by their pieces,
kept as a reference; since every call of a path is a whole call, it has
lost its case for a call that a callback edge ends.

This `check_black_hole` walks each path's blocks: it pairs each call with
the next terminal block in the path, and flags the path at the first call
that enters a payable entry and does not end in REVERT.  `evmscope.analyzers.check_black_hole` must
return the identical (path, evidence) list.
"""

from __future__ import annotations

from typing import Iterable

from evmscope.analyzers import PropertyId, PropertyViolation
from evmscope.cfg import Cfg, Terminator
from evmscope.pathgen import ProgramPath


def check_black_hole(cfg: Cfg, paths: Iterable[ProgramPath],
                     payable_entries: set[int | str],
                     ) -> list[tuple[ProgramPath, PropertyViolation]]:
    """For a contract that can never send Ether out, flag every path that
    can take Ether in.

    A path takes Ether in when some call enters a payable entry and does not
    revert (a transaction that reverts returns the value).  A call ends at its
    first terminal block.
    """
    if cfg.money_blocks:
        raise ValueError("black-hole analysis applies only to contracts "
                         "without money-related opcodes")
    if not payable_entries:
        return []
    terminal = {b.id for b in cfg.blocks.values() if b.terminator is Terminator.TERMINAL}
    out = []
    for path in paths:
        entry = None
        ends = (b for b in path.blocks if b in terminal)
        for sel in path.functions:
            end = next(ends, None)
            if sel is None or sel not in payable_entries:
                continue
            if end is not None and cfg.blocks[end].last.mnemonic == "REVERT":
                continue
            entry = sel
            break
        if entry is None:
            continue
        display = entry if isinstance(entry, str) else f"0x{entry:08x}"
        out.append((path, PropertyViolation(PropertyId.BLACK_HOLE, {
            "payable_entry": display,
        })))
    return out
