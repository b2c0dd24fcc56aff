"""The per-piece black-hole check against the per-path check it replaced.

On every fixture without a money opcode, every micro fixture and three
hand-assembled programs, at call bounds 1 to 4, `check_black_hole` must return the reference's
(path, evidence) list over the whole unfolding, and `select` with the
`takes_ether` piece test must yield exactly the paths it flags.  On the
one program with a money opcode both must refuse to run.
"""

import pytest

from evmscope.analyzers import check_black_hole, detect_payable_entries, takes_ether
from evmscope.cfg import build_cfg
from evmscope.disasm import disassemble, parse_hex
from evmscope.pathgen import PathBounds, enumerate_paths

import black_hole_reference as reference
from conftest import MICRO, get_contract
from test_analyzers import _DISPATCH_AT_THE_END, _LOOP_TO_ROOT_THEN_REVERT

_NO_MONEY = ["bitway", "fallback_only"] + [f"safe_token_{i}" for i in range(6)]
_MICRO = sorted(path.stem for path in MICRO.glob("*.json"))
# STATICCALL moves no Ether, so this fallback has no money opcode; its call
# reverts, so it takes no Ether in.
_STATICCALL_THEN_REVERT = "600060006000600060006000fa50" "60006000fd"
_HAND = {
    "loop_to_root_then_revert": _LOOP_TO_ROOT_THEN_REVERT,
    "dispatch_at_the_end": _DISPATCH_AT_THE_END,
    "staticcall_then_revert": _STATICCALL_THEN_REVERT,
}


def _program(code: bytes):
    instructions = disassemble(code)
    cfg = build_cfg(instructions)
    return cfg, detect_payable_entries(cfg, instructions)[0]


_PROGRAMS = ([(name, *_program(get_contract(name).runtime_code))
              for name in _NO_MONEY + _MICRO]
             + [(name, *_program(parse_hex(code))) for name, code in _HAND.items()])


def test_programs_cover_both_outcomes():
    assert len(_MICRO) == 21
    assert [name for name, cfg, _payable in _PROGRAMS if cfg.money_blocks] == \
        ["dispatch_at_the_end"]  # its SELFDESTRUCT
    assert any(not payable for _name, _cfg, payable in _PROGRAMS)
    flagged = {name for name, cfg, payable in _PROGRAMS if not cfg.money_blocks
               and reference.check_black_hole(cfg, enumerate_paths(cfg, PathBounds(1)), payable)}
    assert "bitway" in flagged and "loop_to_root_then_revert" not in flagged


@pytest.mark.parametrize("call_depth", [1, 2, 3, 4])
def test_pieces_flag_what_the_per_path_check_flagged(call_depth):
    for name, cfg, payable in _PROGRAMS:
        unfolding = enumerate_paths(cfg, PathBounds(call_depth=call_depth))
        paths = list(unfolding)
        if cfg.money_blocks:
            for check in (reference.check_black_hole, check_black_hole):
                with pytest.raises(ValueError):
                    check(cfg, paths, payable)
            continue
        expected = reference.check_black_hole(cfg, paths, payable)
        assert check_black_hole(cfg, paths, payable) == expected, name
        selected = list(unfolding.select(takes_ether(cfg, payable)))
        assert selected == [path for path, _violation in expected], name
        assert check_black_hole(cfg, selected, payable) == expected, name
