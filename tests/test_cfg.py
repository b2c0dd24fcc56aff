import pytest
from hypothesis import given, strategies as st

from evmscope import isa
from evmscope.cfg import (
    EdgeKind,
    FALLBACK,
    Terminator,
    _simulate_block,
    build_blocks,
    build_cfg,
    to_dot,
)
from evmscope.disasm import disassemble, parse_hex
from evmscope.keccak import selector
from evmscope.symexec import concrete_op

from asmtool import Asm, by_mnemonic
from conftest import FIXTURES, MICRO, get_cfg, get_contract


def _edges(cfg, kind):
    return sorted((e.src, e.dst) for e in cfg.edges if e.kind == kind)


# -- block formation ---------------------------------------------------------

def test_single_stop_program():
    blocks = build_blocks(disassemble(bytes([0x00])))
    assert set(blocks) == {0}
    assert blocks[0].first_offset == 0 and blocks[0].last_offset == 0
    assert blocks[0].terminator is Terminator.TERMINAL


def test_wrapper_and_return_block_boundaries():
    cfg = get_cfg("micro_dispatcher")
    wrap = cfg.blocks[92]
    assert (wrap.first_offset, wrap.last_offset) == (92, 99)
    assert [i.mnemonic for i in wrap.instructions] == ["JUMPDEST", "PUSH2", "PUSH2", "JUMP"]
    ret = cfg.blocks[100]
    assert (ret.first_offset, ret.last_offset) == (100, 101)
    assert [i.mnemonic for i in ret.instructions] == ["JUMPDEST", "STOP"]
    assert ret.terminator is Terminator.TERMINAL


def test_block_boundaries_at_call():
    # CALL ends its block; the next instruction starts a new one
    code = parse_hex("6000600060006000600060006000f100")
    blocks = build_blocks(disassemble(code))
    call_block = [b for b in blocks.values() if b.last.mnemonic == "CALL"]
    assert len(call_block) == 1
    assert call_block[0].terminator is Terminator.CALL
    follow = blocks[call_block[0].last_offset + 1]
    assert follow.instructions[0].mnemonic == "STOP"


# PUSH1 0 x4; PUSH1 5; CALLER; GAS; CALL (sends 5 wei to the caller), then POP
_CALL_THEN_POP = "6000600060006000600533" "5af1" "50"


@pytest.mark.parametrize("code_hex, block, offset", [
    (_CALL_THEN_POP, 13, 14),       # the STOP joins the POP's block
    (_CALL_THEN_POP[:-2], 13, 13),  # after a CALL the STOP is a block of its own
    ("6000600557", 5, 5),           # so it is after a JUMPI
    ("61", 0, 3),                   # after a truncated PUSH2, at its next offset
])
def test_running_past_the_end_of_the_code_is_stop(code_hex, block, offset):
    cfg = build_cfg(disassemble(parse_hex(code_hex)))
    stop = cfg.blocks[max(cfg.blocks)]
    assert stop.id == block and stop.terminator is Terminator.TERMINAL
    assert (stop.last.offset, stop.last.mnemonic) == (offset, "STOP")
    assert {e.kind for e in cfg.successors(stop.id)} == {EdgeKind.NEW_TRANSACTION}
    # every block that neither jumps nor ends the call has its follower
    for other in cfg.blocks.values():
        if other.terminator not in (Terminator.JUMP, Terminator.TERMINAL):
            assert any(e.dst > other.id for e in cfg.successors(other.id)), other


def test_code_ending_in_jump_or_a_terminal_gets_no_stop():
    for code_hex in ("6000600056", "600035ff", "00", "fe"):
        code = parse_hex(code_hex)
        assert max(ins.offset for b in build_blocks(disassemble(code)).values()
                   for ins in b.instructions) < len(code)


def test_entry_block_starts_at_zero_without_jumpdest(toydao_cfg):
    root = toydao_cfg.blocks[toydao_cfg.root]
    assert root.first_offset == 0
    assert root.instructions[0].mnemonic != "JUMPDEST"
    roots = [b for b in toydao_cfg.blocks.values() if b.first_offset == 0]
    assert len(roots) == 1


def test_jumpdest_only_at_block_start(toydao_cfg):
    for block in toydao_cfg.blocks.values():
        for ins in block.instructions[1:]:
            assert ins.mnemonic != "JUMPDEST", block.label


# -- static edges -------------------------------------------------------------

def test_terminal_blocks_edge_to_root(toydao_cfg):
    cfg = toydao_cfg
    for block in cfg.blocks.values():
        if block.terminator is Terminator.TERMINAL:
            kinds = [e.kind for e in cfg.successors(block.id)]
            assert kinds == [EdgeKind.NEW_TRANSACTION]
            assert cfg.successors(block.id)[0].dst == cfg.root


def test_call_block_has_sequential_and_callback(toydao_cfg):
    cfg = toydao_cfg
    call_block = cfg.blocks[112]
    assert call_block.last_offset == 162
    kinds = {e.kind: e.dst for e in cfg.successors(112)}
    assert kinds[EdgeKind.EXTERNAL_CALLBACK] == cfg.root
    assert kinds[EdgeKind.SEQUENTIAL] == 163


def test_every_callback_edge_leads_to_the_root():
    # a callee may re-enter any function, so a callback starts a call at the
    # root, as a new transaction does; the unfolding rests on it
    names = [p.stem for p in sorted(FIXTURES.glob("*.json")) + sorted(MICRO.glob("*.json"))]
    assert len(names) == 52
    callbacks = 0
    for name in names:
        cfg = get_cfg(name)
        for edge in cfg.edges:
            if edge.kind is EdgeKind.EXTERNAL_CALLBACK:
                callbacks += 1
                assert edge.dst == cfg.root, (name, edge)
    assert callbacks


def test_direct_jump_resolution(toydao_cfg):
    # wrapper block [92,99]: target 112 pushed immediately before the JUMP
    assert (92, 112) in _edges(toydao_cfg, EdgeKind.DIRECT_JUMP)


def test_malformed_target_becomes_terminal():
    # PUSH1 3; JUMP -> offset 3 holds STOP, not a JUMPDEST
    cfg = build_cfg(disassemble(parse_hex("60035600")))
    assert any(d.code == "malformed_target" for d in cfg.diagnostics)
    jump_block = cfg.blocks[0]
    assert [e.kind for e in cfg.successors(jump_block.id)] == [EdgeKind.NEW_TRANSACTION]


# -- stack simulation ---------------------------------------------------------

def test_dangling_block_resolves_to_pushed_return_site():
    cfg = get_cfg("micro_dispatcher")
    assert cfg.dangling == set()
    assert _edges(cfg, EdgeKind.INDIRECT_JUMP) == [(305, 100)]


def test_toydao_dangling_empty_at_fixpoint(toydao_cfg):
    assert toydao_cfg.dangling == set()
    assert [d for d in toydao_cfg.diagnostics if d.code == "unresolved_indirect_jump"] == []
    indirect = _edges(toydao_cfg, EdgeKind.INDIRECT_JUMP)
    assert (305, 100) in indirect
    assert (308, 110) in indirect


def test_multiple_targets_get_multiple_edges():
    # two routes push different return addresses before sharing a JUMP
    code = ("6001" "600a" "57"        # PUSH1 1; PUSH1 10; JUMPI
            "6010" "6014" "56"        # PUSH1 16; PUSH1 20; JUMP   (pushes A=16)
            "5b" "6012" "6014" "56"   # 10: JUMPDEST; PUSH1 18; PUSH1 20; JUMP (pushes B=18)
            "5b00"                    # 16: JUMPDEST; STOP
            "5b00"                    # 18: JUMPDEST; STOP
            "5b56")                   # 20: JUMPDEST; JUMP  (dangling)
    cfg = build_cfg(disassemble(parse_hex(code)))
    targets = {dst for src, dst in _edges(cfg, EdgeKind.INDIRECT_JUMP) if src == 20}
    assert targets == {16, 18}


def test_unresolvable_jump_reported_never_dropped():
    # the jump target comes from calldata: no constant on any path
    cfg = build_cfg(disassemble(parse_hex("60003556")))
    assert any(d.code == "unresolved_indirect_jump" for d in cfg.diagnostics)
    jump_block = [b for b in cfg.blocks.values() if b.last.mnemonic == "JUMP"][0]
    assert jump_block.id in cfg.dangling


def test_conservatism_top_stack_never_beats_per_path():
    # simulating with an all-unknown stack must not invent constants
    from evmscope.cfg import _simulate_block, TOP
    cfg = get_cfg("toydao")
    for block_id in (305, 308):
        block = cfg.blocks[block_id]
        _stack, target = _simulate_block(block, [TOP] * 8)
        assert target is TOP


# Each computes the jump target "dest" with a word operator right before an
# indirect JUMP; only constant folding through that operator resolves the edge.
_COMPUTED_TARGETS = {
    "SIGNEXTEND": lambda asm: asm.push_label("dest").push(31).op("SIGNEXTEND"),
    "BYTE": lambda asm: asm.push_label("dest").push(31).op("BYTE"),
    "SAR": lambda asm: asm.push_label("dest").push(0).op("SAR"),
    "ADDMOD": lambda asm: asm.push(0x100).push(0).push_label("dest").op("ADDMOD"),
}


@pytest.mark.parametrize("name", sorted(_COMPUTED_TARGETS))
def test_lattice_folds_computed_jump_target(name):
    asm = Asm()
    _COMPUTED_TARGETS[name](asm).op("JUMP").label("dest").op("JUMPDEST").op("STOP")
    cfg = build_cfg(disassemble(asm.assemble()))
    assert _edges(cfg, EdgeKind.INDIRECT_JUMP) == [(0, asm.offset_of("dest"))]
    assert cfg.dangling == set()
    assert [d for d in cfg.diagnostics if d.code == "unresolved_indirect_jump"] == []


@given(st.sampled_from(sorted(isa.OPERATORS)),
       st.lists(st.integers(min_value=0, max_value=(1 << 256) - 1), min_size=3, max_size=3))
def test_lattice_fold_matches_concrete_op(name, words):
    # PUSH the arguments bottom first, so the first argument ends on top
    args = words[:by_mnemonic(name).stack_pops]
    asm = Asm()
    for word in reversed(args):
        asm.push(word, 32)
    asm.op(name)
    (block,) = build_blocks(disassemble(asm.assemble())).values()
    assert _simulate_block(block, []) == ([concrete_op(name, args)], None)


def test_determinism_same_bytecode_same_graph(toydao):
    a = build_cfg(disassemble(toydao.runtime_code))
    b = build_cfg(disassemble(toydao.runtime_code))
    assert {x.label for x in a.blocks.values()} == {x.label for x in b.blocks.values()}
    assert {(e.src, e.dst, e.kind) for e in a.edges} == {(e.src, e.dst, e.kind) for e in b.edges}


def test_jump_edges_land_on_jumpdest():
    for name in ("toydao", "bitway", "enjinbuyer", "problematic",
                 "micarstoken", "gigstoken"):
        cfg = get_cfg(name)
        for e in cfg.edges:
            if e.kind in (EdgeKind.DIRECT_JUMP, EdgeKind.COND_TAKEN, EdgeKind.INDIRECT_JUMP):
                target = cfg.blocks[e.dst]
                assert target.instructions[0].mnemonic == "JUMPDEST", (name, e)


# -- function discovery --------------------------------------------------------

def test_toydao_function_entries(toydao_cfg):
    entries = toydao_cfg.function_entries
    assert set(entries) == {selector("donate()"), selector("withdraw()"), FALLBACK}
    assert entries[selector("withdraw()")] == 81
    assert entries[selector("donate()")] == 102
    assert entries[FALLBACK] == 76


def test_bitway_entries_include_create_tokens():
    cfg = get_cfg("bitway")
    assert selector("createTokens()") in cfg.function_entries
    assert cfg.function_entries[selector("approve(address,uint256)")] == 305


def test_fallback_only_contract():
    cfg = get_cfg("fallback_only")
    assert set(cfg.function_entries) == {FALLBACK}
    assert cfg.function_entries[FALLBACK] == cfg.root
    assert any(d.code == "no_dispatcher" for d in cfg.diagnostics)


# -- DOT output -----------------------------------------------------------------

def test_dot_labels_use_offset_naming(toydao_cfg):
    dot = to_dot(toydao_cfg)
    assert dot.startswith("digraph")
    assert '"Node_92_99"' in dot
    assert '"Node_100_101"' in dot
    assert '"Node_112_162"' in dot
    assert "fillcolor=black" in dot  # money node styled distinctly


def test_every_edge_endpoint_is_a_node():
    for name in ("toydao", "bitway", "enjinbuyer", "problematic"):
        cfg = get_cfg(name)
        for e in cfg.edges:
            assert e.src in cfg.blocks and e.dst in cfg.blocks


def test_cond_jump_blocks_have_at_most_two_nonroot_edges():
    for name in ("toydao", "bitway", "enjinbuyer", "problematic", "micarstoken"):
        cfg = get_cfg(name)
        for block in cfg.blocks.values():
            if block.terminator is Terminator.COND_JUMP:
                non_root = [e for e in cfg.successors(block.id)
                            if e.kind not in (EdgeKind.NEW_TRANSACTION,
                                              EdgeKind.EXTERNAL_CALLBACK)]
                assert len(non_root) <= 2, block.label
