"""The call memo keys a whole call by its footprint.

A call the trace walk has run is reused under any later prefix from which
every storage read it made gives the same word, and the balance too if it
reads the balance; a call that read a slot past a write of a symbolic key is
reused only under an identical head.  Reuse must be invisible: for every
traced path of every fixture at call bounds 1 to 4, the walk with the memo gives the same per-path facts and the same final
state as the walk without it (`MEMO_ENTRIES` 0).
"""

import pytest

import evmscope.symexec as symexec_module
from evmscope.analyzers import PathFacts, detect_payable_entries
from evmscope.cfg import build_cfg
from evmscope.disasm import disassemble
from evmscope.pathgen import PathBounds, enumerate_paths
from evmscope.registry import AddressRegistry, load_fixture_table
from evmscope.symexec import SymExecError, execute_paths, run_constructor, trace_path

from asmtool import Asm
from conftest import FIXTURES, MICRO, REGISTRY_TXT, get_contract

_NAMES = sorted(p.stem for p in FIXTURES.glob("*.json")) + sorted(
    p.stem for p in MICRO.glob("*.json"))


def _text(outcome) -> tuple:
    """A traced state as text: its storage writes, path condition, records,
    balance and draws; an error as its type and message."""
    if isinstance(outcome, SymExecError):
        return type(outcome).__name__, str(outcome)
    return ([f"{key} <- {value}" for key, value in outcome.storage_writes],
            list(map(str, outcome.path_condition)),
            [(r.kind, r.offset, r.txn, str(r.target), str(r.value)) for r in outcome.records],
            str(outcome.balance), outcome.sites)


def _walks(cfg, code, storage, payable, bounds, facts):
    unfolding = enumerate_paths(cfg, bounds)
    return list(execute_paths(cfg, code, unfolding, unfolding.money_marker(payable), storage,
                              None, facts))


@pytest.mark.parametrize("name", _NAMES)
def test_the_memo_changes_no_traced_path(name, monkeypatch):
    contract = get_contract(name)
    code = contract.runtime_code
    instructions = disassemble(code)
    cfg = build_cfg(instructions)
    storage = {}
    if contract.creation_code:
        storage, _diagnostics = run_constructor(
            build_cfg(disassemble(contract.creation_code)), contract.creation_code)
    payable = detect_payable_entries(cfg, instructions)[0]
    registry = AddressRegistry("offline", load_fixture_table(REGISTRY_TXT))
    entries = symexec_module.MEMO_ENTRIES
    for call_depth in (1, 2, 3, 4):
        bounds = PathBounds(call_depth=call_depth)
        seen = []
        for memo in (entries, 0):
            monkeypatch.setattr(symexec_module, "MEMO_ENTRIES", memo)
            states = _walks(cfg, code, storage, payable, bounds, None)
            facts = _walks(cfg, code, storage, payable, bounds,
                           PathFacts(30, registry, True))
            assert [p for p, _state in states] == [p for p, _facts in facts]
            seen.append(([p for p, _state in states],
                         [_text(state) for _p, state in states],
                         [_text(leaf) if isinstance(leaf, SymExecError) else leaf
                          for _p, leaf in facts]))
        with_memo, without = seen
        assert with_memo[0] == without[0], call_depth
        assert with_memo[1] == without[1], call_depth
        assert with_memo[2] == without[2], call_depth


# One piece per body: call data word i nonzero runs body i, else the call
# stops at once.  The bodies, each ending in STOP:
_BODIES = {
    "w0": lambda asm: asm.op("CALLER").push(0).op("SSTORE"),    # slot 0 := CALLER
    "w1": lambda asm: asm.op("CALLER").push(1).op("SSTORE"),    # slot 1 := CALLER
    "read0": lambda asm: asm.push(0).op("SLOAD").push(3).op("SSTORE"),  # slot 3 := slot 0
    "nop": lambda asm: asm,
    "gas2": lambda asm: asm.op("GAS").op("POP").op("GAS").op("POP"),  # two fresh words
    # CALL(GAS, CALLER, 1, 0, 0, 0, 0); POP: sends 1 wei, and draws two
    # fresh words, as gas2 does
    "send": lambda asm: asm.push(0).op("DUP1").op("DUP1").op("DUP1").push(1)
    .op("CALLER").op("GAS").op("CALL").op("POP"),
    # slot 4 := BALANCE(ADDRESS)
    "balance": lambda asm: asm.op("ADDRESS").op("BALANCE").push(4).op("SSTORE"),
    # slot 5 := slot CALLER, a symbolic key
    "readkey": lambda asm: asm.op("CALLER").op("SLOAD").push(5).op("SSTORE"),
}


def _contract(*bodies: str) -> tuple[bytes, dict[str, int]]:
    """The runtime of `bodies`, and the block each body runs in."""
    asm = Asm()
    for i, body in enumerate(bodies):
        asm.push(32 * i).op("CALLDATALOAD").push_label(body).op("JUMPI")
    asm.op("STOP")
    for body in bodies:
        _BODIES[body](asm.label(body).op("JUMPDEST")).op("STOP")
    code = asm.assemble()
    return code, {body: asm.offset_of(body) for body in bodies}


def _second_calls(monkeypatch, bodies, body: str, memo: bool = True) -> dict[str, bool]:
    """Walk every two-call path of `bodies`; per first call (a body, or
    "stop"), whether the second call's `body` ran its block rather than
    being reused.  Every state must equal the one its blocks give alone."""
    code, blocks = _contract(*bodies)
    names = {block: name for name, block in blocks.items()}
    cfg = build_cfg(disassemble(code))
    if not memo:
        monkeypatch.setattr(symexec_module, "MEMO_ENTRIES", 0)
    runs, ran = [], {}
    run_body = symexec_module._run_body
    monkeypatch.setattr(symexec_module, "_run_body",
                        lambda *args: runs.append(args[2].id) or run_body(*args))
    unfolding = enumerate_paths(cfg, PathBounds(call_depth=2))
    walked = []
    for path, state in execute_paths(cfg, code, unfolding, lambda _piece: True, {}, None, None):
        first, second = (next((names[b] for b in piece.blocks if b in names), "stop")
                         for piece in path.pieces)
        if second == body:
            ran[first] = blocks[body] in runs
        runs.clear()
        walked.append((path, state))
    monkeypatch.setattr(symexec_module, "_run_body", run_body)
    for path, state in walked:
        assert _text(state) == _text(trace_path(cfg, code, path, {})), path.blocks
    return ran


def test_a_call_is_reused_across_prefixes_that_wrote_slots_it_does_not_read(monkeypatch):
    # read0 reads slot 0; no first call writes it, so the second read0
    # runs once, whatever slots the first call wrote
    ran = _second_calls(monkeypatch, ("w1", "read0"), "read0")
    assert ran == {"stop": True, "w1": False, "read0": False}
    assert all(_second_calls(monkeypatch, ("w1", "read0"), "read0", memo=False).values())


def test_a_call_is_refused_when_a_read_slot_differs(monkeypatch):
    # after w0, slot 0 reads CALLER#1, not the unwritten slot's word
    ran = _second_calls(monkeypatch, ("w0", "w1", "read0"), "read0")
    assert ran == {"stop": True, "w0": True, "w1": False, "read0": False}


def test_a_call_is_refused_when_the_read_balance_differs(monkeypatch):
    # after send the balance is 1 wei less than at the start: balance,
    # which reads it, runs again there.  gas2 leaves the balance as
    # stopping does, and a call's names depend on its call counter alone,
    # so balance after gas2 is the call stored after stop
    ran = _second_calls(monkeypatch, ("send", "gas2", "balance"), "balance")
    assert ran == {"stop": True, "send": True, "gas2": False, "balance": False}
    # read0 reads no balance: it runs after stop alone
    ran = _second_calls(monkeypatch, ("send", "gas2", "read0"), "read0")
    assert ran == {"stop": True, "send": False, "gas2": False, "read0": False}


def test_a_read_through_a_symbolic_key_falls_back_to_the_whole_head(monkeypatch):
    # readkey reads the slot CALLER#2 names, which no write of a constant
    # slot can be told apart from: it is reused only from an identical
    # head, here after nop, which leaves the state as stopping at once does
    ran = _second_calls(monkeypatch, ("nop", "w1", "readkey"), "readkey")
    assert ran == {"stop": True, "nop": False, "w1": True, "readkey": True}
