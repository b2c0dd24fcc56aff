import time

import pytest
from hypothesis import given, strategies as st

from evmscope import report, symexec
from evmscope.analyzers import (
    AnalysisMemo,
    GasEstimator,
    PropertyId,
    TransferLedger,
    check_address_existence,
    check_black_hole,
    check_guard_suicide,
    check_transfer_limit,
    detect_payable_entries,
    estimate_gas,
)
from evmscope.cfg import FALLBACK, Terminator, build_cfg
from evmscope.disasm import ContractCode, disassemble, parse_hex
from evmscope.keccak import selector
from evmscope.pathgen import PathBounds, enumerate_paths, filter_money
from evmscope.registry import DEFAULT_RETRIES, AddressRegistry, RegistryUnavailable
from evmscope.report import AnalysisConfig, analyze
from evmscope.symexec import (
    UNKNOWN_AMOUNT,
    run_constructor,
    refine_transfer_values,
    trace_path,
)

from conftest import REGISTRY_TXT, get_cfg, get_contract


def _registry():
    from evmscope.registry import load_fixture_table
    return AddressRegistry(mode="offline", fixture=load_fixture_table(REGISTRY_TXT))


def _base_storage(name):
    contract = get_contract(name)
    creation_cfg = build_cfg(disassemble(contract.creation_code))
    storage, _ = run_constructor(creation_cfg, contract.creation_code)
    return storage


def _traced_money_paths(name, depth=1):
    contract = get_contract(name)
    cfg = get_cfg(name)
    storage = _base_storage(name) if contract.creation_code else {}
    paths = list(filter_money(
        iter(enumerate_paths(cfg, PathBounds(call_depth=depth))), cfg))
    return [(p, trace_path(cfg, contract.runtime_code, p, storage)) for p in paths]


# -- transfer limit ------------------------------------------------------------

def test_two_twenty_wei_transfers_break_limit_thirty():
    traced = _traced_money_paths("toydao", depth=2)
    double = [(p, s) for p, s in traced if p.blocks.count(112) == 2]
    assert double
    for path, state in double:
        transfers = refine_transfer_values(state)
        v = check_transfer_limit(30, transfers, AnalysisMemo())
        assert v is not None and v.property is PropertyId.TRANSFER_LIMIT
        assert v.evidence["remaining"] == -10


def test_single_transfer_within_limit():
    traced = _traced_money_paths("toydao", depth=1)
    for path, state in traced:
        memo = AnalysisMemo()
        assert check_transfer_limit(30, refine_transfer_values(state),
                                    memo) is None


def test_unknown_amount_is_conservative_violation():
    traced = _traced_money_paths("gigstoken", depth=1)
    flagged = [check_transfer_limit(10**18, refine_transfer_values(s), AnalysisMemo())
               for p, s in traced]
    assert any(v is not None and v.evidence["remaining"] == UNKNOWN_AMOUNT
               for v in flagged)


def test_ledger_monotonic():
    ledger = TransferLedger(100)
    values = [10, 0, 50]
    seen = [ledger.remaining]
    for v in values:
        ledger.spend(v)
        seen.append(ledger.remaining)
    assert seen == sorted(seen, reverse=True)
    assert ledger.remaining == 40 and not ledger.violated
    ledger.spend(41)
    assert ledger.violated


@given(st.lists(st.integers(min_value=0, max_value=1 << 64), max_size=20),
       st.integers(min_value=0, max_value=1 << 64))
def test_ledger_monotonic_property(amounts, limit):
    ledger = TransferLedger(limit)
    previous = ledger.remaining
    for amount in amounts:
        ledger.spend(amount)
        assert ledger.remaining <= previous
        previous = ledger.remaining


# -- address existence ------------------------------------------------------------

def test_enjinbuyer_sale_address_flagged():
    registry = _registry()
    traced = _traced_money_paths("enjinbuyer", depth=1)
    found = []
    for path, state in traced:
        violations, warnings = check_address_existence(state.records, registry,
                                                       AnalysisMemo())
        found.extend(violations)
        assert warnings == []
    assert found
    assert all(v.property is PropertyId.NON_EXISTING_ADDRESS for v in found)
    assert found[0].evidence["address"] == \
        "0x0c4740f71323129669424d1ae06c42aee99da30e"


def test_registered_constant_not_flagged():
    registry = _registry()
    traced = _traced_money_paths("pay_const_0", depth=1)
    assert traced
    for path, state in traced:
        violations, _ = check_address_existence(state.records, registry, AnalysisMemo())
        assert violations == []


def test_symbolic_address_skipped():
    # toyDAO sends to msg.sender: no constant, no evidence either way
    registry = _registry()
    traced = _traced_money_paths("toydao", depth=1)
    for path, state in traced:
        violations, _ = check_address_existence(state.records, registry, AnalysisMemo())
        assert violations == []


def test_registry_outage_degrades_to_warning():
    class FailingRegistry:
        mode = "online"

        def exists(self, address):
            raise RegistryUnavailable("network down")

    traced = _traced_money_paths("pay_unreg_0", depth=1)
    path, state = traced[0]
    violations, warnings = check_address_existence(state.records, FailingRegistry(),
                                                   AnalysisMemo())
    assert violations == []
    assert warnings and "unavailable" in warnings[0]


def test_an_address_is_asked_once_per_analysis_during_an_outage(monkeypatch):
    """A lookup that fails is kept for the rest of the analysis: one lookup,
    four attempts and one backoff, not 37 of each (one per path), and still
    one warning per path.  The next analysis asks again."""
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    attempts = []

    def transport(url, params):
        attempts.append(params["address"])
        raise OSError("network down")

    registry = AddressRegistry(mode="online", transport=transport)
    config = AnalysisConfig(bounds=PathBounds(call_depth=3), transfer_limit=30)
    report = analyze(get_contract("pay_unreg_0"), config, registry=registry)
    assert attempts == ["0x" + "dead".ljust(36, "0") + "beef"] * DEFAULT_RETRIES
    assert DEFAULT_RETRIES == 4 and sleeps == [0.25, 0.5, 1.0]
    assert report.diagnostics == [
        "address registry unavailable for 0xdead00000000000000000000000000000000beef "
        "at offset 116: network down"] * 37
    analyze(get_contract("pay_unreg_0"), config, registry=registry)
    assert len(attempts) == 2 * DEFAULT_RETRIES


def test_each_record_resolves_its_target_and_amount_once(monkeypatch):
    # the paths of an analysis share their calls' records, so each field a
    # check reads is resolved once per record, not once per path
    resolved = []
    concretize = symexec.concretize
    monkeypatch.setattr(symexec, "concretize", lambda w: resolved.append(w) or concretize(w))
    held = []  # each analyzed path's records
    walk = report.execute_paths

    class Tracked:
        """The analysis's facts, with the records of the path so far beside them."""

        def __init__(self, facts):
            self.start = (facts.start, ())
            self.extend = lambda value, before, conditions, records: (
                facts.extend(value[0], before, conditions, records), value[1] + tuple(records))

    def tracked_walk(*args):
        for path, outcome in walk(*args[:-1], Tracked(args[-1])):
            if isinstance(outcome, tuple):
                outcome, records = outcome
                held.append(records)
            yield path, outcome

    monkeypatch.setattr(report, "execute_paths", tracked_walk)
    analyze(get_contract("toydao"),
            AnalysisConfig(bounds=PathBounds(call_depth=3), transfer_limit=30,
                           registry_fixture=str(REGISTRY_TXT), include_timing=False))
    records = {id(rec): rec for path_records in held for rec in path_records}.values()
    fields = sum((rec.kind in ("CALL", "CALLCODE", "CREATE"))  # amount
                 + (rec.kind in ("CALL", "CALLCODE", "SELFDESTRUCT"))  # target
                 for rec in records)
    assert len(resolved) == fields
    assert sum(map(len, held)) > 2 * len(records)


# -- guard suicide ------------------------------------------------------------------

def _suicide_check(name, depth=1):
    results = []
    for path, state in _traced_money_paths(name, depth=depth):
        if any(r.kind == "SELFDESTRUCT" for r in state.records):
            results.append(check_guard_suicide(state, AnalysisMemo()))
    return results


def test_problematic_flagged_despite_time_guard():
    results = _suicide_check("problematic")
    assert results and all(v is not None for v in results)
    v = results[0]
    assert v.property is PropertyId.GUARD_SUICIDE
    assert "ownership" in v.evidence["missing_guards"]
    assert "time_or_height" in v.evidence["present_guards"]


def test_micarstoken_not_flagged():
    results = _suicide_check("micarstoken")
    assert results and results == [None] * len(results)


def test_canonical_owner_guard_not_flagged():
    results = _suicide_check("suicide_guarded_0")
    assert results and results == [None] * len(results)


@pytest.mark.parametrize("guard", [
    "33" + "600054" + "14" + "600154" + "14",  # EQ(EQ(CALLER, sload 0), sload 1)
    "33" + "600054" + "14" + "33" + "14",  # EQ(EQ(CALLER, sload 0), CALLER)
], ids=["beside-a-storage-read", "beside-the-caller"])
def test_an_owner_guard_compared_again_is_still_a_guard(guard):
    # JUMPI on the guard; STOP; JUMPDEST; CALLER; SELFDESTRUCT
    code = guard + f"60{len(guard) // 2 + 4:02x}57" + "00" + "5b33ff"
    code = parse_hex(code)
    cfg = build_cfg(disassemble(code))
    paths = filter_money(iter(enumerate_paths(cfg, PathBounds(call_depth=1))), cfg)
    states = [trace_path(cfg, code, p, {}) for p in paths]
    assert [check_guard_suicide(s, AnalysisMemo()) for s in states
            if any(r.kind == "SELFDESTRUCT" for r in s.records)] == [None]


def test_unguarded_selfdestruct_flagged():
    results = _suicide_check("suicide_open_0")
    hits = [v for v in results if v is not None]
    assert hits
    assert hits[0].evidence["missing_guards"] == {"ownership", "time_or_height"}


# -- black hole ----------------------------------------------------------------------

def test_bitway_create_tokens_flagged():
    cfg = get_cfg("bitway")
    contract = get_contract("bitway")
    instructions = disassemble(contract.runtime_code)
    payable, details = detect_payable_entries(cfg, instructions)
    ct = selector("createTokens()")
    assert ct in payable and FALLBACK in payable
    paths = list(filter_money(
        iter(enumerate_paths(cfg, PathBounds(call_depth=1))), cfg, payable))
    flagged = check_black_hole(cfg, paths, payable)
    assert flagged
    entries = {v.evidence["payable_entry"] for _p, v in flagged}
    assert "createTokens()" in entries or f"0x{ct:08x}" in entries


def test_bitway_approve_preamble_at_pinned_offsets():
    cfg = get_cfg("bitway")
    instructions = disassemble(get_contract("bitway").runtime_code)
    _payable, details = detect_payable_entries(cfg, instructions)
    approve = details[selector("approve(address,uint256)")]
    assert approve["payable"] is False
    assert approve["preamble_span"] == (306, 315)


def test_gigstoken_not_applicable():
    cfg = get_cfg("gigstoken")
    assert cfg.money_blocks  # owner.transfer(msg.value) compiles to CALL
    with pytest.raises(ValueError):
        check_black_hole(cfg, [], set())


def test_all_nonpayable_contract_not_flagged():
    cfg = get_cfg("safe_token_0")
    contract = get_contract("safe_token_0")
    payable, _ = detect_payable_entries(cfg, disassemble(contract.runtime_code))
    assert payable == set()
    paths = list(filter_money(
        iter(enumerate_paths(cfg, PathBounds(call_depth=1))), cfg, payable))
    assert check_black_hole(cfg, paths, payable) == []


def test_reverting_receive_branch_not_flagged():
    cfg = get_cfg("bitway")
    contract = get_contract("bitway")
    payable, _ = detect_payable_entries(cfg, disassemble(contract.runtime_code))
    paths = list(filter_money(
        iter(enumerate_paths(cfg, PathBounds(call_depth=1))), cfg, payable))
    flagged_blocks = {p.blocks for p, _v in check_black_hole(cfg, paths, payable)}
    for p in paths:
        if cfg.blocks[p.blocks[-1]].last.mnemonic == "REVERT":
            assert p.blocks not in flagged_blocks


# 0: an indirect JUMP to 9; 6: JUMPDEST CALLER SELFDESTRUCT; 9: JUMPDEST, then
# a selector dispatch whose JUMPI to 6 is the last instruction: the dispatch
# falls through to the implicit STOP at 25, the fallback entry.
_DISPATCH_AT_THE_END = "600960005056" "5b33ff" "5b60003560e01c" "6312345678" "14600657"


def test_the_stop_past_the_end_of_the_code_is_a_payable_fallback():
    instructions = disassemble(parse_hex(_DISPATCH_AT_THE_END))
    cfg = build_cfg(instructions)
    assert cfg.function_entries == {0x12345678: 6, FALLBACK: 25}
    assert cfg.blocks[25].last.mnemonic == "STOP"
    payable, details = detect_payable_entries(cfg, instructions)
    assert payable == {0x12345678, FALLBACK}
    assert details[FALLBACK] == {"payable": True, "preamble_span": None}


# A loop back to offset 0 inside one call, then REVERT at offset 15: every
# transaction reverts, so no Ether can be taken in.
_LOOP_TO_ROOT_THEN_REVERT = "5b600054600f576001600055600056" + "5b600080fd"


def test_loop_back_to_root_stays_one_call():
    code = parse_hex(_LOOP_TO_ROOT_THEN_REVERT)
    instructions = disassemble(code)
    cfg = build_cfg(instructions)
    payable, _ = detect_payable_entries(cfg, instructions)
    assert payable == {FALLBACK}
    for depth in (1, 2):
        paths = list(enumerate_paths(cfg, PathBounds(call_depth=depth)))
        assert any(p.blocks.count(cfg.root) > depth for p in paths)  # a loop revisits the root
        assert check_black_hole(cfg, paths, payable) == []
    report = analyze(ContractCode(runtime_code=code, name="loop_then_revert"),
                     AnalysisConfig(bounds=PathBounds(call_depth=1)))
    assert report.critical_paths == []


def test_preamble_found_for_every_nonpayable_fixture_function():
    """Corpus check: the template is recognized wherever metadata says
    the function is non-payable."""
    import json
    from conftest import FIXTURES
    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text())
        functions = doc.get("functions") or {}
        if not functions:
            continue
        name = path.stem
        cfg = get_cfg(name)
        instructions = disassemble(get_contract(name).runtime_code)
        _payable, details = detect_payable_entries(cfg, instructions)
        for sel_hex, meta in functions.items():
            sel = int(sel_hex, 16)
            if sel not in details:
                continue
            assert details[sel]["payable"] == meta["payable"], (name, meta)


# -- gas estimation -----------------------------------------------------------------

def test_gas_push_push_add_stop_is_nine():
    assert estimate_gas(disassemble(parse_hex("6001600201 00".replace(" ", "")))) == 9


def test_gas_empty_path_zero():
    assert estimate_gas([]) == 0


def test_withdraw_path_costs_more_than_donate():
    cfg = get_cfg("toydao")
    estimator = GasEstimator(cfg)
    paths = list(enumerate_paths(cfg, PathBounds(call_depth=1)))
    withdraw = [p for p in paths if 112 in p.blocks]
    donate = [p for p in paths if 308 in p.blocks]
    assert withdraw and donate
    # the full withdraw body (call + credit update) dominates donate; the
    # call-failed branch skips the update and is legitimately cheaper
    assert max(estimator.path_gas(p) for p in withdraw) > \
        max(estimator.path_gas(p) for p in donate)
    top = max(paths, key=estimator.path_gas)
    assert 112 in top.blocks


def test_gas_additive_over_concatenation():
    cfg = get_cfg("toydao")
    estimator = GasEstimator(cfg)
    paths = list(enumerate_paths(cfg, PathBounds(call_depth=2)))
    terminal = {b.id for b in cfg.blocks.values() if b.terminator is Terminator.TERMINAL}
    for p in paths[:10]:
        ends = [i + 1 for i, b in enumerate(p.blocks) if b in terminal]
        calls = [p.blocks[i:j] for i, j in zip([0] + ends, ends)]
        assert len(calls) == p.call_count
        total = sum(
            sum(estimator.block_costs[b] for b in call) for call in calls)
        assert estimator.path_gas(p) == total


def test_ctor_stored_registered_address_not_flagged():
    """The payee constant lives in constructor-set storage; the pre-run
    resolves it and the registry confirms it exists."""
    registry = _registry()
    traced = _traced_money_paths("pay_stored_0", depth=1)
    assert traced
    saw_call = False
    for path, state in traced:
        calls = [r for r in state.records if r.kind == "CALL"]
        saw_call = saw_call or bool(calls)
        violations, warnings = check_address_existence(state.records, registry,
                                                       AnalysisMemo())
        assert violations == [] and warnings == []
    assert saw_call
