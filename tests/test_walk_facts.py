"""The trace walk's facts against the per-path rules.

`analyze()` folds each call's share of the transfer-limit, address and
guarded-suicide facts as the trace walk enters the call, and reads each
path's violations and registry warnings from its leaf's facts.  For every
traced path of every fixture at call bounds 1 to 4, they must equal what
the rules find on the path's whole traced state, folded in one step by one `PathFacts` per configuration; the per-path
transfer-limit and guarded-suicide checkers must agree.  The registry
answers some addresses and fails for the others, so the warnings, their
order and the order of the lookups are compared too.
"""

import pytest

import evmscope.report as report_module
from evmscope.analyzers import (
    PathFacts,
    PropertyId,
    check_guard_suicide,
    check_transfer_limit,
    detect_payable_entries,
)
from evmscope.cfg import build_cfg
from evmscope.disasm import disassemble, parse_hex
from evmscope.pathgen import PathBounds, enumerate_paths
from evmscope.registry import RegistryUnavailable, load_fixture_table
from evmscope.report import AnalysisConfig, analyze
from evmscope.symexec import SymExecError, execute_paths, refine_transfer_values, run_constructor

from conftest import FIXTURES, MICRO, REGISTRY_TXT, get_contract

_NAMES = sorted(p.stem for p in FIXTURES.glob("*.json")) + sorted(
    p.stem for p in MICRO.glob("*.json"))
_TABLE = load_fixture_table(REGISTRY_TXT)
LIMIT = 30


class HalfRegistry:
    """The fixture table for addresses with an even last byte; an outage
    for the others.  It keeps the addresses asked, in order."""
    mode = "online"

    def __init__(self):
        self.asked = []

    def exists(self, address):
        self.asked.append(address)
        if address & 1:
            raise RegistryUnavailable("network down")
        return _TABLE.get(address, False)


def _per_path(state, facts):
    """The rules on one path's whole traced state: `facts` folds its lists
    in one step, and asks the registry once per address, as the walk's
    facts do; the per-path checkers find the same transfer-limit and
    guarded-suicide violations."""
    violations, warnings = facts.of(state.path_condition, state.records)
    checked = [check_transfer_limit(LIMIT, refine_transfer_values(state)),
               check_guard_suicide(state)]
    assert [v for v in violations if v.property is not PropertyId.NON_EXISTING_ADDRESS] \
        == [v for v in checked if v is not None]
    return violations, warnings


def _compare(cfg, code, storage, payable) -> tuple[int, int]:
    """Walk and per-path verdicts of every traced path at call bounds 1-4;
    the paths with violations and with warnings."""
    warned = violated = 0
    for call_depth in (1, 2, 3, 4):
        bounds = PathBounds(call_depth=call_depth)
        unfolding = enumerate_paths(cfg, bounds)
        marked = unfolding.money_marker(payable)
        walk_registry, path_registry = HalfRegistry(), HalfRegistry()
        facts = PathFacts(LIMIT, walk_registry, True)
        walked = list(execute_paths(cfg, code, unfolding, marked, storage, None, facts))
        whole = list(execute_paths(cfg, code, enumerate_paths(cfg, bounds),
                                   marked, storage, None, None))
        assert [p for p, _facts in walked] == [p for p, _state in whole]
        path_facts = PathFacts(LIMIT, path_registry, True)
        for (path, leaf), (_path, state) in zip(walked, whole):
            if isinstance(state, SymExecError):
                assert type(leaf) is type(state) and str(leaf) == str(state), path
                continue
            got = facts.verdict(leaf)
            assert got == _per_path(state, path_facts), (call_depth, path)
            violated += bool(got[0])
            warned += bool(got[1])
        assert walk_registry.asked == path_registry.asked
    return violated, warned


@pytest.mark.parametrize("name", _NAMES)
def test_the_walk_finds_what_the_per_path_rules_find(name):
    contract = get_contract(name)
    code = contract.runtime_code
    instructions = disassemble(code)
    cfg = build_cfg(instructions)
    if not cfg.money_blocks:
        return  # no path is traced; the black-hole walk has its own reference
    storage = {}
    if contract.creation_code:
        storage, _diagnostics = run_constructor(
            build_cfg(disassemble(contract.creation_code)), contract.creation_code)
    violated, warned = _compare(cfg, code, storage,
                                detect_payable_entries(cfg, instructions)[0])
    if name in ("enjinbuyer", "problematic", "suicide_open_0", "toydao"):
        assert violated, name
    if name.startswith("pay_unreg"):
        assert warned, name


# JUMPI on calldata word 0 to the SELFDESTRUCT at 20 (JUMPDEST; CALLER;
# SELFDESTRUCT), else a guard on the call (CALLER == storage slot 0, or
# TIMESTAMP < 100) that reverts when false and stops when true: a guard one
# call makes holds for the self-destruct a later call runs
_GUARD_THEN_DESTRUCT = {
    "ownership": "600035601457" + "3360005414601257" + "600080fd" + "5b00" + "5b33ff",
    "time": "600035601457" + "4261006411601257" + "600080fd" + "5b00" + "5b33ff",
}


@pytest.mark.parametrize("guard", sorted(_GUARD_THEN_DESTRUCT))
def test_a_guard_from_an_earlier_call_counts(guard):
    code = parse_hex(_GUARD_THEN_DESTRUCT[guard])
    cfg = build_cfg(disassemble(code))
    violated, _warned = _compare(cfg, code, {}, set())
    assert violated
    unfolding = enumerate_paths(cfg, PathBounds(call_depth=2))
    facts = PathFacts(None, None, True)
    verdicts = {path.blocks: facts.verdict(leaf)[0] for path, leaf in execute_paths(
        cfg, code, unfolding, unfolding.money_marker(set()), {}, None, facts)}
    guarded_first = verdicts[0, 6, 18, 0, 20]
    if guard == "ownership":
        assert guarded_first == []
    else:
        assert [v.evidence["present_guards"] for v in guarded_first] == [{"time_or_height"}]
    assert [v.evidence["present_guards"] for v in verdicts[0, 20, 0, 20]] == [set()]


@pytest.mark.parametrize("call_bound, verdicts, rankings", [(3, 39, 28), (4, 48, 34)])
def test_a_corpus_pass_judges_and_ranks_each_evidence_and_call_count_once(
        monkeypatch, call_bound, verdicts, rankings):
    """`analyze()` keeps one entry per (evidence, call count): the paths of
    one such key share the first's verdict and ranking.  A corpus pass at
    call bounds 3 and 4 asks for at most 39 and 48 verdicts, where asking
    once per path asked 1,308 and 7,976 times, and ranks at most 28 and 34
    paths anew."""
    calls = []
    verdict, make_ranked = PathFacts.verdict, report_module.make_ranked
    monkeypatch.setattr(PathFacts, "verdict",
                        lambda self, facts: calls.append("verdict") or verdict(self, facts))
    monkeypatch.setattr(report_module, "make_ranked",
                        lambda *args: calls.append("rank") or make_ranked(*args))
    config = AnalysisConfig(bounds=PathBounds(call_depth=call_bound), transfer_limit=LIMIT,
                            registry_fixture=str(REGISTRY_TXT), include_timing=False)
    for name in sorted(p.stem for p in FIXTURES.glob("*.json")):
        analyze(get_contract(name), config)
    assert 0 < calls.count("verdict") <= verdicts
    assert 0 < calls.count("rank") <= rankings
