"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 2 includes a money-filter count at call bound 4 that is provably
out of reach (see the failure message inside the test); it is asserted
as stated and allowed to fail rather than weakened.
"""

import json
import random
import statistics
import time
from fractions import Fraction

from evmscope.analyzers import PropertyId
from evmscope.cfg import EdgeKind, build_cfg
from evmscope.cli import main as cli_main
from evmscope.disasm import disassemble, load_contract
from evmscope.pathgen import PathBounds, enumerate_paths, filter_money
from evmscope.ranker import RankConfig, make_ranked, rank_and_gate, score
from evmscope.report import AnalysisConfig, analyze
from evmscope.solver import BoundedSolver
from evmscope.symexec import (
    FeasibilityStatus,
    concrete_op,
    execute_path,
    free_vars,
    replay_blocks,
    trace_path,
)

from conftest import FIXTURES, MICRO, REGISTRY_TXT, get_cfg, get_contract


def _passed(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def _config(**kwargs) -> AnalysisConfig:
    kwargs.setdefault("registry_fixture", str(REGISTRY_TXT))
    kwargs.setdefault("include_timing", False)
    return AnalysisConfig(**kwargs)


# -- criterion 1: fixture vulnerability reproduction ---------------------------------

def test_criterion_1_fixture_vulnerabilities():
    started = time.monotonic()
    expected = {
        "toydao": ({"transfer_limit"},
                   _config(bounds=PathBounds(call_depth=2), transfer_limit=30)),
        "enjinbuyer": ({"non_existing_address"}, _config()),
        "bitway": ({"black_hole"}, _config()),
        "problematic": ({"guard_suicide"}, _config()),
        "micarstoken": (set(), _config()),
    }
    for name, (properties, config) in expected.items():
        report = analyze(get_contract(name), config)
        found = set(report.statistics["violation_counts"])
        assert found == properties, (name, found)
    # the flagged toyDAO path is the two-call withdraw sequence
    report = analyze(get_contract("toydao"),
                     _config(bounds=PathBounds(call_depth=2), transfer_limit=30))
    assert report.critical_paths[0].call_sequence == ["withdraw()", "withdraw()"]
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"fixture reproduction took {elapsed:.1f}s"
    _passed("1 fixture-vulnerability-reproduction")


# -- criterion 2: path-count reproduction ---------------------------------------------

def test_criterion_2_path_counts():
    cfg = get_cfg("toydao")
    paths_1 = list(enumerate_paths(cfg, PathBounds(call_depth=1)))
    money_1 = list(filter_money(iter(paths_1), cfg))
    assert len(paths_1) == 6
    assert len(money_1) == 2
    paths_4 = list(enumerate_paths(cfg, PathBounds(call_depth=4)))
    assert len(paths_4) == 1296
    _passed("2a path-counts (6 / 2 at bound 1, 1296 at bound 4)")


def test_criterion_2_money_filter_at_bound_four():
    cfg = get_cfg("toydao")
    paths_4 = list(enumerate_paths(cfg, PathBounds(call_depth=4)))
    money_4 = list(filter_money(iter(paths_4), cfg))
    assert len(money_4) == 116, (
        f"money filter kept {len(money_4)} of 1296 paths, not 116. The two "
        f"pinned counts cannot coexist: 1296 = 6**4 means every choice of "
        f"four transaction segments is enumerated, and with exactly 2 of 6 "
        f"segment shapes crossing the CALL block, the subset touching it is "
        f"6**4 - 4**4 = 1040 for every possible fixture. No money-membership "
        f"filter over such an enumeration can produce 116."
    )
    _passed("2b money-filter count at bound 4")


# -- criterion 3: ranking constants -----------------------------------------------------

def test_criterion_3_ranking_constants():
    config = RankConfig()
    assert config.alpha[PropertyId.TRANSFER_LIMIT] == 4
    assert config.alpha[PropertyId.NON_EXISTING_ADDRESS] == 6
    assert config.alpha[PropertyId.GUARD_SUICIDE] == 18
    assert config.alpha[PropertyId.BLACK_HOLE] == 12
    for prop, (l, s, d) in config.fmea.items():
        assert config.alpha[prop] == l * s * d

    from evmscope.analyzers import PropertyViolation
    from evmscope.pathgen import ProgramPath

    def path_of(length, marker):
        return ProgramPath(blocks=tuple(range(marker, marker + length + 1)),
                           functions=((None, "initial"),) * length)

    one_call_suicide = score(
        path_of(1, 0), [PropertyViolation(PropertyId.GUARD_SUICIDE, {})], config)
    assert one_call_suicide == Fraction(18)

    sets = {
        18: [PropertyViolation(PropertyId.GUARD_SUICIDE, {})],
        12: [PropertyViolation(PropertyId.BLACK_HOLE, {})],
        6: [PropertyViolation(PropertyId.NON_EXISTING_ADDRESS, {})],
        4: [PropertyViolation(PropertyId.TRANSFER_LIMIT, {})],
        9: [PropertyViolation(PropertyId.GUARD_SUICIDE, {})],
    }
    ranked = []
    for i, (target, violations) in enumerate(sets.items()):
        length = 2 if target == 9 else 1
        rp = make_ranked(path_of(length, i * 10), violations, config)
        assert rp.score == target
        ranked.append(rp)
    plan = rank_and_gate(ranked, config)
    assert sorted(int(rp.score) for rp in plan.admitted) == [12, 18]
    assert sorted(int(rp.score) for rp in plan.ordered
                  if rp not in plan.admitted) == [4, 6, 9]
    _passed("3 ranking-constants")


# -- criterion 4: CFG stack simulation ----------------------------------------------------

def test_criterion_4_stack_simulation_on_micro_fixture():
    cfg = get_cfg("micro_dispatcher")
    wrap = cfg.blocks[92]
    assert (wrap.first_offset, wrap.last_offset) == (92, 99)
    assert (cfg.blocks[100].first_offset, cfg.blocks[100].last_offset) == (100, 101)
    merge = cfg.blocks[305]
    assert (merge.first_offset, merge.last_offset) == (305, 307)
    indirect = [(e.src, e.dst) for e in cfg.edges if e.kind is EdgeKind.INDIRECT_JUMP]
    assert indirect == [(305, 100)]
    assert cfg.dangling == set()
    _passed("4 stack-simulation-indirect-jump")


# -- criterion 5: symbolic-execution soundness suite ---------------------------------------

DOMAIN_BITS = 12


def _micro_names():
    return sorted(p.stem for p in MICRO.glob("micro_*.json")
                  if p.stem != "micro_dispatcher")


def _driver_vars(cfg, code, paths):
    names = set()
    for p in paths:
        state = trace_path(cfg, code, p, {})
        for cond in state.path_condition:
            names |= free_vars(cond)
    return sorted(names)


def test_criterion_5_symexec_soundness():
    micro = _micro_names()
    assert len(micro) == 20
    solver = BoundedSolver()
    total_infeasible = 0
    total_feasible = 0
    for name in micro:
        contract = load_contract(MICRO / f"{name}.json")
        code = contract.runtime_code
        cfg = build_cfg(disassemble(code))
        paths = list(enumerate_paths(cfg, PathBounds(call_depth=1)))
        drivers = _driver_vars(cfg, code, paths)
        assert len(drivers) <= 1, (name, drivers)

        classified = {}
        for p in paths:
            _state, feas = execute_path(cfg, code, p, {}, solver)
            classified[p.blocks] = feas

        realized = set()
        if drivers:
            driver = drivers[0]
            for value in range(1 << DOMAIN_BITS):
                realized.add(replay_blocks(cfg, code, {driver: value}, {}, 1))
        else:
            realized.add(replay_blocks(cfg, code, {}, {}, 1))

        for blocks, feas in classified.items():
            if feas.status is FeasibilityStatus.INFEASIBLE:
                total_infeasible += 1
                assert blocks not in realized, (
                    f"{name}: path {blocks} classified infeasible but realized "
                    f"by exhaustive enumeration")
            elif feas.status is FeasibilityStatus.FEASIBLE:
                total_feasible += 1
                replayed = replay_blocks(cfg, code, feas.witness, {}, 1)
                assert replayed == blocks, (
                    f"{name}: witness does not replay the claimed blocks")
    # the suite must exercise both outcomes to mean anything
    assert total_infeasible >= 2
    assert total_feasible >= 15
    _passed(f"5 symexec-soundness ({total_feasible} feasible witnesses replayed, "
            f"{total_infeasible} infeasible classifications oracle-checked)")


# -- criterion 6: invariant property suites --------------------------------------------------

def test_criterion_6_invariant_suites():
    rng = random.Random(0xACCE)

    # disasm round trip on random byte strings
    for _ in range(500):
        code = bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 128)))
        ins = disassemble(code)
        encoded = b"".join(i.encode() for i in ins)
        assert encoded[:len(code)] == code
        assert all(b == 0 for b in encoded[len(code):])

    # CFG jump-target soundness across the bundled corpus
    for path in sorted(FIXTURES.glob("*.json")):
        cfg = build_cfg(disassemble(load_contract(path).runtime_code))
        for e in cfg.edges:
            if e.kind in (EdgeKind.DIRECT_JUMP, EdgeKind.COND_TAKEN,
                          EdgeKind.INDIRECT_JUMP):
                assert cfg.blocks[e.dst].instructions[0].mnemonic == "JUMPDEST"

    # pathgen bound enforcement
    bounds = PathBounds(call_depth=3, loop_bound=5, max_blocks=60)
    for name in ("toydao", "bitway", "problematic"):
        for p in enumerate_paths(get_cfg(name), bounds):
            assert p.call_count <= 3 and len(p.blocks) <= 60

    # transfer ledger monotonicity
    from evmscope.analyzers import TransferLedger
    ledger = TransferLedger(10**6)
    last = ledger.remaining
    for _ in range(200):
        ledger.spend(rng.randrange(0, 10**4))
        assert ledger.remaining <= last
        last = ledger.remaining

    # ranking order invariance under positive scaling
    from evmscope.analyzers import PropertyViolation
    from evmscope.pathgen import ProgramPath
    base = RankConfig()
    for scale in (2, 7, 100):
        scaled = RankConfig(alpha={p: a * scale for p, a in base.alpha.items()},
                            threshold=base.threshold * scale, fmea={})
        ranked_pairs = []
        for i, prop in enumerate(PropertyId):
            if prop is PropertyId.MAX_GAS:
                continue
            ppath = ProgramPath(blocks=(i,), functions=((None, "initial"),) * (1 + i % 2))
            violations = [PropertyViolation(prop, {})]
            ranked_pairs.append((make_ranked(ppath, violations, base),
                                 make_ranked(ppath, violations, scaled)))
        base_plan = rank_and_gate([a for a, _b in ranked_pairs], base)
        scaled_plan = rank_and_gate([b for _a, b in ranked_pairs], scaled)
        assert [rp.path.blocks for rp in base_plan.ordered] == \
            [rp.path.blocks for rp in scaled_plan.ordered]
        assert [rp.path.blocks for rp in base_plan.admitted] == \
            [rp.path.blocks for rp in scaled_plan.admitted]

    # word arithmetic differential, 100k random cases
    ops = ["ADD", "MUL", "SUB", "DIV", "SDIV", "MOD", "SMOD", "EXP",
           "SIGNEXTEND", "LT", "GT", "SLT", "SGT", "EQ", "AND", "OR",
           "XOR", "BYTE", "SHL", "SHR", "SAR"]
    from test_symexec import _ref
    for i in range(100_000):
        name = ops[i % len(ops)]
        a = rng.getrandbits(rng.choice([8, 64, 256]))
        b = rng.getrandbits(rng.choice([8, 64, 256]))
        if name == "EXP":
            b &= 0xFFFF
        assert concrete_op(name, [a, b]) == _ref(name, a, b), (name, a, b)

    _passed("6 invariant-property-suites")


# -- criterion 7: performance envelope ----------------------------------------------------

def test_criterion_7_performance_envelope():
    times = []
    enumerated = 0
    executed = 0
    for path in sorted(FIXTURES.glob("*.json")):
        contract = load_contract(path)
        config = _config(bounds=PathBounds(call_depth=3))
        started = time.monotonic()
        report = analyze(contract, config)
        times.append(time.monotonic() - started)
        enumerated += report.statistics["paths_enumerated"]
        executed += report.statistics["paths_symbolically_executed"]
    assert len(times) == 31
    median = statistics.median(times)
    assert median <= 10.0, f"median analysis time {median:.2f}s exceeds 10s"
    assert enumerated > 0
    ratio = executed / enumerated
    assert ratio < 0.10, f"symbolically executed {executed}/{enumerated} paths"
    _passed(f"7 performance-envelope (median {median * 1000:.0f} ms, "
            f"symexec ratio {ratio:.4f})")


# -- criterion 8: reproducibility -----------------------------------------------------------

def test_criterion_8_batch_reproducibility(tmp_path):
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        rc = cli_main(["batch", str(FIXTURES), "--registry-fixture",
                       str(REGISTRY_TXT), "--out", str(out)])
        assert rc == 2
        outs.append(out)
    files_a = sorted(p.name for p in outs[0].glob("*.json"))
    files_b = sorted(p.name for p in outs[1].glob("*.json"))
    assert files_a == files_b and files_a
    for name in files_a:
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between runs"
    _passed(f"8 reproducibility ({len(files_a)} byte-identical reports)")
