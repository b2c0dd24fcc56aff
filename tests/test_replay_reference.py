"""Witness replay against the reference interpreter's witness mode.

`_WitnessReplay` is a replay built on the reference interpreter of
`interp_reference.py` in witness mode, every block run by
`reference_run_body`, steered from the jump operands evaluated under the
witness, with the same block budget and errors as `_steer`.  For every
traceable money path of the fixtures at call bounds 1 and 2,
`replay_blocks`, the symbolic machine in witness mode (`WitnessState`)
steered by `_steer`, must give the same block tuple, or raise the same
SymExecError type with the same message, under the path's solver witness
and under seeded random perturbations of it, which send most replays down
other paths.
"""

import random
import zlib

from evmscope import isa
from evmscope.analyzers import detect_payable_entries
from evmscope.cfg import Terminator, build_cfg
from evmscope.disasm import disassemble
from evmscope.pathgen import PathBounds, enumerate_paths, filter_money
from evmscope.solver import BoundedSolver
from evmscope.symexec import (
    STEER_BLOCK_LIMIT,
    SymbolicState,
    SymExecError,
    eval_word,
    free_vars,
    replay_blocks,
    run_constructor,
    trace_path,
)

from conftest import FIXTURES, MICRO, get_contract
from interp_reference import ReferenceInterpreter, reference_run_body

ALL_FIXTURES = sorted(FIXTURES.glob("*.json")) + sorted(MICRO.glob("*.json"))
PERTURBATIONS = 4


class _WitnessReplay:
    """The witness-mode replay of a path's calls under `witness`."""

    def __init__(self, cfg, code, witness, base_storage):
        self.cfg = cfg
        self.witness = witness
        self.state = SymbolicState(dict(base_storage), b"", None, "")
        self.interp = ReferenceInterpreter(code, self.state, witness=witness)

    def _begin(self):
        self.interp.begin_transaction()
        self.mark = len(self.state.storage_writes)

    def blocks(self, call_count):
        cfg, witness = self.cfg, self.witness
        self._begin()
        taken = [cfg.root]
        while len(taken) <= STEER_BLOCK_LIMIT:
            block = cfg.blocks[taken[-1]]
            operands = reference_run_body(self.interp, block, self.mark)
            if block.terminator is Terminator.TERMINAL:
                if self.state.txn >= call_count:
                    return tuple(taken)
                self._begin()
                block_id = cfg.root
            elif operands and (len(operands) == 1 or eval_word(operands[1], witness)):
                block_id = eval_word(operands[0], witness)
            else:
                block_id = block.last.next_offset
            if block_id not in cfg.blocks:
                raise SymExecError(f"jumped to unknown offset {block_id}")
            taken.append(block_id)
        raise SymExecError("exceeded block budget")


def _outcome(replay):
    try:
        return replay()
    except SymExecError as exc:
        return type(exc), str(exc)


def _perturbed(rng, witness, names):
    """`witness` with some of `names` set to a nearby, extreme or random value."""
    changed = dict(witness)
    for name in names:
        if rng.random() < 0.5:
            old = changed.get(name, 0)
            changed[name] = rng.choice([0, 1, 2, old + 1, (old - 1) % isa.WORD_MOD,
                                        isa.WORD_MAX, rng.getrandbits(8),
                                        rng.getrandbits(256)])
    return changed


def _witnessed_paths(path):
    """(cfg, code, base storage, money path, solver witness, its path
    condition's free variables and the witness's names) of each traceable money path at bounds 1 and 2
    whose path condition the solver satisfies."""
    contract = get_contract(path.stem)
    code = contract.runtime_code
    instructions = disassemble(code)
    cfg = build_cfg(instructions)
    payable, _details = detect_payable_entries(cfg, instructions)
    base = {}
    if contract.creation_code:
        base, _diags = run_constructor(build_cfg(disassemble(contract.creation_code)),
                                       contract.creation_code)
    solver = BoundedSolver()
    for bound in (1, 2):
        for money_path in filter_money(enumerate_paths(cfg, PathBounds(call_depth=bound)),
                                       cfg, payable):
            try:
                state = trace_path(cfg, code, money_path, base)
            except SymExecError:
                continue
            result = solver.check(state.path_condition, 2000)
            if result.status == "sat":
                names = sorted(set(result.model or {}).union(
                    *(free_vars(c) for c in state.path_condition)))
                yield cfg, code, base, money_path, dict(result.model or {}), names


def test_replay_matches_the_witness_mode_replay():
    rng = random.Random(1)
    kinds = {"solver witness replays its path": 0, "perturbed witness takes another path": 0}
    for fixture in ALL_FIXTURES:
        for cfg, code, base, path, witness, names in _witnessed_paths(fixture):
            calls = path.call_count
            perturbed = [_perturbed(rng, witness, names) for _ in range(PERTURBATIONS)]
            for i, w in enumerate([witness] + perturbed):
                new = _outcome(lambda: replay_blocks(cfg, code, w, base, calls))
                old = _outcome(lambda: _WitnessReplay(cfg, code, w, base).blocks(calls))
                assert new == old, (fixture.stem, path.blocks, i, w)
                if i == 0:
                    kinds["solver witness replays its path"] += new == path.blocks
                else:
                    kinds["perturbed witness takes another path"] += new != path.blocks
    assert all(kinds.values()), kinds
