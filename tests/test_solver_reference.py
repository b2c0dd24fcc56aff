"""The bounded solver against two references.

`solver_reference.BoundedSolver` is the solver before each conjunct was
normalized once, kept verbatim.  `_ProductSolver` is that reference with
the former `_search` in behaviour: it walks `itertools.product` over the
candidate pools and evaluates every conjunct for every combination, then
does the same over the truncated exhaustive domain for one or two
variables.  The depth-first search checks each conjunct once its last
variable is bound.  `check()` must return the identical CheckResult: the
same status, the same model with the same key order, and the same reason.
"""

import itertools
import time
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

import evmscope.solver as solver_module
from evmscope.analyzers import detect_payable_entries
from evmscope.cfg import build_cfg
from evmscope.disasm import disassemble
from evmscope.pathgen import PathBounds, enumerate_paths, filter_money
from evmscope.solver import BoundedSolver, CheckResult
from evmscope.symexec import (
    SymExecError,
    WORD_MAX,
    Word,
    const,
    eval_word,
    mk,
    node,
    run_constructor,
    trace_path,
    var,
)

import solver_reference
from conftest import FIXTURES, MICRO, get_contract

_NO_TIMEOUT_MS = 600_000


class _ProductSolver(solver_reference.BoundedSolver):
    def _check_model(self, conjuncts, model):
        return all(eval_word(c, model) != 0 for c in conjuncts)

    def _search(self, conjuncts, names, intervals, deadline):
        candidates = self._candidates(conjuncts, names, intervals)
        pools = []
        combos = 1
        for name in names:
            pool = candidates[name]
            if combos * len(pool) > self.max_combinations:
                pool = pool[:max(1, self.max_combinations // max(combos, 1))]
            pools.append(pool)
            combos *= max(len(pool), 1)
        tick = 0
        for combo in itertools.product(*pools):
            tick += 1
            if (tick & 0x3F) == 0 and time.monotonic() > deadline:
                return None
            model = dict(zip(names, combo))
            if self._check_model(conjuncts, model):
                return model
        if 1 <= len(names) <= 2:
            per_var = 1 << min(self.exhaustive_bits, 12 if len(names) == 1 else 6)
            for combo in itertools.product(range(per_var), repeat=len(names)):
                tick += 1
                if (tick & 0xFF) == 0 and time.monotonic() > deadline:
                    return None
                model = dict(zip(names, combo))
                if self._check_model(conjuncts, model):
                    return model
        return None


def _key(result: CheckResult) -> tuple:
    model = None if result.model is None else list(result.model.items())
    return result.status, model, result.reason


@lru_cache(maxsize=None)
def _money_conditions(call_bound: int, directory: Path) -> list[tuple[Word, ...]]:
    """The path condition of every traceable money path, in corpus order."""
    conditions = []
    for path in sorted(directory.glob("*.json")):
        contract = get_contract(path.stem)
        instructions = disassemble(contract.runtime_code)
        cfg = build_cfg(instructions)
        payable, _details = detect_payable_entries(cfg, instructions)
        base = {}
        if contract.creation_code:
            creation_cfg = build_cfg(disassemble(contract.creation_code))
            base, _diagnostics = run_constructor(creation_cfg, contract.creation_code)
        paths = enumerate_paths(cfg, PathBounds(call_depth=call_bound))
        for money_path in filter_money(iter(paths), cfg, payable):
            try:
                state = trace_path(cfg, contract.runtime_code, money_path, base)
            except SymExecError:
                continue  # execute_path reports these without asking the solver
            conditions.append(tuple(state.path_condition))
    return conditions


def test_money_paths_get_the_reference_result():
    solver, reference, product = BoundedSolver(), solver_reference.BoundedSolver(), _ProductSolver()
    for call_bound in (1, 2):
        conditions = _money_conditions(call_bound, FIXTURES) + _money_conditions(call_bound, MICRO)
        assert len(conditions) > 50
        for conjuncts in conditions:
            got = solver.check(list(conjuncts), _NO_TIMEOUT_MS)
            want = reference.check(list(conjuncts), _NO_TIMEOUT_MS)
            assert _key(got) == _key(want), [str(c) for c in conjuncts]
            assert _key(product.check(list(conjuncts), _NO_TIMEOUT_MS)) == _key(want)


def test_corpus_search_work_is_bounded(monkeypatch):
    """A deterministic guard against a return of the cross product, whose
    product loop made 1.92M conjunct evaluations on these paths."""
    calls = [0]
    evaluate = solver_module.eval_word

    def counted(w, env, deadline=None):
        calls[0] += 1
        return evaluate(w, env, deadline)

    conditions = _money_conditions(2, FIXTURES)
    assert len(conditions) == 297
    monkeypatch.setattr(solver_module, "eval_word", counted)
    solver = BoundedSolver()
    statuses = [solver.check(list(c), _NO_TIMEOUT_MS).status for c in conditions]
    assert "unknown" not in statuses
    assert calls[0] <= 10_000


# -- random conjunct systems -------------------------------------------------

_NAMES = ("a", "b", "c", "d")
_SMALL = st.one_of(st.integers(0, 20), st.sampled_from([0xFF, 0x100, 1 << 224, WORD_MAX]))


def _terms(names):
    leaves = _SMALL.map(const)
    if names:
        leaves = st.one_of(st.sampled_from(names).map(var), leaves)

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["ADD", "SUB", "AND"]), children, _SMALL)
            .map(lambda t: mk(t[0], t[1], const(t[2]))),
            st.tuples(st.sampled_from(["ADD", "SUB", "AND"]), children, children)
            .map(lambda t: mk(*t)),
            st.tuples(children, children, children).map(lambda t: node("ite", t)),
            st.lists(children, min_size=1, max_size=2)
            .map(lambda args: node("sha3", tuple(args), 32 * len(args))),
        )

    return st.recursive(leaves, extend, max_leaves=5)


def _conjuncts(names):
    terms = _terms(names)
    atoms = st.one_of(
        st.tuples(st.sampled_from(["EQ", "LT", "GT"]), terms, terms).map(lambda t: mk(*t)),
        terms,
    )
    return st.tuples(atoms, st.integers(0, 2)).map(
        lambda t: mk("ISZERO", t[0]) if t[1] == 1 else t[0])


# conjuncts with no free variable that stay terms (neither folds to a constant)
_CLOSED = st.sampled_from([
    node("sha3", (const(1),), 32),
    mk("ISZERO", node("sha3", (const(1),), 32)),
    node("ite", (const(0), const(0), const(5))),
    mk("ISZERO", node("ite", (const(1), const(0), const(5)))),
])


@st.composite
def _systems(draw):
    names = list(_NAMES[:draw(st.integers(0, len(_NAMES)))])
    conjuncts = draw(st.lists(_conjuncts(names), max_size=5))
    conjuncts += draw(st.lists(_CLOSED, max_size=2))
    return draw(st.permutations(conjuncts))


@contextmanager
def _small_search():
    """The solver with the search sizes the references are given."""
    with mock.patch.multiple(solver_module, MAX_COMBINATIONS=120, EXHAUSTIVE_BITS=3):
        yield BoundedSolver()


@settings(max_examples=150, deadline=None)
@given(_systems())
def test_random_systems_get_the_reference_result(conjuncts):
    # small domains keep the reference's full product affordable
    reference = _ProductSolver(max_combinations=120, exhaustive_bits=3)
    with _small_search() as solver:
        got = solver.check(conjuncts, _NO_TIMEOUT_MS)
    assert _key(got) == _key(reference.check(conjuncts, _NO_TIMEOUT_MS))


_a, _b = var("a"), var("b")
_SHARED = (_a, _b, mk("ADD", _a, const(1)), node("sload", (_b,)), mk("GT", _a, _b))


@st.composite
def _conflicting_systems(draw):
    """Equalities, comparisons and truth assertions over a few shared
    terms, with repeats, so that one propagation round can meet both an
    equality conflict and a term asserted both true and false."""
    term, value = st.sampled_from(_SHARED), st.integers(0, 2).map(const)
    atom = st.one_of(
        st.tuples(term, value).map(lambda t: mk("EQ", *t)),
        st.tuples(value, term).map(lambda t: mk("EQ", *t)),
        st.tuples(st.sampled_from(["LT", "GT"]), term, value).map(lambda t: mk(*t)),
        term,
        term.map(lambda t: mk("ISZERO", t)),
    )
    conjuncts = draw(st.lists(atom, min_size=1, max_size=6))
    conjuncts += draw(st.lists(st.sampled_from(conjuncts), max_size=3))
    return draw(st.permutations(conjuncts))


@settings(max_examples=200, deadline=None)
@given(_conflicting_systems())
# one round with both conflict kinds: the equality conflict is reported
@example([_a, mk("ISZERO", _a), mk("EQ", _a, const(1)), _a])
# a repeated binding beside a term asserted both true and false
@example([_SHARED[3], mk("EQ", _b, const(2)), mk("ISZERO", _SHARED[3]), mk("EQ", _b, const(2))])
def test_conflicting_systems_get_the_reference_result(conjuncts):
    reference = solver_reference.BoundedSolver(max_combinations=120, exhaustive_bits=3)
    with _small_search() as solver:
        got = solver.check(conjuncts, _NO_TIMEOUT_MS)
    assert _key(got) == _key(reference.check(conjuncts, _NO_TIMEOUT_MS))


def test_exhaustive_fallback_finds_the_reference_model():
    # x + x == 14 defeats chain inversion, so only the fallback finds x = 7
    x, y = var("x"), var("y")
    for conjuncts in ([mk("EQ", mk("ADD", x, x), const(14))],
                      [mk("EQ", mk("ADD", x, y), const(9)), mk("GT", mk("SUB", x, y), const(2))]):
        got = BoundedSolver().check(conjuncts, _NO_TIMEOUT_MS)
        assert got.status == "sat" and got.reason == ""
        assert _key(got) == _key(_ProductSolver().check(conjuncts, _NO_TIMEOUT_MS))


# -- deadline ----------------------------------------------------------------

_NEEDLE = 0xDEADBEEF_00000000_00000001


def test_deadline_inside_the_search_is_unknown(monkeypatch):
    x, y, z = var("x"), var("y"), var("z")
    square = const(_NEEDLE * _NEEDLE)
    # v != 1000k puts 1000k - 1 and 1000k + 1 into v's candidate pool
    widen = [mk("ISZERO", mk("EQ", v, const(1000 * k))) for v in (x, y, z) for k in range(1, 5)]
    systems = {
        "exhaustive fallback": [mk("EQ", mk("MUL", x, x), square)],
        "pooled search": [mk("EQ", mk("MUL", x, mk("ADD", y, z)), square)] + widen,
    }
    for label, conjuncts in systems.items():
        for reads_in_time in (1, 2, 5):
            reads = [0]

            def clock():
                reads[0] += 1
                return 0.0 if reads[0] <= reads_in_time else 10.0

            monkeypatch.setattr(time, "monotonic", clock)
            result = BoundedSolver().check(conjuncts, 100)
            monkeypatch.undo()
            assert _key(result) == ("unknown", None, "solver timeout"), label
            assert reads[0] == reads_in_time + 2, label  # expired mid-search
