"""The bounded solver as it was before its propagation and interval passes
were folded to one normal form per conjunct, kept verbatim as a reference.

`BoundedSolver` here normalizes each conjunct twice per propagation round,
keeps a second conflict map by variable name and a pinned-value check, and
takes its search sizes as arguments.  `evmscope.solver` must return the
identical CheckResult on every input: the same status, the same model with
the same key order, and the same reason.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from evmscope.solver import CheckResult
from evmscope.symexec import Word, concretize, const, eval_word, free_vars, mk, node, WORD_MAX

_CMP_OPS = ("EQ", "LT", "GT", "SLT", "SGT")


@dataclass
class _Atom:
    """A normalized asserted fact: comparison or truthiness of a term."""
    op: str            # one of _CMP_OPS or "TRUTHY"
    lhs: Word
    rhs: Word | None
    positive: bool     # False when the fact is negated (under ISZERO)


def _normalize(conjunct: Word) -> _Atom:
    positive = True
    w = conjunct
    while w.op == "ISZERO":
        positive = not positive
        w = w.args[0]
    if w.op in _CMP_OPS:
        return _Atom(w.op, w.args[0], w.args[1], positive)
    return _Atom("TRUTHY", w, None, positive)


def _substitute(w: Word, env: dict[str, int], deadline: float) -> Word:
    if w.op == "var":
        if w.name in env:
            return const(env[w.name])
        return w
    if w.op == "const":
        return w
    new_args = tuple(_substitute(a, env, deadline) for a in w.args)
    if new_args == w.args:
        return w
    if w.op in ("sha3", "sload", "ite"):
        if w.op == "ite" and new_args[0].is_concrete:
            return new_args[1] if new_args[0].value else new_args[2]
        term = node(w.op, new_args, w.meta)
        if all(a.is_concrete for a in new_args):
            return const(eval_word(term, {}, deadline))
        return term
    return mk(w.op, *new_args)


class _Unsat(Exception):
    def __init__(self, reason: str):
        self.reason = reason


@dataclass
class _Interval:
    lo: int = 0
    hi: int = WORD_MAX
    excluded: set[int] = field(default_factory=set)

    def constrain_lo(self, lo: int) -> None:
        self.lo = max(self.lo, lo)

    def constrain_hi(self, hi: int) -> None:
        self.hi = min(self.hi, hi)

    def exclude(self, v: int) -> None:
        self.excluded.add(v)

    def check(self, name: str) -> None:
        if self.lo > self.hi:
            raise _Unsat(f"{name}: empty range [{self.lo}, {self.hi}]")
        if self.lo == self.hi and self.lo in self.excluded:
            raise _Unsat(f"{name}: forced value {self.lo} is excluded")

    def sample_points(self) -> list[int]:
        pts = {self.lo, self.hi, self.lo + 1, max(self.hi - 1, 0)}
        return [p for p in sorted(pts) if self.lo <= p <= self.hi and p not in self.excluded]


class BoundedSolver:
    """Candidate-search SAT with sound-only unsat rules."""

    def __init__(self, max_combinations: int = 30_000,
                 exhaustive_bits: int = 16):
        self.max_combinations = max_combinations
        self.exhaustive_bits = exhaustive_bits

    def check(self, conjuncts: list[Word], timeout_ms: int = 100) -> CheckResult:
        deadline = time.monotonic() + timeout_ms / 1000.0
        try:
            return self._check(conjuncts, deadline)
        except TimeoutError:  # hashing a long preimage ran past the timeout
            return CheckResult("unknown", reason="solver timeout")

    def _check(self, conjuncts: list[Word], deadline: float) -> CheckResult:
        try:
            conjuncts, pinned = self._propagate(list(conjuncts), deadline)
        except _Unsat as u:
            return CheckResult("unsat", reason=u.reason)

        live = [c for c in conjuncts if not (c.is_concrete and c.value)]
        if any(not free_vars(c) and eval_word(c, {}, deadline) == 0 for c in live):
            return CheckResult("unsat", reason="condition folds to false")
        if not live:
            return CheckResult("sat", model=dict(pinned),
                               reason="satisfied by equality propagation")

        names = sorted(set().union(*(free_vars(c) for c in live)))
        try:
            intervals = self._intervals(live, names)
        except _Unsat as u:
            return CheckResult("unsat", reason=u.reason)

        model = self._search(live, names, intervals, deadline)
        if model is not None:
            model.update(pinned)
            return CheckResult("sat", model=model)
        if time.monotonic() > deadline:
            return CheckResult("unknown", reason="solver timeout")
        return CheckResult("unknown", reason="bounded search exhausted (truncated domain)")

    # -- sound unsat rules --------------------------------------------------

    def _propagate(self, conjuncts: list[Word],
                   deadline: float) -> tuple[list[Word], dict[str, int]]:
        """Equality propagation plus same-term conflict detection.

        Returns the rewritten conjuncts and the variable values the
        equalities force; the latter belong in any satisfying model.
        """
        pinned: dict[str, int] = {}
        for _round in range(8):
            bindings: dict[str, int] = {}
            forced: dict[Word, int] = {}

            def force(term: Word, value: int) -> None:
                if term in forced and forced[term] != value:
                    raise _Unsat(f"{term} equals both {forced[term]} and {value}")
                forced[term] = value
                if term.op == "var" and term.name:
                    if term.name in bindings and bindings[term.name] != value:
                        raise _Unsat(
                            f"{term.name} equals both {bindings[term.name]} and {value}")
                    bindings[term.name] = value

            for c in conjuncts:
                atom = _normalize(c)
                if atom.op == "TRUTHY" and not atom.positive:
                    force(atom.lhs, 0)  # ISZERO(t) asserted: t == 0
                if atom.op != "EQ" or not atom.positive:
                    continue
                sides = [atom.lhs, atom.rhs]
                for i in (0, 1):
                    a, b = sides[i], sides[1 - i]
                    if b is None or not b.is_concrete or a is None or a.is_concrete:
                        continue
                    force(a, b.value or 0)
            # conflict: a term both asserted and refuted
            seen: dict[Word, bool] = {}
            for c in conjuncts:
                atom = _normalize(c)
                key = atom.lhs if atom.op == "TRUTHY" else c
                if atom.op == "TRUTHY":
                    if key in seen and seen[key] != atom.positive:
                        raise _Unsat(f"{key} asserted both true and false")
                    seen[key] = atom.positive
            if not bindings:
                return conjuncts, pinned
            for name, value in bindings.items():
                if name in pinned and pinned[name] != value:
                    raise _Unsat(f"{name} pinned to both {pinned[name]} and {value}")
            pinned.update(bindings)
            new_conjuncts = [_substitute(c, bindings, deadline) for c in conjuncts]
            for c in new_conjuncts:
                if c.is_concrete and not c.value:
                    raise _Unsat("contradiction after equality propagation")
            if new_conjuncts == conjuncts:
                return conjuncts, pinned
            conjuncts = new_conjuncts
        return conjuncts, pinned

    def _intervals(self, conjuncts: list[Word], names: list[str]) -> dict[str, _Interval]:
        intervals = {n: _Interval() for n in names}
        for c in conjuncts:
            atom = _normalize(c)
            if atom.op == "TRUTHY":
                if atom.lhs.op == "var" and atom.lhs.name in intervals:
                    iv = intervals[atom.lhs.name]
                    if atom.positive:
                        iv.exclude(0)
                        iv.constrain_lo(max(iv.lo, 1))
                    else:
                        iv.constrain_hi(0)
                continue
            lhs, rhs = atom.lhs, atom.rhs
            if rhs is None:
                continue
            for a, b, flipped in ((lhs, rhs, False), (rhs, lhs, True)):
                if a.op != "var" or a.name not in intervals:
                    continue
                bound = concretize(b)
                if bound is None:
                    continue
                iv = intervals[a.name]
                v = bound
                op = atom.op
                if flipped:
                    op = {"LT": "GT", "GT": "LT", "SLT": "SGT", "SGT": "SLT"}.get(op, op)
                if op == "EQ":
                    if atom.positive:
                        iv.constrain_lo(v)
                        iv.constrain_hi(v)
                    else:
                        iv.exclude(v)
                elif op == "LT":
                    if atom.positive:
                        if v == 0:
                            raise _Unsat(f"{a.name} < 0 is unsatisfiable (unsigned)")
                        iv.constrain_hi(v - 1)
                    else:
                        iv.constrain_lo(v)
                elif op == "GT":
                    if atom.positive:
                        if v == WORD_MAX:
                            raise _Unsat(f"{a.name} > 2**256-1 is unsatisfiable")
                        iv.constrain_lo(v + 1)
                    else:
                        iv.constrain_hi(v)
                # signed comparisons are not interval-tracked (kept sound)
        for name, iv in intervals.items():
            iv.check(name)
        return intervals

    # -- satisfiability search ----------------------------------------------

    def _candidates(self, conjuncts: list[Word], names: list[str],
                    intervals: dict[str, _Interval]) -> dict[str, list[int]]:
        cands: dict[str, set[int]] = {n: {0, 1} for n in names}
        for c in conjuncts:
            self._comparison_candidates(c, cands)
        out: dict[str, list[int]] = {}
        for name in names:
            iv = intervals[name]
            pool = {v for v in cands[name] if iv.lo <= v <= iv.hi and v not in iv.excluded}
            pool.update(iv.sample_points())
            out[name] = sorted(pool)[:16] or [iv.lo]
        return out

    def _comparison_candidates(self, node: Word, cands: dict[str, set[int]]) -> bool:
        """Add to `cands` the values, and their neighbours, that make a
        comparison anywhere in `node` hold with equality; returns whether
        `node` is closed, so that no comparison walks its sides again."""
        if node.op == "var":
            return False
        closed = [self._comparison_candidates(a, cands) for a in node.args]
        if node.op in _CMP_OPS:
            a, b = node.args
            for x, y, y_closed in ((a, b, closed[1]), (b, a, closed[0])):
                if not y_closed:
                    continue
                target = eval_word(y, {})
                inverted = self._invert_chain(x, target)
                if inverted is None:
                    continue
                var_name, base = inverted
                if var_name not in cands:
                    continue
                for delta in (-1, 0, 1):
                    cands[var_name].add((base + delta) % (WORD_MAX + 1))
        return all(closed)

    def _invert_chain(self, w: Word, target: int) -> tuple[str, int] | None:
        """Solve f(v) == target for a single-variable chain of simple ops."""
        value = target
        for _ in range(16):
            if w.op == "var" and w.name:
                return w.name, value % (WORD_MAX + 1)
            if w.op == "sload":
                w = w.args[0]
                continue
            if len(w.args) != 2:
                return None
            a, b = w.args
            sym, con = (a, b) if not a.is_concrete else (b, a)
            if not con.is_concrete or sym.is_concrete:
                return None
            c = con.value or 0
            if w.op == "ADD":
                value = (value - c) % (WORD_MAX + 1)
            elif w.op == "SUB":
                # SUB(sym, c) = value  or  SUB(c, sym) = value
                value = (value + c) % (WORD_MAX + 1) if sym is a else (c - value) % (WORD_MAX + 1)
            elif w.op == "DIV" and sym is a and c:
                value = value * c
                if value > WORD_MAX:
                    return None
            elif w.op == "MUL" and c:
                if value % c:
                    return None
                value //= c
            elif w.op == "AND":
                if value & ~(c) & WORD_MAX:
                    return None  # target has bits outside the mask
            elif w.op == "SHR" and con is a:
                value = value << c
                if value > WORD_MAX:
                    return None
            elif w.op == "SHL" and con is a:
                if value & ((1 << c) - 1):
                    return None
                value >>= c
            else:
                return None
            w = sym
        return None

    def _search(self, conjuncts: list[Word], names: list[str],
                intervals: dict[str, _Interval],
                deadline: float) -> dict[str, int] | None:
        candidates = self._candidates(conjuncts, names, intervals)
        # cap the cross product: widen the first few variables, pin the rest
        pools: list[list[int]] = []
        combos = 1
        for name in names:
            pool = candidates[name]
            if combos * len(pool) > self.max_combinations:
                pool = pool[:max(1, self.max_combinations // max(combos, 1))]
            pools.append(pool)
            combos *= max(len(pool), 1)
        stages: list[list] = [pools]
        # truncated exhaustive fallback for very small variable counts
        if 1 <= len(names) <= 2:
            per_var = 1 << min(self.exhaustive_bits, 12 if len(names) == 1 else 6)
            stages.append([range(per_var)] * len(names))
        # a conjunct is due once the last of its free variables is bound
        level = {name: i for i, name in enumerate(names)}
        due: list[list[Word]] = [[] for _ in names]
        for c in conjuncts:
            used = free_vars(c)
            if used:  # a closed conjunct holds: `_check` has evaluated it
                due[max(map(level.__getitem__, used))].append(c)
        if not names:
            return {}
        # Depth-first over each stage's pools in itertools.product order,
        # backtracking on the first failing due conjunct: only combinations
        # some conjunct rejects are skipped, so the first model is the
        # product's first, its keys in `names` order.  The clock is read
        # once per 64 values tried or term nodes evaluated, whichever is first.
        cost = [1 + sum(c.size for c in cs) for cs in due]
        spent = 0
        for stage in stages:
            model: dict[str, int] = {}
            values = [iter(stage[0])]
            while values:
                k = len(values) - 1
                for value in values[k]:
                    spent += cost[k]
                    if spent >= 64:
                        spent = 0
                        if time.monotonic() > deadline:
                            return None
                    model[names[k]] = value
                    if all(eval_word(c, model, deadline) != 0 for c in due[k]):
                        break
                else:
                    values.pop()
                    continue
                if k + 1 == len(names):
                    return model
                values.append(iter(stage[k + 1]))
        return None

