"""Constraint backend for path-condition feasibility.

The interface is small: check(conjuncts, timeout_ms) -> sat(model) | unsat |
unknown.  The bundled backend decides satisfiability by candidate search and
bounded enumeration; it reports unsat only from rules that are sound over the
full 256-bit domain (a conjunct folding to a constant zero, conflicting
equalities on the same term, a term asserted both true and false, or an
empty unsigned interval for a variable).
When its truncated search space is exhausted without a witness the answer is
unknown, never unsat, so infeasibility reports never depend on the
truncation.  Satisfying models are verified by concrete evaluation before
being returned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .symexec import Word, concretize, const, eval_word, free_vars, mk, node, WORD_MAX

_CMP_OPS = ("EQ", "LT", "GT", "SLT", "SGT")

# Search sizes: the candidate cross product is cut to MAX_COMBINATIONS, and
# the exhaustive fallback for one or two variables tries values below
# 2**min(EXHAUSTIVE_BITS, 12) or 2**min(EXHAUSTIVE_BITS, 6) each.
MAX_COMBINATIONS = 30_000
EXHAUSTIVE_BITS = 16


@dataclass
class CheckResult:
    status: str  # "sat" | "unsat" | "unknown"
    model: dict[str, int] | None = None
    reason: str = ""


def _normalize(conjunct: Word) -> tuple[str, Word, Word | None, bool]:
    """A conjunct as (op, lhs, rhs, positive): a comparison, or "TRUTHY" of
    a term with no rhs; `positive` is False under an odd number of ISZEROs."""
    positive = True
    w = conjunct
    while w.op == "ISZERO":
        positive = not positive
        w = w.args[0]
    if w.op in _CMP_OPS:
        return w.op, w.args[0], w.args[1], positive
    return "TRUTHY", w, None, positive


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
    """A sound unsat rule fired; the message is the reason."""


@dataclass
class _Interval:
    lo: int
    hi: int
    excluded: set[int]

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

    def check(self, conjuncts: list[Word], timeout_ms: int) -> CheckResult:
        deadline = time.monotonic() + timeout_ms / 1000.0
        try:
            return self._check(conjuncts, deadline)
        except TimeoutError:  # hashing a long preimage ran past the timeout
            return CheckResult("unknown", reason="solver timeout")

    def _check(self, conjuncts: list[Word], deadline: float) -> CheckResult:
        try:
            conjuncts, pinned = self._propagate(conjuncts, deadline)
            live = [c for c in conjuncts if not (c.is_concrete and c.value)]
            used = [free_vars(c) for c in live]
            if any(not u and eval_word(c, {}, deadline) == 0 for c, u in zip(live, used)):
                raise _Unsat("condition folds to false")
            names = sorted(set().union(*used))
            intervals = self._intervals(live, names)
        except _Unsat as exc:
            return CheckResult("unsat", reason=str(exc))
        if not live:
            return CheckResult("sat", model=dict(pinned),
                               reason="satisfied by equality propagation")

        model = self._search(live, names, used, intervals, deadline)
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
        equalities force; the latter belong in any satisfying model.  A
        bound variable is substituted out of every conjunct, so no later
        round binds it again.
        """
        pinned: dict[str, int] = {}
        for _round in range(8):
            atoms = [_normalize(c) for c in conjuncts]
            forced: dict[Word, int] = {}
            for op, lhs, rhs, positive in atoms:
                if op == "TRUTHY" and not positive:
                    term, value = lhs, 0  # ISZERO(t) asserted: t == 0
                elif op == "EQ" and positive and lhs.is_concrete != rhs.is_concrete:
                    term, value = (rhs, lhs.value) if lhs.is_concrete else (lhs, rhs.value)
                else:
                    continue
                if forced.setdefault(term, value) != value:
                    raise _Unsat(f"{term} equals both {forced[term]} and {value}")
            # conflict: a term both asserted and refuted
            seen: dict[Word, bool] = {}
            for op, lhs, _rhs, positive in atoms:
                if op == "TRUTHY" and seen.setdefault(lhs, positive) != positive:
                    raise _Unsat(f"{lhs} asserted both true and false")
            bindings = {t.name: v for t, v in forced.items() if t.op == "var" and t.name}
            if not bindings:
                return conjuncts, pinned
            pinned.update(bindings)
            new_conjuncts = [_substitute(c, bindings, deadline) for c in conjuncts]
            if any(c.is_concrete and not c.value for c in new_conjuncts):
                raise _Unsat("contradiction after equality propagation")
            if new_conjuncts == conjuncts:
                return conjuncts, pinned
            conjuncts = new_conjuncts
        return conjuncts, pinned

    def _intervals(self, conjuncts: list[Word], names: list[str]) -> dict[str, _Interval]:
        """Unsigned bounds per variable from each conjunct comparing it with
        a closed term; signed comparisons are not tracked (kept sound)."""
        intervals = {n: _Interval(0, WORD_MAX, set()) for n in names}
        for c in conjuncts:
            op, lhs, rhs, positive = _normalize(c)
            if op == "TRUTHY":
                if lhs.op == "var" and lhs.name in intervals:
                    iv = intervals[lhs.name]
                    if positive:
                        iv.lo = max(iv.lo, 1)
                    else:
                        iv.hi = min(iv.hi, 0)
                continue
            if lhs.op == "var" and lhs.name in intervals:
                a, v, below = lhs, concretize(rhs), op == "LT"
            elif rhs.op == "var" and rhs.name in intervals:
                a, v, below = rhs, concretize(lhs), op == "GT"
            else:
                continue
            if v is None or op in ("SLT", "SGT"):
                continue
            iv = intervals[a.name]
            if op == "EQ":
                if positive:
                    iv.lo, iv.hi = max(iv.lo, v), min(iv.hi, v)
                else:
                    iv.excluded.add(v)
            elif below == positive:  # a < v, or not a > v: an upper bound
                if positive and v == 0:
                    raise _Unsat(f"{a.name} < 0 is unsatisfiable (unsigned)")
                iv.hi = min(iv.hi, v - 1 if positive else v)
            else:  # a > v, or not a < v: a lower bound
                if positive and v == WORD_MAX:
                    raise _Unsat(f"{a.name} > 2**256-1 is unsatisfiable")
                iv.lo = max(iv.lo, v + 1 if positive else v)
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

    def _search(self, conjuncts: list[Word], names: list[str], used: list[set[str]],
                intervals: dict[str, _Interval],
                deadline: float) -> dict[str, int] | None:
        candidates = self._candidates(conjuncts, names, intervals)
        # cap the cross product: widen the first few variables, pin the rest
        pools: list[list[int]] = []
        combos = 1
        for name in names:
            pool = candidates[name]
            if combos * len(pool) > MAX_COMBINATIONS:
                pool = pool[:max(1, MAX_COMBINATIONS // max(combos, 1))]
            pools.append(pool)
            combos *= max(len(pool), 1)
        stages: list[list] = [pools]
        # truncated exhaustive fallback for very small variable counts
        if 1 <= len(names) <= 2:
            per_var = 1 << min(EXHAUSTIVE_BITS, 12 if len(names) == 1 else 6)
            stages.append([range(per_var)] * len(names))
        # a conjunct is due once the last of its free variables is bound
        level = {name: i for i, name in enumerate(names)}
        due: list[list[Word]] = [[] for _ in names]
        for c, names_used in zip(conjuncts, used):
            if names_used:  # a closed conjunct holds: `_check` has evaluated it
                due[max(map(level.__getitem__, names_used))].append(c)
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


def default_solver() -> BoundedSolver:
    return BoundedSolver()
