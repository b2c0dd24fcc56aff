from evmscope.solver import BoundedSolver
from evmscope.symexec import const, eval_word, mk, var


def _check(conjuncts, timeout_ms=200):
    return BoundedSolver().check(conjuncts, timeout_ms)


def test_empty_condition_is_sat():
    result = _check([])
    assert result.status == "sat" and result.model == {}


def test_constant_true_conjuncts_drop_out():
    result = _check([const(1), const(7)])
    assert result.status == "sat"


def test_constant_false_is_unsat():
    assert _check([const(0)]).status == "unsat"


def test_single_variable_truthiness():
    result = _check([var("x")])
    assert result.status == "sat"
    assert eval_word(var("x"), result.model) != 0


def test_equality_gives_exact_model():
    result = _check([mk("EQ", var("x"), const(0xABCD))])
    assert result.status == "sat"
    assert result.model["x"] == 0xABCD


def test_conflicting_equalities_unsat():
    x = var("x")
    result = _check([mk("EQ", x, const(3)), mk("EQ", x, const(4))])
    assert result.status == "unsat"


def test_equality_propagation_reaches_contradiction():
    x = var("x")
    conjuncts = [mk("EQ", x, const(0)), mk("GT", x, const(0))]
    assert _check(conjuncts).status == "unsat"


def test_same_term_asserted_and_refuted_unsat():
    t = mk("GT", var("x"), const(5))
    assert _check([t, mk("ISZERO", t)]).status == "unsat"


def test_empty_interval_unsat():
    x = var("x")
    conjuncts = [mk("GT", x, const(100)), mk("LT", x, const(50))]
    assert _check(conjuncts).status == "unsat"


def test_unsigned_lt_zero_unsat():
    assert _check([mk("LT", var("x"), const(0))]).status == "unsat"


def test_gt_max_word_unsat():
    assert _check([mk("GT", var("x"), const((1 << 256) - 1))]).status == "unsat"


def test_comparison_candidates_found():
    result = _check([mk("GT", var("v"), const(300))])
    assert result.status == "sat"
    assert result.model["v"] == 301


def test_inverted_chain_through_div_and_mask():
    # the selector idiom: (x / 2**224) & 0xffffffff == sel
    x = var("calldata")
    expr = mk("AND", const(0xFFFFFFFF), mk("DIV", x, const(1 << 224)))
    result = _check([mk("EQ", expr, const(0x3CCFD60B))])
    assert result.status == "sat"
    assert eval_word(expr, result.model) == 0x3CCFD60B


def test_chain_through_addition():
    x = var("x")
    result = _check([mk("EQ", mk("ADD", x, const(0x30)), const(0x40))])
    assert result.status == "sat"
    assert result.model["x"] == 0x10


def test_truncated_exhaustion_is_unknown_not_unsat():
    # satisfiable only far outside the bounded search: stays unknown
    x = var("x")
    needle = 0xDEADBEEF_00000000_00000001
    cond = mk("EQ", mk("MUL", x, x), const((needle * needle) % (1 << 256)))
    result = _check([cond], timeout_ms=50)
    assert result.status == "unknown"


def test_sat_models_are_verified_by_evaluation():
    x, y = var("x"), var("y")
    conjuncts = [mk("GT", x, const(10)), mk("LT", y, const(5)),
                 mk("EQ", mk("ADD", x, y), const(15))]
    result = _check(conjuncts)
    if result.status == "sat":
        for c in conjuncts:
            assert eval_word(c, result.model) != 0
    else:
        assert result.status == "unknown"  # never a spurious unsat
