"""IR cleanup pass tests: semantics preservation is checked by executing
before/after in the interpreter."""

import pytest

from repro import PATA, AnalysisConfig, ir
from repro.interp import run_entry
from repro.ir import fold_constants, optimize_function, remove_unreachable_blocks, thread_jumps
from repro.lang import compile_program, compile_source
from repro.typestate import BugKind


def func_of(source, name="f"):
    return compile_source(source).functions[name]


def test_fold_constant_binop():
    func = func_of("int f(void) { int a = 2 + 3; return a * 4; }")
    fold_constants(func)
    insts = list(func.instructions())
    assert not any(isinstance(i, ir.BinOp) for i in insts)
    term = func.entry.terminator
    # `a` is propagated, the multiply folded, return reads the const chain.
    values = [i.src.value for i in insts if isinstance(i, ir.Move) and isinstance(i.src, ir.Const)]
    assert 20 in values or (isinstance(term, ir.Ret))


def test_fold_constant_branch_to_jump():
    func = func_of("int f(void) { if (1) return 7; return 8; }")
    fold_constants(func)
    assert isinstance(func.entry.terminator, (ir.Jump, ir.Ret))


def test_fold_keeps_constant_division_by_zero():
    func = func_of("int f(void) { return 5 / 0; }")
    fold_constants(func)
    assert any(isinstance(i, ir.BinOp) and i.op == "div" for i in func.instructions())


def test_propagation_stops_at_redefinition():
    func = func_of("int f(int c) { int a = 1; if (c) a = 2; return a + 1; }")
    fold_constants(func)
    # `a + 1` must NOT fold: `a` is redefined on a branch.
    adds = [i for i in func.instructions() if isinstance(i, ir.BinOp) and i.op == "add"]
    assert adds and isinstance(adds[0].lhs, ir.Var)


def test_globals_not_propagated():
    func = func_of("int g; int f(void) { g = 1; return g + 1; }")
    fold_constants(func)
    adds = [i for i in func.instructions() if isinstance(i, ir.BinOp)]
    assert adds and isinstance(adds[0].lhs, ir.Var)


def test_remove_unreachable_blocks():
    func = func_of("int f(int a) { return a; a = a + 1; return a; }")
    before = len(func.blocks)
    removed = remove_unreachable_blocks(func)
    assert removed >= 1
    assert len(func.blocks) == before - removed
    ir.assert_valid(func)


def test_thread_jump_chains():
    # goto-heavy code produces empty forwarding blocks.
    func = func_of(
        "int f(int a) { if (a) goto one; goto two; one: goto two; two: return a; }"
    )
    optimize_function(func)
    ir.assert_valid(func)
    # After threading + cleanup, no empty jump-only forwarding chains with
    # a jump target that is itself a trivial forwarder remain.
    for block in func.blocks:
        term = block.terminator
        if not block.instructions and isinstance(term, ir.Jump):
            target = term.target
            assert target.instructions or not isinstance(target.terminator, ir.Jump)


def test_optimize_function_reaches_fixpoint():
    func = func_of("int f(void) { if (2 > 1) return 1; return 0; }")
    totals = optimize_function(func)
    assert totals["folded"] >= 1
    assert totals["removed_blocks"] >= 1
    ir.assert_valid(func)


@pytest.mark.parametrize("args", [(0, 0), (1, 5), (3, -2), (7, 7)])
def test_semantics_preserved_under_optimization(args):
    source = """
int f(int a, int b) {
    int acc = 10 * 2;
    if (a > 1 && b != 0)
        acc = acc + a / b;
    for (int i = 0; i < 3; i++)
        acc = acc + i;
    if (0)
        acc = -999;
    return acc + b;
}
"""
    plain = compile_program([("p.c", source)])
    optimized = compile_program([("p.c", source)])
    from repro.ir import optimize_program

    optimize_program(optimized)
    r1, f1, _ = run_entry(plain, "f", list(args))
    r2, f2, _ = run_entry(optimized, "f", list(args))
    assert (r1, type(f1)) == (r2, type(f2))


def test_bug_detection_unchanged_by_optimization():
    source = """
struct s { int v; };
int f(struct s *p) {
    if (!p)
        return p->v;
    return 0;
}
"""
    plain = PATA().analyze_sources([("t.c", source)])
    optimized = PATA(config=AnalysisConfig(optimize_ir=True)).analyze_sources([("t.c", source)])
    assert len(plain.by_kind(BugKind.NPD)) == len(optimized.by_kind(BugKind.NPD)) == 1


def test_optimization_reduces_paths_on_constant_branches():
    source = """
int f(int a) {
    if (1) a = a + 1;
    if (2 > 3) a = a - 1;
    if (1) a = a + 2;
    return a;
}
"""
    # prune=False: P1.5 skips this checker-irrelevant entry outright,
    # leaving zero paths on both sides of the comparison.
    plain = PATA(config=AnalysisConfig(prune=False)).analyze_sources([("t.c", source)])
    optimized = PATA(config=AnalysisConfig(optimize_ir=True, prune=False)).analyze_sources([("t.c", source)])
    assert optimized.stats.explored_paths < plain.stats.explored_paths


def test_corpus_analysis_agrees_with_and_without_optimization():
    from repro.corpus import TENCENTOS, generate
    corpus = generate(TENCENTOS.scaled(0.5))
    plain = PATA.with_all_checkers().analyze(compile_program(corpus.compiled_sources()))
    optimized = PATA.with_all_checkers(config=AnalysisConfig(optimize_ir=True)).analyze(
        compile_program(corpus.compiled_sources())
    )
    plain_bugs = sorted((r.kind.short, r.sink_file, r.sink_line) for r in plain.reports)
    optimized_bugs = sorted((r.kind.short, r.sink_file, r.sink_line) for r in optimized.reports)
    assert plain_bugs == optimized_bugs


def test_optimization_is_idempotent_on_the_linux_tree():
    """A resident session links modules an earlier request optimized in
    place and optimizes the whole program again, so a second pass must
    change nothing: the same canonical IR and, renumbered, the same uids."""
    from repro.corpus import PROFILES_BY_NAME, generate
    from repro.incremental import renumber_program
    from repro.ir import optimize_program
    from repro.ir.printer import canonical_program_print, format_module

    program = compile_program(generate(PROFILES_BY_NAME["linux"]).compiled_sources())

    def optimized_print():
        optimize_program(program)
        renumber_program(program)
        return (canonical_program_print(program),
                [format_module(module) for module in program.modules],
                [inst.uid for func in program.functions() for inst in func.instructions()])

    assert optimized_print() == optimized_print()
