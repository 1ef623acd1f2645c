"""Small-surface coverage: error types, token spelling, formatting helpers."""

import pytest

from repro.lang.errors import (
    BambooError,
    LexError,
    ParseError,
    SemanticError,
    SourceLocation,
)
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind


class TestErrors:
    def test_location_str(self):
        loc = SourceLocation(3, 7, "x.bam")
        assert str(loc) == "x.bam:3:7"

    def test_error_message_includes_location(self):
        err = SemanticError("bad thing", SourceLocation(2, 1, "f.bam"))
        assert "f.bam:2:1" in str(err)
        assert err.message == "bad thing"

    def test_error_hierarchy(self):
        assert issubclass(LexError, BambooError)
        assert issubclass(ParseError, BambooError)
        assert issubclass(SemanticError, BambooError)


class TestTokenSpelling:
    def test_identifier_spelling(self):
        token = tokenize("hello")[0]
        assert token.spelling == "hello"

    def test_literal_spelling(self):
        assert tokenize("42")[0].spelling == "42"
        assert tokenize('"hi"')[0].spelling == "hi"

    def test_operator_spelling(self):
        assert tokenize(":=")[0].spelling == ":="

    def test_tokens_frozen(self):
        token = tokenize("x")[0]
        with pytest.raises(Exception):
            token.kind = TokenKind.EOF


class TestIRFormatting:
    def test_function_format(self, keyword_compiled):
        text = keyword_compiled.ir_program.tasks["processText"].format()
        assert "task processText" in text
        assert "B0:" in text
        assert "taskexit" in text

    def test_instruction_reprs(self):
        from repro.ir import instructions as ir

        samples = [
            ir.Move(ir.Reg(0), ir.Const(1)),
            ir.BinOp(ir.Reg(1), "+", ir.Reg(0), ir.Const(2)),
            ir.Load(ir.Reg(2), ir.Reg(0), "f", 0),
            ir.Store(ir.Reg(0), "f", 0, ir.Const(3)),
            ir.ALoad(ir.Reg(3), ir.Reg(0), ir.Const(0)),
            ir.AStore(ir.Reg(0), ir.Const(0), ir.Const(1)),
            ir.ArrLen(ir.Reg(4), ir.Reg(0)),
            ir.NewObj(ir.Reg(5), "A", 3),
            ir.NewArr(ir.Reg(6), "int", [ir.Const(4)]),
            ir.Call(ir.Reg(7), "A.m", [ir.Reg(0)]),
            ir.CallBuiltin(None, "System.printInt", [ir.Const(1)]),
            ir.NewTag(ir.Reg(8), "grp"),
            ir.BindTag(ir.Reg(5), ir.Reg(8)),
            ir.Jump(2),
            ir.Branch(ir.Reg(1), 1, 2),
            ir.Ret(ir.Reg(7)),
            ir.Ret(None),
            ir.Exit(1),
            ir.Trap("boom"),
        ]
        for instr in samples:
            text = repr(instr)
            assert text and isinstance(text, str)


class TestGraphFormatting:
    def test_group_graph_format(self, keyword_compiled, keyword_profile):
        from repro.core import annotated_cstg
        from repro.schedule.coregroup import build_group_graph

        cstg = annotated_cstg(keyword_compiled, keyword_profile)
        graph = build_group_graph(keyword_compiled.info, cstg, keyword_profile)
        text = graph.format()
        assert "GroupGraph:" in text
        assert "pinned" not in text.split("\n")[0]

    def test_astg_format_marks_initial(self, keyword_compiled):
        text = keyword_compiled.astgs["Text"].format()
        assert "*" in text  # allocatable state marker
        assert "processText" in text


class TestVizEdgeCases:
    def test_trace_dot_without_path(self, keyword_compiled, keyword_profile):
        from repro.core import single_core_layout
        from repro.schedule.simulator import simulate
        from repro.viz import trace_to_dot

        result = simulate(
            keyword_compiled,
            single_core_layout(keyword_compiled),
            keyword_profile,
        )
        dot = trace_to_dot(result)  # no critical path supplied
        assert dot.startswith("digraph")
        assert "color=red" not in dot

    def test_render_trace_truncates(self, keyword_compiled, keyword_profile):
        from repro.core import single_core_layout
        from repro.schedule.simulator import simulate
        from repro.viz import render_trace

        result = simulate(
            keyword_compiled,
            single_core_layout(keyword_compiled),
            keyword_profile,
        )
        text = render_trace(result, max_events=2)
        assert "more" in text


class TestCFGShapes:
    def test_diamond_topological_order(self):
        from repro.core import compile_program
        from repro.ir import cfg

        compiled = compile_program(
            "class A { int m(int x) { int r = 0; "
            "if (x > 0) { r = 1; } else { r = 2; } return r; } }"
            " task startup(StartupObject s in initialstate) "
            "{ taskexit(s: initialstate := false); }"
        )
        func = compiled.ir_program.methods["A.m"]
        order = cfg.topological_order(func)
        position = {b: i for i, b in enumerate(order)}
        for block in func.blocks:
            if block.block_id not in position:
                continue
            for succ in block.successors():
                # In an acyclic function, successors come later.
                assert position[succ] > position[block.block_id]


class TestPackaging:
    def test_pyproject_takes_version_from_the_package(self):
        import pathlib
        import tomllib

        import repro

        pyproject = pathlib.Path(__file__).parent.parent / "pyproject.toml"
        config = tomllib.loads(pyproject.read_text())
        assert "version" not in config["project"]
        assert "version" in config["project"]["dynamic"]
        assert config["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "repro.__version__"
        }
        assert repro.__version__
