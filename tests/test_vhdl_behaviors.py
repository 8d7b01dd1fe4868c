"""Deeper VHDL behavioural coverage: std_match, aggregates, edge memory."""

import pytest

from repro.designs.model import TOP_NAME
from repro.designs.tbgen import PASS_MESSAGE
from repro.eda.toolchain import HdlFile, Language, Toolchain
from repro.evalsuite.suite import build_suite
from tests import simpaths

PRELUDE = (
    "library ieee;\n"
    "use ieee.std_logic_1164.all;\n"
    "use ieee.numeric_std.all;\n"
)


def simulate(source: str):
    toolchain = Toolchain()
    result = toolchain.simulate(
        [HdlFile("t.vhd", PRELUDE + source, Language.VHDL)], "tb"
    )
    assert result.ok, result.log
    return result


def outputs(source: str) -> list[str]:
    return list(simulate(source).output_lines)


def compile_errors(source: str) -> str:
    toolchain = Toolchain()
    result = toolchain.compile(
        [HdlFile("t.vhd", PRELUDE + source, Language.VHDL)], "tb"
    )
    assert not result.ok
    return result.log


class TestExpressions:
    def test_std_match_wildcards(self):
        lines = outputs(
            """
            entity tb is end entity;
            architecture sim of tb is
                signal d : std_logic_vector(3 downto 0) := "1010";
            begin
                stim: process begin
                    if std_match(d, "1-1-") then
                        report "wide match";
                    end if;
                    if std_match(d, "10--") then
                        report "prefix match";
                    end if;
                    if std_match(d, "11--") then
                        report "must not appear";
                    end if;
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["wide match", "prefix match"]

    def test_concat_builds_wider_vector(self):
        lines = outputs(
            """
            entity tb is end entity;
            architecture sim of tb is
                signal a : std_logic_vector(3 downto 0) := "1100";
                signal y : std_logic_vector(7 downto 0);
            begin
                y <= a & "0011";
                stim: process begin
                    wait for 1 ns;
                    assert y = "11000011" report "concat" severity error;
                    report "done";
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["done"]

    def test_aggregate_others_in_comparisons_context(self):
        lines = outputs(
            """
            entity tb is end entity;
            architecture sim of tb is
                signal v : std_logic_vector(5 downto 0) := (others => '1');
            begin
                stim: process begin
                    assert v = "111111" report "aggregate init" severity error;
                    report "done";
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["done"]

    def test_integer_signal_arithmetic(self):
        lines = outputs(
            """
            entity tb is end entity;
            architecture sim of tb is
                signal n : integer := 5;
            begin
                stim: process begin
                    n <= n * 3 + 1;
                    wait for 1 ns;
                    assert n = 16 report "integer math" severity error;
                    report "done";
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["done"]

    def test_boolean_signals_and_not(self):
        lines = outputs(
            """
            entity tb is end entity;
            architecture sim of tb is
                signal flag : boolean := false;
            begin
                stim: process begin
                    flag <= not flag;
                    wait for 1 ns;
                    if flag then
                        report "toggled";
                    end if;
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["toggled"]

    def test_mod_and_rem(self):
        lines = outputs(
            """
            entity tb is end entity;
            architecture sim of tb is
                signal a : unsigned(7 downto 0) := to_unsigned(23, 8);
            begin
                stim: process begin
                    assert (a mod 5) = 3 report "mod" severity error;
                    assert (a rem 4) = 3 report "rem" severity error;
                    report "done";
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["done"]


class TestProcessSemantics:
    def test_falling_edge(self):
        lines = outputs(
            """
            entity tb is end entity;
            architecture sim of tb is
                signal clk : std_logic := '0';
                signal falls : integer := 0;
            begin
                watcher: process(clk) begin
                    if falling_edge(clk) then
                        falls <= falls + 1;
                    end if;
                end process;
                stim: process begin
                    clk <= '1'; wait for 5 ns;
                    clk <= '0'; wait for 5 ns;
                    clk <= '1'; wait for 5 ns;
                    clk <= '0'; wait for 5 ns;
                    assert falls = 2 report "fall count" severity error;
                    report "done";
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["done"]

    def test_event_attribute(self):
        lines = outputs(
            """
            entity tb is end entity;
            architecture sim of tb is
                signal clk : std_logic := '0';
                signal rises : integer := 0;
            begin
                watcher: process(clk) begin
                    if clk'event and clk = '1' then
                        rises <= rises + 1;
                    end if;
                end process;
                stim: process begin
                    clk <= '1'; wait for 5 ns;
                    clk <= '0'; wait for 5 ns;
                    clk <= '1'; wait for 5 ns;
                    assert rises = 2 report "rise count" severity error;
                    report "done";
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["done"]

    def test_while_loop_with_variable(self):
        lines = outputs(
            """
            entity tb is end entity;
            architecture sim of tb is
                signal y : integer := 0;
            begin
                stim: process
                    variable n : integer := 0;
                    variable total : integer := 0;
                begin
                    while n < 5 loop
                        n := n + 1;
                        total := total + n;
                    end loop;
                    y <= total;
                    wait for 1 ns;
                    assert y = 15 report "while sum" severity error;
                    report "done";
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["done"]

    def test_downto_for_loop_order(self):
        lines = outputs(
            """
            entity tb is end entity;
            architecture sim of tb is
            begin
                stim: process begin
                    for i in 3 downto 1 loop
                        report "step";
                    end loop;
                    report "done";
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["step", "step", "step", "done"]

    def test_sequential_after_schedules_future_write(self):
        lines = outputs(
            """
            entity tb is end entity;
            architecture sim of tb is
                signal pulse : std_logic := '0';
            begin
                stim: process begin
                    pulse <= '1' after 20 ns;
                    wait for 10 ns;
                    assert pulse = '0' report "too early" severity error;
                    wait for 15 ns;
                    assert pulse = '1' report "never arrived" severity error;
                    report "done";
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["done"]

    def test_wait_on_signals(self):
        lines = outputs(
            """
            entity tb is end entity;
            architecture sim of tb is
                signal a : std_logic := '0';
            begin
                setter: process begin
                    wait for 12 ns;
                    a <= '1';
                    wait;
                end process;
                stim: process begin
                    wait on a;
                    report "woke";
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["woke"]


class TestQualifiedExpressions:
    SOURCE = """
        entity tb is end entity;
        architecture sim of tb is
            signal a : std_logic_vector(3 downto 0) := "0000";
            signal y : std_logic_vector(3 downto 0);
            signal b : std_logic;
        begin
            y <= std_logic_vector(unsigned'("0011") + unsigned(a));
            b <= std_logic'('1') when a = "0101" else std_logic'('0');
            stim: process begin
                wait for 1 ns;
                report "y=" & y & " b=" & b;
                a <= "0101";
                wait for 1 ns;
                report "y=" & y & " b=" & b;
                a <= "1110";
                wait for 1 ns;
                report "y=" & y & " b=" & b;
                wait;
            end process;
        end architecture;
        """

    def test_compiles(self):
        toolchain = Toolchain()
        result = toolchain.compile(
            [HdlFile("t.vhd", PRELUDE + self.SOURCE, Language.VHDL)], "tb"
        )
        assert result.ok and result.error_count == 0, result.log

    def test_simulates_like_the_conversion(self):
        assert outputs(self.SOURCE) == [
            "y=0011 b=0", "y=1000 b=1", "y=0001 b=0",
        ]
        converted = (self.SOURCE.replace("unsigned'(", "unsigned(")
                     .replace("std_logic'('1')", "'1'")
                     .replace("std_logic'('0')", "'0'"))
        assert outputs(converted) == outputs(self.SOURCE)

    def test_batch_tier_gives_the_kernels_answer(self):
        problem = build_suite().get("addsub8")
        reference = problem.reference[Language.VHDL]
        qualified = reference.replace(
            "mode = '1'", "mode = std_logic'('1')"
        ).replace(
            "unsigned(a) + unsigned(b)", "unsigned(a) + unsigned'(unsigned(b))"
        )
        assert qualified.count("'(") == 2
        files = [
            HdlFile(f"{TOP_NAME}.vhd", qualified, Language.VHDL),
            HdlFile("tb.vhd", problem.golden_tb[Language.VHDL], Language.VHDL),
        ]
        result, batch_calls = simpaths.simulate(files)
        assert batch_calls == 1
        assert PASS_MESSAGE in result.output_lines
        assert simpaths.observables(result) == simpaths.observables(
            simpaths.simulate_kernel(files)
        )


class TestDiagnostics:
    def test_undeclared_in_process_is_compile_error(self):
        log = compile_errors(
            """
            entity tb is end entity;
            architecture sim of tb is
            begin
                stim: process begin
                    ghost <= '1';
                    wait;
                end process;
            end architecture;
            """
        )
        assert "'ghost'" in log

    def test_wait_until_constant_is_runtime_error(self):
        # the condition's read set is only known when the wait executes, so
        # this surfaces as a simulation error, not a compile error
        toolchain = Toolchain()
        result = toolchain.simulate(
            [
                HdlFile(
                    "t.vhd",
                    PRELUDE
                    + """
                    entity tb is end entity;
                    architecture sim of tb is
                    begin
                        stim: process begin
                            wait until true;
                        end process;
                    end architecture;
                    """,
                    Language.VHDL,
                )
            ],
            "tb",
        )
        assert not result.ok
        assert "never become true" in result.runtime_error

    def test_entity_without_architecture_rejected(self):
        toolchain = Toolchain()
        result = toolchain.compile(
            [
                HdlFile(
                    "t.vhd",
                    PRELUDE + "entity tb is end entity;",
                    Language.VHDL,
                )
            ],
            "tb",
        )
        assert not result.ok
        assert "no architecture" in result.log
