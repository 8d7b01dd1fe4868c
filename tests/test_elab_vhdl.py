"""Behavioural tests: VHDL constructs through elaboration + simulation."""

import pytest

from repro.eda.toolchain import HdlFile, Language, Toolchain

PRELUDE = (
    "library ieee;\n"
    "use ieee.std_logic_1164.all;\n"
    "use ieee.numeric_std.all;\n"
)


def simulate(source: str, top: str = "tb"):
    toolchain = Toolchain()
    result = toolchain.simulate(
        [HdlFile("t.vhd", source, Language.VHDL)], top
    )
    assert result.compile_result.ok, result.log
    assert result.ok, result.log
    return result


def outputs(source: str) -> list[str]:
    return list(simulate(source).output_lines)


class TestConcurrent:
    def test_simple_assignment_tracks_inputs(self):
        lines = outputs(
            PRELUDE
            + """
            entity tb is end entity;
            architecture sim of tb is
                signal a, b, y : std_logic := '0';
            begin
                y <= a and b;
                stim: process begin
                    a <= '1'; b <= '1';
                    wait for 1 ns;
                    assert y = '1' report "and failed" severity error;
                    report "done";
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["done"]

    def test_conditional_assignment_priority(self):
        lines = outputs(
            PRELUDE
            + """
            entity tb is end entity;
            architecture sim of tb is
                signal hi, lo : std_logic := '0';
                signal y : std_logic_vector(1 downto 0);
            begin
                y <= "10" when hi = '1' else
                     "01" when lo = '1' else
                     "00";
                stim: process begin
                    lo <= '1';
                    wait for 1 ns;
                    assert y = "01" report "lo failed" severity error;
                    hi <= '1';
                    wait for 1 ns;
                    assert y = "10" report "priority failed" severity error;
                    report "done";
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["done"]

    def test_selected_assignment(self):
        lines = outputs(
            PRELUDE
            + """
            entity tb is end entity;
            architecture sim of tb is
                signal s : std_logic_vector(1 downto 0) := "00";
                signal y : std_logic_vector(3 downto 0);
            begin
                with s select
                    y <= "0001" when "00",
                         "0010" when "01",
                         "1000" when others;
                stim: process begin
                    wait for 1 ns;
                    assert y = "0001" report "case 00" severity error;
                    s <= "01";
                    wait for 1 ns;
                    assert y = "0010" report "case 01" severity error;
                    s <= "11";
                    wait for 1 ns;
                    assert y = "1000" report "others" severity error;
                    report "done";
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["done"]

    def test_after_delay_clock_generator(self):
        lines = outputs(
            PRELUDE
            + """
            entity tb is end entity;
            architecture sim of tb is
                signal clk : std_logic := '0';
                signal edges : integer := 0;
            begin
                clk <= not clk after 5 ns;
                counter: process(clk) begin
                    if rising_edge(clk) then
                        edges <= edges + 1;
                    end if;
                end process;
                stim: process begin
                    wait for 23 ns;
                    assert edges = 2 report "edge count wrong" severity error;
                    report "done" severity failure;
                    wait;
                end process;
            end architecture;
            """
        )
        assert "done" in lines[-1]


class TestProcesses:
    def test_signal_assignment_is_delta_delayed(self):
        # classic swap: both reads see pre-update values
        lines = outputs(
            PRELUDE
            + """
            entity tb is end entity;
            architecture sim of tb is
                signal clk : std_logic := '0';
                signal a : unsigned(3 downto 0) := "0001";
                signal b : unsigned(3 downto 0) := "0010";
            begin
                swap: process(clk) begin
                    if rising_edge(clk) then
                        a <= b;
                        b <= a;
                    end if;
                end process;
                stim: process begin
                    wait for 5 ns; clk <= '1'; wait for 5 ns; clk <= '0';
                    assert a = 2 report "a wrong" severity error;
                    assert b = 1 report "b wrong" severity error;
                    report "done";
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["done"]

    def test_variables_update_immediately(self):
        lines = outputs(
            PRELUDE
            + """
            entity tb is end entity;
            architecture sim of tb is
                signal y : unsigned(7 downto 0);
            begin
                stim: process
                    variable v : unsigned(7 downto 0) := (others => '0');
                begin
                    v := v + 1;
                    v := v + v;
                    y <= v;
                    wait for 1 ns;
                    assert y = 2 report "variable semantics" severity error;
                    report "done";
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["done"]

    def test_for_loop_and_indexing(self):
        lines = outputs(
            PRELUDE
            + """
            entity tb is end entity;
            architecture sim of tb is
                signal d : std_logic_vector(7 downto 0) := "10110001";
                signal n : unsigned(3 downto 0);
            begin
                popcount: process(d)
                    variable cnt : unsigned(3 downto 0);
                begin
                    cnt := (others => '0');
                    for i in 0 to 7 loop
                        if d(i) = '1' then
                            cnt := cnt + 1;
                        end if;
                    end loop;
                    n <= cnt;
                end process;
                stim: process begin
                    wait for 1 ns;
                    assert n = 4 report "popcount" severity error;
                    report "done";
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["done"]

    def test_wait_until(self):
        lines = outputs(
            PRELUDE
            + """
            entity tb is end entity;
            architecture sim of tb is
                signal flag : std_logic := '0';
            begin
                setter: process begin
                    wait for 30 ns;
                    flag <= '1';
                    wait;
                end process;
                stim: process begin
                    wait until flag = '1';
                    report "done";
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["done"]

    def test_case_statement(self):
        lines = outputs(
            PRELUDE
            + """
            entity tb is end entity;
            architecture sim of tb is
                signal s : std_logic_vector(1 downto 0) := "10";
                signal y : integer := 0;
            begin
                decode: process(s) begin
                    case s is
                        when "00" => y <= 0;
                        when "01" => y <= 1;
                        when "10" => y <= 2;
                        when others => y <= 3;
                    end case;
                end process;
                stim: process begin
                    wait for 1 ns;
                    assert y = 2 report "case decode" severity error;
                    report "done";
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["done"]

    def test_severity_failure_stops_simulation(self):
        result = simulate(
            PRELUDE
            + """
            entity tb is end entity;
            architecture sim of tb is
            begin
                stim: process begin
                    report "stopping" severity failure;
                    report "unreachable";
                    wait;
                end process;
            end architecture;
            """
        )
        assert result.output_lines == ("FAILURE: stopping",)


class TestTypesAndRanges:
    def test_downto_and_to_indexing(self):
        lines = outputs(
            PRELUDE
            + """
            entity tb is end entity;
            architecture sim of tb is
                signal down : std_logic_vector(3 downto 0) := "1000";
                signal up : std_logic_vector(0 to 3) := "1000";
            begin
                stim: process begin
                    assert down(3) = '1' report "downto msb" severity error;
                    assert down(0) = '0' report "downto lsb" severity error;
                    assert up(0) = '1' report "to first" severity error;
                    assert up(3) = '0' report "to last" severity error;
                    report "done";
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["done"]

    def test_slicing(self):
        lines = outputs(
            PRELUDE
            + """
            entity tb is end entity;
            architecture sim of tb is
                signal v : std_logic_vector(7 downto 0) := "10100101";
            begin
                stim: process begin
                    assert v(7 downto 4) = "1010" report "hi" severity error;
                    assert v(3 downto 0) = "0101" report "lo" severity error;
                    report "done";
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["done"]

    def test_unsigned_arithmetic_and_conversions(self):
        lines = outputs(
            PRELUDE
            + """
            entity tb is end entity;
            architecture sim of tb is
                signal a : std_logic_vector(3 downto 0) := "1100";
                signal y : std_logic_vector(4 downto 0);
            begin
                y <= std_logic_vector(resize(unsigned(a), 5) + 7);
                stim: process begin
                    wait for 1 ns;
                    assert unsigned(y) = 19 report "arith" severity error;
                    report "done";
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["done"]

    def test_attributes(self):
        lines = outputs(
            PRELUDE
            + """
            entity tb is end entity;
            architecture sim of tb is
                signal v : std_logic_vector(7 downto 2) := (others => '0');
            begin
                stim: process begin
                    assert v'length = 6 report "length" severity error;
                    assert v'high = 7 report "high" severity error;
                    assert v'low = 2 report "low" severity error;
                    report "done";
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["done"]

    def test_shift_functions(self):
        lines = outputs(
            PRELUDE
            + """
            entity tb is end entity;
            architecture sim of tb is
                signal a : unsigned(7 downto 0) := "00010001";
            begin
                stim: process begin
                    assert shift_left(a, 2) = "01000100"
                        report "shl" severity error;
                    assert shift_right(a, 1) = "00001000"
                        report "shr" severity error;
                    assert rotate_left(a, 4) = "00010001"
                        report "rotl" severity error;
                    report "done";
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["done"]


class TestHierarchy:
    def test_entity_instantiation_with_generic(self):
        lines = outputs(
            PRELUDE
            + """
            entity adder is
                generic (STEP : integer := 1);
                port (
                    a : in std_logic_vector(3 downto 0);
                    y : out std_logic_vector(3 downto 0)
                );
            end entity;
            architecture rtl of adder is
            begin
                y <= std_logic_vector(unsigned(a) + STEP);
            end architecture;

            entity tb is end entity;
            architecture sim of tb is
                signal a, y1, y3 : std_logic_vector(3 downto 0);
            begin
                u1: entity work.adder port map (a => a, y => y1);
                u3: entity work.adder generic map (STEP => 3)
                    port map (a => a, y => y3);
                stim: process begin
                    a <= "0101";
                    wait for 1 ns;
                    assert unsigned(y1) = 6 report "default" severity error;
                    assert unsigned(y3) = 8 report "generic" severity error;
                    report "done";
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["done"]

    def test_output_to_indexed_signal(self):
        lines = outputs(
            PRELUDE
            + """
            entity buf1 is
                port (a : in std_logic; y : out std_logic);
            end entity;
            architecture rtl of buf1 is
            begin
                y <= a;
            end architecture;

            entity tb is end entity;
            architecture sim of tb is
                signal a : std_logic_vector(1 downto 0) := "10";
                signal y : std_logic_vector(1 downto 0);
            begin
                b0: entity work.buf1 port map (a => a(0), y => y(0));
                b1: entity work.buf1 port map (a => a(1), y => y(1));
                stim: process begin
                    wait for 1 ns;
                    assert y = "10" report "wiring" severity error;
                    report "done";
                    wait;
                end process;
            end architecture;
            """
        )
        assert lines == ["done"]
