"""Tests for the SQL rendering (paper Listings 4/6/8) and Tables 1/2."""


from repro.experiments.tables import render_table, table1_rows, table2_rows
from repro.mapping.optimizations import TranslationOptions
from repro.mapping.optimizer import build_plan
from repro.mapping.sql import render_sql
from repro.sea.parser import parse_pattern


def sql_of(text, options=None):
    pattern = parse_pattern(text)
    return render_sql(build_plan(pattern, options or TranslationOptions()))


class TestSqlRendering:
    def test_and_query_matches_listing4(self):
        sql = sql_of("PATTERN AND(T1 e1, T2 e2) WITHIN 15 MINUTES")
        assert "SELECT *" in sql
        assert "Stream T1 e1" in sql and "Stream T2 e2" in sql
        assert "Window [Range 15 MIN" in sql

    def test_seq_query_matches_listing8(self):
        sql = sql_of("PATTERN SEQ(T1 e1, T2 e2, T3 e3) WITHIN 15 MINUTES")
        assert "e1.ts < e2.ts" in sql
        assert "e2.ts < e3.ts" in sql

    def test_predicates_rendered(self):
        sql = sql_of(
            "PATTERN SEQ(T1 e1, T2 e2) WHERE e1.value > 10 WITHIN 15 MINUTES"
        )
        assert "e1.value > 10" in sql

    def test_nseq_renders_not_exists_subquery(self):
        sql = sql_of("PATTERN SEQ(T1 e1, !T2 e2, T3 e3) WITHIN 15 MINUTES")
        assert "NOT EXISTS" in sql
        assert "e1.ts < e2.ts" in sql

    def test_equi_keys_rendered(self):
        sql = sql_of(
            "PATTERN SEQ(T1 e1, T2 e2) WHERE e1.id = e2.id WITHIN 15 MINUTES"
        )
        assert "e1.id = e2.id" in sql

    def test_o1_noted(self):
        sql = sql_of("PATTERN SEQ(T1 e1, T2 e2) WITHIN 15 MINUTES", TranslationOptions.o1())
        assert "O1" in sql

    def test_o2_renders_group_by_having(self):
        sql = sql_of("PATTERN ITER3(V v) WITHIN 15 MINUTES", TranslationOptions.o2())
        assert "count(*)" in sql
        assert "HAVING n >= 3" in sql

    def test_union_rendered_for_or(self):
        sql = sql_of("PATTERN OR(T1 e1, T2 e2) WITHIN 15 MINUTES")
        assert "UNION ALL" in sql

    def test_ms_window_granularity(self):
        sql = sql_of("PATTERN SEQ(T1 e1, T2 e2) WITHIN 90 SECONDS SLIDE 10 SECONDS")
        assert "MS" in sql


class TestTable1:
    def test_rows_cover_all_operators(self):
        rows = table1_rows()
        operators = {r["operator"] for r in rows}
        assert {"Conjunction (AND)", "Sequence (SEQ)", "Disjunction (OR)",
                "Iteration (ITER^m)", "Negated Sequence (NSEQ)"} <= operators

    def test_mappings_match_paper(self):
        rows = {(r["operator"], r["optimization"]): r["mapping"] for r in table1_rows()}
        assert rows[("Conjunction (AND)", "-")] == "T × T"
        assert rows[("Conjunction (AND)", "O3")] == "T ⋈c T"
        assert rows[("Sequence (SEQ)", "-")] == "T ⋈θ T"
        assert rows[("Disjunction (OR)", "-")] == "T1 ∪ T2"
        assert rows[("Iteration (ITER^m)", "-")] == "T ⋈θ T ⋈θ T"
        assert rows[("Iteration (ITER^m)", "O2")] == "γ_count(*)(T)"
        assert rows[("Negated Sequence (NSEQ)", "-")] == "UDF(T1 ∪ T2) ⋈θ T3"


class TestTable2:
    def test_matrix_matches_paper(self):
        rows = {(r["engine"], r["policy"]): r for r in table2_rows()}
        fasp = rows[("FASP", "stam")]
        assert all(fasp[op] for op in ("AND", "SEQ", "OR", "ITER", "NSEQ"))
        for policy in ("stam", "stnm", "sc"):
            fcep = rows[("FCEP", policy)]
            assert not fcep["AND"]
            assert not fcep["OR"]
            assert fcep["SEQ"] and fcep["ITER"] and fcep["NSEQ"]

    def test_render_table(self):
        text = render_table(table2_rows(), "Table 2")
        assert "Table 2" in text
        assert "✓" in text and "✗" in text

    def test_render_empty(self):
        assert "(empty)" in render_table([], "T")
