"""Unit tests for the Figure 1 grid runner (tiny scale so it is fast)."""

import pytest

from repro.figure1 import Figure1Cell, format_table, main, run_cell, run_figure1


def test_run_cell_ok():
    cell = run_cell("Mouse", "QuOnto", "quonto-graph", budget_s=30.0, scale=0.05)
    assert cell.outcome == "ok"
    assert cell.millis is not None and cell.millis >= 0
    assert cell.subsumptions is not None and cell.subsumptions > 0
    assert cell.rendered not in ("timeout", "out of memory")


def test_run_cell_timeout():
    cell = run_cell("Galen", "Pellet", "tableau-pairwise", budget_s=0.0, scale=0.3)
    assert cell.outcome == "timeout"
    assert cell.rendered == "timeout"


def test_run_cell_out_of_memory():
    # a 5%-scale FMA 2.0 with an artificially tiny dense cap
    from repro.baselines.tableau import DenseMatrixTableauReasoner
    from repro.corpus import load_profile

    tbox = load_profile("FMA 2.0", scale=0.2)
    with pytest.raises(MemoryError):
        DenseMatrixTableauReasoner(memory_limit_cells=10).measure(tbox)


def test_run_figure1_mini_grid():
    cells = run_figure1(
        budget_s=30.0,
        scale=0.05,
        ontologies=["Mouse", "Transportation"],
        columns=[("QuOnto", "quonto-graph"), ("CB", "cb-consequence")],
    )
    assert len(cells) == 4
    assert all(cell.outcome == "ok" for cell in cells)
    # CB misses the property hierarchy, so it can never report more
    by_key = {(c.ontology, c.column): c for c in cells}
    for ontology in ("Mouse", "Transportation"):
        assert (
            by_key[(ontology, "CB")].subsumptions
            <= by_key[(ontology, "QuOnto")].subsumptions
        )


def test_format_table_layout():
    cells = [
        Figure1Cell("Mouse", "QuOnto", "quonto-graph", millis=156.0),
        Figure1Cell("Mouse", "Pellet", "tableau-pairwise", outcome="timeout"),
        Figure1Cell("Galen", "QuOnto", "quonto-graph", millis=4600.0),
        Figure1Cell("Galen", "Pellet", "tableau-pairwise", outcome="out of memory"),
    ]
    table = format_table(cells)
    lines = table.splitlines()
    assert lines[0].split() == ["Ontology", "QuOnto", "Pellet"]
    assert "0.156" in table and "4.600" in table
    assert "timeout" in table and "out of memory" in table
    assert "Figure 1" in table


def test_cli_main_smoke(capsys):
    exit_code = main(["--scale", "0.04", "--budget", "20", "--ontology", "Mouse"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "Mouse" in output
    assert "QuOnto" in output
