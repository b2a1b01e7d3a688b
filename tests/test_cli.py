"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import load_ontology_file, main

ONTOLOGY_TEXT = """
role isPartOf
County isa exists isPartOf . State
Municipality isa County
County isa not State
"""


@pytest.fixture
def ontology_file(tmp_path):
    path = tmp_path / "geo.dllite"
    path.write_text(ONTOLOGY_TEXT)
    return str(path)


@pytest.fixture
def owl_file(tmp_path):
    from repro.dllite import parse_tbox, serialize_owl_functional

    path = tmp_path / "geo.ofn"
    path.write_text(serialize_owl_functional(parse_tbox(ONTOLOGY_TEXT)))
    return str(path)


def test_load_sniffs_both_formats(ontology_file, owl_file):
    textual = load_ontology_file(ontology_file)
    owl = load_ontology_file(owl_file)
    assert set(textual.axioms) == set(owl.axioms)


def test_classify_command(ontology_file, capsys):
    assert main(["classify", ontology_file, "--list"]) == 0
    output = capsys.readouterr().out
    assert "subsumptions (named, non-trivial): " in output
    assert "Municipality ⊑ County" in output
    assert "unsatisfiable: none" in output


def test_implication_command_exit_codes(ontology_file, capsys):
    assert main(["implication", ontology_file, "Municipality isa County"]) == 0
    assert main(["implication", ontology_file, "County isa Municipality"]) == 1
    output = capsys.readouterr().out
    assert "yes" in output and "no" in output


def test_rewrite_command_both_methods(ontology_file, capsys):
    assert main(["rewrite", ontology_file, "q(x) :- County(x)"]) == 0
    perfectref_output = capsys.readouterr().out
    assert "Municipality(x)" in perfectref_output
    assert (
        main(["rewrite", ontology_file, "q(x) :- County(x)", "--method", "presto"])
        == 0
    )
    presto_output = capsys.readouterr().out
    assert "County*" in presto_output


def test_render_command(ontology_file, tmp_path, capsys):
    out = tmp_path / "geo.svg"
    assert main(["render", ontology_file, "-o", str(out)]) == 0
    assert out.read_text().startswith("<svg")


def test_doc_command(ontology_file, tmp_path):
    out = tmp_path / "geo.md"
    assert main(["doc", ontology_file, "-o", str(out), "--title", "Geo"]) == 0
    text = out.read_text()
    assert text.startswith("# Geo")
    assert "### County" in text


def test_corpus_command(tmp_path, capsys):
    assert main(["corpus", "--list"]) == 0
    assert "Mouse" in capsys.readouterr().out
    out = tmp_path / "mouse.dllite"
    assert main(["corpus", "Mouse", "--scale", "0.05", "-o", str(out)]) == 0
    reloaded = load_ontology_file(str(out))
    assert len(reloaded) > 0
    assert main(["corpus"]) == 2  # neither name nor --list


def test_corpus_owl_format(tmp_path):
    out = tmp_path / "mouse.ofn"
    assert main(
        ["corpus", "Mouse", "--scale", "0.05", "--format", "owl", "-o", str(out)]
    ) == 0
    assert out.read_text().startswith("Prefix(")


def test_figure1_command(capsys):
    assert main(
        ["figure1", "--scale", "0.04", "--budget", "20", "--ontology", "Mouse"]
    ) == 0
    assert "QuOnto" in capsys.readouterr().out


def test_errors_reported_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.dllite"
    bad.write_text("A isa isa B")
    assert main(["classify", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["classify", str(tmp_path / "missing.dllite")]) == 2


def test_diff_command(tmp_path, capsys):
    old = tmp_path / "v1.dllite"
    new = tmp_path / "v2.dllite"
    old.write_text("A isa B\nB isa C")
    new.write_text("A isa B\nconcept C")  # C kept in the vocabulary, axiom dropped
    assert main(["diff", str(old), str(new)]) == 0
    assert "BREAKING" in capsys.readouterr().out
    assert main(["diff", str(old), str(new), "--check"]) == 1
    capsys.readouterr()
    assert main(["diff", str(old), str(old), "--check"]) == 0


@pytest.fixture
def consistent_ontology_file(tmp_path):
    # No disjointness: the synthesized random ABox stays consistent.
    path = tmp_path / "uni.dllite"
    path.write_text(
        "role teaches\n"
        "Professor isa Teacher\n"
        "Teacher isa exists teaches\n"
        "exists teaches^- isa Course\n"
    )
    return str(path)


def test_explain_command_prints_the_span_tree(consistent_ontology_file, capsys):
    code = main(
        ["explain", consistent_ontology_file, "-q", "q(x) :- Teacher(x)"]
    )
    assert code == 0
    output = capsys.readouterr().out
    for stage in ("certain-answers", "classify", "rewrite", "unfold", "sql-eval"):
        assert stage in output
    assert "metrics snapshot:" in output
    assert "ms" in output


def test_explain_command_json_export_validates(
    consistent_ontology_file, tmp_path, capsys
):
    from repro.obs.schema import validate_trace_lines

    out = tmp_path / "trace.jsonl"
    code = main(
        [
            "explain",
            consistent_ontology_file,
            "-q", "q(x) :- Teacher(x)",
            "--json", str(out),
            "--check",
        ]
    )
    assert code == 0
    assert validate_trace_lines(out.read_text()) == []
    # the default method is perfectref-sql: its plan is the join spans
    # under sql-eval
    spans = [
        record
        for record in map(json.loads, out.read_text().splitlines())
        if record["kind"] == "span"
    ]
    (sql_eval,) = [span for span in spans if span["name"] == "sql-eval"]
    joins = [span for span in spans if span["parent"] == sql_eval["id"]]
    assert joins and all(span["name"] == "join" for span in joins)
    assert all(span["attributes"]["atoms"] for span in joins)


def test_explain_command_profile_and_missing_input(capsys):
    assert main(["explain"]) == 2
    assert "provide an ontology" in capsys.readouterr().err
    assert main(["explain", "--profile", "Mouse", "--scale", "0.05"]) == 0
    assert "explain:" in capsys.readouterr().out


def test_explain_command_reports_timeouts_nonzero(
    consistent_ontology_file, capsys
):
    code = main(
        [
            "explain",
            consistent_ontology_file,
            "-q", "q(x) :- Teacher(x)",
            "--budget", "0.0",
        ]
    )
    assert code == 1
    assert "timeout" in capsys.readouterr().out


def test_verbose_flag_configures_logging(consistent_ontology_file, capsys):
    import logging

    code = main(["-v", "explain", consistent_ontology_file, "-q", "q(x) :- Teacher(x)"])
    assert code == 0
    root = logging.getLogger("repro")
    try:
        assert root.level == logging.INFO
        assert any(
            isinstance(h, logging.StreamHandler) for h in root.handlers
        )
    finally:
        import repro.obs.logging as obs_logging

        if obs_logging._handler is not None:
            root.removeHandler(obs_logging._handler)
            obs_logging._handler = None
        root.setLevel(logging.NOTSET)


def test_lint_command(tmp_path, capsys):
    clean = tmp_path / "clean.dllite"
    clean.write_text("A isa B")
    assert main(["lint", str(clean)]) == 0
    assert "no issues" in capsys.readouterr().out
    broken = tmp_path / "broken.dllite"
    broken.write_text("Dead isa A\nDead isa B\nA isa not B\nconcept Unused")
    assert main(["lint", str(broken)]) == 1
    output = capsys.readouterr().out
    assert "unsatisfiable predicate: Dead" in output
    assert "declared but unused: Unused" in output
