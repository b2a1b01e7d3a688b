"""Unit tests for the SPARQL front-end (UCQ fragment)."""

import pytest

from repro.errors import SyntaxError_
from repro.obda.sparql import parse_sparql


def canonical(ucq):
    return {cq.canonical() for cq in ucq}


def test_basic_graph_pattern():
    ucq = parse_sparql("SELECT ?x WHERE { ?x a :Teacher . ?x :teaches ?y }")
    assert canonical(ucq) == canonical(
        __import__("repro.obda", fromlist=["parse_query"]).parse_query(
            "q(x) :- Teacher(x), teaches(x, y)"
        )
    )


def test_rdf_type_forms_equivalent():
    via_a = parse_sparql("SELECT ?x WHERE { ?x a :C }")
    via_prefixed = parse_sparql("SELECT ?x WHERE { ?x rdf:type :C }")
    via_iri = parse_sparql(
        "SELECT ?x WHERE { ?x <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> :C }"
    )
    assert canonical(via_a) == canonical(via_prefixed) == canonical(via_iri)


def test_union_of_groups():
    ucq = parse_sparql(
        "SELECT ?x WHERE { { ?x a :County } UNION { ?x a :Municipality } }"
    )
    assert len(ucq) == 2


def test_semicolon_and_comma_shorthand():
    ucq = parse_sparql("SELECT ?x WHERE { ?x :knows ?y , ?z ; a :Person }")
    cq = ucq.disjuncts[0]
    predicates = sorted(a.predicate for a in cq.atoms)
    assert predicates == ["Person", "knows", "knows"]


def test_select_star_collects_variables():
    ucq = parse_sparql("SELECT * WHERE { ?b :p ?a }")
    assert [v.name for v in ucq.disjuncts[0].answer_vars] == ["a", "b"]


def test_literals_and_numbers():
    ucq = parse_sparql('SELECT ?x WHERE { ?x :name "Ada" . ?x :age 36 }')
    constants = {
        term.value
        for atom in ucq.disjuncts[0].atoms
        for term in atom.args
        if not hasattr(term, "name")
    }
    assert constants == {"Ada", 36}


def test_prefix_declarations_tolerated():
    ucq = parse_sparql(
        """
        PREFIX : <http://uni.example.org/onto#>
        PREFIX uni: <http://uni.example.org/onto#>
        SELECT ?x WHERE { ?x uni:attends :logic }
        """
    )
    atom = ucq.disjuncts[0].atoms[0]
    assert atom.predicate == "attends"
    assert str(atom.args[1]) == "'logic'"


def test_full_iri_predicates_use_local_name():
    ucq = parse_sparql(
        "SELECT ?x WHERE { ?x <http://uni.example.org/onto#teaches> ?y }"
    )
    assert ucq.disjuncts[0].atoms[0].predicate == "teaches"


def test_unsupported_constructs_rejected():
    with pytest.raises(SyntaxError_):
        parse_sparql("SELECT ?x WHERE { ?x a :C . FILTER(?x > 3) }")
    with pytest.raises(SyntaxError_):
        parse_sparql("SELECT ?x WHERE { ?x a :C . OPTIONAL { ?x :p ?y } }")
    with pytest.raises(SyntaxError_):
        parse_sparql("SELECT ?x WHERE { }")


def test_end_to_end_with_obda():
    from repro.dllite import (
        ABox,
        AtomicConcept,
        ConceptAssertion,
        Individual,
        parse_tbox,
    )
    from repro.obda import OBDASystem

    tbox = parse_tbox("Professor isa Teacher")
    abox = ABox([ConceptAssertion(AtomicConcept("Professor"), Individual("ada"))])
    system = OBDASystem(tbox, abox=abox)
    ucq = parse_sparql("SELECT ?x WHERE { ?x a :Teacher }")
    answers = system.certain_answers(ucq)
    assert answers == {(Individual("ada"),)}
