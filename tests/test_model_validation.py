import pytest

from reqlattice import model
from reqlattice.errors import ValidationError
from reqlattice.model import (
    Component,
    Corpus,
    Jurisdiction,
    Level,
    RelationSet,
    Requirement,
    RequirementKind,
    SourceItem,
    SourceKind,
    validate_corpus,
)


def jur(i, level=Level.NATIONAL, parent=None):
    return Jurisdiction(id=i, name=i.upper(), level=level, parent=parent)


def src(i, jurisdiction="de", kind=SourceKind.LEGAL, key="k"):
    return SourceItem(id=i, kind=kind, jurisdiction=jurisdiction, concept_key=key,
                      text=i, content_hash=model.content_hash(i), is_static=False)


def req(i, jurisdiction="de", kind=RequirementKind.FUNCTIONAL, key="k", derived=()):
    return Requirement(id=i, kind=kind, jurisdiction=jurisdiction, concept_key=key,
                       text=i, content_hash=model.content_hash(i),
                       derived_from=frozenset(derived))


def make(jurisdictions=(jur("de"),), sources=(), requirements=(), relations=None, components=()):
    return Corpus(
        jurisdictions=tuple(jurisdictions),
        sources=tuple(sources),
        requirements=tuple(requirements),
        relations=relations or RelationSet(),
        components=tuple(components),
    )


def code_of(excinfo):
    return excinfo.value.code


def test_valid_minimal_corpus():
    validate_corpus(make())


def test_duplicate_id():
    with pytest.raises(ValidationError) as e:
        validate_corpus(make(sources=[src("x")], requirements=[req("x")]))
    assert code_of(e) == "DUPLICATE_ID"


def test_unknown_parent():
    with pytest.raises(ValidationError) as e:
        validate_corpus(make(jurisdictions=[jur("de", Level.STATE, parent="nowhere")]))
    assert code_of(e) == "DANGLING_REF"


@pytest.mark.parametrize("child_level,parent_level", [
    (Level.STATE, Level.STATE),
    (Level.STATE, Level.ORGANISATIONAL),
    (Level.NATIONAL, Level.NATIONAL),
    (Level.ORGANISATIONAL, Level.ORGANISATIONAL),
])
def test_level_violations(child_level, parent_level):
    with pytest.raises(ValidationError) as e:
        validate_corpus(make(jurisdictions=[
            jur("p", parent_level, parent="root" if parent_level is not Level.NATIONAL else None),
            jur("c", child_level, parent="p"),
            jur("root", Level.NATIONAL),
        ]))
    assert code_of(e) in ("LEVEL_VIOLATION", "DANGLING_REF")


@pytest.mark.parametrize("jurisdictions", [
    pytest.param([jur("de", Level.NATIONAL, parent="de")], id="national-self-parent"),
    pytest.param([jur("nat"), jur("st", Level.STATE, parent="st")], id="state-self-parent"),
    pytest.param([jur("nat"), jur("org", Level.ORGANISATIONAL, parent="org")], id="org-self-parent"),
    pytest.param([jur("nat"), jur("s1", Level.STATE, parent="s2"), jur("s2", Level.STATE, parent="s1")],
                 id="state-two-cycle"),
    pytest.param([jur("nat"), jur("o1", Level.ORGANISATIONAL, parent="o2"),
                  jur("o2", Level.ORGANISATIONAL, parent="o1")], id="org-two-cycle"),
])
def test_parent_cycles_are_level_violations(jurisdictions):
    # every allowed parent sits at a strictly higher level, so no cycle gets past the level rule
    with pytest.raises(ValidationError) as e:
        validate_corpus(make(jurisdictions=jurisdictions))
    assert code_of(e) == "LEVEL_VIOLATION"


def test_org_under_state_and_under_national_both_ok():
    validate_corpus(make(jurisdictions=[
        jur("nat"), jur("st", Level.STATE, parent="nat"),
        jur("org1", Level.ORGANISATIONAL, parent="st"),
        jur("org2", Level.ORGANISATIONAL, parent="nat"),
    ]))


def test_duplicate_source_concept_triple():
    a = src("s1", key="k")
    b = src("s2", key="k")
    with pytest.raises(ValidationError) as e:
        validate_corpus(make(sources=[a, b]))
    assert code_of(e) == "DUPLICATE_CONCEPT"


def test_duplicate_requirement_concept_triple():
    with pytest.raises(ValidationError) as e:
        validate_corpus(make(requirements=[req("r1", key="k"), req("r2", key="k")]))
    assert code_of(e) == "DUPLICATE_CONCEPT"
    assert e.value.item_id == "r2"


def test_requirement_concept_shared_across_kinds_or_jurisdictions_allowed():
    validate_corpus(make(jurisdictions=[jur("de"), jur("fr")], requirements=[
        req("r1", key="k", kind=RequirementKind.FUNCTIONAL),
        req("r2", key="k", kind=RequirementKind.LEGAL_BASED),
        req("r3", jurisdiction="fr", key="k", kind=RequirementKind.FUNCTIONAL),
    ]))


def test_same_concept_different_kind_allowed():
    validate_corpus(make(sources=[
        src("s1", key="k", kind=SourceKind.LEGAL),
        src("s2", key="k", kind=SourceKind.CULTURAL),
    ]))


def test_functional_requirement_with_sources_rejected():
    with pytest.raises(ValidationError) as e:
        validate_corpus(make(sources=[src("s1")],
                             requirements=[req("r1", derived=["s1"])]))
    assert code_of(e) == "FUNCTIONAL_WITH_SOURCES"


def test_kind_discipline_for_derivation():
    with pytest.raises(ValidationError) as e:
        validate_corpus(make(
            sources=[src("s1", kind=SourceKind.CULTURAL)],
            requirements=[req("r1", kind=RequirementKind.LEGAL_BASED, derived=["s1"])],
        ))
    assert code_of(e) == "DERIVED_FROM_KIND"


def test_derivation_from_ancestor_jurisdiction_allowed():
    validate_corpus(make(
        jurisdictions=[jur("nat"), jur("st", Level.STATE, parent="nat")],
        sources=[src("s1", jurisdiction="nat")],
        requirements=[req("r1", jurisdiction="st", kind=RequirementKind.LEGAL_BASED, derived=["s1"])],
    ))


def test_derivation_from_sibling_jurisdiction_rejected():
    with pytest.raises(ValidationError) as e:
        validate_corpus(make(
            jurisdictions=[jur("de"), jur("fr")],
            sources=[src("s1", jurisdiction="fr")],
            requirements=[req("r1", jurisdiction="de", kind=RequirementKind.LEGAL_BASED, derived=["s1"])],
        ))
    assert code_of(e) == "DERIVED_FROM_JURISDICTION"


def test_relation_role_mismatch():
    with pytest.raises(ValidationError) as e:
        validate_corpus(make(
            sources=[src("s1", kind=SourceKind.LEGAL)],
            requirements=[req("r1", key="k2")],
            relations=RelationSet(refines=frozenset({("s1", "r1")})),
        ))
    assert code_of(e) == "RELATION_ROLE_MISMATCH"


def test_relation_kind_mismatch():
    with pytest.raises(ValidationError) as e:
        validate_corpus(make(
            requirements=[req("r1", key="k1"),
                          req("r2", key="k2", kind=RequirementKind.LEGAL_BASED)],
            relations=RelationSet(refines=frozenset({("r1", "r2")})),
        ))
    assert code_of(e) == "RELATION_KIND_MISMATCH"


def test_self_relation_rejected():
    with pytest.raises(ValidationError) as e:
        validate_corpus(make(
            requirements=[req("r1")],
            relations=RelationSet(contradicts=frozenset({("r1", "r1")})),
        ))
    assert code_of(e) == "RELATION_IRREFLEXIVE"


def test_component_implementing_unknown_requirement():
    with pytest.raises(ValidationError) as e:
        validate_corpus(make(components=[
            Component("c1", frozenset({"ghost"}), jurisdiction=None),
        ]))
    assert code_of(e) == "DANGLING_REF"


def test_normalization_rules():
    assert model.normalize_text("  Two\t spaced\n WORDS ") == "two spaced words"
    assert model.content_hash("A  b") == model.content_hash("a B")
    assert model.content_hash("ab") != model.content_hash("a b")
