import json

import pytest

import semifd as sf
from semifd.presentations import parse_presentation


def test_parse_braid_style_document():
    pres = parse_presentation(
        json.dumps({"generators": ["a", "b"], "relations": [["a.b.a", "b.a.b"]]})
    )
    assert pres.generators == ("a", "b")
    assert pres.relations == (((0, 1, 0), (1, 0, 1)),)


def test_parse_rejects_non_homogeneous():
    doc = json.dumps({"generators": ["a"], "relations": [["a.a", "a"]]})
    with pytest.raises(sf.PresentationError, match="lengths 2 vs 1"):
        parse_presentation(doc)


def test_parse_rejects_unknown_generator():
    doc = json.dumps({"generators": ["a", "b"], "relations": [["a.c", "c.a"]]})
    with pytest.raises(sf.PresentationError, match="unknown generator 'c'"):
        parse_presentation(doc)


def test_parse_rejects_garbage():
    with pytest.raises(sf.PresentationError):
        parse_presentation("not json at all")
    with pytest.raises(sf.PresentationError):
        parse_presentation('{"generators": "ab"}')


def test_nat2_builtin():
    pres = sf.nat(2)
    assert pres.generators == ("x", "y")
    assert pres.relations == (((0, 1), (1, 0)),)


def test_braid3_builtin():
    pres = sf.braid(3)
    assert pres.generators == ("s1", "s2")
    assert pres.relations == (((0, 1, 0), (1, 0, 1)),)


def test_braid4_has_far_commutation():
    pres = sf.braid(4)
    assert ((0, 2), (2, 0)) in pres.relations
    assert ((0, 1, 0), (1, 0, 1)) in pres.relations
    assert ((1, 2, 1), (2, 1, 2)) in pres.relations


def test_raag_without_edges_is_free():
    pres = sf.raag(["v", "w"], [])
    assert pres.relations == ()
    assert pres.generators == ("v", "w")


def test_raag_edge_gives_commutation():
    pres = sf.raag(["v", "w"], [("v", "w")])
    assert pres.relations == (((0, 1), (1, 0)),)


def test_raag_rejects_self_loop():
    with pytest.raises(sf.PresentationError, match="self-loop"):
        sf.raag(["v"], [("v", "v")])


def test_invalid_builtin_params():
    with pytest.raises(sf.PresentationError):
        sf.free(0)
    with pytest.raises(sf.PresentationError):
        sf.nat(-1)
    with pytest.raises(sf.PresentationError):
        sf.builtin("nonsense")


def test_duplicate_generator_names_rejected():
    with pytest.raises(sf.PresentationError, match="unique"):
        sf.MonoidPresentation(("a", "a"), ())


def test_free_generators_skip_the_identity_word():
    assert sf.free(5).generators == ("a", "b", "c", "d", "f")
    assert "e" not in sf.free(25).generators and sf.free(25).generators[-1] == "z"
    assert sf.free(26).generators == tuple("a%d" % i for i in range(1, 27))
    pres = sf.free(5)
    assert [pres.parse_word(pres.word_str((i,))) for i in range(5)] == [(i,) for i in range(5)]


@pytest.mark.parametrize("generators", [["e", "b"], ["a.b"], ["a", "b."]])
def test_generator_names_that_words_cannot_spell_are_refused(generators):
    # "e" is the identity's word, and "." joins names into words
    with pytest.raises(sf.PresentationError, match="generator names"):
        parse_presentation(json.dumps({"generators": generators}))
    with pytest.raises(sf.PresentationError, match="generator names"):
        sf.raag(generators, [])

