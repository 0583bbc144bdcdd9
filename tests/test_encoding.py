import random

import pytest

from treeprov.encoding import (KFact, alphabet_label, annotate, decode,
                               encode, encoding_from_json, encoding_to_json,
                               kfact_labels, teval)
from treeprov.relational import normalize_decomposition, tree_decomposition
from treeprov.trees import Node, postorder

from genutil import rand_instance
from oracles import decode_bag, instances_isomorphic


def encoding_of(instance, k=None):
    decomp = normalize_decomposition(tree_decomposition(instance, k))
    return encode(instance, decomp)


def test_alphabet_label_validation():
    assert alphabet_label({1, 2}, None, 1) == KFact(frozenset({1, 2}))
    with pytest.raises(ValueError):
        alphabet_label({1, 2, 3}, None, 1)  # too many slots for k=1
    with pytest.raises(ValueError):
        alphabet_label({5}, None, 1)  # slot outside 1..4
    with pytest.raises(ValueError):
        alphabet_label({1}, ("R", (2,)), 1)  # args outside dom


def test_encode_decode_isomorphic():
    rng = random.Random(11)
    for _ in range(50):
        inst = rand_instance(rng, max_facts=8, max_dom=6)
        enc = encoding_of(inst)
        dec = decode(enc.root)
        assert dec is not None
        assert instances_isomorphic(inst, dec)


def test_encoding_fact_node_bijection():
    rng = random.Random(12)
    inst = rand_instance(rng, max_facts=8)
    enc = encoding_of(inst)
    assert sorted(enc.fact_nodes) == sorted(f.id for f in inst.facts)
    fact_labels = [n.label for n in postorder(enc.root) if n.label.rel]
    assert len(fact_labels) == len(inst.facts)


def test_decode_rejects_duplicate_fact():
    # two sibling leaves both creating R(a1) under a shared slot
    leaf = Node(KFact(frozenset({1}), "R", (1,)))
    leaf2 = Node(KFact(frozenset({1}), "R", (1,)))
    root = Node(KFact(frozenset({1})), leaf, leaf2)
    assert decode(root) is None


def test_decode_fresh_elements():
    # disjoint slots in siblings decode to distinct fresh elements
    leaf = Node(KFact(frozenset({1}), "R", (1,)))
    leaf2 = Node(KFact(frozenset({1}), "R", (1,)))
    root = Node(KFact(frozenset()), leaf, leaf2)
    dec = decode(root)
    assert dec is not None
    assert len(dec.facts) == 2
    assert len(dec.domain) == 2


def test_annotate_and_teval():
    rng = random.Random(13)
    inst = rand_instance(rng, max_facts=6)
    enc = encoding_of(inst)
    val = {f.id: rng.randint(0, 1) for f in inst.facts}
    ann = annotate(enc, val)
    for n, n2 in zip(postorder(enc.root), postorder(ann)):
        label, a = n2.label
        assert label == n.label
        fid = enc.node_fact.get(id(n))
        assert a == (val[fid] if fid is not None else 1)
    # teval keeps annotated-1 facts and neuters annotated-0 facts
    ev = teval(ann)
    dec = decode(ev)
    assert dec is not None
    from treeprov.relational import subinstance
    assert instances_isomorphic(dec, subinstance(inst, val))


def test_decode_bag_multiplicities():
    rng = random.Random(14)
    inst = rand_instance(rng, max_facts=6)
    enc = encoding_of(inst)
    val = {f.id: rng.randint(0, 3) for f in inst.facts}
    ann = annotate(enc, val)
    bag = decode_bag(ann)
    assert bag is not None
    assert sorted(bag.values()) == sorted(v for v in val.values() if v)


def test_kfact_labels_complete_and_finite():
    labels = kfact_labels({"R": 2}, 1)
    # 2k+2 = 4 slots, dom size <= k+1 = 2: 1 + 4 + 6 = 11 slot sets;
    # each dom of size d adds d^2 fact labels for the binary relation
    n_plain = 1 + 4 + 6
    n_fact = 4 * 1 + 6 * 4
    assert len(labels) == n_plain + n_fact
    assert len(set(labels)) == len(labels)
    rng = random.Random(15)
    inst = rand_instance(rng, max_facts=5, signature={"R": 2})
    enc = encoding_of(inst)
    universe = set(kfact_labels({"R": 2}, enc.k))
    for n in postorder(enc.root):
        assert n.label in universe


def test_encoding_json_roundtrip():
    rng = random.Random(16)
    inst = rand_instance(rng, max_facts=7)
    enc = encoding_of(inst)
    back = encoding_from_json(encoding_to_json(enc))
    assert back.k == enc.k
    assert sorted(back.fact_nodes) == sorted(enc.fact_nodes)
    for n, n2 in zip(postorder(enc.root), postorder(back.root)):
        assert n.label == n2.label
