import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from concentrators.pipeline import PipelineError, bicoset_concentrator_report
from concentrators.permgroup import (
    Permutation,
    closure,
    compose,
    from_cycles,
    inverse,
    trivial_group,
)

import oracles


def test_pipeline_s4_full_report(s4):
    L = closure(4, [from_cycles([(0, 1)], 4)], name="L")
    S = (from_cycles([(0, 1)], 4), from_cycles([(0, 1, 2, 3)], 4))
    report = bicoset_concentrator_report(s4, L, S)
    assert report.n_in == 12 and report.n_out == 24
    assert report.input_degree == (len(S) + 1) * 2
    assert report.output_degree == len(S) + 1
    assert report.connected and report.generates
    assert report.gram_top > report.gram_second  # spectral gap present
    assert report.magnifier.mode == "exhaustive"
    assert report.magnifier.worst_ratio > 0
    assert report.gap_check
    assert report.tanner_constant is not None and report.tanner_constant > 0
    assert report.warnings == ()


def test_pipeline_trivial_subgroup_degenerates_to_bicayley(s3):
    triv = trivial_group(3)
    S = (s3.elements[1], s3.elements[2])
    report = bicoset_concentrator_report(s3, triv, S)
    assert report.n_in == report.n_out == 6
    assert report.input_degree == len(S) + 1


def test_pipeline_identity_multiset_warns(s3):
    L = closure(3, [from_cycles([(0, 1)], 3)], name="L")
    report = bicoset_concentrator_report(s3, L, (s3.identity(),))
    assert not report.connected
    assert not report.generates
    assert any("disconnected" in w for w in report.warnings)


def test_pipeline_rejects_empty_multiset(s3):
    with pytest.raises(PipelineError):
        bicoset_concentrator_report(s3, trivial_group(3), ())


@st.composite
def pipeline_inputs(draw):
    """A group G of degree 2-4, a subgroup L and a multiset S of 1-3 elements."""
    degree = draw(st.integers(2, 4))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    G = closure(degree, [Permutation(tuple(g)) for g in gens])
    element = st.sampled_from(G.elements)
    L = closure(degree, draw(st.lists(element, max_size=2)))
    S = tuple(draw(st.lists(element, min_size=1, max_size=3)))
    return G, L, S


@settings(max_examples=40, deadline=None)
@given(pipeline_inputs())
def test_pipeline_biregular_and_connected_iff_generating(inputs):
    # The pipeline reads its degrees off S' = (S u {1})L and takes `generates`
    # to be `connected`; the per-element references check both readings.
    G, L, S = inputs
    assume(len(G) > len(L))  # the coset graph's Laplacian gap needs two cosets
    report = bicoset_concentrator_report(G, L, S)
    s_prime = [compose(s, l) for s in S + (G.identity(),) for l in L.elements]

    els = [g.images for g in G.elements]
    one = [tuple(range(G.degree))]
    inc = np.array(oracles.bicoset_incidence(els, [l.images for l in L.elements], one,
                                             [s.images for s in s_prime]))
    assert set(inc.sum(axis=1).tolist()) == {len(s_prime)} == {report.input_degree}
    assert set(inc.sum(axis=0).tolist()) == {len(S) + 1} == {report.output_degree}

    s_inv_s = sorted({compose(inverse(a), b).images for a in s_prime for b in s_prime})
    generates = len(oracles.closure(G.degree, s_inv_s, len(G))) == len(G)
    assert report.connected == report.generates == generates
