import collections

import numpy as np
import pytest

from linkscrub import labels as L
from linkscrub.features import shannon_entropy
from linkscrub.graph import EXFILTRATION, build_full_graph
from linkscrub.synthetic import (SyntheticConfig, generate_synthetic,
                                 label_source_files, write_corpus)
from linkscrub.trace import dump_trace, parse_trace

from oracle_exfil import oracle_exfil_pairs

CFG = SyntheticConfig(sites=6, seed=1,
                      encodings=("plain", "base64", "sha256"))


def test_config_rejects_bad_encodings():
    with pytest.raises(ValueError):
        SyntheticConfig(encodings=("rot13",))


def test_generation_is_deterministic():
    a, la = generate_synthetic(CFG)
    b, lb = generate_synthetic(CFG)
    assert [dump_trace(t) for t in a] == [dump_trace(t) for t in b]
    assert la == lb
    c, _ = generate_synthetic(SyntheticConfig(sites=6, seed=2))
    assert dump_trace(a[0]) != dump_trace(c[0])


def test_traces_are_valid():
    traces, _ = generate_synthetic(CFG)
    for t in traces:
        text = dump_trace(t)
        assert dump_trace(parse_trace(text.splitlines())) == text


def test_planted_ats_decorations_receive_exfiltration_edges():
    traces, labels = generate_synthetic(CFG)
    for t in traces:
        g = build_full_graph(t)
        exfiltrated = {e.dst for e in g.edges if e.kind == EXFILTRATION}
        assert exfiltrated == {
            dec.id for dec in g.decoration_nodes()
            if labels.get(dec.attrs["decoration"].id) == "ATS"}
        # and the graph edges agree with the independent oracle
        got = {(e.src, e.dst) for e in g.edges if e.kind == EXFILTRATION}
        assert got == oracle_exfil_pairs(t)


def test_pipeline_labels_reproduce_planted_labels():
    traces, planted = generate_synthetic(CFG)
    src = label_source_files(CFG)
    graphs = [build_full_graph(t) for t in traces]
    labeled = L.label_decorations(
        graphs,
        L.parse_request_rules(src["request_rules.txt"].splitlines()),
        L.parse_cookie_purpose_db(src["cookie_purposes.csv"].splitlines()),
        L.parse_curated_list(src["curated_ats.txt"].splitlines()))
    derived = {x.id: x.label for x in labeled if x.label != L.UNKNOWN}
    assert derived == planted


def test_entropy_split_targets():
    traces, labels = generate_synthetic(
        SyntheticConfig(sites=20, seed=3,
                        encodings=("plain", "base64", "md5", "sha1",
                                   "sha256")))
    values = {"ATS": [], "NonATS": []}
    for t in traces:
        g = build_full_graph(t)
        for dec in g.decoration_nodes():
            lab = labels.get(dec.attrs["decoration"].id)
            if lab in values:
                values[lab].append(shannon_entropy(dec.attrs["value"]))
    non_low = np.mean(np.array(values["NonATS"]) < 3.0)
    ats_low = np.mean(np.array(values["ATS"]) < 3.0)
    assert non_low >= 0.70
    assert ats_low <= 0.10


def test_label_class_mix():
    _, labels = generate_synthetic(CFG)
    counts = collections.Counter(labels.values())
    assert counts["ATS"] > 0
    assert counts["NonATS"] > counts["ATS"]


def test_write_corpus_layout(tmp_path):
    paths = write_corpus(SyntheticConfig(sites=2, seed=0), str(tmp_path))
    assert len(paths) == 2
    assert (tmp_path / "labels.csv").exists()
    assert (tmp_path / "request_rules.txt").exists()
    assert (tmp_path / "cookie_purposes.csv").exists()
    assert (tmp_path / "curated_ats.txt").exists()
    header = (tmp_path / "labels.csv").read_text().splitlines()[0]
    assert header == "site,fqdn,key,label,provenance"
