"""Deterministic synthetic crawl corpus with planted tracking behavior.

Each site gets tracker scripts that store high-entropy identifiers in cookies
and exfiltrate them (plain or encoded) through path, query, and fragment
decorations to shared tracker hosts, plus functional scripts that emit short
low-entropy enumerable parameters. Construction-time labels are emitted with
the traces, together with matching label-source files so the ground-truth
pipeline reproduces them.
"""

from __future__ import annotations

import os
import random
import string
from dataclasses import dataclass

from .graph import ENCODINGS, encode_candidates
from .trace import Trace, TraceEvent, dump_trace
from .urls import DecorationId, build_url

_ID_ALPHABET = string.ascii_letters + string.digits

# functional values stay at <= 7 characters, which caps their character-level
# entropy below log2(7) < 3 bits
_WORDS = ("en", "de", "fr", "home", "news", "dark", "light", "grid",
          "list", "main", "top", "off", "on", "v1", "v2", "v3",
          "12", "24", "300", "250", "100", "s", "m", "l")

ATS = "ATS"
NON_ATS = "NonATS"

REQUESTS_PER_TRACKER = 3
FUNCTIONAL_REQUESTS = 6
FUNCTIONAL_PARAMS = 3
# at least 8, so that identifiers survive the min-length pre-processing
IDENTIFIER_LENGTH = 16


@dataclass(frozen=True)
class SyntheticConfig:
    sites: int = 10
    trackers_per_site: int = 2
    encodings: tuple[str, ...] = ("plain",)
    seed: int = 0

    def __post_init__(self):
        for enc in self.encodings:
            if enc not in ENCODINGS:
                raise ValueError(f"unknown encoding {enc!r}")


class _SiteBuilder:
    def __init__(self, site: str, page_url: str, rng: random.Random):
        self.site = site
        self.page_url = page_url
        self.rng = rng
        self.events: list[TraceEvent] = []
        self.seq = 0
        self.req_counter = 0
        self.labels: dict[DecorationId, str] = {}

    def emit(self, kind: str, actor: str, payload: dict) -> None:
        self.seq += 1
        self.events.append(TraceEvent(
            seq=self.seq, kind=kind, page_url=self.page_url,
            site=self.site, actor=actor, payload=payload))

    def new_request_id(self) -> str:
        self.req_counter += 1
        return f"r{self.req_counter}"

    def word(self) -> str:
        return self.rng.choice(_WORDS)

    def identifier(self, length: int) -> str:
        return "".join(self.rng.choice(_ID_ALPHABET) for _ in range(length))

    def label(self, fqdn: str, key: str, value_label: str) -> None:
        self.labels[DecorationId(self.site, fqdn, key)] = value_label

    def request(self, actor: str, fqdn: str, dirs, resource, params,
                fragment=None) -> str:
        url = build_url("https", fqdn, dirs, resource, params, fragment)
        rid = self.new_request_id()
        self.emit("request", actor,
                  {"url": url, "request_id": rid})
        return rid

    def response(self, rid: str, payload: str = "", set_storage=None) -> None:
        self.emit("response", "document", {
            "request_id": rid, "status": 200,
            "set_storage": set_storage or [], "payload": payload})


def _build_tracker(b: _SiteBuilder, cfg: SyntheticConfig, j: int) -> None:
    rng = b.rng
    encoding = rng.choice(cfg.encodings)
    tracker = f"trk{j}.example"
    host = f"a.{tracker}"
    script = f"t{j}s"
    b.emit("script_load", "document", {
        "script_id": script,
        "url": f"https://cdn.{tracker}/sync/pixel.js",
        "length": 15000 + 100 * j})

    uid = b.identifier(IDENTIFIER_LENGTH)
    uid_enc = encode_candidates(uid)[encoding]
    b.emit("storage_set", script,
           {"store": "cookie", "key": f"_uid{j}", "value": uid})
    b.emit("storage_get", script,
           {"store": "cookie", "key": f"_uid{j}", "value": uid})

    for r in range(REQUESTS_PER_TRACKER):
        variant = r % 3
        if variant == 0:
            rid = b.request(script, host, [uid_enc, "sync"], "pixel.gif",
                            [("cb", b.word())])
            b.label(host, "path|0", ATS)
        elif variant == 1:
            rid = b.request(script, host, [], "collect",
                            [("uid", uid_enc), ("ev", "pv"),
                             ("ref", b.word())])
            b.label(host, "uid", ATS)
        else:
            if rng.random() < 0.5:
                rid = b.request(script, host, [], "match",
                                [("uid", uid_enc), ("v", b.word())],
                                fragment=(("sid", uid_enc),))
                b.label(host, "sid", ATS)
            else:
                rid = b.request(script, host, [], "match",
                                [("uid", uid_enc), ("v", b.word())],
                                fragment=uid_enc)
                b.label(host, "fragment", ATS)
            b.label(host, "uid", ATS)
        b.response(rid)

    # infiltration: the first response hands back a server identifier, the
    # script stores it and passes it on to a partner tracker
    sid = b.identifier(IDENTIFIER_LENGTH)
    rid = b.request(script, host, [], "id",
                    [("uid", uid_enc)])
    b.label(host, "uid", ATS)
    b.response(rid, payload=f"sid={sid}")
    b.emit("storage_set", script,
           {"store": "cookie", "key": f"_sid{j}", "value": sid})
    partner = f"x.trk{(j + 1) % max(1, cfg.trackers_per_site)}.example"
    rid = b.request(script, partner, [], "partner",
                    [("psid", encode_candidates(sid)[encoding])])
    b.label(partner, "psid", ATS)
    b.response(rid)

    # redirect chain carrying the identifier
    rid = b.request(script, f"r.{tracker}", [], "redir", [("uid", uid_enc)])
    b.label(f"r.{tracker}", "uid", ATS)
    new_rid = b.new_request_id()
    to_host = f"a.trk{(j + 1) % max(1, cfg.trackers_per_site)}.example"
    to_url = build_url("https", to_host, [], "rtb", [("uid", uid_enc)])
    b.emit("redirect", "document", {
        "from_request_id": rid, "to_url": to_url, "request_id": new_rid})
    b.label(to_host, "uid", ATS)


def _build_functional(b: _SiteBuilder) -> None:
    site = b.site
    script = "app"
    b.emit("script_load", "document", {
        "script_id": script,
        "url": f"https://www.{site}/js/main.js", "length": 4000})
    b.emit("storage_set", script,
           {"store": "localStorage", "key": "theme", "value": b.word()})
    b.emit("storage_get", script,
           {"store": "localStorage", "key": "theme", "value": "dark"})

    hosts = (f"cdn.{site}", f"www.{site}", "static.cdnhost.example")
    for r in range(FUNCTIONAL_REQUESTS):
        host = hosts[r % len(hosts)]
        dirs = [b.word() for _ in range(1 + r % 2)]
        params = [(k, b.word()) for k in
                  ("page", "lang", "w", "h", "tab", "sz")[:FUNCTIONAL_PARAMS]]
        rid = b.request(script, host, dirs, "item.css", params)
        for i in range(len(dirs)):
            b.label(host, f"path|{i}", NON_ATS)
        for k, _ in params:
            b.label(host, k, NON_ATS)
        b.response(rid)

    b.emit("element_create", script, {"element_id": "img1", "tag": "img"})
    host = f"img.{site}"
    rid = b.new_request_id()
    url = build_url("https", host, [b.word()], "photo.jpg",
                    [("w", b.word()), ("h", b.word())])
    b.emit("element_request", "img1", {"url": url, "request_id": rid})
    b.label(host, "path|0", NON_ATS)
    b.label(host, "w", NON_ATS)
    b.label(host, "h", NON_ATS)
    b.response(rid)


def generate_synthetic(cfg: SyntheticConfig
                       ) -> tuple[list[Trace], dict[DecorationId, str]]:
    """Trace set plus construction-time labels, deterministic per seed."""
    traces = []
    labels: dict[DecorationId, str] = {}
    for i in range(cfg.sites):
        site = f"site{i:04d}.example"
        page_url = f"https://www.{site}/"
        rng = random.Random(f"{cfg.seed}|site|{i}")
        b = _SiteBuilder(site, page_url, rng)
        for j in range(cfg.trackers_per_site):
            _build_tracker(b, cfg, j)
        _build_functional(b)
        traces.append(Trace(site=site, page_url=page_url,
                            events=tuple(b.events)))
        labels.update(b.labels)
    return traces, labels


def label_source_files(cfg: SyntheticConfig) -> dict[str, str]:
    """Request rules, cookie purposes, and curated entries matching the
    planted construction, for driving the ground-truth pipeline."""
    rules = [f"||trk{j}.example^" for j in range(cfg.trackers_per_site)]
    purposes = []
    curated = []
    for j in range(cfg.trackers_per_site):
        purposes.append(f"*,_uid{j},advertising")
        purposes.append(f"*,_sid{j},analytics")
        curated.append(f"a.trk{j}.example|uid")
    return {
        "request_rules.txt": "\n".join(rules) + "\n",
        "cookie_purposes.csv": "\n".join(purposes) + "\n",
        "curated_ats.txt": "\n".join(curated) + "\n",
    }


def write_corpus(cfg: SyntheticConfig, outdir: str) -> list[str]:
    """Write traces, labels, and label-source files; returns trace paths."""
    os.makedirs(os.path.join(outdir, "traces"), exist_ok=True)
    traces, labels = generate_synthetic(cfg)
    paths = []
    for t in traces:
        path = os.path.join(outdir, "traces", f"{t.site}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dump_trace(t))
        paths.append(path)
    with open(os.path.join(outdir, "labels.csv"), "w", encoding="utf-8") as fh:
        fh.write("site,fqdn,key,label,provenance\n")
        for dec_id in sorted(labels, key=lambda d: (d.site, d.fqdn, d.key)):
            fh.write(f"{dec_id.site},{dec_id.fqdn},{dec_id.key},"
                     f"{labels[dec_id]},planted\n")
    for name, text in label_source_files(cfg).items():
        with open(os.path.join(outdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths
