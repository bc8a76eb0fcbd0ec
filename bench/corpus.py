"""Seeded inputs for the benchmark workloads.

Everything here is written from scratch and imports nothing from linkscrub,
so a change to the program never changes what the benchmark feeds it:

* a crawl of JSONL traces with a heavy tail of page sizes, planted labels and
  the label-source files that reproduce them;
* a noisy labeled 43-column matrix for the forest;
* a removeparam-style rule list in the native filter-list format.

The same seed always gives the same inputs.
"""

from __future__ import annotations

import base64
import hashlib
import json
import random
import string
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import quote

ATS = "ATS"
NON_ATS = "NonATS"

TRACKER_POOL = 64  # trackers trk0 .. trk63, shared by every site
DENSE = 24  # trackers on a dense page
ENCODINGS = ("plain", "base64", "md5", "sha1", "sha256")
MIN_VALUE_LEN = 8  # linkscrub's default; shorter stored values never count

_ID_ALPHABET = string.ascii_letters + string.digits
# functional values stay below MIN_VALUE_LEN, so they can never take part in
# an exfiltration match in either direction
_WORDS = ("en", "de", "fr", "home", "news", "dark", "light", "grid", "list",
          "main", "top", "off", "on", "v1", "v2", "v3", "12", "24", "300",
          "250", "100", "s", "m", "l")
_FUNCTIONAL_KEYS = ("page", "lang", "w", "h", "tab", "sz")
_SAFE = "-._~!$'()*+,;:@"


def page_sizes(small: int, dense: int) -> list[int]:
    """Trackers per page: ``small`` pages cycling through 1, 2, 2 and 3
    trackers, then ``dense`` pages of 24 trackers each. The mix is fixed, not
    drawn, so every seed puts the same pages in the tail."""
    return [(1, 2, 2, 3)[i % 4] for i in range(small)] + [DENSE] * dense


def request_count(trackers: int) -> int:
    """Requests one page makes, redirect targets included: seven per
    tracker and seven from the first-party script."""
    return 7 * trackers + 7


def _encode(value: str, encoding: str) -> str:
    data = value.encode("utf-8")
    if encoding == "plain":
        return value
    if encoding == "base64":
        return base64.b64encode(data).decode("ascii")
    return hashlib.new(encoding, data).hexdigest()


def _url(host: str, dirs=(), resource: str = "", params=(),
         fragment=None) -> str:
    out = f"https://{host}/" + "/".join(
        [quote(d, safe=_SAFE) for d in dirs] + [quote(resource, safe=_SAFE)])
    if params:
        out += "?" + "&".join(f"{k}={quote(v, safe=_SAFE)}" for k, v in params)
    if isinstance(fragment, str):
        out += "#" + quote(fragment, safe=_SAFE)
    elif fragment:
        out += "#" + "&".join(f"{k}={quote(v, safe=_SAFE)}"
                              for k, v in fragment)
    return out


class _Page:
    def __init__(self, site: str, rng: random.Random):
        self.site = site
        self.page_url = f"https://www.{site}/"
        self.rng = rng
        self.events: list[dict] = []
        self.requests = 0
        self.labels: dict[tuple[str, str, str], str] = {}

    def emit(self, kind: str, actor: str, **payload) -> None:
        self.events.append({
            "seq": len(self.events) + 1, "kind": kind,
            "page_url": self.page_url, "site": self.site, "actor": actor,
            "payload": payload})

    def request(self, actor: str, url: str, kind: str = "request") -> str:
        self.requests += 1
        rid = f"r{self.requests}"
        self.emit(kind, actor, url=url, request_id=rid)
        return rid

    def response(self, rid: str, payload: str = "") -> None:
        self.emit("response", "document", request_id=rid, status=200,
                  set_storage=[], payload=payload)

    def word(self) -> str:
        return self.rng.choice(_WORDS)

    def identifier(self) -> str:
        return "".join(self.rng.choice(_ID_ALPHABET) for _ in range(16))

    def label(self, fqdn: str, key: str, value: str) -> None:
        self.labels[(self.site, fqdn, key)] = value


def _tracker(p: _Page, j: int, partner: int) -> None:
    """One tracker script: a cookie identifier exfiltrated through path,
    query and fragment decorations, an identifier infiltrated from a
    response and passed to a partner, and a redirect that carries it on."""
    enc = p.rng.choice(ENCODINGS)
    host = f"a.trk{j}.example"
    script = f"t{j}s"
    p.emit("script_load", "document", script_id=script,
           url=f"https://cdn.trk{j}.example/sync/pixel.js",
           length=15000 + 100 * j)
    uid = p.identifier()
    uid_enc = _encode(uid, enc)
    p.emit("storage_set", script, store="cookie", key=f"_uid{j}", value=uid)
    p.emit("storage_get", script, store="cookie", key=f"_uid{j}", value=uid)

    p.response(p.request(script, _url(host, [uid_enc, "sync"], "pixel.gif",
                                      [("cb", p.word())])))
    p.label(host, "path|0", ATS)
    p.response(p.request(script, _url(host, [], "collect",
                                      [("uid", uid_enc), ("ev", "pv"),
                                       ("ref", p.word())])))
    p.label(host, "uid", ATS)
    if p.rng.random() < 0.5:
        frag, frag_key = (("sid", uid_enc),), "sid"
    else:
        frag, frag_key = uid_enc, "fragment"
    p.response(p.request(script, _url(host, [], "match",
                                      [("uid", uid_enc), ("v", p.word())],
                                      fragment=frag)))
    p.label(host, frag_key, ATS)

    sid = p.identifier()
    p.response(p.request(script, _url(host, [], "id", [("uid", uid_enc)])),
               payload=f"sid={sid}")
    p.emit("storage_set", script, store="cookie", key=f"_sid{j}", value=sid)
    partner_host = f"x.trk{partner}.example"
    p.response(p.request(script, _url(partner_host, [], "partner",
                                      [("psid", _encode(sid, enc))])))
    p.label(partner_host, "psid", ATS)

    rid = p.request(script, _url(f"r.trk{j}.example", [], "redir",
                                 [("uid", uid_enc)]))
    p.label(f"r.trk{j}.example", "uid", ATS)
    p.requests += 1
    to_host = f"a.trk{partner}.example"
    p.emit("redirect", "document", from_request_id=rid,
           to_url=_url(to_host, [], "rtb", [("uid", uid_enc)]),
           request_id=f"r{p.requests}")
    p.label(to_host, "uid", ATS)


def _functional(p: _Page) -> None:
    """First-party script with short, low-entropy parameters only."""
    site = p.site
    p.emit("script_load", "document", script_id="app",
           url=f"https://www.{site}/js/main.js", length=4000)
    p.emit("storage_set", "app", store="localStorage", key="theme",
           value=p.word())
    p.emit("storage_get", "app", store="localStorage", key="theme",
           value="dark")
    hosts = (f"cdn.{site}", f"www.{site}", "static.cdnhost.example")
    for r in range(6):
        host = hosts[r % 3]
        dirs = [p.word() for _ in range(1 + r % 2)]
        params = [(k, p.word()) for k in _FUNCTIONAL_KEYS[:3]]
        p.response(p.request("app", _url(host, dirs, "item.css", params)))
        for i in range(len(dirs)):
            p.label(host, f"path|{i}", NON_ATS)
        for k, _ in params:
            p.label(host, k, NON_ATS)
    p.emit("element_create", "app", element_id="img1", tag="img")
    host = f"img.{site}"
    p.response(p.request("img1", _url(host, [p.word()], "photo.jpg",
                                      [("w", p.word()), ("h", p.word())]),
                         kind="element_request"))
    for key in ("path|0", "w", "h"):
        p.label(host, key, NON_ATS)


@dataclass
class Crawl:
    """Trace files in crawl order, their sites, and the planted label of
    every (site, fqdn, key) identity."""

    trace_paths: list[Path]
    sites: list[str]
    planted: dict[tuple[str, str, str], str]


def write_crawl(outdir: Path, seed: int, small: int, dense: int) -> Crawl:
    """Write one page trace per site under ``outdir/traces`` and the
    label-source files that reproduce the planted labels under ``outdir``
    (request_rules.txt, cookie_purposes.csv, curated_ats.txt). Pages are
    shuffled so dense pages are spread over the run."""
    sizes = page_sizes(small, dense)
    random.Random(f"{seed}|order").shuffle(sizes)
    (outdir / "traces").mkdir(parents=True, exist_ok=True)
    paths, sites, planted = [], [], {}
    for i, n_trackers in enumerate(sizes):
        site = f"site{i:04d}.example"
        rng = random.Random(f"{seed}|site|{i}")
        p = _Page(site, rng)
        chosen = rng.sample(range(TRACKER_POOL), n_trackers)
        for pos, j in enumerate(chosen):
            _tracker(p, j, chosen[(pos + 1) % n_trackers])
        _functional(p)
        path = outdir / "traces" / f"{site}.jsonl"
        lines = [json.dumps({"format": 1})]
        lines += [json.dumps(ev, sort_keys=True) for ev in p.events]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
        sites.append(site)
        planted.update(p.labels)

    pool = range(TRACKER_POOL)
    (outdir / "request_rules.txt").write_text(
        "".join(f"||trk{j}.example^\n" for j in pool), encoding="utf-8")
    (outdir / "cookie_purposes.csv").write_text(
        "".join(f"*,_uid{j},advertising\n*,_sid{j},analytics\n" for j in pool),
        encoding="utf-8")
    (outdir / "curated_ats.txt").write_text(
        "".join(f"a.trk{j}.example|uid\n" for j in pool), encoding="utf-8")
    return Crawl(paths, sites, planted)


# -- noisy matrix ---------------------------------------------------------------

@dataclass
class NoisyMatrix:
    X: "np.ndarray"
    y: "np.ndarray"
    flip_rate: float
    chance: float  # accuracy of always answering the majority class


FLIP_RATE = 0.10


def noisy_matrix(seed: int, rows: int, columns: int = 43) -> NoisyMatrix:
    """A labeled matrix no single stump separates.

    Columns cycle through three shapes: Gaussian, Poisson counts (many ties)
    and 0/1 flags. The clean label is a planted rule over three columns:
    ``(x0 > 0 and x1 >= 2) or x3 > 1``. Then a fixed share
    ``FLIP_RATE`` of labels, chosen at random, is flipped, so no classifier
    can beat ``1 - FLIP_RATE`` accuracy in expectation.
    """
    import numpy as np  # not at module level: set-up probes time its import
    rng = np.random.default_rng([seed, 4242])
    X = np.empty((rows, columns))
    for c in range(columns):
        shape = c % 3
        if shape == 0:
            X[:, c] = rng.normal(size=rows)
        elif shape == 1:
            X[:, c] = rng.poisson(lam=1.0 + c % 4, size=rows)
        else:
            X[:, c] = rng.integers(0, 2, size=rows)
    clean = ((X[:, 0] > 0) & (X[:, 1] >= 2)) | (X[:, 3] > 1)
    y = clean.astype(np.int64)
    flip = rng.choice(rows, size=round(FLIP_RATE * rows), replace=False)
    y[flip] ^= 1
    share = float(y.mean())
    return NoisyMatrix(X, y, FLIP_RATE, max(share, 1.0 - share))


# -- removeparam-style rule list ----------------------------------------------

# query keys that public removeparam lists strip most often
_PUBLIC_KEYS = ("utm_source", "utm_medium", "utm_campaign", "utm_term",
                "utm_content", "fbclid", "gclid", "dclid", "msclkid",
                "mc_eid", "mc_cid", "_hsenc", "_hsmi", "yclid", "igshid",
                "twclid", "ttclid", "wbraid", "gbraid", "oly_enc_id",
                "vero_id", "s_cid", "icid", "spm", "scm")


def made_rules(seed: int, count: int, sites: list[str]) -> list[tuple]:
    """``count`` rules as (scope, fqdn, key): a quarter each with an exact
    host, a ``*.suffix`` pattern and ``*``, the rest scoped to one crawled
    site; keys are mostly query keys, one rule in eight a path level. Hosts
    are drawn mostly from ones the crawl never contacts, and a few from the
    crawl's first-party hosts, so some functional decorations are rewritten
    too."""
    rng = random.Random(f"{seed}|rules")
    out = []
    for i in range(count):
        shape = i % 4
        if rng.random() < 0.05:
            site = rng.choice(sites)
            host = rng.choice((f"cdn.{site}", f"img.{site}", f"www.{site}"))
        else:
            host = f"{rng.choice(('px', 'ads', 'cm', 'log'))}.net{rng.randrange(2000)}.example"
        if shape == 0:
            scope, fqdn = "*", host
        elif shape == 1:
            scope, fqdn = "*", "*." + host.split(".", 1)[1]
        elif shape == 2:
            scope, fqdn = "*", "*"
        else:
            scope, fqdn = rng.choice(sites), host
        if i % 8 == 7:
            key = f"path|{rng.randrange(3)}"
        elif shape == 2:
            # a global rule only on keys the crawl never sends, as public
            # lists do for campaign keys
            key = f"{rng.choice(_PUBLIC_KEYS)}_{rng.randrange(100)}"
        elif rng.random() < 0.3:
            key = rng.choice(_FUNCTIONAL_KEYS)
        else:
            key = rng.choice(_PUBLIC_KEYS)
        out.append((scope, fqdn, key))
    return out


NATIVE_HEADER = "# decoration-filter-list v1\n"  # first line of a native list


def native_line(scope: str, fqdn: str, key: str) -> str:
    """One rule in the native filter-list format."""
    return f"{scope}\t{fqdn}\t{key}\treplace\t1.0\tbench\n"

