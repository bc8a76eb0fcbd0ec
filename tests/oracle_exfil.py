"""Brute-force exfiltration oracle, implemented independently of the graph
module: plain urllib parsing plus direct enumeration of every storage value,
encoding, and decoration value combination."""

import base64
import hashlib
from urllib.parse import unquote, urlsplit


def oracle_decorations(url):
    """[(kind, position, decoded_value, raw_value)] in URL order."""
    parts = urlsplit(url)
    out = []
    path = parts.path
    if path.startswith("/"):
        segments = path[1:].split("/")
        for i, seg in enumerate(segments[:-1]):
            out.append(("path", i, unquote(seg, errors="replace"), seg))
    if parts.query:
        for i, token in enumerate(parts.query.split("&")):
            raw = token.split("=", 1)[1] if "=" in token else ""
            out.append(("query", i, unquote(raw, errors="replace"), raw))
    if "#" in url:
        frag = url.split("#", 1)[1]
        if frag != "":
            tokens = frag.split("&")
            if all("=" in t for t in tokens):
                for i, token in enumerate(tokens):
                    raw = token.split("=", 1)[1]
                    out.append(("fragment", i,
                                unquote(raw, errors="replace"), raw))
            else:
                out.append(("fragment", 0,
                            unquote(frag, errors="replace"), frag))
    return out


def _forms(value):
    data = value.encode("utf-8")
    return [
        ("plain", value, False),
        ("base64", base64.b64encode(data).decode("ascii"), False),
        ("md5", hashlib.md5(data).hexdigest(), True),
        ("sha1", hashlib.sha1(data).hexdigest(), True),
        ("sha256", hashlib.sha256(data).hexdigest(), True),
    ]


def oracle_exfil_pairs(trace, min_len=8):
    """Expected (storage_node_id, decoration_node_id) exfiltration pairs."""
    storage = {}
    requests = []
    responded = set()
    for ev in trace.events:
        p = ev.payload
        if ev.kind == "storage_set":
            storage.setdefault((p["store"], p["key"]), []).append(
                (ev.seq, p.get("value", "")))
        elif ev.kind == "response" and p["request_id"] not in responded:
            # a request's first response sets its header storage entries
            responded.add(p["request_id"])
            for entry in p.get("set_storage", []):
                storage.setdefault((entry["store"], entry["key"]), []).append(
                    (ev.seq, entry.get("value", "")))
        elif ev.kind == "storage_get" and "value" in p:
            storage.setdefault((p["store"], p["key"]), []).append(
                (ev.seq, p["value"]))
        elif ev.kind in ("request", "element_request"):
            requests.append((ev.seq, p["request_id"], p["url"]))
        elif ev.kind == "redirect":
            requests.append((ev.seq, p["request_id"], p["to_url"]))
    pairs = set()
    for seq, rid, url in requests:
        try:
            decorations = oracle_decorations(url)
        except ValueError:
            continue
        for (store, key), writes in storage.items():
            values = {v for s, v in writes
                      if s < seq and v and len(v) >= min_len}
            for value in values:
                for _name, form, ci in _forms(value):
                    needle = form.lower() if ci else form
                    for kind, pos, decoded, raw in decorations:
                        hit = False
                        for hay in (decoded, raw):
                            h = hay.lower() if ci else hay
                            # forward: encoded storage value inside the
                            # decoration; reverse: decoration chunk inside
                            # the encoded storage value
                            if needle in h:
                                hit = True
                            elif (h and len(decoded) >= min_len
                                    and h in needle):
                                hit = True
                        if hit:
                            pairs.add((f"storage:{store}:{key}",
                                       f"decoration:{rid}:{kind}:{pos}"))
    return pairs
