"""Seeded inputs for every workload.

Everything a run feeds the program is made here from ``--seed``: the
XMark corpora and their document versions, and the first-seen query
stream of ``serve-adhoc``.  The same seed gives byte-identical inputs.
The program under test only ever receives the generated strings.
"""

from __future__ import annotations

import random
from typing import Dict, List, Set, Tuple

from repro.tree.binary import NIL
from repro.xmark.generator import XMarkGenerator
from repro.xmark.queries import QUERIES, XPATHMARK_A

#: Sibling / backward-axis queries (the W-set of the window-join study)
#: plus three forward controls.
W_QUERIES: Dict[str, str] = {
    "W01": "//listitem/following-sibling::listitem",
    "W02": "//bidder/following-sibling::bidder",
    "W03": "/site/open_auctions/open_auction/bidder/following-sibling::bidder",
    "W04": "//keyword/ancestor::listitem",
    "W05": "//emph/ancestor::description",
    "W06": "//keyword/parent::text",
    "W07": "//date/ancestor::closed_auction",
    "W08": "//keyword[ancestor::mail]",
    "W09": "//text[parent::description]",
    "W10": "//item[mailbox/mail]/following-sibling::item",
    "W11": "//listitem//keyword",
    "W12": "/site//keyword",
    "W13": "/site/regions/*/item[mailbox/mail/date]/mailbox/mail",
}

#: Q01-Q15 + XPathMark A1-A8: the paper's forward mix.
QA_MIX: Dict[str, str] = {**QUERIES, **XPATHMARK_A}

#: The 36-query mix of ``warm-eval``.
WARM_EVAL_MIX: Dict[str, str] = {**QA_MIX, **W_QUERIES}

#: The warm set of ``serve-adhoc``: the Q+A mix plus a large-result
#: query (every keyword of the document).
SERVE_WARM_MIX: Dict[str, str] = {**QA_MIX, "K01": "//keyword"}

#: Predicate nesting depth of the over-deep probe.  The query does not
#: depend on the seed, so every run sends the same probe.
PROBE_DEPTH = 200


def probe_query(depth: int = PROBE_DEPTH) -> str:
    """``//keyword[emph[emph[...]]]`` nested ``depth`` predicates deep."""
    return "//keyword" + "[emph" * depth + "]" * depth


def xmark_xml(scale: float, seed: int) -> str:
    """One XMark document as XML text."""
    return XMarkGenerator(scale, seed=seed).xml()


def doc_seed(seed: int, salt: int) -> int:
    """A per-document generator seed derived from the run seed."""
    return random.Random(seed * 1_000_003 + salt).randrange(1, 2**31)


def warm_eval_corpus(seed: int, docs: int, scale: float) -> Dict[str, str]:
    """Same-size XMark documents from distinct seeds: ``{name: xml}``."""
    return {
        f"d{i}": xmark_xml(scale, doc_seed(seed, i)) for i in range(docs)
    }


def churn_corpus(
    seed: int, docs: int, scale: float
) -> Dict[str, Tuple[str, str]]:
    """Two pre-generated versions of each document: ``{name: (v0, v1)}``."""
    return {
        f"c{i}": (
            xmark_xml(scale, doc_seed(seed, 100 + 2 * i)),
            xmark_xml(scale, doc_seed(seed, 101 + 2 * i)),
        )
        for i in range(docs)
    }


# -- the first-seen query stream ----------------------------------------------


def label_relations(tree) -> Tuple[Set[Tuple[str, str]], Set[Tuple[str, str]]]:
    """(parent, child) and (ancestor, descendant) label pairs of ``tree``.

    Templates are filled from relations that occur in the document, so
    most generated queries select something.
    """
    labels = [tree.label(v) for v in range(tree.n)]
    parent = [-1] * tree.n
    for v in range(tree.n):
        child = tree.left[v]
        while child != NIL:
            parent[child] = v
            child = tree.right[child]
    edges: Set[Tuple[str, str]] = set()
    anc: Set[Tuple[str, str]] = set()
    for v in range(tree.n):
        p = parent[v]
        if p >= 0:
            edges.add((labels[p], labels[v]))
        hops = 0
        while p >= 0 and hops < 6:
            anc.add((labels[p], labels[v]))
            p = parent[p]
            hops += 1
    return edges, anc


def _templates(rng, edges, anc, child_of, anc_of):
    """One random query from the template set (may repeat a string)."""
    a, b = rng.choice(edges)
    x, y = rng.choice(anc)
    c = rng.choice(child_of.get(b) or [b])
    cx = rng.choice(child_of.get(x) or [y])
    cy = rng.choice(child_of.get(y) or [b])
    sib = rng.choice(child_of[a])
    up = rng.choice(anc_of.get(a) or [x])
    return rng.choice(
        (
            f"//{a}[{b}]",
            f"//{x}//{y}[not({cy})]",
            f"//{a}/{b}[ancestor::{up}]",
            f"//{x}[.//{y} and {cx}]",
            f"//{y}/ancestor::{x}",
            f"//{b}/parent::{a}",
            f"//{a}[{b} or .//{y}]/{b}",
            f"//{b}/following-sibling::{sib}",
            f"//{b}[parent::{a}]/{c}",
            f"//{x}[not(.//{cy})]//{y}",
            f"/site//{a}/{b}[{c}]",
            f"//{y}[ancestor::{x}]/{cy}",
        )
    )


def first_seen_queries(
    seed: int, trees: Dict[str, object], count: int, exclude: Set[str]
) -> List[Tuple[str, str]]:
    """``count`` distinct ``(document, query)`` pairs over ``trees``.

    Query strings are distinct from each other and from ``exclude`` (the
    warm set), so each is new to the daemon when first sent.  Documents
    take turns in name order.
    """
    rng = random.Random(seed * 7919 + 17)
    rel = {}
    for name, tree in trees.items():
        edges, anc = label_relations(tree)
        child_of: Dict[str, List[str]] = {}
        for p, ch in sorted(edges):
            child_of.setdefault(p, []).append(ch)
        anc_of: Dict[str, List[str]] = {}
        for up, down in sorted(anc):
            anc_of.setdefault(down, []).append(up)
        rel[name] = (sorted(edges), sorted(anc), child_of, anc_of)
    names = sorted(trees)
    seen = set(exclude)
    out: List[Tuple[str, str]] = []
    while len(out) < count:
        name = names[len(out) % len(names)]
        query = _templates(rng, *rel[name])
        if query in seen:
            continue
        seen.add(query)
        out.append((name, query))
    return out
