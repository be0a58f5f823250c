"""The claim vocabulary and the certificate that records each claim.

A certificate holds the SHA-256 digest of each input text, the facts a
run established, and each claim it checked, citing an invariant of
``CLAIM_INVARIANTS`` by id, with a witness or a counterexample.
"""

import json
import time

# hashlib's own fallback, the interpreter's built-in SHA-256: importing
# hashlib loads OpenSSL's libcrypto, megabytes of memory for one digest
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256  # a build without the built-in hashes

# Each certificate claim cites one of these invariants by id; the text is
# the statement the claim checks.  Subcommands may only emit ids from here.
CLAIM_INVARIANTS = {
    "orbit-stabilizer": "orbit size times stabilizer order equals the group order at every point",
    "orbit-partition": "orbits are pairwise equal or disjoint and cover the domain",
    "enumeration-determinism": (
        "the listing of G has |G| entries, the identity first and each image tuple"
        " less than the next, so it is the one sorted order of G"
    ),
    "lattice-isomorphism": "subgroup containment matches block containment in both directions",
    "block-closure": "every generator image of a block is a block of the same system",
    "fiber-evaluation": "the setwise stabilizer of a block is transitive on the block",
    "symmetric-action": "the group acts as automorphisms, vertex and locally transitively",
    "symmetric-iff-arc-transitive": "symmetric and arc-transitive agree when no vertex is isolated",
    "valency-law": "vertex degree equals |H| / |a^-1Ha n H| at every vertex",
    "arc-stabilizer-law": (
        "the stabilizer of the base arc and a^-1Ha n H have equal orders"
        " and each contains the other's generators"
    ),
    "rank-consistency": "the orbital count equals the point stabilizer's orbit count",
    "quotient-symmetry": "the induced action on the quotient passes the full symmetric report",
    "fiber-transitivity": "the regular normal subgroup is transitive on the quotient vertices",
    "design-double-count": "v times lambda equals b times k",
    "quotient-homomorphism": (
        "the block map intertwines the two actions at every element and vertex;"
        " in an extension it collapses the arcs onto the base arcs"
    ),
    "cover-arithmetic": "cover vertex counts and valencies multiply out exactly",
    "graph-design-parameters": "the neighbourhood design has v = b and k = lambda = valency",
    "polarity-commutation": "the polarity commutes with every group element",
    "design-round-trip": "rebuilding the graph from its design data returns an isomorphic graph",
    "flag-transitivity-propagates": "flag transitivity forces point and block transitivity",
    "biggs-action-law": (
        "the generators of N x G paired with their cover rows generate a group of the"
        " same order as N x G, so acting by a product equals acting by its factors in order"
    ),
    "biggs-valency-preservation": "the cover valency equals the base valency",
    "biggs-fiber-matching": "every adjacent fibre pair induces a perfect matching",
    "three-arc-identification": "vertices are the base arcs and the initial-vertex quotient is the base",
    "chain-determinacy": "one seed per arc orbit determines the whole chain",
    "subgraph-graph-transitivity": "the action on subgraph images is vertex and arc transitive",
    "extension-counting": "vertices scale by r, valency divides by r, edge count is preserved",
}


class Certificate:
    """Accumulates inputs, facts, and claims for one invocation."""

    def __init__(self, construction: str):
        self.construction = construction
        self.inputs: dict = {}
        self.facts: dict = {}
        self.claims: list = []
        self._start = time.perf_counter()

    def add_input(self, name: str, text: str) -> None:
        digest = sha256(text.encode("utf-8")).hexdigest()
        self.inputs[name] = f"sha256:{digest}"

    def claim(self, cid: str, passed: bool, detail) -> None:
        if cid not in CLAIM_INVARIANTS:
            raise AssertionError(f"unknown claim id {cid}")
        entry = {"id": cid, "pass": bool(passed)}
        if passed:
            entry["witness"] = detail
        else:
            entry["counterexample"] = detail
        self.claims.append(entry)

    @property
    def ok(self) -> bool:
        return all(c["pass"] for c in self.claims)

    def render(self) -> str:
        doc = {
            "construction": self.construction,
            "inputs": self.inputs,
            "facts": self.facts,
            "claims": self.claims,
            "ok": self.ok,
            "timing_ms": round((time.perf_counter() - self._start) * 1000.0, 3),
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
