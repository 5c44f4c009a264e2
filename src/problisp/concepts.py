"""Concept graph: named concepts and weighted is-a links.

The store is the concept layer's one copy: knowledge forms write it and the
sampler reads it; knowledge forms are refused inside queries and templates,
so it never changes under a sampler.  Sampling reads two caches, each built
lazily as a pure function of the store's state: each concept's (link,
weight) rows, and the sampler's compiled templates, which stay
until a `concept` form declares a name, the one change that alters a
template's code.  A change drops a cache by replacing its whole dict.
"""

from __future__ import annotations

from .errors import ConceptError
from .sexpr import SExpr, _Record, print_expr


class ConceptId(_Record):
    """Opaque handle for a declared concept; names are unique per store.
    Equal handles have equal indices, so the index alone is the hash."""

    __slots__ = _fields = ("name", "index")

    def __init__(self, name, index):
        self.name, self.index = name, index

    def __hash__(self):
        return self.index


class IsALink:
    """One weighted is-a link; equal only to itself."""

    __slots__ = ("source", "target", "weight")

    def __init__(self, source, target, weight):
        self.source = source   # SExpr template or ConceptId
        self.target = target
        self.weight = weight


def _weight(weight, loc):
    """`weight` as a real, if it is a positive number that a real can hold."""
    if isinstance(weight, bool) or not isinstance(weight, (int, float)) or weight <= 0:
        raise ConceptError(f"is-a weight must be a positive number, got {weight!r}", loc)
    try:
        return float(weight)
    except OverflowError:
        raise ConceptError("is-a weight is too large for a real", loc) from None


def _describe_source(source):
    if isinstance(source, ConceptId):
        return source.name
    return print_expr(source)


class ConceptStore:
    def __init__(self):
        self._concepts = {}           # name -> ConceptId, insertion ordered
        self._by_target = {}          # ConceptId -> [IsALink], insertion ordered
        self._rows = None             # name -> (ConceptId, rows), until a change
        self.templates = {}           # the sampler's, until a concept is declared

    # -- concepts ----------------------------------------------------------

    def declare_concept(self, name, loc=None):
        if name in self._concepts:
            raise ConceptError(f"concept '{name}' is already declared", loc)
        cid = ConceptId(name, len(self._concepts))
        self._rows = None
        self.templates = {}
        self._concepts[name] = cid
        self._by_target[cid] = []
        return cid

    def lookup(self, name):
        return self._concepts.get(name)

    def require(self, name, loc=None):
        cid = self._concepts.get(name)
        if cid is None:
            raise ConceptError(f"unknown concept '{name}'", loc)
        return cid

    def concept_names(self):
        return list(self._concepts)

    # -- links -------------------------------------------------------------

    def add_isa(self, source, target, weight=1.0, loc=None):
        """Register `source is-a target`.  Concept-to-concept cycles are
        rejected; expression sources may reference any declared concept,
        including the target itself."""
        if target not in self._by_target:
            raise ConceptError(f"unknown concept '{getattr(target, 'name', target)}'", loc)
        weight = _weight(weight, loc)
        for link in self._by_target[target]:
            if link.source == source:
                raise ConceptError(
                    f"duplicate is-a link {_describe_source(source)} -> {target.name}", loc)
        if isinstance(source, ConceptId):
            if source not in self._by_target:
                raise ConceptError(f"unknown concept '{source.name}'", loc)
            if self._is_a(target, source):
                raise ConceptError(
                    f"is-a link {source.name} -> {target.name} would create a concept cycle",
                    loc)
        elif not isinstance(source, SExpr):
            raise ConceptError(f"is-a source must be an expression or concept, got {source!r}", loc)
        link = IsALink(source, target, weight)
        self._rows = None
        self._by_target[target].append(link)
        return link

    def _is_a(self, concept, ancestor):
        """Whether `concept` is `ancestor` or concept-to-concept links lead
        up from it to `ancestor`: the walk goes down from `ancestor`."""
        seen = set()
        stack = [ancestor]
        while stack:
            node = stack.pop()
            if node == concept:
                return True
            if node not in seen:
                seen.add(node)
                stack.extend(link.source for link in self._by_target[node]
                             if isinstance(link.source, ConceptId))
        return False

    # -- reads -------------------------------------------------------------

    def instances(self, concept):
        """The (link, weight) rows of the ConceptId `concept`.  They are found
        by its name, whose hash is cached: the sampler asks on every
        expansion."""
        rows = self._rows
        if rows is None:
            rows = self._rows = {
                cid.name: (cid, tuple((link, link.weight) for link in links))
                for cid, links in self._by_target.items()
            }
        entry = rows.get(concept.name)
        if entry is None or (entry[0] is not concept and entry[0] != concept):
            raise ConceptError(f"unknown concept '{concept.name}'")
        return entry[1]
