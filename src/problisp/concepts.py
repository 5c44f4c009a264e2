"""Concept graph: named concepts and weighted is-a links.

The store is the concept layer's one copy: knowledge forms write it and the
sampler reads it; knowledge forms are refused inside queries and templates,
so it never changes under a sampler.  It keeps each concept's links in one
list, at the concept's index, in the order they were added.  Each expression
link also holds the sampler's compiled template, until a `concept` form
declares a name, the one change that alters a template's code.
"""

from __future__ import annotations

from .errors import ConceptError
from .sexpr import SExpr, _Record, print_expr


class ConceptId(_Record):
    """Opaque handle for a declared concept; names are unique per store."""

    __slots__ = _fields = ("name", "index")

    def __init__(self, name, index):
        self.name, self.index = name, index


class IsALink:
    """One weighted is-a link, kept in its target's list; equal only to
    itself.  `template` is the sampler's, None until it compiles one."""

    __slots__ = ("source", "weight", "template")

    def __init__(self, source, weight):
        self.source = source   # SExpr template or ConceptId
        self.weight = weight
        self.template = None


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
        self._links = []              # ConceptId.index -> [IsALink], insertion ordered

    # -- concepts ----------------------------------------------------------

    def declare_concept(self, name, loc=None):
        if name in self._concepts:
            raise ConceptError(f"concept '{name}' is already declared", loc)
        cid = ConceptId(name, len(self._concepts))
        for links in self._links:
            for link in links:
                link.template = None
        self._concepts[name] = cid
        self._links.append([])
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
        if not isinstance(target, ConceptId):
            raise ConceptError(f"unknown concept '{target}'", loc)
        links = self.links(target, loc)
        weight = _weight(weight, loc)
        for link in links:
            if link.source == source:
                raise ConceptError(
                    f"duplicate is-a link {_describe_source(source)} -> {target.name}", loc)
        if isinstance(source, ConceptId):
            self.links(source, loc)
            if self._is_a(target, source):
                raise ConceptError(
                    f"is-a link {source.name} -> {target.name} would create a concept cycle",
                    loc)
        elif not isinstance(source, SExpr):
            raise ConceptError(f"is-a source must be an expression or concept, got {source!r}", loc)
        link = IsALink(source, weight)
        links.append(link)
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
                stack.extend(link.source for link in self._links[node.index]
                             if isinstance(link.source, ConceptId))
        return False

    # -- reads -------------------------------------------------------------

    def links(self, concept, loc=None):
        """The IsALinks into the ConceptId `concept`, in the order they were
        added: the store's own list, for reading only.  A handle equal to
        the one this store made is accepted."""
        cid = self._concepts.get(concept.name)
        if cid is not concept and cid != concept:
            raise ConceptError(f"unknown concept '{concept.name}'", loc)
        return self._links[cid.index]
