"""Concept graph: named concepts, weighted is-a links, context overlays.

The store is the concept layer's one copy: knowledge forms write it and the
sampler reads it; knowledge forms are refused inside queries and templates,
so it never changes under a sampler.  Sampling reads two caches, each built
lazily as a pure function of the store's state: the active context's (link,
effective weight) rows, and the sampler's compiled templates, which stay
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

    __slots__ = ("link_id", "source", "target", "weight")

    def __init__(self, link_id, source, target, weight):
        self.link_id = link_id
        self.source = source   # SExpr template or ConceptId
        self.target = target
        self.weight = weight


def _weight(weight, what, loc):
    """`weight` as a real, if it is a positive number that a real can hold."""
    if isinstance(weight, bool) or not isinstance(weight, (int, float)) or weight <= 0:
        raise ConceptError(f"{what} weight must be a positive number, got {weight!r}", loc)
    try:
        return float(weight)
    except OverflowError:
        raise ConceptError(f"{what} weight is too large for a real", loc) from None


def _describe_source(source):
    if isinstance(source, ConceptId):
        return source.name
    return print_expr(source)


class ConceptStore:
    def __init__(self):
        self._concepts = {}           # name -> ConceptId, insertion ordered
        self._by_target = {}          # ConceptId -> [IsALink], insertion ordered
        self._contexts = {"default": {}}  # name -> {link_id: weight}
        self._active = "default"
        self._next_link = 0
        self._rows = None             # of the active context, until a change
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
        weight = _weight(weight, "is-a", loc)
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
        link = IsALink(self._next_link, source, target, weight)
        self._rows = None
        self._next_link += 1
        self._by_target[target].append(link)
        return link.link_id

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

    def find_link(self, source, target):
        for link in self._by_target.get(target, ()):
            if link.source == source:
                return link
        return None

    # -- contexts ----------------------------------------------------------

    def define_context(self, name, overrides, loc=None):
        """Create a named overlay mapping link ids to replacement weights."""
        if name in self._contexts:
            raise ConceptError(f"context '{name}' is already defined", loc)
        table = {}
        valid = {l.link_id for links in self._by_target.values() for l in links}
        for link_id, weight in overrides.items():
            if link_id not in valid:
                raise ConceptError(f"unknown link id {link_id} in context '{name}'", loc)
            table[link_id] = _weight(weight, "context", loc)
        self._contexts[name] = table

    def set_context(self, name, loc=None):
        if name not in self._contexts:
            raise ConceptError(f"unknown context '{name}'", loc)
        self._rows = None
        self._active = name

    # -- reads -------------------------------------------------------------

    def instances(self, concept):
        """The (link, effective weight) rows of the ConceptId `concept` in the
        active context.  They are found by its name, whose hash is cached:
        the sampler asks on every expansion."""
        rows = self._rows
        if rows is None:
            overlay = self._contexts[self._active]
            rows = self._rows = {
                cid.name: (cid, tuple((link, overlay.get(link.link_id, link.weight))
                                      for link in links))
                for cid, links in self._by_target.items()
            }
        entry = rows.get(concept.name)
        if entry is None or (entry[0] is not concept and entry[0] != concept):
            raise ConceptError(f"unknown concept '{concept.name}'")
        return entry[1]
