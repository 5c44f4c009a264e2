"""Concept graph: named concepts, weighted is-a links, context overlays.

Mutation is single-writer and session-level; sampling reads an immutable
snapshot, so any number of concurrent samplers can share one snapshot.  The
store hands out the same snapshot of its active context until the next
change to its concepts, links or contexts, so the templates compiled for
that snapshot serve every form in between.
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


def _describe_source(source):
    if isinstance(source, ConceptId):
        return source.name
    return print_expr(source)


class ConceptStore:
    def __init__(self):
        self._concepts = {}           # name -> ConceptId, insertion ordered
        self._by_target = {}          # ConceptId -> [IsALink], insertion ordered
        self._edges = {}              # concept-to-concept source -> {targets}
        self._contexts = {"default": {}}  # name -> {link_id: weight}
        self._active = "default"
        self._next_link = 0
        self._snapshot = None         # of the active context, until a change

    # -- concepts ----------------------------------------------------------

    def declare_concept(self, name, loc=None):
        if name in self._concepts:
            raise ConceptError(f"concept '{name}' is already declared", loc)
        cid = ConceptId(name, len(self._concepts))
        self._snapshot = None
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
        if isinstance(weight, bool) or not isinstance(weight, (int, float)) or weight <= 0:
            raise ConceptError(f"is-a weight must be a positive number, got {weight!r}", loc)
        for link in self._by_target[target]:
            if link.source == source:
                raise ConceptError(
                    f"duplicate is-a link {_describe_source(source)} -> {target.name}", loc)
        if isinstance(source, ConceptId):
            if source not in self._by_target:
                raise ConceptError(f"unknown concept '{source.name}'", loc)
            if source == target or self._reaches(target, source):
                raise ConceptError(
                    f"is-a link {source.name} -> {target.name} would create a concept cycle",
                    loc)
            self._edges.setdefault(source, set()).add(target)
        elif not isinstance(source, SExpr):
            raise ConceptError(f"is-a source must be an expression or concept, got {source!r}", loc)
        link = IsALink(self._next_link, source, target, float(weight))
        self._snapshot = None
        self._next_link += 1
        self._by_target[target].append(link)
        return link.link_id

    def _reaches(self, start, goal):
        seen = set()
        stack = [start]
        while stack:
            node = stack.pop()
            if node == goal:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self._edges.get(node, ()))
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
            if isinstance(weight, bool) or not isinstance(weight, (int, float)) or weight <= 0:
                raise ConceptError(
                    f"context weight must be a positive number, got {weight!r}", loc)
            table[link_id] = float(weight)
        self._snapshot = None
        self._contexts[name] = table

    def set_context(self, name, loc=None):
        if name not in self._contexts:
            raise ConceptError(f"unknown context '{name}'", loc)
        self._snapshot = None
        self._active = name

    @property
    def active_context(self):
        return self._active

    # -- reads -------------------------------------------------------------

    def snapshot(self, context=None):
        """The store under `context`, or under the active context; the active
        context's snapshot is built once per change to the store."""
        name = self._active if context is None else context
        if name == self._active and self._snapshot is not None:
            return self._snapshot
        if name not in self._contexts:
            raise ConceptError(f"unknown context '{name}'")
        overlay = self._contexts[name]
        instances = {
            cid.name: (cid, tuple((link, overlay.get(link.link_id, link.weight))
                                  for link in links))
            for cid, links in self._by_target.items()
        }
        snap = StoreSnapshot(dict(self._concepts), instances, name)
        if name == self._active:
            self._snapshot = snap
        return snap


class StoreSnapshot:
    """Immutable view of a store under one context; safe to share.
    `templates` caches the sampler's compiled expression templates."""

    __slots__ = ("_concepts", "_instances", "context", "templates")

    def __init__(self, concepts, instances, context):
        self._concepts = concepts
        self._instances = instances
        self.context = context
        self.templates = {}

    def concept(self, name):
        return self._concepts.get(name)

    def concept_names(self):
        return list(self._concepts)

    def instances(self, concept):
        """The (link, weight) rows of the ConceptId `concept`.  They are found
        by its name, whose hash is cached: the sampler asks on every expansion."""
        entry = self._instances.get(concept.name)
        if entry is None or (entry[0] is not concept and entry[0] != concept):
            raise ConceptError(f"unknown concept '{concept.name}'")
        return entry[1]
