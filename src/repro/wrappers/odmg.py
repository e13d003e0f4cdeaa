"""ODMG ↔ YAT wrapper (the object database of Figure 1).

An object imports as the class pattern shape of Figure 2::

    class -> car < -> name -> "Golf",
                    -> desc -> "nice",
                    -> suppliers -> set < &s1, &s2 > >

named by its OID; references become YAT references, so cyclic object
graphs import faithfully. Every imported tree follows its class's
declared types, so the import tags its store with the ODMG model
(:attr:`DataStore.model`). Export walks trees of that shape back into a
validated :class:`ObjectStore` (deferring reference checks until the
whole store is loaded).
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from ..core.labels import Symbol, is_atom
from ..core.models import odmg_model
from ..core.trees import DataStore, Ref, Tree
from ..errors import WrapperError
from ..objectdb.schema import ObjectSchema
from ..objectdb.store import ObjectInstance, ObjectStore, Oid
from ..obs import record, span, stamp_fingerprint, stamp_inputs
from ..objectdb.types import (
    AtomicType,
    CollectionType,
    OType,
    RefType,
    TupleType,
)
from .base import ExportWrapper, ImportWrapper

CLASS = Symbol("class")
TUPLE = Symbol("tuple")


class OdmgImportWrapper(ImportWrapper[ObjectStore]):
    """ObjectStore → DataStore."""

    def to_store(self, source: ObjectStore) -> DataStore:
        store = DataStore()
        with span("wrapper.import", source="odmg"):
            for instance in source:
                store.add(instance.oid.value, self.object_to_tree(source, instance))
        # Each tree is `class -> Class < Att -> value >` and each value
        # was built by value_to_tree from its declared type: an instance
        # of the ODMG model's Pclass.
        store.model = odmg_model()
        record("wrapper.import.trees", len(store), source="odmg")
        stamp_inputs(store, "odmg")
        stamp_fingerprint(store, "odmg")
        return store

    def object_to_tree(self, source: ObjectStore, instance: ObjectInstance) -> Tree:
        cls = source.schema.cls(instance.class_name)
        attributes = []
        for name, otype in cls.attributes:
            value = instance.values[name]
            attributes.append(Tree(Symbol(name), (self.value_to_tree(value, otype),)))
        body = Tree(Symbol(instance.class_name), attributes)
        return Tree(CLASS, (body,))

    def value_to_tree(self, value: object, otype: OType) -> Union[Tree, Ref]:
        if isinstance(otype, AtomicType):
            if not is_atom(value):
                raise WrapperError(f"non-atomic value {value!r} for {otype.render()}")
            return Tree(value)  # type: ignore[arg-type]
        if isinstance(otype, CollectionType):
            children = [self.value_to_tree(item, otype.element) for item in value]  # type: ignore[union-attr]
            return Tree(Symbol(otype.kind), children)
        if isinstance(otype, TupleType):
            fields = [
                Tree(Symbol(name), (self.value_to_tree(value[name], field_type),))  # type: ignore[index]
                for name, field_type in otype.fields
            ]
            return Tree(TUPLE, fields)
        if isinstance(otype, RefType):
            if not isinstance(value, Oid):
                raise WrapperError(f"expected an Oid for {otype.render()}: {value!r}")
            return Ref(value.value)
        raise WrapperError(f"unknown type {otype!r}")  # pragma: no cover


class OdmgExportWrapper(ExportWrapper[ObjectStore]):
    """DataStore → ObjectStore under a schema.

    Store names become OIDs; the class name selects the class; values
    are decoded following the declared attribute types, so the export
    doubles as a schema check on the conversion output (the paper's
    "verify the coherence of the conversions").
    """

    def __init__(self, schema: ObjectSchema) -> None:
        self.schema = schema

    def from_store(self, store: DataStore) -> ObjectStore:
        objects = ObjectStore(self.schema)
        exported = 0
        with span("wrapper.export", source="odmg", trees=len(store)):
            for name, node in store:
                class_name = _class_name_of(node)
                if class_name is None or class_name not in self.schema:
                    continue  # not an object tree of this schema (e.g. helper data)
                values = self._decode_object(node, class_name)
                objects.create(
                    class_name, values, oid=Oid(name), defer_ref_check=True
                )
                exported += 1
            objects.check_references()
        record("wrapper.export.objects", exported, source="odmg")
        return objects

    def _decode_object(self, node: Tree, class_name: str) -> Dict[str, object]:
        cls = self.schema.cls(class_name)
        body = node.children[0]
        assert isinstance(body, Tree)
        values: Dict[str, object] = {}
        for attribute in body.children:
            if not isinstance(attribute, Tree) or not isinstance(
                attribute.label, Symbol
            ):
                raise WrapperError(
                    f"class {class_name!r}: malformed attribute {attribute!r}"
                )
            if len(attribute.children) != 1:
                raise WrapperError(
                    f"class {class_name!r}: attribute {attribute.label} must "
                    f"hold exactly one value"
                )
            name = attribute.label.name
            otype = cls.attribute_type(name)
            values[name] = self._decode_value(attribute.children[0], otype, name)
        return values

    def _decode_value(self, node: Union[Tree, Ref], otype: OType, path: str) -> object:
        if isinstance(otype, AtomicType):
            if isinstance(node, Ref) or node.children or not is_atom(node.label):
                raise WrapperError(f"{path}: expected an atomic value")
            value = node.label
            if otype.name == "string" and not isinstance(value, str):
                value = str(value)
            return value
        if isinstance(otype, CollectionType):
            if isinstance(node, Ref) or not isinstance(node.label, Symbol) or (
                node.label.name not in CollectionType.KINDS
            ):
                raise WrapperError(f"{path}: expected a {otype.kind} collection")
            return [
                self._decode_value(child, otype.element, f"{path}[{i}]")
                for i, child in enumerate(node.children)
            ]
        if isinstance(otype, TupleType):
            if isinstance(node, Ref) or node.label != TUPLE:
                raise WrapperError(f"{path}: expected a tuple")
            decoded = {}
            for field in node.children:
                if not isinstance(field, Tree) or not isinstance(field.label, Symbol):
                    raise WrapperError(f"{path}: malformed tuple field")
                decoded[field.label.name] = self._decode_value(
                    field.children[0], otype.field(field.label.name), f"{path}.{field.label}"
                )
            return decoded
        if isinstance(otype, RefType):
            if not isinstance(node, Ref):
                raise WrapperError(f"{path}: expected a reference")
            return Oid(node.target)
        raise WrapperError(f"unknown type {otype!r}")  # pragma: no cover


def _class_name_of(node: Tree) -> Optional[str]:
    if (
        node.label == CLASS
        and len(node.children) == 1
        and isinstance(node.children[0], Tree)
        and isinstance(node.children[0].label, Symbol)
    ):
        return node.children[0].label.name
    return None
