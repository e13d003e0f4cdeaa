"""Relational ↔ YAT wrapper (Section 3.2).

A table imports as one tree named after the table::

    suppliers *-> row < -> sid -> 1, -> name -> "VW center", ... >

which instantiates the ``Ptable`` pattern of
:func:`repro.core.models.relational_model`. Export rebuilds tables from
trees of that shape.
"""

from __future__ import annotations

from ..core.labels import Symbol, is_atom
from ..core.trees import DataStore, Tree
from ..errors import WrapperError
from ..obs import record, span, stamp_fingerprint, stamp_inputs
from ..relational.database import Database
from ..relational.schema import DatabaseSchema
from ..relational.table import Table
from .base import ExportWrapper, ImportWrapper

ROW = Symbol("row")


class RelationalImportWrapper(ImportWrapper[Database]):
    """Database → DataStore: one tree per table, rows in insertion
    order, nulls dropped (a missing column node)."""

    def to_store(self, source: Database) -> DataStore:
        store = DataStore()
        rows = 0
        with span("wrapper.import", source="relational"):
            for name, table in source:
                tree = table_to_tree(table)
                rows += len(tree.children)
                store.add(name, tree)
        record("wrapper.import.trees", len(store), source="relational")
        record("wrapper.import.rows", rows, source="relational")
        stamp_inputs(store, "relational")
        stamp_fingerprint(store, "relational")
        return store


def table_to_tree(table: Table) -> Tree:
    names = table.schema.column_names()
    rows = []
    for row in table.rows():
        cells = [
            Tree(Symbol(column), (Tree(value),))
            for column, value in zip(names, row)
            if value is not None
        ]
        rows.append(Tree(ROW, cells))
    return Tree(Symbol(table.schema.name), rows)


class RelationalExportWrapper(ExportWrapper[Database]):
    """DataStore → Database: trees must follow the table shape and the
    given schema; values are type-checked on insertion."""

    def __init__(self, schema: DatabaseSchema) -> None:
        self.schema = schema

    def from_store(self, store: DataStore) -> Database:
        database = Database(self.schema)
        rows = 0
        with span("wrapper.export", source="relational", trees=len(store)):
            for _, node in store:
                if not isinstance(node.label, Symbol):
                    raise WrapperError(
                        f"table tree label must be a symbol: {node.label!r}"
                    )
                table_name = node.label.name
                if table_name not in self.schema:
                    raise WrapperError(f"schema has no table {table_name!r}")
                table = database.table(table_name)
                for row_node in node.children:
                    table.insert_dict(_row_values(row_node, table_name))
                    rows += 1
        record("wrapper.export.trees", len(store), source="relational")
        record("wrapper.export.rows", rows, source="relational")
        return database


def _row_values(row_node, table_name: str) -> dict:
    if not isinstance(row_node, Tree) or row_node.label != ROW:
        raise WrapperError(f"table {table_name!r}: expected a row node, got {row_node!r}")
    values = {}
    for cell in row_node.children:
        if not isinstance(cell, Tree) or not isinstance(cell.label, Symbol):
            raise WrapperError(f"table {table_name!r}: malformed cell {cell!r}")
        if len(cell.children) != 1 or not isinstance(cell.children[0], Tree):
            raise WrapperError(
                f"table {table_name!r}: cell {cell.label} must hold one atom"
            )
        value = cell.children[0].label
        if not is_atom(value):
            raise WrapperError(
                f"table {table_name!r}: cell {cell.label} holds a non-atomic value"
            )
        values[cell.label.name] = value
    return values
