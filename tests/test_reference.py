"""The oracles in ``reference.py`` stand apart from the package kernels they check."""

import ast
import os

# package names that reference.py is the oracle for, or whose answers its oracles check
ORACLES = {"scan_matches", "is_balanced", "prefix_sums", "tv_distance", "match_rows",
           "enumerate_bal"}


def test_reference_imports_none_of_the_kernels_it_is_the_oracle_for():
    path = os.path.join(os.path.dirname(__file__), "reference.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    imported = {alias.name.rsplit(".", 1)[-1] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    reached = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not ORACLES & imported, sorted(ORACLES & imported)
    assert not ORACLES & reached, sorted(ORACLES & reached)
    # the oracles are its own functions
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert ORACLES - {"match_rows"} <= defined
