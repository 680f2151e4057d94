"""Every public name of the package is used by the package, or says why not.

A public module-level function or class that nothing in src/noisepad/
refers to is API that only tests call: it grows the source without
changing what the program does.  Such a name fails here unless it is on
the allowlist below, with its reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "noisepad"

ALLOWED = {
    # closed forms of the paper, checked by acceptance criterion 1
    "phys.overlap_probability": "paper closed form (criterion 1)",
    "phys.fidelity_exact": "paper closed form (criterion 1)",
    "phys.fidelity_approx": "paper closed form (criterion 1)",
    "phys.helstrom_error": "paper closed form (criterion 1)",
    "phys.legitimate_error": "paper closed form (criterion 1)",
    "analysis.min_leak_length": "paper closed form (criterion 1)",
    # the wire codec: acceptance criterion 8 and the frame fuzz tests
    "transport.frame_encode": "wire codec (criterion 8, fuzz tests)",
    "transport.frame_decode": "wire codec (criterion 8, fuzz tests)",
    # wrapped or called by perfbench/; they go with ROADMAP items 2 and 7
    "protocol.reconcile_receiver": "perfbench/tracer.py wraps it",
    "protocol.reconcile_sender": "perfbench/tracer.py wraps it",
    "transport.send_keyblock": "perfbench/tests calls it",
    "transport.unpack_keyblock": "perfbench/sessions.py calls it",
}


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                not node.name.startswith("_"):
            yield node


def _references(tree: ast.AST, skip: ast.AST | None = None):
    """Every name a tree loads, imports or reads as an attribute, outside `skip`."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        stack.extend(ast.iter_child_nodes(node))


def unreferenced_public_names() -> set:
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    unused = set()
    for module, tree in trees.items():
        for node in _public_definitions(tree):
            used = any(node.name in _references(other, skip=node)
                       for other in trees.values())
            if not used:
                unused.add(f"{module}.{node.name}")
    return unused


def test_every_public_name_is_used_by_the_package_or_allowed():
    assert unreferenced_public_names() - ALLOWED.keys() == set()


def test_the_allowlist_names_only_unused_names():
    # a name the package starts using leaves the allowlist
    assert ALLOWED.keys() <= unreferenced_public_names()
