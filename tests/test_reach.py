"""`src/` holds what a CLI command, `verify` or a paper check reaches."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qmsflow"

# the README's paper checks, which no src/ code calls, and the wire-format
# writer of a state, which the benchmark harness and the tests use
UNREACHED_BY_DESIGN = {
    "lsi_check",
    "talagrand_check",
    "riemannian_gradient_flow_check",
    "metric_monotonicity_check",
    "skew_derivations_infinite",
    "density_to_json",
}


def unreached_definitions(package: Path) -> set:
    """Module-level functions and classes of ``package`` (without
    ``__init__.py``) whose name no code there uses, as a name or an
    attribute, outside their own definition."""
    defined, used = {}, []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[top.name] = top
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    used.append((node.id, top))
                elif isinstance(node, ast.Attribute):
                    used.append((node.attr, top))
    return {name for name, node in defined.items() if not any(n == name and top is not node for n, top in used)}


def test_src_holds_what_is_reached():
    unreached = unreached_definitions(SRC)
    assert unreached <= UNREACHED_BY_DESIGN, sorted(unreached - UNREACHED_BY_DESIGN)

