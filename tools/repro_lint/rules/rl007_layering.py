"""RL007: the serving layers never import the simulation or bench packages.

DESIGN.md's layering rule is that dependencies point downward only.
The packages that answer queries -- ``repro.api``, ``repro.server``,
``repro.shard``, ``repro.parallel``, ``repro.pipeline`` and the query
pipeline ``repro.core.query`` -- sit above the algorithm layers and
must not reach sideways into ``repro.gpu`` (the simulated CUDA
substrate), ``repro.bench`` (the paper-table harness) or
``repro.baselines`` (the comparison tools).  A runtime import there
would drag a simulation into the production query path, which is how
the simulated multi-GPU ring once ended up inside ``query_database``.

Every ``import``/``from ... import`` statement counts, including lazy
ones inside functions; only imports under ``if TYPE_CHECKING:`` are
exempt, since they never execute.  Relative imports are resolved
against the module's own package first.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.repro_lint.core import Finding, Module, dotted_name, enclosing_symbol
from tools.repro_lint.registry import register

SERVING_SCOPES = (
    "src/repro/api/",
    "src/repro/server/",
    "src/repro/shard/",
    "src/repro/parallel/",
    "src/repro/pipeline/",
    "src/repro/core/query.py",
)

FORBIDDEN = ("repro.gpu", "repro.bench", "repro.baselines")


def _is_type_checking(test: ast.expr) -> bool:
    return dotted_name(test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def _package_of(relpath: str) -> list[str]:
    """Dotted package path of a ``src/...`` module, for relative imports."""
    parts = relpath.removeprefix("src/").removesuffix(".py").split("/")
    return parts if parts[-1] == "__init__" else parts[:-1]


def _imported_modules(node: ast.Import | ast.ImportFrom, package: list[str]) -> list[str]:
    """Every dotted module name an import statement may load."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    if node.level:
        anchor = package[: len(package) - (node.level - 1)]
        base = ".".join([*anchor, base] if base else anchor)
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


def _forbidden(name: str) -> str | None:
    for target in FORBIDDEN:
        if name == target or name.startswith(target + "."):
            return target
    return None


@register
class Layering:
    """Flag runtime imports of repro.gpu/bench/baselines in serving layers."""

    rule_id = "RL007"
    name = "layering"
    rationale = (
        "DESIGN.md: dependencies point downward only; the serving layers and "
        "the query pipeline must not depend on the GPU simulation, the bench "
        "harness or the baselines."
    )

    def applies(self, module: Module) -> bool:
        """Only the serving layers and the query pipeline are in scope."""
        return module.relpath.startswith(SERVING_SCOPES)

    def check(self, module: Module) -> Iterator[Finding]:
        """Walk the tree, skipping ``if TYPE_CHECKING:`` bodies."""
        package = _package_of(module.relpath)
        yield from self._visit(module, module.tree, package)

    def _visit(self, module: Module, node: ast.AST, package: list[str]) -> Iterator[Finding]:
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            children: list[ast.AST] = list(node.orelse)
        else:
            children = list(ast.iter_child_nodes(node))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in _imported_modules(node, package):
                target = _forbidden(name)
                if target is None:
                    continue
                yield Finding(
                    rule=self.rule_id,
                    path=module.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"runtime import of {target} from a serving layer; "
                        "depend on a lower layer, or import under "
                        "`if TYPE_CHECKING:` if only annotations need it"
                    ),
                    symbol=enclosing_symbol(module.tree, node.lineno),
                )
                break
        for child in children:
            yield from self._visit(module, child, package)
