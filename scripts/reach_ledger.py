#!/usr/bin/env python3
"""Count the source lines each kind of caller reaches in posefuse.

Every top-level definition in src/posefuse/ (function, class or assigned
name) is weighed by its non-blank lines, decorators and docstrings
included, and those whose name has no leading underscore are counted as
the package's public names. Reachability follows names, not types: a
bare name resolves to the definition it names in its module or to what
the module imported under it, and ``obj.attr`` reaches every definition
called ``attr``. The ledger reports the lines reached from
``cli.main``, then those the scripts in scripts/ add, then those the
benchmark in perfbench/ adds, and lists what is left, which only tests
reach or nothing does. Typical output:

    src/posefuse: 137 top-level definitions, 1631 non-blank lines
    public names                  87
    reached from cli.main       1214
    added by scripts/             76
    added by perfbench/          280
    tests only or nothing         61
      diffusion.SigmaDist 8
      ...

The figures are estimates (a method name reaches every definition of
that name), but they are deterministic for a given tree.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "posefuse"


def _span_lines(lines: list[str], node: ast.stmt) -> int:
    start = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", [])])
    return sum(1 for line in lines[start - 1:node.end_lineno] if line.strip())


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _imports(tree: ast.Module) -> dict[str, tuple]:
    """Local name -> (posefuse module, name) for every from-import."""
    found = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            source = node.module
        elif node.level == 0 and (node.module or "").startswith(PACKAGE + "."):
            source = node.module[len(PACKAGE) + 1:]
        else:
            continue
        for alias in node.names:
            found[alias.asname or alias.name] = (source, alias.name)
    return found


class Ledger:
    def __init__(self, src: Path):
        self.lines: dict[tuple[str, str], int] = {}
        self.nodes: dict[tuple[str, str], ast.stmt] = {}
        self.by_name: dict[str, set[tuple[str, str]]] = {}
        self.scope: dict[str, dict[str, tuple]] = {}
        for path in sorted(src.glob("*.py")):
            module = path.stem
            text = path.read_text(encoding="utf-8")
            tree, lines = ast.parse(text), text.splitlines()
            self.scope[module] = _imports(tree)
            for node in tree.body:
                for name in _defined_names(node):
                    key = (module, name)
                    self.lines[key] = _span_lines(lines, node)
                    self.nodes[key] = node
                    self.by_name.setdefault(name, set()).add(key)

    def _resolve(self, scope: dict, module: str | None, name: str) -> set:
        if module is not None and (module, name) in self.lines:
            return {(module, name)}
        if name in scope:
            source, original = scope[name]
            if (source, original) in self.lines:
                return {(source, original)}
        return set()

    def references(self, tree: ast.AST, module: str | None,
                   scope: dict) -> set:
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found |= self._resolve(scope, module, node.id)
            elif isinstance(node, ast.Attribute):
                found |= self.by_name.get(node.attr, set())
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    found |= self._resolve(scope, None,
                                           alias.asname or alias.name)
        return found

    def closure(self, seeds: set) -> set:
        reached, todo = set(), sorted(seeds)
        while todo:
            key = todo.pop()
            if key in reached:
                continue
            reached.add(key)
            module = key[0]
            todo.extend(sorted(self.references(self.nodes[key], module,
                                               self.scope[module])
                               - reached))
        return reached

    def reached_from_files(self, paths: list[Path]) -> set:
        seeds = set()
        for path in paths:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            seeds |= self.references(tree, None, _imports(tree))
        return self.closure(seeds)


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(
        argv)
    ledger = Ledger(ROOT / "src" / PACKAGE)
    total = sum(ledger.lines.values())
    cli = ledger.closure({("cli", "main")})
    scripts = ledger.reached_from_files(
        sorted((ROOT / "scripts").glob("*.py"))) - cli
    bench = ledger.reached_from_files(
        [p for p in sorted((ROOT / "perfbench").glob("*.py"))
         if not p.name.startswith("test_")]) - cli - scripts
    rest = sorted(set(ledger.lines) - cli - scripts - bench)

    def count(keys) -> int:
        return sum(ledger.lines[k] for k in keys)

    print(f"src/{PACKAGE}: {len(ledger.lines)} top-level definitions, "
          f"{total} non-blank lines")
    public = sum(1 for _module, name in ledger.lines
                 if not name.startswith("_"))
    print(f"{'public names':<24}{public:>8}")
    for label, keys in (("reached from cli.main", cli),
                        ("added by scripts/", scripts),
                        ("added by perfbench/", bench),
                        ("tests only or nothing", rest)):
        print(f"{label:<24}{count(keys):>8}")
    for module, name in rest:
        print(f"  {module}.{name} {ledger.lines[module, name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
