"""Every public top-level name in src/zmcnoid has a caller or a stated reason.

A name counts as used when src/, scripts/ or perfbench/ (their tests aside)
refer to it through its own module: ``from .m import f``, an attribute chain
ending in ``m.f``, a bare ``f`` inside module m outside f's own body, or an
``"m.f"`` key of perfbench's TARGETS.  The rest must be listed as
``m.f`` in the README's "Public API" section, with the reason it stays.
Names are resolved to modules because a bare name match would let any local
variable of the same name stand in for a library function.

The public methods and properties of public classes are held to the same
rule: each must be read as ``.name`` in those folders, or be listed as
``m.C.name``.  Their owners' types are not resolved, so any read of the
attribute name counts.  Dataclass fields are data and stay out of scope.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "zmcnoid"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def public_names(tree):
    """Top-level defs, classes and assigned names not starting with '_'."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def public_members(tree):
    """"C.f" for the public methods and properties of top-level public classes."""
    return {f"{cls.name}.{node.name}" for cls in tree.body
            if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")}


def module_aliases(tree):
    """Local name -> zmcnoid module, from the imports of one file."""
    aliases = {m: m for m in MODULES}
    for node in ast.walk(tree):
        # from zmcnoid import m as a, or from . import m
        if isinstance(node, ast.ImportFrom) and node.module in ("zmcnoid", None):
            for alias in node.names:
                if alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
    return aliases


def chain_module(node, aliases):
    """The zmcnoid module an attribute's value names, if any."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute) and node.attr in MODULES:
        return node.attr
    return None


def references(tree, module=None):
    """(module, name) pairs one file refers to; module is the file's own, if any."""
    found = set()
    aliases = module_aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").split(".")[-1]
            if source in MODULES:
                found.update((source, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            owner = chain_module(node.value, aliases)
            if owner:
                found.add((owner, node.attr))
    if module is not None:
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                        and node.id != own:
                    found.add((module, node.id))
    return found


def target_keys():
    """The "m.f" keys of perfbench/layers.py TARGETS."""
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return {tuple(k.value.split(".")) for k in node.value.keys}
    raise AssertionError("perfbench/layers.py has no TARGETS")


def readme_public_api():
    """The ``m.f`` and ``m.C.f`` names listed in the README's Public API section."""
    text = (ROOT / "README.md").read_text()
    match = re.search(r"^## Public API\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    assert match, "README.md has no '## Public API' section"
    return set(re.findall(r"`(\w+)\.(\w+(?:\.\w+)?)`", match.group(1)))


def caller_files():
    """(module or None, tree) for src/zmcnoid, scripts/ and perfbench/, tests aside."""
    for path in PACKAGE.glob("*.py"):
        yield (path.stem if path.stem in MODULES else None), ast.parse(path.read_text())
    for folder in ("scripts", "perfbench"):
        for path in (ROOT / folder).glob("*.py"):
            if not path.name.startswith("test_"):
                yield None, ast.parse(path.read_text())


def used_names():
    used = target_keys()
    for module, tree in caller_files():
        used |= references(tree, module)
    return used


def read_attributes():
    """Every attribute name the caller files read."""
    return {node.attr for _, tree in caller_files() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def defined_names():
    return {(m, name) for m in MODULES
            for name in public_names(ast.parse((PACKAGE / f"{m}.py").read_text()))}


def defined_members():
    return {(m, member) for m in MODULES
            for member in public_members(ast.parse((PACKAGE / f"{m}.py").read_text()))}


def test_every_public_name_is_used_or_documented():
    unused = defined_names() - used_names() - readme_public_api()
    assert not unused, "no caller in src/, scripts/ or perfbench/, and not in README Public API: " \
        + ", ".join(sorted(f"{m}.{f}" for m, f in unused))


def test_every_public_member_is_read_or_documented():
    fields_and_private = ast.parse(
        "class C:\n    n: int\n    @property\n    def p(self): pass\n"
        "    def m(self): pass\n    def _h(self): pass\n"
        "class _D:\n    def m(self): pass\n")
    assert public_members(fields_and_private) == {"C.p", "C.m"}
    read = read_attributes()
    unread = {(m, member) for m, member in defined_members()
              if member.split(".")[1] not in read} - readme_public_api()
    assert not unread, "never read as .name in src/, scripts/ or perfbench/, and not in " \
        "README Public API: " + ", ".join(sorted(f"{m}.{f}" for m, f in unread))


def test_readme_public_api_names_exist():
    stale = readme_public_api() - defined_names() - defined_members()
    assert not stale, "README Public API lists names that src/zmcnoid does not define: " \
        + ", ".join(sorted(f"{m}.{f}" for m, f in stale))


def test_a_local_variable_does_not_stand_in_for_a_library_name():
    # perfbench's local `metrics` variables must not count for a module-level
    # function of that name, nor a bare name in one module for another's
    tree = ast.parse("from zmcnoid import meshio as mio\n"
                     "metrics = {}\n"
                     "def f():\n    return metrics, mio.tessellate, zm.weierstrass.alpha\n")
    assert references(tree) == {("meshio", "tessellate"), ("weierstrass", "alpha")}
    assert ("meshio", "metrics") in references(tree, "meshio")
    assert ("meshio", "f") not in references(tree, "meshio")
