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

So are the defaulted parameters of public top-level functions: some call in
those folders passes each one, by keyword or by position (passing on the
caller's own parameter counts), or the README lists it as ``m.f(param)``.
Calls are resolved to modules the same way names are.

perfbench looks its targets up by name at run time, so the names, the
positional parameters its size probes read, the meshio pool hooks and the
shape of verify.REGISTRY that it patches are checked here as well; tier-1
does not run perfbench's own tests.
"""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import re

from zmcnoid import meshio, verify

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


def targets():
    """(m, f) -> the parameters that its entry size probe reads (None for no
    probe), for each "m.f" key of perfbench/layers.py TARGETS."""
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            found = {}
            for key, value in zip(node.value.keys, node.value.values):
                probe = value.elts[1]
                probe = defs[probe.id] if isinstance(probe, ast.Name) else probe
                found[tuple(key.value.split("."))] = (
                    [a.arg for a in probe.args.posonlyargs + probe.args.args]
                    if isinstance(probe, (ast.Lambda, ast.FunctionDef)) else None)
            return found
    raise AssertionError("perfbench/layers.py has no TARGETS")


def target_keys():
    """The "m.f" keys of perfbench/layers.py TARGETS."""
    return set(targets())


def readme_section():
    text = (ROOT / "README.md").read_text()
    match = re.search(r"^## Public API\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    assert match, "README.md has no '## Public API' section"
    return match.group(1)


def readme_public_api():
    """The ``m.f`` and ``m.C.f`` names listed in the README's Public API section."""
    return set(re.findall(r"`(\w+)\.(\w+(?:\.\w+)?)`", readme_section()))


def readme_public_parameters():
    """(m, f, param) for each ``m.f(param, ...)`` in the README's Public API section."""
    return {(m, f, param.strip())
            for m, f, params in re.findall(r"`(\w+)\.(\w+)\(([\w, ]+)\)`", readme_section())
            for param in params.split(",")}


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


def public_functions():
    """(m, f) -> ast.arguments of every public top-level function."""
    return {(m, node.name): node.args for m in MODULES
            for node in ast.parse((PACKAGE / f"{m}.py").read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")}


def defaulted_parameters():
    """(m, f, param) for the defaulted parameters of public top-level functions."""
    found = set()
    for (m, f), args in public_functions().items():
        positional = args.posonlyargs + args.args
        found |= {(m, f, a.arg) for a in positional[len(positional) - len(args.defaults):]}
        found |= {(m, f, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None}
    return found


def call_bindings(tree, module=None):
    """Bare name -> (module, name) for the zmcnoid functions one file can call."""
    bound = {}
    if module is not None:
        bound.update({node.name: (module, node.name) for node in tree.body
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))})
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").split(".")[-1]
            if source in MODULES:
                bound.update({a.asname or a.name: (source, a.name) for a in node.names})
    return bound


def passed_parameters(tree, functions, module=None):
    """(m, f, param) for each parameter a call in one file passes to a function
    of ``functions``, by keyword or by position up to the first ``*args``."""
    aliases, bound = module_aliases(tree), call_bindings(tree, module)
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            callee = bound.get(node.func.id)
        elif isinstance(node.func, ast.Attribute):
            owner = chain_module(node.func.value, aliases)
            callee = (owner, node.func.attr) if owner else None
        else:
            callee = None
        if callee not in functions:
            continue
        args = functions[callee]
        positional = [a.arg for a in args.posonlyargs + args.args]
        count = next((i for i, a in enumerate(node.args) if isinstance(a, ast.Starred)),
                     len(node.args))
        found |= {(*callee, name) for name in positional[:count]}
        found |= {(*callee, k.arg) for k in node.keywords if k.arg is not None}
    return found


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


def test_every_defaulted_parameter_is_passed_or_documented():
    functions = public_functions()
    passed = set()
    for module, tree in caller_files():
        passed |= passed_parameters(tree, functions, module)
    unset = defaulted_parameters() - passed - readme_public_parameters()
    assert not unset, "no call in src/, scripts/ or perfbench/ passes these, and the " \
        "README Public API does not list them: " \
        + ", ".join(sorted(f"{m}.{f}({p})" for m, f, p in unset))


def test_readme_public_api_names_exist():
    stale = readme_public_api() - defined_names() - defined_members()
    assert not stale, "README Public API lists names that src/zmcnoid does not define: " \
        + ", ".join(sorted(f"{m}.{f}" for m, f in stale))
    stale = readme_public_parameters() - defaulted_parameters()
    assert not stale, "README Public API lists parameters that are not defaulted " \
        "parameters of a public function: " \
        + ", ".join(sorted(f"{m}.{f}({p})" for m, f, p in stale))


def test_benchmark_lookups_resolve():
    # perfbench/spans.py getattr's each target and rebinds it; the size probe
    # at entry reads the leading positional arguments of each call
    for (m, f), probe in targets().items():
        module = importlib.import_module(f"zmcnoid.{m}")
        assert hasattr(module, f), f"TARGETS names {m}.{f}, which zmcnoid does not define"
        if probe is not None:
            leading = [p.name for p in inspect.signature(getattr(module, f)).parameters.values()
                       if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
            assert leading[:len(probe)] == probe, \
                f"the size probe of {m}.{f} reads {probe}, the function takes {leading}"
    # the traced run patches the tessellate pool and records thread_cap()
    assert isinstance(meshio.ThreadPoolExecutor, type)
    assert isinstance(meshio.thread_cap(), int)
    # and rewraps each verify runner with dataclasses.replace
    assert isinstance(verify.REGISTRY, tuple) and verify.REGISTRY
    for check in verify.REGISTRY:
        assert {"id", "runner"} <= {f.name for f in dataclasses.fields(check)}
        assert dataclasses.replace(check, runner=check.runner) == check


def test_a_local_variable_does_not_stand_in_for_a_library_name():
    # perfbench's local `metrics` variables must not count for a module-level
    # function of that name, nor a bare name in one module for another's
    tree = ast.parse("from zmcnoid import meshio as mio\n"
                     "metrics = {}\n"
                     "def f():\n    return metrics, mio.tessellate, zm.weierstrass.alpha\n")
    assert references(tree) == {("meshio", "tessellate"), ("weierstrass", "alpha")}
    assert ("meshio", "metrics") in references(tree, "meshio")
    assert ("meshio", "f") not in references(tree, "meshio")


def test_parameters_are_resolved_through_the_callee_module():
    functions = {("geometry", "scan"): ast.parse("def scan(a, b=1, *, tol=2): pass")
                 .body[0].args,
                 ("meshio", "scan"): ast.parse("def scan(a, b=1): pass").body[0].args}
    tree = ast.parse("from zmcnoid.geometry import scan as s\n"
                     "from zmcnoid import meshio as mio\n"
                     "def scan(a, b=1): pass\n"
                     "def f(tol):\n    s(0, tol=tol)\n    mio.scan(*x, 1)\n"
                     "    mio.scan(0)\n    scan(0, 1)\n")
    assert passed_parameters(tree, functions) == {
        ("geometry", "scan", "a"), ("geometry", "scan", "tol"), ("meshio", "scan", "a")}
    # a bare call inside module m is m's own function
    assert ("geometry", "scan", "b") in passed_parameters(tree, functions, "geometry")
