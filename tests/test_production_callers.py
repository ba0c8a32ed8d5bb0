"""Every public function and every defaulted parameter in ``src/repro``
has a setter outside ``tests/``.

One AST scan of the production trees (``src``, ``perfbench``,
``examples``, ``scripts``, ``benchmarks``) checks two rules:

* a public ``def`` needs a reference: a name or an attribute spelled
  like it (a call, a callback, ``rpc.register(..., self.x)``), or a
  string literal passed to a call that looks an attribute up by name
  (:data:`BY_NAME`: ``getattr(obj, "x")``, ``read_through(..., "x")``,
  perfbench's ``_wrap(cls, "x", ...)``).  Any other string, such as
  ``row.get("x")``, is data, not a reference.  A reference inside a
  ``def`` of the same name (recursion, delegation) does not count.
* a parameter with a default needs a call that passes it, by keyword
  or by position (``*args``/``**kwargs`` pass everything).  Calls are
  matched by the callee's name, so ``obj.send(...)`` counts for every
  ``send``; a class's ``__init__`` is called by the class name or by
  ``super().__init__`` in a subclass.  Dataclass fields are state, not
  parameters, and are not scanned.

A value no production call sets is a configuration no workload runs:
delete it, make it a module constant, or work it out from a value the
code already has.  An entry in :data:`ALLOWED` names why the scan
cannot see its setter.
"""

import ast
import functools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PRODUCTION_DIRS = ("src", "perfbench", "examples", "scripts", "benchmarks")

_SCHEDULED = "set by the positional arguments of a schedule/schedule_at call"
_FAKE = "lets a test substitute a fake"
_GOLDENS = ("the media encode goldens (tests/media/goldens.py) sweep it to "
            "pin the codecs' bytes across settings")

#: finding -> why its setter is out of the scan's sight
ALLOWED = {
    "repro/atm/link.py::Link.enqueue(category=)": _SCHEDULED,
    "repro/mheg/engine.py::MhegEngine._run_if_live(due=)": _SCHEDULED,
    "repro/mheg/engine.py::MhegEngine._cycle(iteration=)": _SCHEDULED,
    "repro/mheg/engine.py::MhegEngine._cycle(due=)": _SCHEDULED,
    "repro/obs/__main__.py::main(argv=)":
        _FAKE + " (an argv list instead of sys.argv)",
    "repro/database/api.py::DatabaseClient.GetKeywordTree(path=)":
        "perfbench's catalog workload sets it by name: "
        "getattr(client, op)(arg)",
    "repro/media/production.py::MediaProductionCenter.produce_video(quality=)":
        _GOLDENS,
    "repro/media/production.py::MediaProductionCenter.produce_video(gop=)":
        _GOLDENS,
    "repro/media/production.py::MediaProductionCenter.produce_image(width=)":
        _GOLDENS,
    "repro/media/production.py::MediaProductionCenter.produce_image(height=)":
        _GOLDENS,
}


#: calls whose string arguments name an attribute
BY_NAME = frozenset({"getattr", "hasattr", "setattr", "read_through",
                     "_wrap"})


def _modules(*tops):
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            if "out" not in path.relative_to(ROOT).parts:
                yield path, ast.parse(path.read_text(encoding="utf-8"))


def _name_of(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class _Uses(ast.NodeVisitor):
    """Every referenced name, and every call grouped by callee name."""

    def __init__(self) -> None:
        self.names = set()
        self.calls = {}
        self._defs = []
        self._classes = []

    def visit_ClassDef(self, node):
        self._classes.append(node)
        self.generic_visit(node)
        self._classes.pop()

    def visit_FunctionDef(self, node):
        self._defs.append(node.name)
        self.generic_visit(node)
        self._defs.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _use(self, name: str) -> None:
        if name not in self._defs:
            self.names.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_Call(self, node):
        name = _name_of(node.func)
        if name in BY_NAME:
            for arg in node.args + [k.value for k in node.keywords]:
                if isinstance(arg, ast.Constant) \
                        and isinstance(arg.value, str):
                    self._use(arg.value)
        if name == "__init__" and self._classes:
            for base in self._classes[-1].bases:
                self.calls.setdefault(_name_of(base), []).append(node)
        elif name is not None:
            self.calls.setdefault(name, []).append(node)
        self.generic_visit(node)


def _defs():
    """(qualified name, name its callers use, the def, whether it is
    bound) for each module-level function and method in src/repro."""
    for path, tree in _modules("src/repro"):
        rel = path.relative_to(ROOT / "src").as_posix()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{rel}::{node.name}", node.name, node, False
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        static = any(getattr(d, "id", None) == "staticmethod"
                                     for d in item.decorator_list)
                        callee = node.name if item.name == "__init__" \
                            else item.name
                        yield (f"{rel}::{node.name}.{item.name}", callee,
                               item, not static)


def _defaulted(func, bound: bool):
    """(name, position or None) of each parameter with a default."""
    args = func.args
    positional = args.posonlyargs + args.args
    if bound:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call: ast.Call, name: str, position) -> bool:
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args) \
        or len(call.args) > position


@functools.lru_cache(maxsize=None)
def scan():
    """(public functions with no reference, defaulted parameters no
    production call passes, count of defaulted parameters)."""
    uses = _Uses()
    for _path, tree in _modules(*PRODUCTION_DIRS):
        uses.visit(tree)
    orphans, unset, total = [], [], 0
    for qualname, callee, func, bound in _defs():
        if not func.name.startswith("_") and func.name not in uses.names:
            orphans.append(qualname)
        for name, position in _defaulted(func, bound):
            total += 1
            calls = uses.calls.get(callee, ())
            if not any(_passes(c, name, position) for c in calls):
                unset.append(f"{qualname}({name}=)")
    return tuple(orphans), tuple(unset), total


def test_every_public_function_has_a_production_caller():
    orphans = [f for f in scan()[0] if f not in ALLOWED]
    assert not orphans, (
        "only tests call these; delete them with their tests or call "
        "them from a production path:\n  " + "\n  ".join(orphans))


def test_every_default_has_a_production_setter():
    unset = [f for f in scan()[1] if f not in ALLOWED]
    assert not unset, (
        "no production call passes these; delete the parameter, make "
        "the value a module constant, or derive it from a value the "
        "code already has:\n  " + "\n  ".join(unset))


def test_allow_list_names_live_findings():
    orphans, unset, _total = scan()
    stale = sorted(set(ALLOWED) - set(orphans) - set(unset))
    assert not stale, "ALLOWED entries with nothing to excuse: " \
        + ", ".join(stale)
