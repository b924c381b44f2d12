"""The built-in invariant rules (R001–R005).

Each rule is the machine-checked form of one prose invariant from
``docs/ARCHITECTURE.md``; the mapping is documented there ("Invariants
as lint rules").  Rules are deliberately *syntactic*: they inspect the
AST and the import bindings, never runtime types, so a clean run is
fast and a finding always carries an exact ``file:line``.  The price is
a known blind spot — iterating a variable that merely *holds* a set is
invisible to R004 — which the equivalence tests still cover; the rules
exist to catch the write-time mistake, not to replace the tests.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from .engine import LINT_RULES, Finding, LintRule, Module, ModuleGraph
from .schema import compare_schema, extract_digest_schema, load_manifest

#: Directories whose stochastic/temporal state must flow through
#: ``repro.sim.rng`` (RngStreams / BatchedDraws / the seeded helpers).
R001_DIRS = {"sim", "net", "backup", "churn", "exec"}

#: The one module allowed to construct generator state.
R001_BLESSED_FILE = "rng.py"

#: Wall-clock / entropy calls that make a run irreproducible.
R001_BANNED_CALLS = {
    "time.time": "wall-clock time",
    "time.time_ns": "wall-clock time",
    "datetime.datetime.now": "wall-clock time",
    "datetime.datetime.utcnow": "wall-clock time",
    "datetime.datetime.today": "wall-clock time",
    "datetime.date.today": "wall-clock time",
    "os.urandom": "OS entropy",
    "uuid.uuid4": "OS entropy",
    "secrets.token_bytes": "OS entropy",
    "secrets.token_hex": "OS entropy",
}

#: ``numpy.random`` attributes that seed fresh generator state or draw
#: from the legacy global generator.
R001_NUMPY_STATE = {
    "default_rng",
    "SeedSequence",
    "RandomState",
    "Generator",
    "PCG64",
    "MT19937",
    "seed",
    "random",
    "rand",
    "randn",
    "randint",
    "random_sample",
    "integers",
    "choice",
    "shuffle",
    "permutation",
    "uniform",
}


@LINT_RULES.register("R001")
class RngDiscipline(LintRule):
    """All stochastic/temporal state flows through ``repro.sim.rng``."""

    rule_id = "R001"
    name = "rng-discipline"
    title = (
        "no stdlib random, numpy.random seeding, or wall-clock reads in "
        "sim/, net/, backup/, churn/, exec/ outside sim/rng.py"
    )

    def _in_scope(self, module: Module) -> bool:
        if module.advisory:
            # Advisory trees (tests/, benchmarks/) are linted wholesale:
            # a bare `random` in a test helper masks determinism
            # regressions no matter which directory it sits in.
            return True
        if module.filename == R001_BLESSED_FILE and "sim" in module.scope_dirs:
            return False
        return bool(module.scope_dirs & R001_DIRS)

    def check_module(self, module: Module, graph: ModuleGraph) -> Iterator[Finding]:
        if not self._in_scope(module):
            return
        advisory = module.advisory
        for node in module.walk():
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top in ("random", "secrets"):
                        yield self.finding(
                            module,
                            node.lineno,
                            f"import of stdlib '{top}' — all randomness must "
                            "flow through repro.sim.rng (RngStreams / "
                            "BatchedDraws / seeded_generator)",
                        )
            elif isinstance(node, ast.ImportFrom):
                target = module.resolve_import_from(node)
                if target is None:
                    continue
                top = target.split(".")[0]
                if top in ("random", "secrets"):
                    yield self.finding(
                        module,
                        node.lineno,
                        f"import from stdlib '{top}' — all randomness must "
                        "flow through repro.sim.rng",
                    )
                elif target == "numpy.random" and not advisory:
                    banned = [
                        alias.name
                        for alias in node.names
                        if alias.name in R001_NUMPY_STATE
                    ]
                    for name in banned:
                        yield self.finding(
                            module,
                            node.lineno,
                            f"direct import of numpy.random.{name} — construct "
                            "generators via repro.sim.rng.seeded_generator or "
                            "draw from RngStreams",
                        )
            elif isinstance(node, ast.Call):
                resolved = module.resolve(node.func)
                if resolved is None:
                    continue
                reason = R001_BANNED_CALLS.get(resolved)
                if reason is not None:
                    yield self.finding(
                        module,
                        node.lineno,
                        f"{resolved}() reads {reason}; simulated time is the "
                        "event round — no wall-clock or OS entropy may feed "
                        "simulation state",
                    )
                    continue
                if resolved.startswith("random."):
                    yield self.finding(
                        module,
                        node.lineno,
                        f"stdlib {resolved}() draws from untracked global "
                        "state; use a stream from RngStreams instead",
                    )
                    continue
                if resolved.startswith("numpy.random."):
                    attr = resolved.rpartition(".")[2]
                    if attr not in R001_NUMPY_STATE:
                        continue
                    if advisory and node.args:
                        # In tests, *explicitly seeded* constructors are
                        # deterministic and idiomatic; only the unseeded
                        # form (fresh OS entropy) masks regressions.
                        continue
                    yield self.finding(
                        module,
                        node.lineno,
                        f"{resolved}() constructs fresh generator state; "
                        "route it through repro.sim.rng (RngStreams, "
                        "seeded_generator or seed_sequence)",
                    )


@LINT_RULES.register("R002")
class DigestStability(LintRule):
    """``SimulationConfig`` serialization matches the golden manifest."""

    rule_id = "R002"
    name = "digest-stability"
    title = (
        "SimulationConfig fields and to_dict keys match "
        "docs/digest_schema.json; new fields must be fidelity-gated"
    )

    def check_module(self, module: Module, graph: ModuleGraph) -> Iterator[Finding]:
        if module.advisory or module.filename != "config.py":
            return
        if "sim" not in module.scope_dirs:
            return
        schema = extract_digest_schema(module.tree)
        if schema is None:
            return  # no SimulationConfig here (a fixture's unrelated config.py)
        manifest = load_manifest(graph.digest_schema_path)
        if manifest is None:
            yield self.finding(
                module,
                1,
                f"golden digest manifest {graph.digest_schema_path} is "
                "missing or unreadable; generate it with "
                "'repro-experiments lint --write-schema'",
            )
            return
        for line, message in compare_schema(schema, manifest):
            yield self.finding(module, line, message)


#: Registries whose components may only be *constructed* through
#: ``Registry.get`` outside their defining module.
R003_REGISTRIES = (
    "SELECTION_STRATEGIES",
    "ACCEPTANCE_RULES",
    "LIFETIME_MODELS",
    "CODEC_BACKENDS",
    "EXECUTION_BACKENDS",
    "FIDELITY_BACKENDS",
    "LINT_RULES",
)

_R003_FACT = "r003-registered-components"


def _registered_components(graph: ModuleGraph) -> Dict[str, Tuple[str, str]]:
    """``class name -> (defining module, registry name)`` for the graph.

    Detects both the decorator form (``@REG.register("x")`` on a class)
    and the call form (``REG.register("x", Cls)`` / with an instance
    ``REG.register("x", Cls(...))``).
    """
    cached = graph.facts.get(_R003_FACT)
    if cached is not None:
        return cached
    registered: Dict[str, Tuple[str, str]] = {}

    def registry_of(func: ast.AST) -> Optional[str]:
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "register"
            and isinstance(func.value, ast.Name)
            and func.value.id in R003_REGISTRIES
        ):
            return func.value.id
        return None

    for module in graph:
        for node in module.walk():
            if isinstance(node, ast.ClassDef):
                for decorator in node.decorator_list:
                    if isinstance(decorator, ast.Call):
                        registry = registry_of(decorator.func)
                        if registry is not None:
                            registered[node.name] = (module.name, registry)
            elif isinstance(node, ast.Call):
                registry = registry_of(node.func)
                if registry is None or len(node.args) < 2:
                    continue
                component = node.args[1]
                if isinstance(component, ast.Call) and isinstance(
                    component.func, ast.Name
                ):
                    registered[component.func.id] = (module.name, registry)
                elif isinstance(component, ast.Name):
                    registered[component.id] = (module.name, registry)
    graph.facts[_R003_FACT] = registered
    return registered


@LINT_RULES.register("R003")
class RegistryDiscipline(LintRule):
    """Registered components resolve through ``Registry.get`` only."""

    rule_id = "R003"
    name = "registry-discipline"
    title = (
        "strategies, rules, lifetimes, codecs, execution/fidelity "
        "backends are constructed via Registry.get outside their "
        "defining module"
    )

    def check_module(self, module: Module, graph: ModuleGraph) -> Iterator[Finding]:
        if module.advisory or "tests" in module.scope_dirs:
            return
        registered = _registered_components(graph)
        if not registered:
            return
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                class_name = func.id
            elif isinstance(func, ast.Attribute):
                class_name = func.attr
            else:
                continue
            entry = registered.get(class_name)
            if entry is None:
                continue
            defining_module, registry = entry
            if module.name == defining_module:
                continue
            if isinstance(func, ast.Name):
                if module.defines(class_name):
                    continue  # a local class shadowing the name
                bound = module.bindings.get(class_name)
                if bound is None or not bound.endswith(f".{class_name}"):
                    continue
                origin = bound.rpartition(".")[0]
            else:
                resolved = module.resolve(func)
                if resolved is None or not resolved.endswith(f".{class_name}"):
                    continue
                origin = resolved.rpartition(".")[0]
            origin_module = graph.resolve_module(origin)
            if origin_module is None or origin_module.name != defining_module:
                continue
            yield self.finding(
                module,
                node.lineno,
                f"{class_name} is registered in {registry} (defined in "
                f"{defining_module}); outside that module construct it "
                f"through the registry ({registry}.get(name)(...)), so "
                "user-registered components stay first-class",
            )


#: Scope of the ordered-iteration rule: where iteration order feeds RNG
#: draws, event scheduling or lease claiming.
R004_DIRS = {"sim", "net"}
R004_FILES = {"distributed.py"}


def _is_unordered(node: ast.AST) -> bool:
    """Whether an expression syntactically produces an unordered iterable."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_unordered(node.left) or _is_unordered(node.right)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in (
            "pop",
            "get",
            "setdefault",
        ):
            # dict.get(k, set()) / dict.pop(k, set()): the fallback
            # betrays that the mapping's values are sets.
            return any(_is_unordered(arg) for arg in node.args)
        if isinstance(func, ast.Attribute) and func.attr in (
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        ):
            return True
    return False


@LINT_RULES.register("R004")
class OrderedIteration(LintRule):
    """No iteration over unordered containers in order-sensitive code."""

    rule_id = "R004"
    name = "ordered-iteration"
    title = (
        "no set iteration in sim/, net/ or exec/distributed.py — "
        "iteration order there feeds RNG draws, event scheduling and "
        "lease claiming"
    )

    def _in_scope(self, module: Module) -> bool:
        if module.filename in R004_FILES and "exec" in module.scope_dirs:
            return True
        return bool(module.scope_dirs & R004_DIRS)

    def check_module(self, module: Module, graph: ModuleGraph) -> Iterator[Finding]:
        if not self._in_scope(module):
            return

        def offending(iterable: ast.AST) -> bool:
            return _is_unordered(iterable)

        message = (
            "iterates a set — set order is an implementation detail and "
            "breaks byte-identity across hosts; iterate sorted(...) or "
            "an insertion-ordered structure instead"
        )
        for node in module.walk():
            if isinstance(node, ast.For) and offending(node.iter):
                yield self.finding(module, node.iter.lineno, message)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                for generator in node.generators:
                    if offending(generator.iter):
                        yield self.finding(module, generator.iter.lineno, message)
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in ("list", "tuple")
                    and node.args
                    and offending(node.args[0])
                ):
                    yield self.finding(
                        module,
                        node.lineno,
                        "materialises a set in arbitrary order; wrap it in "
                        "sorted(...) before it can feed anything "
                        "order-sensitive",
                    )


#: Conversions that legitimise float arithmetic feeding an event time.
R005_SANCTIONED_CALLS = ("int", "round_for")


def _float_tainted(node: ast.AST) -> Optional[int]:
    """Line of the first float literal / true division in a subtree.

    Subtrees under ``int(...)`` or ``*.round_for(...)`` are skipped —
    those are the sanctioned float→round conversions.
    """
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        if name in R005_SANCTIONED_CALLS:
            return None
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return node.lineno
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return node.lineno
    for child in ast.iter_child_nodes(node):
        line = _float_tainted(child)
        if line is not None:
            return line
    return None


@LINT_RULES.register("R005")
class EventTimeHygiene(LintRule):
    """Event times are integer rounds; scheduling goes through EventQueue."""

    rule_id = "R005"
    name = "event-time-hygiene"
    title = (
        "no float arithmetic on event times and no heapq outside "
        "sim/events.py — scheduling goes through the EventQueue API"
    )

    def _in_scope(self, module: Module) -> bool:
        if "sim" not in module.scope_dirs:
            return False
        return module.filename != "events.py"

    def check_module(self, module: Module, graph: ModuleGraph) -> Iterator[Finding]:
        if not self._in_scope(module):
            return
        for node in module.walk():
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "heapq":
                        yield self.finding(
                            module,
                            node.lineno,
                            "imports heapq — event scheduling must go "
                            "through the EventQueue API (sim/events.py), "
                            "which owns intra-round ordering",
                        )
            elif isinstance(node, ast.ImportFrom):
                target = module.resolve_import_from(node)
                if target is not None and target.split(".")[0] == "heapq":
                    yield self.finding(
                        module,
                        node.lineno,
                        "imports from heapq — event scheduling must go "
                        "through the EventQueue API (sim/events.py)",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "schedule"
                    and node.args
                ):
                    line = _float_tainted(node.args[0])
                    if line is not None:
                        yield self.finding(
                            module,
                            line,
                            "float arithmetic feeds an event time — rounds "
                            "are integers; convert via int(...) or "
                            "LinkScheduler.round_for(...) before scheduling",
                        )
