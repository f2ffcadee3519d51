"""The project-specific invariant rules (REP001 .. REP007).

Each rule encodes one reproducibility invariant, with its motivating
bug or upcoming need recorded in ``motivation`` (also listed in the
README's "Invariants & static analysis" section).  The heuristics are
deliberately syntactic: they inspect what the code *says* (AST), not
what it might do, so they stay fast, dependency-free and predictable.
Legitimate exceptions get a ``# repro: allow[REP00x] reason`` comment
(see :mod:`repro.analysis.suppress`).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from repro.analysis.findings import Finding
from repro.analysis.registry import ModuleSource, Project, Rule, register


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _call_name(node: ast.Call) -> Optional[str]:
    return dotted_name(node.func)


def _names_in(node: ast.AST) -> Set[str]:
    """Every bare identifier referenced anywhere inside ``node``."""
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _enclosing_functions(module: ModuleSource,
                         node: ast.AST) -> Iterator[ast.AST]:
    parent = module.parents.get(node)
    while parent is not None:
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield parent
        parent = module.parents.get(parent)


# ----------------------------------------------------------------------
# REP001 -- unseeded RNG / global RNG state


#: random-module functions that draw from (or mutate) the process-global
#: RNG.  Any use in library code couples results to import order and
#: other callers, which breaks the bit-identity contract.
_GLOBAL_RANDOM_FNS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "setstate", "shuffle", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
})

#: np.random constructors that are fine *when given a seed*.
_NP_CONSTRUCTORS = frozenset({
    "default_rng", "Generator", "RandomState", "SeedSequence",
    "BitGenerator", "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
})


@register
class UnseededRngRule(Rule):
    id = "REP001"
    name = "unseeded-rng"
    motivation = ("campaigns must be bit-identical across runs and "
                  "processes; an unseeded or process-global RNG breaks "
                  "jobs=N == jobs=1 and poisons on-disk caches")

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name is None:
                continue
            has_args = bool(node.args or node.keywords)
            if name in ("random.Random", "Random") and not has_args:
                findings.append(module.finding(
                    self.id, node.lineno,
                    "random.Random() without a seed draws OS entropy; "
                    "derive the seed from the campaign seed instead"))
            elif name.startswith(("np.random.", "numpy.random.")):
                tail = name.rsplit(".", 1)[1]
                if tail in _NP_CONSTRUCTORS:
                    if not has_args:
                        findings.append(module.finding(
                            self.id, node.lineno,
                            f"{name}() without a seed is entropy-seeded; "
                            "pass a seed derived from the campaign seed"))
                else:
                    findings.append(module.finding(
                        self.id, node.lineno,
                        f"{name}() uses NumPy's process-global RNG; "
                        "use a seeded np.random.default_rng(seed) "
                        "Generator instead"))
            elif name == "default_rng" and not has_args:
                findings.append(module.finding(
                    self.id, node.lineno,
                    "default_rng() without a seed is entropy-seeded; "
                    "pass a seed derived from the campaign seed"))
            elif (name.startswith("random.")
                  and name.count(".") == 1
                  and name.rsplit(".", 1)[1] in _GLOBAL_RANDOM_FNS):
                findings.append(module.finding(
                    self.id, node.lineno,
                    f"{name}() uses the process-global RNG; construct a "
                    "seeded random.Random(seed) instance instead"))
        return findings


# ----------------------------------------------------------------------
# REP002 -- builtin hash() for seeds / persistent keys


@register
class SaltedHashRule(Rule):
    id = "REP002"
    name = "salted-hash"
    motivation = ("the PR 1 bug class: str/bytes hash() is salted per "
                  "process (PYTHONHASHSEED), so seeds or persistent keys "
                  "built from it differ between processes")

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "hash"):
                findings.append(module.finding(
                    self.id, node.lineno,
                    "builtin hash() is per-process salted for str/bytes; "
                    "use zlib.crc32 or hashlib for anything that feeds a "
                    "seed or outlives the process (in-process __hash__ "
                    "implementations may be suppressed with a reason)"))
        return findings


# ----------------------------------------------------------------------
# REP003 -- CampaignConfig fields must be classified w.r.t. the cache key


_EXCLUDE_NAME = "_SIGNATURE_EXCLUDE"
_KEY_METHODS = ("cache_key", "signature")


def _string_constants(node: ast.AST) -> Set[str]:
    return {sub.value for sub in ast.walk(node)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)}


@register
class CacheKeyDriftRule(Rule):
    id = "REP003"
    name = "cache-key-drift"
    motivation = ("the -v2 cache-key bump exists because keys once "
                  "missed result-changing fields; every CampaignConfig "
                  "field must be read by cache_key or listed in "
                  "_SIGNATURE_EXCLUDE, so adding a field without "
                  "classifying it fails the lint")

    def check_project(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            try:
                tree = module.tree
            except SyntaxError:
                continue
            for node in ast.walk(tree):
                if (isinstance(node, ast.ClassDef)
                        and node.name == "CampaignConfig"):
                    return self._check_config_class(module, node)
        return ()

    def _check_config_class(self, module: ModuleSource,
                            cls: ast.ClassDef) -> List[Finding]:
        findings: List[Finding] = []
        fields: Dict[str, int] = {}
        excluded: Optional[Set[str]] = None
        exclude_line = cls.lineno
        key_reads: Optional[Set[str]] = None
        key_line = cls.lineno
        for statement in cls.body:
            if (isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)):
                target = statement.target.id
                annotation = dotted_name(statement.annotation)
                if isinstance(statement.annotation, ast.Subscript):
                    annotation = dotted_name(statement.annotation.value)
                is_classvar = annotation is not None and \
                    annotation.split(".")[-1] == "ClassVar"
                if target == _EXCLUDE_NAME and statement.value is not None:
                    excluded = _string_constants(statement.value)
                    exclude_line = statement.lineno
                elif not target.startswith("_") and not is_classvar:
                    fields[target] = statement.lineno
            elif isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if (isinstance(target, ast.Name)
                            and target.id == _EXCLUDE_NAME):
                        excluded = _string_constants(statement.value)
                        exclude_line = statement.lineno
            elif (isinstance(statement, ast.FunctionDef)
                    and statement.name in _KEY_METHODS):
                key_reads = self._self_attribute_reads(statement)
                key_line = statement.lineno
        if key_reads is None:
            return [module.finding(
                self.id, cls.lineno,
                "CampaignConfig has no cache_key/signature method to "
                "anchor the cache-key-drift check")]
        if excluded is None:
            return [module.finding(
                self.id, cls.lineno,
                f"CampaignConfig must declare {_EXCLUDE_NAME} naming the "
                "fields deliberately left out of the cache key")]
        for field, line in fields.items():
            in_key = field in key_reads
            in_exclude = field in excluded
            if in_key and in_exclude:
                findings.append(module.finding(
                    self.id, line,
                    f"field {field!r} is read by cache_key but also "
                    f"listed in {_EXCLUDE_NAME}; classify it one way"))
            elif not in_key and not in_exclude:
                findings.append(module.finding(
                    self.id, line,
                    f"field {field!r} is neither read by cache_key nor "
                    f"listed in {_EXCLUDE_NAME}: decide whether it "
                    "changes results (key) or not (exclude list)"))
        for name in sorted(excluded - set(fields)):
            findings.append(module.finding(
                self.id, exclude_line,
                f"{_EXCLUDE_NAME} names {name!r}, which is not a "
                "CampaignConfig field"))
        del key_line
        return findings

    @staticmethod
    def _self_attribute_reads(function: ast.FunctionDef) -> Set[str]:
        return {node.attr for node in ast.walk(function)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"}


# ----------------------------------------------------------------------
# REP004 -- every *_scalar sibling must be referenced by a test


@register
class ParityPairRule(Rule):
    id = "REP004"
    name = "parity-pair"
    motivation = ("vectorized/scalar pairs (rank_codes vs rank_scalar "
                  "et al.) keep a golden reference only if a test "
                  "actually exercises the scalar side; an unreferenced "
                  "sibling is dead weight that will silently drift")

    def check_project(self, project: Project) -> Iterable[Finding]:
        if not project.tests:
            return ()       # nothing to check references against
        findings: List[Finding] = []
        for module in project.modules:
            try:
                tree = module.tree
            except SyntaxError:
                continue
            for node in ast.walk(tree):
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and node.name.endswith("_scalar")
                        and not project.tests_mention(node.name)):
                    findings.append(module.finding(
                        self.id, node.lineno,
                        f"scalar sibling {node.name!r} is referenced by "
                        "no test; add a golden-parity test or remove the "
                        "pair"))
        return findings


# ----------------------------------------------------------------------
# REP005 -- persistence writes must be atomic (temp + os.replace)


_WRITE_MODES = frozenset("wax")
_BUFFER_FACTORIES = frozenset({"BytesIO", "StringIO"})
_SAVEZ_TAILS = frozenset({"savez", "savez_compressed", "save"})
#: Context managers that already implement (or don't need) the atomic
#: idiom: handles they yield may be written to freely.
_ATOMIC_CONTEXTS = frozenset({
    "atomic_open", "NamedTemporaryFile", "TemporaryFile",
    "SpooledTemporaryFile", "TemporaryDirectory",
})


def _open_mode(call: ast.Call) -> Optional[str]:
    """The literal mode of an ``open``-style call, if statically known."""
    mode_node: Optional[ast.AST] = None
    if len(call.args) > 1:
        mode_node = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode_node = keyword.value
    if mode_node is None:
        return "r"
    if isinstance(mode_node, ast.Constant) and isinstance(mode_node.value,
                                                         str):
        return mode_node.value
    return None


def _func_tail(call: ast.Call) -> Optional[str]:
    """The called name's last component (works through ``X(...).attr``)."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def _is_write_open(call: ast.Call) -> bool:
    if _func_tail(call) != "open":
        return False
    mode = _open_mode(call)
    return mode is not None and bool(set(mode) & _WRITE_MODES)


@register
class NonAtomicWriteRule(Rule):
    id = "REP005"
    name = "non-atomic-write"
    motivation = ("the concurrent estimation daemon needs readers that "
                  "never observe torn files; every write to a final "
                  "path must go through a temp file + os.replace (see "
                  "repro.ioutil), the idiom the model store pioneered")

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        findings: List[Finding] = []
        scopes: List[ast.AST] = [module.tree] + [
            node for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for scope in scopes:
            findings.extend(self._check_scope(module, scope))
        return findings

    def _scope_statements(self, scope: ast.AST) -> List[ast.stmt]:
        return list(scope.body)

    def _walk_scope(self, scope: ast.AST) -> Iterator[ast.AST]:
        """Walk a scope without descending into nested functions."""
        stack: List[ast.AST] = self._scope_statements(scope)[::-1]
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                stack.append(child)

    def _check_scope(self, module: ModuleSource,
                     scope: ast.AST) -> List[Finding]:
        blessed: Set[str] = set()
        for node in self._walk_scope(scope):
            if isinstance(node, ast.Call) and \
                    _call_name(node) == "os.replace" and node.args:
                blessed |= _names_in(node.args[0])
            elif isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.Call):
                callee = _call_name(node.value)
                if callee is not None and \
                        callee.split(".")[-1] in _BUFFER_FACTORIES:
                    for target in node.targets:
                        blessed |= _names_in(target)
        findings: List[Finding] = []
        self._visit_writes(module, self._scope_statements(scope), blessed,
                           findings)
        return findings

    def _visit_writes(self, module: ModuleSource,
                      statements: Sequence[ast.AST], blessed: Set[str],
                      findings: List[Finding]) -> None:
        """In-order walk so `with open(tmp) as f` blesses `f` for its
        body."""
        for node in statements:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            if isinstance(node, ast.With):
                for item in node.items:
                    expr = item.context_expr
                    callee = _call_name(expr) if isinstance(expr, ast.Call) \
                        else None
                    if callee is not None and \
                            callee.rsplit(".", 1)[-1] in _ATOMIC_CONTEXTS:
                        if item.optional_vars is not None:
                            blessed |= _names_in(item.optional_vars)
                        continue
                    if isinstance(expr, ast.Call) and _is_write_open(expr):
                        target_ok = self._target_blessed(expr.args[0],
                                                         blessed) \
                            if expr.args else False
                        if not (target_ok
                                or self._receiver_blessed(expr, blessed)):
                            findings.append(self._finding(module, expr))
                        # Bless the handle either way: one finding per
                        # construct, on the open, not on every write
                        # through it.
                        if item.optional_vars is not None:
                            blessed |= _names_in(item.optional_vars)
                    else:
                        self._check_expression(module, expr, blessed,
                                               findings)
                self._visit_writes(module, node.body, blessed, findings)
                continue
            self._check_expression(module, node, blessed, findings)
            self._visit_writes(module, list(ast.iter_child_nodes(node)),
                               blessed, findings)

    def _check_expression(self, module: ModuleSource, node: ast.AST,
                          blessed: Set[str],
                          findings: List[Finding]) -> None:
        if not isinstance(node, ast.Call):
            return
        tail = _func_tail(node)
        name = _call_name(node) or ""
        if tail is None:
            return
        if _is_write_open(node):
            target = node.args[0] if node.args else None
            if not ((target is not None
                     and self._target_blessed(target, blessed))
                    or self._receiver_blessed(node, blessed)):
                findings.append(self._finding(module, node))
        elif tail in ("write_text", "write_bytes") and \
                isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            if not self._target_blessed(receiver, blessed):
                findings.append(self._finding(module, node))
        elif (tail in _SAVEZ_TAILS
                and name.split(".")[0] in ("np", "numpy") and node.args):
            if not self._target_blessed(node.args[0], blessed):
                findings.append(self._finding(module, node))

    @staticmethod
    def _target_blessed(target: ast.AST, blessed: Set[str]) -> bool:
        return bool(_names_in(target) & blessed)

    def _receiver_blessed(self, call: ast.Call, blessed: Set[str]) -> bool:
        """``tmp.open("w")``-style: the receiver is the blessed temp."""
        if _func_tail(call) == "open" and \
                isinstance(call.func, ast.Attribute):
            return self._target_blessed(call.func.value, blessed)
        return False

    def _finding(self, module: ModuleSource, node: ast.AST) -> Finding:
        return module.finding(
            self.id, node.lineno,
            "write to a final path without the temp + os.replace idiom; "
            "use repro.ioutil.atomic_open/atomic_write_* so concurrent "
            "readers never observe a torn file")


# ----------------------------------------------------------------------
# REP006 -- wall-clock / pid values must not reach signatures or keys


_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "os.getpid", "os.getppid",
    "uuid.uuid1", "uuid.uuid4",
})
_WALL_CLOCK_TAILS = frozenset({
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
})
_KEYISH_MARKERS = ("signature", "cache_key", "_key")
_ORDERLESS_STR_FUNCS = frozenset({"str", "repr", "format"})


def _is_wall_clock(name: str) -> bool:
    if name in _WALL_CLOCK:
        return True
    parts = name.split(".")
    return len(parts) >= 2 and ".".join(parts[-2:]) in _WALL_CLOCK_TAILS


@register
class WallClockInKeyRule(Rule):
    id = "REP006"
    name = "wall-clock-in-key"
    motivation = ("a timestamp or pid inside a signature, cache key or "
                  "persisted file name silently makes every run a cache "
                  "miss -- or worse, makes two runs disagree about "
                  "identity")

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name is None or not _is_wall_clock(name):
                continue
            if self._in_keyish_function(module, node) \
                    or self._feeds_string(module, node):
                findings.append(module.finding(
                    self.id, node.lineno,
                    f"{name}() flowing into a string/key context; "
                    "signatures and cache keys must be pure functions "
                    "of the configuration"))
        return findings

    @staticmethod
    def _in_keyish_function(module: ModuleSource, node: ast.AST) -> bool:
        for function in _enclosing_functions(module, node):
            lowered = function.name.lower()
            if any(marker in lowered for marker in _KEYISH_MARKERS):
                return True
        return False

    @staticmethod
    def _feeds_string(module: ModuleSource, node: ast.AST) -> bool:
        """The call participates in string formatting / concatenation."""
        current = node
        parent = module.parents.get(current)
        while parent is not None and not isinstance(parent, ast.stmt):
            if isinstance(parent, (ast.FormattedValue, ast.JoinedStr)):
                return True
            if isinstance(parent, ast.BinOp) and any(
                    isinstance(side, ast.Constant)
                    and isinstance(side.value, str)
                    for side in (parent.left, parent.right)):
                return True
            if isinstance(parent, ast.Call):
                callee = dotted_name(parent.func) or ""
                tail = callee.rsplit(".", 1)[-1]
                if tail in _ORDERLESS_STR_FUNCS or tail == "join":
                    return True
            current, parent = parent, module.parents.get(parent)
        return False


# ----------------------------------------------------------------------
# REP007 -- no ordered output from set/frozenset iteration


_ORDER_INSENSITIVE = frozenset({
    "sorted", "sum", "max", "min", "any", "all", "len", "set", "frozenset",
    "Counter",
})


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _call_name(node)
        return name in ("set", "frozenset")
    return False


@register
class SetIterationOrderRule(Rule):
    id = "REP007"
    name = "set-iteration-order"
    motivation = ("set iteration order depends on hash salts and "
                  "insertion history; letting it reach ordered output "
                  "(lists, files, panels) is latent nondeterminism -- "
                  "wrap the set in sorted()")

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.For) and _is_set_expr(node.iter):
                findings.append(self._finding(module, node.iter))
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp)):
                if any(_is_set_expr(generator.iter)
                       for generator in node.generators) \
                        and not self._consumer_orderless(module, node):
                    findings.append(self._finding(module, node))
            elif isinstance(node, ast.Call):
                name = _call_name(node)
                if name in ("list", "tuple", "enumerate", "iter") \
                        and node.args and _is_set_expr(node.args[0]) \
                        and not self._consumer_orderless(module, node):
                    findings.append(self._finding(module, node))
        return findings

    @staticmethod
    def _consumer_orderless(module: ModuleSource, node: ast.AST) -> bool:
        """Directly fed to an order-insensitive reducer (sorted, sum...)."""
        parent = module.parents.get(node)
        if isinstance(parent, ast.Call):
            callee = dotted_name(parent.func)
            if callee is not None and \
                    callee.rsplit(".", 1)[-1] in _ORDER_INSENSITIVE:
                return True
        return False

    def _finding(self, module: ModuleSource, node: ast.AST) -> Finding:
        return module.finding(
            self.id, node.lineno,
            "iteration over a set reaches ordered output; wrap it in "
            "sorted(...) (or reduce it with an order-insensitive "
            "aggregate)")

