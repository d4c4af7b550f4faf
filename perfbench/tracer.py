"""Per-layer tracing by wrapping the calls into each module of the package.

install() replaces every function and method defined in the package's
modules with a wrapper, and rebinds every module-level name that held the
original, so a name imported by value (integrate_halfline is bound in radial,
forms, chow and torsion) is caught wherever it is called from.  The integrand
handed to integrate_halfline is wrapped to count its evaluations, and
scipy.integrate's quad and tanhsinh are wrapped to count attempts.  The tracer
imports neither numpy nor scipy: it wraps scipy.integrate when the program
loads it, so a deferred scipy import stays the program's own cost.

Each wrapped call adds one to its counter.  A call that enters a layer from
another layer also opens a span (name, start, end, parent).  A layer's self
time is the time its spans cover minus the time their child spans cover;
calls inside one layer stay in that layer's span.  Integration under each
scheme is its own bucket (radial.gk, radial.ts) and includes scipy and the
integrand.  Spans are kept in memory and written out by the caller.
"""

from __future__ import annotations

import copy
import importlib.machinery
import inspect
import sys
import time
from collections import Counter

LAYERS = ("constants", "radial", "forms", "chow", "torsion", "cli")
SCHEME_TAGS = {"gauss_kronrod": "gk", "tanh_sinh": "ts"}
ROOT = "bench"
PACKAGE = "hirzebruch_torsion"
SPAN_LIMIT = 100_000  # spans kept in memory; later ones are only timed
SCIPY_INTEGRATE = "scipy.integrate"


class Tracer:
    def __init__(self):
        self.spans_dropped = 0
        self.active = False
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self.span_names: list = []
        self.spans: list = []  # (id, name index, parent id, start, end)
        self._name_ids: dict = {}
        self._next_id = 0
        # frame: [layer, bucket, span id, time covered by child spans]
        self._stack = [[ROOT, ROOT, -1, 0.0]]
        self._started = 0.0

    # -- recording ----------------------------------------------------------

    def start(self) -> None:
        self._started = time.perf_counter()
        self._stack[0][3] = 0.0
        self.active = True

    def stop(self) -> None:
        """Deactivate; time outside every span goes to the root bucket."""
        self.active = False
        self.self_s[ROOT] += time.perf_counter() - self._started - self._stack[0][3]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def _call(self, layer, bucket, name_id, fn, args, kwargs):
        parent = self._stack[-1]
        sid = self._next_id
        self._next_id += 1
        frame = [layer, bucket, sid, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.self_s[bucket] += (t1 - t0) - frame[3]
            parent[3] += t1 - t0
            if len(self.spans) < SPAN_LIMIT:
                self.spans.append((sid, name_id, parent[2], t0, t1))
            else:
                self.spans_dropped += 1

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, key: str = ""):
        key = key or f"{layer}.{name}.calls"
        name_id = self._name_id(f"{layer}.{name}")
        counts, stack = self.counts, self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            counts[key] += 1
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            return self._call(layer, layer, name_id, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_integrate(self, fn):
        """integrate_halfline: counted and timed per quadrature scheme."""
        params = inspect.signature(fn).parameters
        default_cfg = params["cfg"].default if "cfg" in params else None
        name_id = self._name_id("radial.integrate_halfline")
        counts, stack = self.counts, self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            cfg = args[1] if len(args) > 1 else kwargs.get("cfg", default_cfg)
            scheme = getattr(cfg, "scheme", "gauss_kronrod")
            bucket = f"radial.{SCHEME_TAGS.get(scheme, scheme)}"
            counts[f"{bucket}.integrate_halfline.calls"] += 1
            if args:
                args = (self._counted_integrand(args[0], f"{bucket}.evals"), *args[1:])
            before = counts[f"{bucket}.attempts"]
            try:
                if stack[-1][1] == bucket:
                    return fn(*args, **kwargs)
                return self._call("radial", bucket, name_id, fn, args, kwargs)
            finally:
                made = counts[f"{bucket}.attempts"] - before
                if made:
                    counts[f"{bucket}.tried"] += 1
                    counts[f"{bucket}.first_try"] += made == 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _counted_integrand(self, f, key: str):
        """A copy of the RadialFunction f whose fn counts the points it is
        evaluated at (an array argument counts each of its elements)."""
        fn, counts = f.fn, self.counts

        def counted(u):
            counts[key] += getattr(u, "size", 1)
            return fn(u)

        g = copy.copy(f)  # no __init__ call, so no constructor count
        object.__setattr__(g, "fn", counted)
        return g

    def _wrap_scipy(self, fn, tag: str):
        """A scipy integrator: each call is one attempt."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[f"radial.{tag}.attempts"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_scipy_integrate(self, si) -> None:
        si.quad = self._wrap_scipy(si.quad, "gk")
        si.tanhsinh = self._wrap_scipy(si.tanhsinh, "ts")

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap the package's functions and methods and rebind every name."""
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            for name, obj in list(vars(mod).items()) if mod else ():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = (self._wrap_integrate(obj) if name == "integrate_halfline"
                                     else self._wrap(layer, name, obj))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        self.rebind(replaced)
        if SCIPY_INTEGRATE in sys.modules:
            self._wrap_scipy_integrate(sys.modules[SCIPY_INTEGRATE])
        else:
            sys.meta_path.insert(0, _AfterImport(SCIPY_INTEGRATE, self._wrap_scipy_integrate))
        missed = self.unwrapped_bindings(replaced)
        if missed:
            raise RuntimeError(f"tracer left bindings unwrapped: {missed}")

    def _wrap_class(self, layer: str, cls) -> None:
        # properties stay unwrapped: they are attribute reads, and spans around
        # them would outnumber all others without moving work between layers
        for attr, val in list(vars(cls).items()):
            name = f"{cls.__name__}.{attr}"
            if attr == "__init__" and inspect.isfunction(val):
                wrapped = self._wrap(layer, name, val, f"{layer}.{cls.__name__}.count")
            elif inspect.isfunction(val):
                wrapped = self._wrap(layer, name, val)
            elif isinstance(val, staticmethod):
                wrapped = staticmethod(self._wrap(layer, name, val.__func__))
            else:
                continue
            setattr(cls, attr, wrapped)

    def package_modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def rebind(self, replaced: dict) -> None:
        for mod in self.package_modules():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, name, replaced[obj])

    def unwrapped_bindings(self, replaced: dict) -> list:
        """Module-level names, and entries of module-level dicts, lists and
        tuples, that still hold an original function."""
        missed = []
        for mod in self.package_modules():
            for name, obj in vars(mod).items():
                values = (obj.values() if isinstance(obj, dict)
                          else obj if isinstance(obj, (list, tuple)) else (obj,))
                if any(inspect.isfunction(v) and v in replaced for v in values):
                    missed.append(f"{mod.__name__}.{name}")
        return missed



class _AfterImport:
    """Meta-path finder that calls hook(module) right after the module
    `name` has been executed by its own loader, then steps aside."""

    def __init__(self, name: str, hook):
        self.name, self.hook = name, hook

    def find_spec(self, fullname, path, target=None):
        if fullname != self.name:
            return None
        sys.meta_path.remove(self)
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is None or spec.loader is None:
            return spec
        exec_module, hook = spec.loader.exec_module, self.hook

        def exec_and_hook(module):
            exec_module(module)
            hook(module)

        spec.loader.exec_module = exec_and_hook
        return spec
