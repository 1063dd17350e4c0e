"""In-memory span tracer that wraps qbarnes's layers from the outside.

`Tracer.install()` replaces each layer's public functions at every name a
qbarnes module bound them under (so `qbarnes.verify.multi_riemann_integral`
and `qbarnes.padic_integration.multi_riemann_integral` are both wrapped), the
suite table in `qbarnes.verify.SUITES`, and the arithmetic methods of
`Fraction`, `PadicNumber`, `Poly` and `TruncatedSeries`. `uninstall()` puts
every original back. Nothing under `src/` is edited.

Two kinds of span are recorded:

* a *full* span per call of a coarse function (name, start, end, parent,
  operation id), kept in flat arrays;
* a *rolled-up* span for fine-grained calls (scalar arithmetic, q-brackets,
  valuations): one record per (enclosing full span, call path) carrying the
  call count, the summed duration and the summed self time. Storing every
  `Fraction.__add__` would cost more memory than the program under test.

Self time is a span's duration minus the time its direct children cover.
The program is single-threaded, so children never overlap and that cover is
the plain sum of their durations; summed over a tree, the self times add up
exactly to the root's duration.
"""
from __future__ import annotations

import json
import sys
from array import array
from fractions import Fraction
from time import perf_counter

ROOT = -1

# (module, function names) wrapped with full spans.
FULL_FUNCTIONS = {
    "qbarnes.euler_barnes": (
        "h_closed", "h_addition", "h_carlitz", "h_rational_in_q", "limit_q_to_1",
        "distribution_check", "poly_gcd",
    ),
    "qbarnes.series": ("classical_gf_coefficients", "q_gf_coefficients"),
    "qbarnes.padic_integration": (
        "mu_value", "riemann_integral", "multi_riemann_integral", "measure_E_value",
        "measure_additivity_check", "measure_bound_check", "prop5_check",
    ),
    "qbarnes.characters_lfunctions": (
        "twist_teichmuller", "h_chi", "l_riemann", "_l_negative_exact",
        "l_at_negative", "kummer_check",
    ),
    "qbarnes.verify": ("run_suite",),
    "qbarnes.cli": ("_dispatch_compute", "_emit"),
}

# (module, function names) wrapped with rolled-up spans: called per point.
ROLLED_FUNCTIONS = {
    "qbarnes.exact_numbers": (
        "valuation", "to_padic", "padic_pow", "padic_log", "padic_exp",
        "teichmuller", "agreement_valuation", "format_rational", "parse_rational",
    ),
    "qbarnes.qnum": ("qbracket", "qbracket_z", "qbracket_base", "rational_power"),
    "qbarnes.characters_lfunctions": ("angle_bracket",),
}

ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__rpow__", "__neg__",
)

# (module, class, methods, rolled-up?)
METHODS = (
    ("fractions", "Fraction", ARITHMETIC, True),
    ("qbarnes.exact_numbers", "PadicNumber", ARITHMETIC, True),
    ("qbarnes.euler_barnes", "Poly",
     ("__add__", "__sub__", "__mul__", "__pow__", "__neg__", "__call__", "divmod", "divexact"), False),
    ("qbarnes.euler_barnes", "RationalFunctionQ", ("__init__", "__call__"), False),
    ("qbarnes.series", "TruncatedSeries",
     ("__add__", "__sub__", "__mul__", "scale", "reciprocal"), False),
    ("qbarnes.characters_lfunctions", "DirichletCharacter",
     ("__init__", "trivial", "quadratic", "from_generator", "teichmuller_character"), False),
)


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return 0


def is_scalar(name: str) -> bool:
    """Span names of the L0 scalar operators (Fraction, PadicNumber)."""
    return name.startswith(("Fraction.", "exact_numbers.PadicNumber."))


def _span_name(module: str, qualname: str) -> str:
    return module.split(".")[-1] + "." + qualname


class Tracer:
    """Records spans for one process. Create, `install()`, run, `uninstall()`."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # full spans, one entry per closed span
        self.sid = array("q")
        self.sname = array("q")
        self.sstart = array("d")
        self.send = array("d")
        self.sparent = array("q")
        self.sop = array("q")
        self.sself = array("d")
        # rolled-up spans: (parent sid, op, path of name ids) -> [count, busy, self]
        self.rolled: dict[tuple, list] = {}
        # frames: [sid or None, name id, start, child busy, path]
        self._stack: list[list] = [[ROOT, -1, 0.0, 0.0, ()]]
        self._next_sid = 0
        self.op = -1
        self.counters: dict[str, float] = {}
        self.paused = False  # set while the harness checks outputs
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _enclosing_full(self) -> int:
        for frame in reversed(self._stack):
            if frame[0] is not None:
                return frame[0]
        return ROOT

    def open(self, nid: int, rolled: bool) -> list:
        if rolled:
            parent = self._stack[-1]
            frame = [None, nid, perf_counter(), 0.0, parent[4] + (nid,)]
        else:
            frame = [self._next_sid, nid, perf_counter(), 0.0, ()]
            self._next_sid += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        dur = end - frame[2]
        stack[-1][3] += dur
        own = dur - frame[3]
        if frame[0] is None:
            key = (self._enclosing_full(), self.op, frame[4])
            acc = self.rolled.get(key)
            if acc is None:
                self.rolled[key] = [1, dur, own]
            else:
                acc[0] += 1
                acc[1] += dur
                acc[2] += own
            return
        self.sid.append(frame[0])
        self.sname.append(frame[1])
        self.sstart.append(frame[2])
        self.send.append(end)
        self.sparent.append(self._enclosing_full())
        self.sop.append(self.op)
        self.sself.append(own)

    def span(self, name: str):
        """Context manager for a full span opened by the benchmark itself."""
        return _SpanContext(self, self.name_id(name))

    def count(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key: str, value: float) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name: str, rolled: bool, hook=None):
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            frame = tracer.open(nid, rolled)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(frame)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            # vars(), not getattr(): a class must get its descriptor back
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapped) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qbarnes" or mod_name.startswith("qbarnes.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapped)

    def install(self) -> None:
        import importlib

        import qbarnes.cli  # noqa: F401  (loads every layer)

        for table, rolled in ((FULL_FUNCTIONS, False), (ROLLED_FUNCTIONS, True)):
            for mod_name, names in table.items():
                mod = importlib.import_module(mod_name)
                for fname in names:
                    original = getattr(mod, fname)
                    name = _span_name(mod_name, fname)
                    wrapped = self._wrap(original, name, rolled, HOOKS.get(name))
                    self._rebind_everywhere(original, wrapped)
        self._wrap_parser_factory(sys.modules["qbarnes.cli"])
        verify = importlib.import_module("qbarnes.verify")
        for suite, fn in list(verify.SUITES.items()):
            self._patch(verify.SUITES, suite, self._wrap(fn, f"verify.suite.{suite}", False))
        for mod_name, cls_name, methods, rolled in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            prefix = "Fraction" if cls is Fraction else _span_name(mod_name, cls_name)
            for meth in methods:
                raw = vars(cls).get(meth)
                if raw is None:
                    continue
                name = f"{prefix}.{meth}"
                hook = HOOKS.get(name, _fraction_bits if cls is Fraction else None)
                if isinstance(raw, classmethod):
                    value = classmethod(self._wrap(raw.__func__, name, rolled, hook))
                else:
                    value = self._wrap(raw, name, rolled, hook)
                self._patch(cls, meth, value)

    def _wrap_parser_factory(self, cli) -> None:
        # main() calls build_parser() then parser.parse_args(); the second
        # call is a bound method, so it is wrapped on each new parser.
        build = self._wrap(cli.build_parser, "cli.build_parser", False)
        tracer = self

        def build_parser():
            parser = build()
            parser.parse_args = tracer._wrap(parser.parse_args, "cli.parse_args", False)
            return parser

        self._patch(cli, "build_parser", build_parser)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def spans(self):
        """Every span as a dict, full spans first, then rolled-up ones."""
        for i in range(len(self.sid)):
            yield {
                "id": self.sid[i],
                "name": self.names[self.sname[i]],
                "start": self.sstart[i],
                "end": self.send[i],
                "parent": self.sparent[i],
                "op": self.sop[i],
                "self": self.sself[i],
            }
        for (parent, op, path), (count, busy, own) in self.rolled.items():
            yield {
                "name": self.names[path[-1]],
                "path": [self.names[n] for n in path],
                "parent": parent,
                "op": op,
                "count": count,
                "busy": busy,
                "self": own,
            }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans():
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")

    def by_name(self) -> dict[str, list]:
        """name -> [calls, inclusive busy, self, scalar] over all spans.

        `scalar` is the time of the Fraction and PadicNumber operators the
        name's own code called directly: at L1-L3 that arithmetic is the
        layer's work, so layer self times are read with it included.
        Inclusive time double-counts a name nested under itself; only the
        names read inclusively (suites, CLI stages) never nest.
        """
        out: dict[str, list] = {}
        full_names = {}
        for i in range(len(self.sid)):
            name = self.names[self.sname[i]]
            full_names[self.sid[i]] = name
            acc = out.setdefault(name, [0, 0.0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += self.send[i] - self.sstart[i]
            acc[2] += self.sself[i]
        for (parent, _, path), (count, busy, own) in self.rolled.items():
            name = self.names[path[-1]]
            acc = out.setdefault(name, [0, 0.0, 0.0, 0.0])
            acc[0] += count
            acc[1] += busy
            acc[2] += own
            if is_scalar(name):
                caller = self.names[path[-2]] if len(path) > 1 else full_names.get(parent)
                if caller is not None and not is_scalar(caller):
                    out.setdefault(caller, [0, 0.0, 0.0, 0.0])[3] += busy
        return out

    def self_time_total(self) -> float:
        return sum(self.sself) + sum(v[2] for v in self.rolled.values())


class _SpanContext:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.frame = self.tracer.open(self.nid, False)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.frame)
        return False


# -- counters recorded at call boundaries -------------------------------------


def _fraction_bits(tracer, args, kwargs, result) -> None:
    if isinstance(result, Fraction):
        tracer.maximum("fraction_bits_max", _bits(result))


def _riemann_points(tracer, args, kwargs, result) -> None:
    params, u, level = args[2], args[3], args[4]
    tracer.count("riemann_points", u.p ** (level * params.r))
    tracer.maximum("riemann_bits_max", _bits(result))


def _riemann_1d_points(tracer, args, kwargs, result) -> None:
    u = args[1]
    d = kwargs.get("d", args[2] if len(args) > 2 else 1)
    level = kwargs.get("N", args[3] if len(args) > 3 else 0)
    tracer.count("riemann_points", d * u.p**level)
    tracer.maximum("riemann_bits_max", _bits(result))


def _l_riemann_points(tracer, args, kwargs, result) -> None:
    chi, context, level = args[1], args[5], args[6]
    d = chi.modulus
    while d % context.p == 0:
        d //= context.p
    tracer.count("l_riemann_points", d * context.p**level)


def _h_closed_bits(tracer, args, kwargs, result) -> None:
    tracer.maximum("h_closed_bits_max", _bits(result))


def _poly_gcd_trivial(tracer, args, kwargs, result) -> None:
    if result.degree == 0:
        tracer.count("poly_gcd_trivial")


HOOKS = {
    "padic_integration.multi_riemann_integral": _riemann_points,
    "padic_integration.riemann_integral": _riemann_1d_points,
    "characters_lfunctions.l_riemann": _l_riemann_points,
    "euler_barnes.h_closed": _h_closed_bits,
    "euler_barnes.poly_gcd": _poly_gcd_trivial,
}
