"""Outside-in span tracing of the library's public functions.

A :class:`Tracer` replaces a module-level function by a timing wrapper
in every loaded module that holds it (``lieb_liniger`` imports
``gauss_legendre`` from ``numerics``, ``cli`` imports ``solve_tba``,
and so on), so calls made inside the library are seen as well as calls
made by the benchmark.  Spans are kept in memory -- name, start, end,
parent id and a few counters -- and written out once by the caller.
Nothing inside ``lowdgas`` is edited.

The per-layer metrics are derived from the span list afterwards by
:func:`layer_metrics`.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# (home module, attribute, span name)
TARGETS = (
    ("lowdgas.cli", "run_sweep", "cli.sweep"),
    ("lowdgas.cli", "emit", "cli.render"),
    ("lowdgas.lieb_liniger", "solve_tba", "lieb_liniger.solve_tba"),
    ("lowdgas.lieb_liniger", "solve_ground_state", "lieb_liniger.solve_ground_state"),
    ("lowdgas.lieb_liniger", "e_res_zero_T", "lieb_liniger.e_res_zero_T"),
    ("lowdgas.lieb_liniger", "e_res_finite_T", "lieb_liniger.e_res_finite_T"),
    ("lowdgas.numerics", "gauss_legendre", "numerics.gauss_legendre"),
    ("lowdgas.numerics", "solve_fixed_point", "numerics.solve_fixed_point"),
    ("lowdgas.numerics", "find_root", "numerics.find_root"),
    ("lowdgas.numerics", "derivative", "numerics.derivative"),
    ("lowdgas.numerics", "golden_section_max", "numerics.golden_section_max"),
    ("lowdgas.numerics", "integrate", "numerics.integrate"),
    ("numpy.linalg", "solve", "linalg.solve"),
    ("lowdgas.anyon_abelian", "b2_softcore", "anyon_abelian.b2_softcore"),
    ("lowdgas.anyon_abelian", "e_rel_abelian", "anyon_abelian.e_rel_abelian"),
    ("lowdgas.anyon_nacs", "b2_nacs_isotropic", "anyon_nacs.b2_nacs_isotropic"),
    ("lowdgas.anyon_nacs", "e_rel_nacs", "anyon_nacs.e_rel_nacs"),
    ("lowdgas.virial", "thermo_from_virial", "virial.thermo_from_virial"),
)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    t0: float
    t1: float = 0.0
    error: str = ""
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def as_list(self) -> list:
        return [self.id, self.parent, self.name, self.t0, self.t1, self.error, self.counts]


def _counting(fn, counts: dict, key: str):
    """``fn`` with each call tallied in ``counts[key]``."""

    def counted(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return fn(*args, **kwargs)

    return counted


def _prepare(name: str, args: tuple, kwargs: dict, counts: dict) -> tuple:
    """Record argument-derived counters; wrap callables whose calls are
    counted.  Returns the (possibly wrapped) positional arguments."""
    if name == "numerics.gauss_legendre":
        counts["n"] = int(args[0] if args else kwargs["n"])
    elif name == "numerics.integrate":
        rule = args[1] if len(args) > 1 else kwargs["rule"]
        counts["nodes"] = len(rule)
    elif name == "linalg.solve":
        n = int(args[0].shape[-1])
        counts["n"] = n
        counts["flop"] = 2.0 * n**3 / 3.0
    elif name == "numerics.solve_fixed_point" and args:
        return (_counting(args[0], counts, "sweeps"),) + args[1:]
    elif name in ("numerics.find_root", "numerics.golden_section_max") and args:
        return (_counting(args[0], counts, "evals"),) + args[1:]
    return args


class Tracer:
    """Span recorder.  :meth:`install` patches :data:`TARGETS`,
    :meth:`uninstall` restores the originals."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, name, 0.0)
            spans.append(span)
            stack.append(span.id)
            args = _prepare(name, args, kwargs, span.counts)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if name == "cli.sweep":
                    span.counts["points"] = len(result.rows)
                return result
            except BaseException as err:
                span.error = type(err).__name__
                raise
            finally:
                span.t1 = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        owners = [m for n, m in sorted(sys.modules.items()) if n == "lowdgas" or n.startswith("lowdgas.")]
        for home, attr, name in TARGETS:
            home_mod = sys.modules[home]
            orig = getattr(home_mod, attr)
            wrapper = self._wrap(orig, name)
            for mod in [home_mod] + [m for m in owners if m is not home_mod]:
                if vars(mod).get(attr) is orig:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()


# ---------------------------------------------------------------------------
# per-layer metrics

_S, _N = "s", "count"

# name -> (unit, better)
PER_LAYER = {
    "cli.sweep.s": (_S, "lower"),
    "cli.render.s": (_S, "lower"),
    "cli.self.s": (_S, "lower"),
    "cli.points": (_N, "higher"),
    "lieb_liniger.solve_tba.calls": (_N, "lower"),
    "lieb_liniger.solve_tba.s": (_S, "lower"),
    "lieb_liniger.solve_tba.max_s": (_S, "lower"),
    "lieb_liniger.solve_tba.rungs": (_N, "lower"),
    "lieb_liniger.solve_tba.max_nodes": (_N, "lower"),
    "lieb_liniger.solve_tba.last_rung_share": ("ratio", "lower"),
    "lieb_liniger.solve_ground_state.calls": (_N, "lower"),
    "lieb_liniger.solve_ground_state.s": (_S, "lower"),
    "lieb_liniger.solve_ground_state.rungs": (_N, "lower"),
    "lieb_liniger.e_res_zero_T.s": (_S, "lower"),
    "lieb_liniger.e_res_finite_T.s": (_S, "lower"),
    "numerics.gauss_legendre.calls": (_N, "lower"),
    "numerics.gauss_legendre.s": (_S, "lower"),
    "numerics.gauss_legendre.max_n": (_N, "lower"),
    "numerics.solve_fixed_point.calls": (_N, "lower"),
    "numerics.solve_fixed_point.sweeps": (_N, "lower"),
    "numerics.solve_fixed_point.stalls": (_N, "lower"),
    "numerics.solve_fixed_point.s": (_S, "lower"),
    "numerics.find_root.calls": (_N, "lower"),
    "numerics.find_root.evals": (_N, "lower"),
    "numerics.find_root.bracket_misses": (_N, "lower"),
    "numerics.find_root.s": (_S, "lower"),
    "numerics.derivative.calls": (_N, "lower"),
    "numerics.derivative.s": (_S, "lower"),
    "numerics.golden_section_max.evals": (_N, "lower"),
    "numerics.golden_section_max.s": (_S, "lower"),
    "numerics.integrate.calls": (_N, "lower"),
    "numerics.integrate.nodes": (_N, "lower"),
    "numerics.integrate.s": (_S, "lower"),
    "linalg.solve.calls": (_N, "lower"),
    "linalg.solve.s": (_S, "lower"),
    "linalg.solve.gflop_computed": ("GFLOP", "lower"),
    "anyon_abelian.b2_softcore.calls": (_N, "lower"),
    "anyon_abelian.b2_softcore.s": (_S, "lower"),
    "anyon_abelian.e_rel_abelian.calls": (_N, "lower"),
    "anyon_abelian.e_rel_abelian.s": (_S, "lower"),
    "anyon_nacs.b2_nacs_isotropic.s": (_S, "lower"),
    "anyon_nacs.e_rel_nacs.s": (_S, "lower"),
    "virial.thermo_from_virial.s": (_S, "lower"),
    "trace.overhead_s": (_S, "lower"),
}


def _ladder(spans: list[Span], children: dict, name: str) -> tuple[int, int, float, float]:
    """Rung count, largest rung, time on last rungs and total time of the
    ``name`` spans; one rung is one ``gauss_legendre`` node build."""
    rungs, max_nodes, last, total = 0, 0, 0.0, 0.0
    for span in spans:
        if span.name != name:
            continue
        total += span.duration
        builds = [spans[c] for c in children.get(span.id, ()) if spans[c].name == "numerics.gauss_legendre"]
        rungs += len(builds)
        if builds:
            max_nodes = max(max_nodes, max(b.counts["n"] for b in builds))
            last += span.t1 - builds[-1].t0
    return rungs, max_nodes, last, total


def layer_metrics(spans: list[Span], overhead_s: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced round's spans."""
    children: dict[int, list[int]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span.id)

    def of(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in of(name))

    def tally(name, key):
        return sum(s.counts.get(key, 0) for s in of(name))

    sweeps = of("cli.sweep")
    cli_self = sum(s.duration - sum(spans[c].duration for c in children.get(s.id, ())) for s in sweeps)
    tba_rungs, tba_max, tba_last, tba_s = _ladder(spans, children, "lieb_liniger.solve_tba")
    gs_rungs, _, _, _ = _ladder(spans, children, "lieb_liniger.solve_ground_state")
    tba = of("lieb_liniger.solve_tba")
    builds = of("numerics.gauss_legendre")
    fixed = of("numerics.solve_fixed_point")
    roots = of("numerics.find_root")
    return {
        "cli.sweep.s": total("cli.sweep"),
        "cli.render.s": total("cli.render"),
        "cli.self.s": cli_self,
        "cli.points": tally("cli.sweep", "points"),
        "lieb_liniger.solve_tba.calls": len(tba),
        "lieb_liniger.solve_tba.s": tba_s,
        "lieb_liniger.solve_tba.max_s": max((s.duration for s in tba), default=0.0),
        "lieb_liniger.solve_tba.rungs": tba_rungs,
        "lieb_liniger.solve_tba.max_nodes": tba_max,
        "lieb_liniger.solve_tba.last_rung_share": tba_last / tba_s if tba_s > 0.0 else 0.0,
        "lieb_liniger.solve_ground_state.calls": len(of("lieb_liniger.solve_ground_state")),
        "lieb_liniger.solve_ground_state.s": total("lieb_liniger.solve_ground_state"),
        "lieb_liniger.solve_ground_state.rungs": gs_rungs,
        "lieb_liniger.e_res_zero_T.s": total("lieb_liniger.e_res_zero_T"),
        "lieb_liniger.e_res_finite_T.s": total("lieb_liniger.e_res_finite_T"),
        "numerics.gauss_legendre.calls": len(builds),
        "numerics.gauss_legendre.s": total("numerics.gauss_legendre"),
        "numerics.gauss_legendre.max_n": max((s.counts["n"] for s in builds), default=0),
        "numerics.solve_fixed_point.calls": len(fixed),
        "numerics.solve_fixed_point.sweeps": tally("numerics.solve_fixed_point", "sweeps"),
        "numerics.solve_fixed_point.stalls": sum(1 for s in fixed if s.error),
        "numerics.solve_fixed_point.s": total("numerics.solve_fixed_point"),
        "numerics.find_root.calls": len(roots),
        "numerics.find_root.evals": tally("numerics.find_root", "evals"),
        "numerics.find_root.bracket_misses": sum(1 for s in roots if s.error == "BracketError"),
        "numerics.find_root.s": total("numerics.find_root"),
        "numerics.derivative.calls": len(of("numerics.derivative")),
        "numerics.derivative.s": total("numerics.derivative"),
        "numerics.golden_section_max.evals": tally("numerics.golden_section_max", "evals"),
        "numerics.golden_section_max.s": total("numerics.golden_section_max"),
        "numerics.integrate.calls": len(of("numerics.integrate")),
        "numerics.integrate.nodes": tally("numerics.integrate", "nodes"),
        "numerics.integrate.s": total("numerics.integrate"),
        "linalg.solve.calls": len(of("linalg.solve")),
        "linalg.solve.s": total("linalg.solve"),
        "linalg.solve.gflop_computed": tally("linalg.solve", "flop") / 1e9,
        "anyon_abelian.b2_softcore.calls": len(of("anyon_abelian.b2_softcore")),
        "anyon_abelian.b2_softcore.s": total("anyon_abelian.b2_softcore"),
        "anyon_abelian.e_rel_abelian.calls": len(of("anyon_abelian.e_rel_abelian")),
        "anyon_abelian.e_rel_abelian.s": total("anyon_abelian.e_rel_abelian"),
        "anyon_nacs.b2_nacs_isotropic.s": total("anyon_nacs.b2_nacs_isotropic"),
        "anyon_nacs.e_rel_nacs.s": total("anyon_nacs.e_rel_nacs"),
        "virial.thermo_from_virial.s": total("virial.thermo_from_virial"),
        "trace.overhead_s": overhead_s,
    }
