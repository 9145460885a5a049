"""Traced in-process run of one workload: a span around every layer call.

    python3 bench/traced_run.py --workload fused_study --input study.json --out DIR --budget 10
    python3 bench/traced_run.py --workload harness --samples 40 --seed 1 --out DIR --budget 10

Each repetition is the workload's real CLI command, ``harmbounds.cli.main``
with ``analyze --input <study> --format json`` or ``verify --samples N
--seed S``, its standard output sent to DIR/traced_output.txt.  The layer
functions of ``TARGETS`` (in ``identification``, ``bounds``, ``lp_oracle``,
``propositions`` and ``model``) are wrapped from outside: every
module-level name (and module-level dict entry, such as the harness's
checker table) bound to one of them is rebound to a wrapper that records a
span.  The functions ``cli.main`` calls for each stage are rebound in
``cli`` the same way, each to a stage span; ``json.dump`` is rebound
through the ``json`` name in ``cli``.  For ``analyze`` the stages run in the
order of ``ANALYZE_STAGES``; ``cli.render_text``, which the JSON command
does not call, is then timed once on the report of ``cli.analyze``.  The
order matters: the first stage to call the LP oracle on a stratum pays its
cold vertex enumeration, and with this order that is ``cli.analyze``.

Repetitions run until the time budget is spent (at least four), alternately
traced and untraced: an untraced repetition records only its stage spans,
which gives the stages' own times and the tracing overhead.  The LP
oracle's vertex cache is cleared before each, as every real CLI call starts
with an empty cache.  One last repetition, untraced, runs under
``tracemalloc`` for each stage's peak memory.

Spans stay in memory and are written at the end to DIR/spans.jsonl: a
header line, then one JSON array per span with the fields of
``SPAN_FIELDS``; ``parent`` is the 0-based index of the parent span.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time
import tracemalloc
from pathlib import Path

import harmbounds.cli as cli
from harmbounds import bounds, identification, lp_oracle, model, propositions

SPAN_FIELDS = ("name", "start", "end", "parent", "item", "stage", "rep", "note")
ANALYZE_STAGES = ("cli.parse_input", "cli.analyze", "cli.report_to_json", "cli.json_dump", "cli.render_text")
VERIFY_STAGES = ("cli.command_verify",)

_VERTEX_CACHE = getattr(lp_oracle, "_feasible_vertices", None)


def _vertex_cache_info() -> tuple[int, int]:
    if _VERTEX_CACHE is None or not hasattr(_VERTEX_CACHE, "cache_info"):
        return 0, 0
    info = _VERTEX_CACHE.cache_info()
    return info.hits, info.misses


def _clear_vertex_cache() -> None:
    if _VERTEX_CACHE is not None and hasattr(_VERTEX_CACHE, "cache_clear"):
        _VERTEX_CACHE.cache_clear()


def _evidence_level(args) -> str:
    return ".p0" if args[0].p1 is None else ".fused"


def _compatible(result, _before) -> bool:
    return bool(result.compatible)


def _cold(_result, before) -> bool:
    """A call is cold when it missed the vertex cache."""
    return _vertex_cache_info()[1] > before[1]


# The layer functions that the per-layer metrics name:
# (module, function, span name, name suffix from the arguments, span note from the result)
TARGETS = (
    (identification, "compatibility_check", "identification.compatibility_check", None, _compatible),
    (identification, "identify_stratum_risks", "identification.identify_stratum_risks", None, None),
    (bounds, "harm_bounds", "bounds.harm_bounds", _evidence_level, None),
    (bounds, "benefit_bounds", "bounds.benefit_bounds", _evidence_level, None),
    (bounds, "conditional_harm_bounds", "bounds.conditional_harm_bounds", None, None),
    (bounds, "cate_bounds", "bounds.cate_bounds", None, None),
    (lp_oracle, "sharp_interval", "lp_oracle.sharp_interval", None, _cold),
    (propositions, "interventionist_verdict", "propositions.interventionist_verdict", _evidence_level, None),
    (propositions, "counterfactual_verdict", "propositions.counterfactual_verdict", _evidence_level, None),
    (propositions, "check_prop1", "propositions.check_prop1", None, None),
    (propositions, "check_prop2", "propositions.check_prop2", None, None),
    (propositions, "check_prop3", "propositions.check_prop3", None, None),
    (propositions, "check_prop4", "propositions.check_prop4", None, None),
    (model, "sample_joint", "model.sample_joint", None, None),
    (model, "observables_from_joint", "model.observables_from_joint", None, None),
)


class Tracer:
    """Holds the spans of one traced run.

    A span's item is its parent's item, or else is read from its first
    argument: an analyze stratum is identified by its ExperimentalParams
    object (registered when ``cli.parse_input`` returns), a harness joint by
    its first appearance.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.items: dict[int, int] = {}
        self.enabled = True
        self.stage = None
        self.rep = 0
        self.peaks = None  # stage name -> peak bytes, while running under tracemalloc
        self.report = None  # what cli.analyze last returned

    def _item_of(self, args):
        if self.stack and self.spans[self.stack[-1]][4] is not None:
            return self.spans[self.stack[-1]][4]
        if not args:
            return None
        first = args[0]
        if isinstance(first, bounds.EvidenceSet):
            first = first.p0
        if isinstance(first, model.JointDistribution):
            return self.items.setdefault(id(first), len(self.items))
        return self.items.get(id(first))

    def _open(self, name: str, item) -> list:
        parent = self.stack[-1] if self.stack else None
        record = [name, 0.0, 0.0, parent, item, self.stage, self.rep, None]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def wrap(self, name, fn, suffix=None, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            record = tracer._open(name + suffix(args) if suffix else name, tracer._item_of(args))
            before = _vertex_cache_info() if note is not None else None
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer.stack.pop()
            if note is not None:
                record[7] = note(result, before)
            return result

        return traced

    def wrap_stage(self, name, fn):
        """A stage span, recorded also when tracing is off, noting the
        vertex-cache counts the stage added and, under tracemalloc, keeping
        its peak allocation above its starting point."""
        tracer = self

        @functools.wraps(fn)
        def stage(*args, **kwargs):
            tracer.stage = name
            record = tracer._open(name, None)
            before = _vertex_cache_info()
            if tracer.peaks is not None:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer.stack.pop()
                tracer.stage = None
            if tracer.peaks is not None:
                tracer.peaks[name] = tracemalloc.get_traced_memory()[1] - base
            after = _vertex_cache_info()
            record[7] = {"vertex_cache_hits": after[0] - before[0], "vertex_cache_misses": after[1] - before[1]}
            if name == "cli.parse_input":
                tracer.items = {id(s.evidence.p0): i for i, s in enumerate(result.strata)}
            elif name == "cli.analyze":
                tracer.report = result
            return result

        return stage


class _TracedJson:
    """The ``json`` module as ``cli`` sees it, with ``dump`` a stage."""

    def __init__(self, dump) -> None:
        self.dump = dump

    def __getattr__(self, attr):
        return getattr(json, attr)


def install(tracer: Tracer) -> None:
    """Rebind every harmbounds module-level reference to each target to its
    wrapper, and the functions ``cli.main`` calls for each stage to stages."""
    modules = [m for name, m in sys.modules.items() if name == "harmbounds" or name.startswith("harmbounds.")]
    for module, attr, name, suffix, note in TARGETS:
        original = getattr(module, attr)
        traced = tracer.wrap(name, original, suffix, note)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if key.startswith("__"):
                    continue
                if value is original:
                    setattr(mod, key, traced)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = traced
    for attr in ("parse_input", "analyze", "report_to_json", "command_verify"):
        setattr(cli, attr, tracer.wrap_stage(f"cli.{attr}", getattr(cli, attr)))
    cli.json = _TracedJson(tracer.wrap_stage("cli.json_dump", json.dump))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced run of one benchmark workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--input", help="study file (analyze workloads)")
    parser.add_argument("--samples", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds of traced repetitions")
    args = parser.parse_args(argv)
    out = Path(args.out)
    if args.workload == "harness":
        stages = VERIFY_STAGES
        cli_argv = ["verify", "--samples", str(args.samples), "--seed", str(args.seed)]
    else:
        stages = ANALYZE_STAGES
        cli_argv = ["analyze", "--input", args.input, "--format", "json"]

    tracer = Tracer()
    install(tracer)
    render_text = tracer.wrap_stage("cli.render_text", cli.render_text)

    def run_rep() -> dict:
        tracer.items, tracer.report = {}, None
        _clear_vertex_cache()
        output = out / "traced_output.txt"
        with open(output, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            began = time.perf_counter()
            status = cli.main(cli_argv)
            main_s = time.perf_counter() - began
        if tracer.report is not None:
            render_text(tracer.report)
        return {"exit_code": status, "main_s": main_s, "output_bytes": output.stat().st_size}

    reps = []
    began = time.perf_counter()
    while len(reps) < 4 or time.perf_counter() - began < args.budget:
        tracer.rep = len(reps)
        tracer.enabled = tracer.rep % 2 == 0
        reps.append({"rep": tracer.rep, "traced": tracer.enabled, **run_rep()})

    # The last repetition, untraced, under tracemalloc; its spans are dropped.
    # Its output stays in traced_output.txt for the output checks.
    kept = len(tracer.spans)
    tracer.enabled, tracer.peaks = False, {}
    tracemalloc.start()
    try:
        last = run_rep()
    finally:
        tracemalloc.stop()
    del tracer.spans[kept:]

    with open(out / "spans.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": SPAN_FIELDS, "stage_order": stages}) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    summary = {
        "workload": args.workload,
        "stage_order": stages,
        "reps": reps,
        "last_rep": last,
        "tracemalloc_peak_bytes": {name: tracer.peaks.get(name, 0) for name in stages},
        "module": cli.__file__,
    }
    (out / "trace.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
