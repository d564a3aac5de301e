"""Spans around the public functions of each delpezzo1 module.

Several modules bind functions by name (``from .linalg import q_rank``), so
a wrapper is installed at every module attribute that holds the original
function, not only in the defining module.  Methods are wrapped on their
class.  Spans live in memory as :class:`Span` records; :func:`summarize`
turns one pass worth of spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

# (defining module, attribute, span key).  "Class.name" wraps a method.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("serialize", "to_canonical_json", "serialize.render"),
    ("serialize", "to_text", "serialize.render"),
    ("curve", "build_bundle", "curve.build_bundle"),
    ("curve", "build_v", "curve.build_v"),
    ("curve", "build_w", "curve.build_w"),
    ("curve", "build_q", "curve.build_q"),
    ("curve", "cubic_space", "curve.cubic_space"),
    ("curve", "sextic_space", "curve.sextic_space"),
    ("curve", "multiplicity_report", "curve.multiplicity_report"),
    ("curve", "perfect_power_dichotomy", "curve.perfect_power_dichotomy"),
    ("curve", "verify_bundle", "curve.verify_bundle"),
    ("linalg", "q_kernel_basis", "linalg.q_kernel_basis"),
    ("linalg", "q_rank", "linalg.q_rank"),
    ("linalg", "int_functional_kernel", "linalg.int_kernel"),
    ("linalg", "f2_rank", "linalg.f2"),
    ("linalg", "f2_det", "linalg.f2"),
    ("linalg", "bareiss_det", "linalg.bareiss_det"),
    ("quotient", "qr_reduce", "quotient.qr_reduce"),
    ("quotient", "tri_eval_param", "quotient.tri_eval_param"),
    ("tripoly", "TriPoly.__mul__", "tripoly.mul"),
    ("tripoly", "TriPoly.__rmul__", "tripoly.mul"),
    ("tripoly", "TriPoly.__pow__", "tripoly.mul"),
    ("position", "check_three_collinear", "position.check_three_collinear"),
    ("position", "check_six_conic", "position.check_six_conic"),
    ("position", "check_singular_cubic", "position.check_singular_cubic"),
    ("unipoly", "root_sum_poly", "unipoly.root_sum_poly"),
    ("unipoly", "UniPoly.exact_div", "unipoly.exact_div"),
    ("unipoly", "UniPoly.resultant", "unipoly.resultant"),
    ("unipoly", "UniPoly.gcd", "unipoly.gcd"),
    ("unipoly", "UniPoly.discriminant", "unipoly.discriminant"),
    ("finitefield", "ddf_degree_multiset", "finitefield.ddf_degree_multiset"),
    ("galois", "certify_galois", "galois.certify_galois"),
    ("lattice", "orth_complement", "lattice.orth_complement"),
    ("lattice", "enumerate_short_vectors", "lattice.enumerate_short_vectors"),
    ("lattice", "f8s_iso_check", "lattice.f8s_iso_check"),
    ("lattice", "picard_model_check", "lattice.picard_model_check"),
    ("lattice", "mod2_quadratic_census", "lattice.mod2_quadratic_census"),
    ("lattice", "linalg_lemma_check", "lattice.linalg_lemma_check"),
)

# Reported as self time: span time minus the time of their child spans.
SELF_TIMED = frozenset({"cli.main", "curve.verify_bundle"})

# Spans whose arguments and result feed a size or outcome count.
KEEP_PAYLOAD = frozenset(
    {
        "curve.build_q",
        "curve.build_w",
        "linalg.q_kernel_basis",
        "linalg.q_rank",
        "position.check_three_collinear",
        "unipoly.root_sum_poly",
        "galois.certify_galois",
        "lattice.enumerate_short_vectors",
        "serialize.render",
    }
)

# (metric name, unit), in report order.  Times are seconds per traced pass.
PER_LAYER = (
    ("curve.build_bundle_s", "s"),
    ("curve.build_v_s", "s"),
    ("curve.build_w_s", "s"),
    ("curve.build_q_s", "s"),
    ("curve.cubic_space_s", "s"),
    ("curve.sextic_space_s", "s"),
    ("curve.multiplicity_report_s", "s"),
    ("curve.perfect_power_dichotomy_s", "s"),
    ("curve.verify_bundle_self_s", "s"),
    ("curve.q_terms", "count"),
    ("curve.q_coeff_bits", "bits"),
    ("curve.w_coeff_bits", "bits"),
    ("linalg.q_kernel_basis_s", "s"),
    ("linalg.q_kernel_basis_calls", "count"),
    ("linalg.q_rank_s", "s"),
    ("linalg.q_rank_calls", "count"),
    ("linalg.rref_cells", "count"),
    ("linalg.int_kernel_s", "s"),
    ("linalg.f2_s", "s"),
    ("linalg.bareiss_det_s", "s"),
    ("quotient.qr_reduce_s", "s"),
    ("quotient.qr_reduce_calls", "count"),
    ("quotient.tri_eval_param_s", "s"),
    ("tripoly.mul_s", "s"),
    ("tripoly.mul_calls", "count"),
    ("position.check_three_collinear_s", "s"),
    ("position.collinear_fast_calls", "count"),
    ("position.collinear_deflated_calls", "count"),
    ("position.check_six_conic_s", "s"),
    ("position.check_singular_cubic_s", "s"),
    ("unipoly.root_sum_poly_s", "s"),
    ("unipoly.root_sum_poly_calls", "count"),
    ("unipoly.root_sum_max_degree", "count"),
    ("unipoly.root_sum_coeff_bits", "bits"),
    ("unipoly.exact_div_s", "s"),
    ("unipoly.exact_div_calls", "count"),
    ("unipoly.resultant_s", "s"),
    ("unipoly.gcd_s", "s"),
    ("unipoly.discriminant_s", "s"),
    ("galois.certify_galois_s", "s"),
    ("galois.certified_ratio", "ratio"),
    ("finitefield.ddf_degree_multiset_s", "s"),
    ("finitefield.primes_sampled", "count"),
    ("finitefield.primes_skipped", "count"),
    ("lattice.orth_complement_s", "s"),
    ("lattice.enumerate_short_vectors_s", "s"),
    ("lattice.short_vectors_found", "count"),
    ("lattice.f8s_iso_check_s", "s"),
    ("lattice.picard_model_check_s", "s"),
    ("lattice.mod2_quadratic_census_s", "s"),
    ("lattice.linalg_lemma_check_s", "s"),
    ("serialize.render_s", "s"),
    ("serialize.output_bytes", "bytes"),
    ("cli.main_self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


@dataclass
class Span:
    key: str
    start: float
    end: float
    parent: int  # index into the pass's span list, -1 at the top
    call: int  # index of the CLI call the span belongs to
    outermost: bool  # no enclosing span with the same key
    error: str | None = None  # exception class name, if the call raised
    payload: tuple | None = None  # (args, result) for KEEP_PAYLOAD keys


class Tracer:
    """Installs span wrappers into an imported delpezzo1 package."""

    def __init__(self):
        self.spans: list[Span] = []
        self.call = 0
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        spans, stack, depth = self.spans, self._stack, self._depth
        keep = key in KEEP_PAYLOAD

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(key, 0.0, 0.0, stack[-1] if stack else -1, self.call, depth[key] == 0)
            stack.append(len(spans))
            spans.append(span)
            depth[key] += 1
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                depth[key] -= 1
                stack.pop()
            if keep:
                span.payload = (args, result)
            return result

        return traced

    def install(self) -> None:
        package = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "delpezzo1" or name.startswith("delpezzo1.")
        }
        for module_name, attr, key in TARGETS:
            home = package[f"delpezzo1.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                self._patch(cls, method, self._wrap(key, cls.__dict__[method]))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(key, original)
            for mod in package.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)


def _height_bits(coeffs) -> int:
    return max((max(abs(c.numerator), c.denominator).bit_length() for c in coeffs), default=0)


def key_stats(spans: list[Span]) -> tuple[Counter, dict[str, float]]:
    """Calls per key, and time per key (outermost spans, or self time)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    calls: Counter = Counter()
    time: dict[str, float] = defaultdict(float)
    for i, span in enumerate(spans):
        calls[span.key] += 1
        if span.key in SELF_TIMED:
            time[span.key] += span.end - span.start - child_time[i]
        elif span.outermost:
            time[span.key] += span.end - span.start
    return calls, time


def summarize(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_frac, from one pass."""
    calls, time = key_stats(spans)
    payloads: dict[str, list] = defaultdict(list)
    for span in spans:
        if span.payload is not None:
            payloads[span.key].append(span.payload)

    metrics: dict[str, float] = {}
    for name, unit in PER_LAYER:
        if unit == "s":
            key = name.removesuffix("_self_s").removesuffix("_s")
            metrics[name] = time.get(key, 0.0)
        elif name.endswith("_calls") and name.removesuffix("_calls") in calls:
            metrics[name] = calls[name.removesuffix("_calls")]

    q_forms = [result for _, result in payloads["curve.build_q"]]
    metrics["curve.q_terms"] = sum(len(q.terms) for q in q_forms) / len(q_forms) if q_forms else 0
    metrics["curve.q_coeff_bits"] = max((_height_bits(q.terms.values()) for q in q_forms), default=0)
    metrics["curve.w_coeff_bits"] = max(
        (_height_bits(result[0].terms.values()) for _, result in payloads["curve.build_w"]), default=0
    )
    metrics["linalg.rref_cells"] = sum(
        len(args[0]) * args[1] for args, _ in payloads["linalg.q_kernel_basis"]
    ) + sum(len(args[0]) * len(args[0][0]) for args, _ in payloads["linalg.q_rank"] if args[0])
    paths = Counter(result.witness["path"] for _, result in payloads["position.check_three_collinear"])
    metrics["position.collinear_fast_calls"] = paths["fast"]
    metrics["position.collinear_deflated_calls"] = paths["deflated"]
    sums = [result for _, result in payloads["unipoly.root_sum_poly"]]
    metrics["unipoly.root_sum_max_degree"] = max((p.degree for p in sums), default=0)
    metrics["unipoly.root_sum_coeff_bits"] = max((_height_bits(p.coeffs) for p in sums), default=0)
    certs = [result for _, result in payloads["galois.certify_galois"]]
    metrics["galois.certified_ratio"] = sum(c.certified for c in certs) / len(certs) if certs else 0
    ddf = [s for s in spans if s.key == "finitefield.ddf_degree_multiset"]
    metrics["finitefield.primes_sampled"] = sum(s.error is None for s in ddf)
    metrics["finitefield.primes_skipped"] = sum(s.error == "PrimeSkip" for s in ddf)
    metrics["lattice.short_vectors_found"] = sum(
        len(result) for _, result in payloads["lattice.enumerate_short_vectors"]
    )
    metrics["serialize.output_bytes"] = sum(len(result) for _, result in payloads["serialize.render"])
    return {name: metrics.get(name, 0) for name, _ in PER_LAYER if name != "trace.overhead_frac"}


def exact_counts(spans: list[Span]) -> dict[str, float]:
    """Counts that must repeat exactly between two passes over the same inputs."""
    calls, _ = key_stats(spans)
    counts = {f"{key}_calls": n for key, n in sorted(calls.items())}
    metrics = summarize(spans)
    counts.update((name, value) for name, value in metrics.items() if not name.endswith("_s"))
    return counts
