"""Experiment orchestration: configuration ingestion, dispatch to the library
modules, and deterministic report emission.

All randomness is drawn from one seeded generator per record, so identical
(config, seed) pairs produce byte-identical JSON reports.  Wall-clock timings
are collected but kept out of the canonical serialization; pass
``include_timing=True`` to emit them.
"""

from __future__ import annotations

import json
import math
import random
import re
import time
from dataclasses import dataclass, field, replace

from . import __version__
from .autfunctors import (
    outer_group_experiment,
    random_semi_inner_data,
    semi_inner_functor,
    skew_inner_functor,
    verify_functor,
)
from .errors import Check, ConfigError, ParseError, SearchCapExceeded, SemicatError
from .ibn import classify_type, left_right_ibn_agree
from .lie import (
    UniversalEnvelope,
    abelian,
    chevalley_involution,
    coefficient_ring,
    commutative_multiply,
    cyclic_aut_check,
    exponents_up_to,
    free_module_basis,
    heisenberg,
    is_unit,
    lie_from_file,
    lift_semi_automorphism,
    multiply_by_word_rewriting,
    multiset_count,
    restricted_module_basis,
    sl2,
    verify_restricted,
)
from .matcat import random_invertible
from .semirings import (
    AXIOM_ORDER,
    automorphism_groups,
    check_axioms_on_sample,
    find_axiom_witness,
    load_semiring,
    read_semiring_file,
    units_of,
)

EXPERIMENT_KINDS = (
    "validate", "ibn", "aut-groups", "functor-verify", "out-group", "lie-suite",
)


@dataclass
class ExperimentConfig:
    kind: str
    semiring: str = None
    lie: str = None
    cap: int = 2
    degree_cap: int = 3
    seed: int = 0
    budget: int = 200_000

    def validate(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.cap < 1 or self.degree_cap < 1:
            raise ConfigError("caps must be at least 1")
        if self.budget < 0:
            raise ConfigError(f"the budget must not be negative, not {self.budget}")
        if self.kind == "lie-suite":
            if not self.lie:
                raise ConfigError("lie-suite needs a lie algebra file or name")
        elif not self.semiring:
            raise ConfigError(f"{self.kind} needs a semiring file or name")

    def echo(self):
        return {
            "kind": self.kind,
            "semiring": self.semiring,
            "lie": self.lie,
            "cap": self.cap,
            "degree_cap": self.degree_cap,
            "seed": self.seed,
            "budget": self.budget,
        }


@dataclass
class Report:
    experiment: dict
    records: list = field(default_factory=list)
    version: str = __version__

    @property
    def verdict(self):
        if not self.records:
            return "vacuous-pass"
        return "pass" if all(r.passed for r in self.records) else "fail"

    def to_json(self, include_timing=False):
        return {
            "experiment": self.experiment,
            "records": [r.to_json(include_timing) for r in self.records],
            "verdict": self.verdict,
            "version": self.version,
        }


def emit_report(report, fmt="json", include_timing=False):
    if fmt == "json":
        return json.dumps(report.to_json(include_timing), sort_keys=True, indent=2)
    if fmt == "text":
        lines = [f"experiment: {json.dumps(report.experiment, sort_keys=True)}"]
        width = max((len(r.name) for r in report.records), default=8)
        for r in report.records:
            lines.append(f"  {r.name:<{width}}  {r.regime:<10}  {r.status}")
            if r.witness and not r.passed:
                lines.append(f"    witness: {r.witness}")
        lines.append(f"verdict: {report.verdict}")
        return "\n".join(lines)
    raise ConfigError(f"unknown format {fmt!r}")


_RECORD_FIELD_TYPES = {
    "name": str, "regime": str, "status": str, "witness": (str, type(None)),
    "seed": (int, type(None)), "timing_ms": (int, float, type(None)),
}


def report_from_json(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad report JSON: {exc}") from exc
    try:
        report = Report(
            experiment=data["experiment"],
            records=[
                Check(name=r["name"], regime=r["regime"], status=r["status"],
                      witness=r.get("witness"), seed=r.get("seed"),
                      timing_ms=r.get("timing_ms"))
                for r in data["records"]],
            version=data.get("version", __version__))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"not a report object: {exc!r}") from exc
    for r in report.records:
        for field_name, types in _RECORD_FIELD_TYPES.items():
            value = getattr(r, field_name)
            if not isinstance(value, types) or isinstance(value, bool):
                raise ParseError(
                    f"record field {field_name!r} has the wrong type: {value!r}")
    return report


class _Recorder:
    def __init__(self, seed):
        self.seed = seed
        self.records = []

    def run(self, name, regime, body):
        start = time.perf_counter()
        try:
            witness = body()
        except SemicatError as exc:
            passed, witness = False, f"{type(exc).__name__}: {exc}"
        else:
            passed = True
            witness = witness if isinstance(witness, str) else None
        self.add(name, regime, passed, witness,
                 timing_ms=round((time.perf_counter() - start) * 1000.0, 3))

    def add(self, name, regime, passed, witness=None, timing_ms=None, checked=0):
        self.records.append(Check(
            name, regime, "pass" if passed else "fail", witness, checked,
            seed=self.seed if regime == "sampled" else None, timing_ms=timing_ms))

    def extend(self, prefix, checks):
        """Record checks made elsewhere, as ``prefix:name``, with this run's seed."""
        for c in checks:
            self.records.append(replace(
                c, name=f"{prefix}:{c.name}",
                seed=self.seed if c.regime == "sampled" else None))


def run_experiment(config):
    """Dispatch a validated config to its module; failures become records."""
    config.validate()
    rec = _Recorder(config.seed)
    runner = {
        "validate": _run_validate,
        "ibn": _run_ibn,
        "aut-groups": _run_aut_groups,
        "functor-verify": _run_functor_verify,
        "out-group": _run_out_group,
        "lie-suite": _run_lie_suite,
    }[config.kind]
    runner(config, rec)
    return Report(experiment=config.echo(), records=rec.records)


def _run_validate(config, rec):
    import os

    spec = config.semiring
    if os.path.exists(spec):
        # raw tables from a file: malformed shapes are a parse error, but
        # axiom violations become failed records
        add, mul, zero, one, _ = read_semiring_file(spec)
    else:
        semiring = load_semiring(spec)
        if not semiring.is_finite:
            rng = random.Random(f"{config.seed}:validate")
            sample = [semiring.zero, semiring.one] + [
                semiring.sample_element(rng) for _ in range(8)
            ]
            rec.run("axioms-on-sample", "sampled",
                    lambda: check_axioms_on_sample(semiring, sample))
            return
        add, mul = semiring.add_table, semiring.mul_table
        zero, one = semiring.zero, semiring.one
    for axiom in AXIOM_ORDER:
        witness = find_axiom_witness(add, mul, zero, one, axiom)
        rec.add(f"axiom:{axiom}", "exhaustive", witness is None,
                witness=None if witness is None else repr(witness))


def _run_ibn(config, rec):
    semiring = load_semiring(config.semiring)
    cap = max(2, config.cap)
    classification = classify_type(semiring, cap)
    rec.add("classification", classification.regime, True,
            witness=json.dumps(classification.to_json(), sort_keys=True))
    agreement = left_right_ibn_agree(semiring, cap)
    rec.add("left-right-agreement", classification.regime, agreement.agree,
            witness=json.dumps(agreement.to_json(), sort_keys=True))


def _run_aut_groups(config, rec):
    semiring = load_semiring(config.semiring)
    groups = automorphism_groups(semiring)
    rec.add("orders", "exhaustive", True,
            witness=json.dumps({
                "aut": groups.aut_order,
                "inn": groups.inn_order,
                "out": groups.out_order}, sort_keys=True), checked=groups.steps)
    perms = {a.perm for a in groups.aut}
    closed = all(a.then(b).perm in perms for a in groups.aut for b in groups.aut)
    has_inverses = all(a.inverted().perm in perms for a in groups.aut)
    rec.add("group-closure", "exhaustive", closed and has_inverses)
    inner_perms = {a.perm for a in groups.inn}
    normal = all(
        a.inverted().then(i).then(a).perm in inner_perms
        for a in groups.aut for i in groups.inn)
    rec.add("inner-normality", "exhaustive", normal)
    units = units_of(semiring)
    units_closed = all(
        semiring.mul(u, v) in units for u in units for v in units)
    units_inverses = all(semiring.try_unit_inverse(u) in units for u in units)
    rec.add("units-form-group", "exhaustive", units_closed and units_inverses)


def _run_functor_verify(config, rec):
    semiring = load_semiring(config.semiring)
    if semiring.is_finite:
        groups = automorphism_groups(semiring)
        for idx, sigma in enumerate(groups.aut):
            functor = semi_inner_functor(skew_inner_functor(sigma, config.cap))
            rec.extend(
                f"skew[{idx}]",
                verify_functor(functor, budget=config.budget, seed=config.seed).records)
        rng = random.Random(f"{config.seed}:semi-inner")
        data = random_semi_inner_data(semiring, config.cap, rng, groups)
        rec.extend(
            "semi-inner",
            verify_functor(semi_inner_functor(data), budget=config.budget,
                           seed=config.seed).records)
    else:
        from .semirings import identity_automorphism

        functor = semi_inner_functor(
            skew_inner_functor(identity_automorphism(semiring), config.cap))
        rec.extend(
            "skew[id]",
            verify_functor(functor, budget=config.budget, seed=config.seed).records)


def _run_out_group(config, rec):
    semiring = load_semiring(config.semiring)
    report = outer_group_experiment(
        semiring, config.cap, budget=config.budget, seed=config.seed)
    rec.add("class-count-matches-out", "exhaustive",
            report.class_count == report.out_order,
            witness=json.dumps(report.to_json(), sort_keys=True))
    rec.add("no-undecided-pairs", "exhaustive", not report.undecided)


_BUILTIN_LIE = re.compile(r"^(sl2|heisenberg|abelian(\d+)):(.+)$")


def load_lie(spec):
    """Resolve 'sl2:<ring>', 'heisenberg:<ring>', 'abelian<d>:<ring>', or a file."""
    match = _BUILTIN_LIE.match(spec)
    if match:
        ring = coefficient_ring(match.group(3))
        if match.group(1) == "sl2":
            return sl2(ring), None
        if match.group(1) == "heisenberg":
            return heisenberg(ring), None
        try:
            dim = int(match.group(2))
        except ValueError as exc:  # past the digit limit of int()
            raise ParseError(f"bad dimension in {spec!r}") from exc
        return abelian(ring, dim), None
    return lie_from_file(spec)


def _run_lie_suite(config, rec):
    lie, restricted = load_lie(config.lie)
    exponents = exponents_up_to(lie.dim, 2)
    if len(exponents) ** 2 > config.budget:
        raise SearchCapExceeded(
            f"{len(exponents)}^2 pairs of degree-2 monomials exceed the budget "
            f"{config.budget}")
    if restricted is not None:
        # the free monomials of degree <= dim*(p-1) the basis count enumerates
        free = math.comb(lie.dim * restricted.p, lie.dim)
        if free > config.budget:
            raise SearchCapExceeded(
                f"{free} free monomials to count exceed the budget {config.budget}")
    rec.add("validate", "exhaustive", True,
            witness=f"dim={lie.dim} ring={lie.ring.name}")
    envelope = UniversalEnvelope(lie)
    monomials = [envelope.monomial(exp) for exp in exponents]

    mismatch = next(((u, v) for u in monomials for v in monomials
                     if u * v != multiply_by_word_rewriting(u, v)), None)
    rec.add("pbw-word-oracle-agreement", "exhaustive", mismatch is None,
            witness=None if mismatch is None else repr(mismatch))

    def samples(tag, count):
        rng = random.Random(f"{config.seed}:{tag}")
        return (envelope.sample_element(rng, max_degree=2) for _ in range(count))

    draws = samples("lie-assoc", 180)
    triples = zip(draws, draws, draws)  # u, v, w are consecutive draws
    rec.add("associativity", "sampled",
            all((u * v) * w == u * (v * w) for u, v, w in triples))

    products = ((u, v, u * v) for u in monomials for v in monomials)
    rec.add("graded-domain-structure", "exhaustive", all(
        p.degree() == (u.degree() or 0) + (v.degree() or 0)
        and p.leading() == commutative_multiply(u.leading(), v.leading())
        for u, v, p in products))

    rec.add("unit-detection", "sampled", (
        is_unit(envelope.one()) and not is_unit(envelope.zero()) and all(
            is_unit(u) == (u.degree() == 0 and lie.ring.is_unit(u.constant_coefficient()))
            for u in samples("lie-units", 40))))

    rec.add("free-basis-counts", "exhaustive", all(
        len(free_module_basis(lie, ("x1",), cap))
        == sum(multiset_count(lie.dim, k) for k in range(cap + 1)) for cap in range(4)))

    if restricted is not None:
        def body():
            verify_restricted(lie, restricted, seed=config.seed)

        rec.run("restricted-axioms", "sampled", body)
        p = restricted.p
        full_cap = lie.dim * (p - 1)
        count = len(restricted_module_basis(lie, p, ("x1",), full_cap))
        rec.add("restricted-basis-count", "exhaustive", count == p ** lie.dim,
                witness=f"{count} vs {p}^{lie.dim}")


# ---------------------------------------------------------------------------
# bespoke CLI flows that do not map onto one of the six experiment kinds


def run_autmorph_flow(action, config, sigma_index=0, random_family=False):
    """extract / normalize round-trip flows on constructed functors."""
    from .autfunctors import extract_sigma, normalize_injections

    config.validate()
    semiring = load_semiring(config.semiring)
    groups = automorphism_groups(semiring)
    if not 0 <= sigma_index < len(groups.aut):
        raise ConfigError(
            f"semiring has {len(groups.aut)} automorphisms; index {sigma_index} is out of range")
    sigma = groups.aut[sigma_index]
    rec = _Recorder(config.seed)
    data = skew_inner_functor(sigma, config.cap)
    if random_family:
        rng = random.Random(f"{config.seed}:family")
        data.family = {n: random_invertible(semiring, n, rng)[0]
                       for n in range(1, config.cap + 1)}
    functor = semi_inner_functor(data)
    if action == "extract":
        def body():
            normalized, _ = normalize_injections(functor)
            recovered = extract_sigma(
                normalized, budget=config.budget, seed=config.seed)
            if recovered.perm != sigma.perm:
                raise SemicatError(
                    f"recovered {recovered!r} instead of {sigma!r}")
            return f"recovered {recovered!r}"

        rec.run("extract-round-trip", "exhaustive", body)
    elif action == "normalize":
        def body():
            # normalize_injections raises NonInvertibleStack if one still moves
            _, witness = normalize_injections(functor)
            return f"components at ranks {sorted(witness.components)}"

        rec.run("normalize-fixes-injections", "exhaustive", body)
    else:
        raise ConfigError(f"unknown autmorph action {action!r}")
    return Report(experiment={**config.echo(), "action": action,
                              "sigma": sigma_index,
                              "random_family": random_family},
                  records=rec.records)


def _parse_word(lie, text):
    labels = list(lie.labels)
    out = []
    for token in text.split(","):
        token = token.strip()
        if token not in labels:
            raise ConfigError(f"unknown basis label {token!r}")
        out.append(labels.index(token))
    return tuple(out)


def run_lie_command(action, config, left=None, right=None, gens=1, map_name=None):
    """The `lie` subcommand actions that are not the full suite."""
    config.validate()
    lie, restricted = load_lie(config.lie)
    envelope = UniversalEnvelope(lie, restricted=restricted)
    rec = _Recorder(config.seed)
    extra = {"action": action}
    if action == "validate":
        rec.add("validate", "exhaustive", True,
                witness=f"dim={lie.dim} ring={lie.ring.name}"
                        + (" restricted" if restricted else ""))
        if restricted is not None:
            rec.run("restricted-axioms", "sampled",
                    lambda: verify_restricted(lie, restricted, seed=config.seed))
    elif action == "mul":
        if left is None or right is None:
            raise ConfigError("mul needs --left and --right words")
        u = envelope.element(envelope.normal_form_word(_parse_word(lie, left)))
        v = envelope.element(envelope.normal_form_word(_parse_word(lie, right)))
        product = u * v
        oracle = multiply_by_word_rewriting(u, v)
        rec.add("normal-form", "exhaustive", product == oracle,
                witness=repr(product))
        extra["left"], extra["right"] = left, right
    elif action == "basis":
        if gens < 1:
            raise ConfigError(f"a free module needs at least 1 generator, not {gens}")
        cap = config.degree_cap
        generators = tuple(f"x{i+1}" for i in range(gens))
        if restricted is not None:
            basis = restricted_module_basis(lie, restricted.p, generators, cap)
        else:
            basis = free_module_basis(lie, generators, cap)
        rec.add("basis", "exhaustive", True,
                witness=json.dumps(
                    {"count": len(basis),
                     "labels": [b.label(lie) for b in basis[:24]]},
                    sort_keys=True))
        extra["generators"] = gens
    elif action == "lift":
        if map_name != "chevalley":
            raise ConfigError("only the built-in 'chevalley' map is supported here")
        theta = chevalley_involution(lie)

        def body():
            lifted = lift_semi_automorphism(theta, envelope=UniversalEnvelope(lie),
                                            seed=config.seed)
            return f"lifted {lifted!r}"

        rec.run("lift-spot-checks", "sampled", body)
        extra["map"] = map_name
    elif action == "units":
        report = cyclic_aut_check(envelope, config.degree_cap, seed=config.seed)
        rec.extend("units", report.records)
        rec.add("unit-count", "exhaustive", True,
                witness=json.dumps(
                    {"count": report.unit_count, "units": report.units},
                    sort_keys=True))
    else:
        raise ConfigError(f"unknown lie action {action!r}")
    return Report(experiment={**config.echo(), **extra}, records=rec.records)
