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
import os
import random
import re

from .autfunctors import (
    DEFAULT_BUDGET,
    extract_sigma,
    normalize_injections,
    outer_group_experiment,
    random_semi_inner_data,
    semi_inner_functor,
    skew_inner_functor,
    verify_functor,
)
from .errors import (
    ConfigError,
    ParseError,
    Record,
    SearchCapExceeded,
    SemicatError,
    VerificationReport,
)
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
    identity_automorphism,
    load_semiring,
    read_semiring_file,
)

# Work the budget does not count grows with the caps: the functor flows build
# an invertible matrix or a biproduct system at every rank up to the cap and
# evaluate functors on matrices of those ranks, and `lie units` multiplies
# samples up to the degree cap.  `autmorph verify` on gf:4 ran past 10 s at
# cap 16, while at cap 8 every matrix flow on the built-in carriers of at most
# 4 elements and on the infinite ones ends within 1.2 s; `lie units` on sl2:Q
# took 22 s at degree cap 1024 and takes 0.2 s at 64.  The degree cap also
# bounds the words of `lie mul`: e^64 * f^64 takes 15 s over Q, and
# e^100 * f^100 ran past a minute.
MAX_CAP = 8
MAX_DEGREE_CAP = 64


class ExperimentConfig(Record):
    __slots__ = ("kind", "semiring", "lie", "cap", "degree_cap", "seed", "budget")

    def __init__(self, kind, semiring=None, lie=None, cap=2, degree_cap=3, seed=0,
                 budget=DEFAULT_BUDGET):
        self.kind = kind
        self.semiring = semiring
        self.lie = lie
        self.cap = cap
        self.degree_cap = degree_cap
        self.seed = seed
        self.budget = budget

    def validate(self):
        if self.kind not in _RUNNERS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.cap < 1 or self.degree_cap < 1:
            raise ConfigError("caps must be at least 1")
        if self.cap > MAX_CAP or self.degree_cap > MAX_DEGREE_CAP:
            raise ConfigError(
                f"the cap is at most {MAX_CAP} and the degree cap at most "
                f"{MAX_DEGREE_CAP}")
        if self.budget < 0:
            raise ConfigError(f"the budget must not be negative, not {self.budget}")
        if self.kind == "lie-suite":
            if not self.lie:
                raise ConfigError("lie-suite needs a lie algebra file or name")
        elif not self.semiring:
            raise ConfigError(f"{self.kind} needs a semiring file or name")


def emit_report(report, fmt="json", include_timing=False):
    if fmt == "json":
        return json.dumps(report.to_json(include_timing), sort_keys=True, indent=2)
    if fmt == "text":
        lines = [f"experiment: {json.dumps(report.subject, sort_keys=True)}"]
        width = max((len(r.name) for r in report.records), default=8)
        for r in report.records:
            lines.append(f"  {r.name:<{width}}  {r.regime:<10}  {r.status}")
            if r.witness and not r.passed:
                lines.append(f"    witness: {r.witness}")
        lines.append(f"verdict: {report.verdict}")
        return "\n".join(lines)
    raise ConfigError(f"unknown format {fmt!r}")


def run_experiment(config):
    """Dispatch a validated config to its module; failures become records."""
    config.validate()
    rec = VerificationReport(config.to_json(), seed=config.seed)
    _RUNNERS[config.kind](config, rec)
    return rec


def _run_validate(config, rec):
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
    rec.add("classification", classification.regime, True, witness=classification)
    agreement = left_right_ibn_agree(semiring, cap)
    rec.add("left-right-agreement", classification.regime, agreement.agree,
            witness=agreement)


def _run_aut_groups(config, rec):
    semiring = load_semiring(config.semiring)
    groups = automorphism_groups(semiring)
    rec.add("orders", "exhaustive", True,
            witness={"aut": groups.aut_order, "inn": groups.inn_order,
                     "out": groups.out_order}, checked=groups.steps)
    perms = {a.perm for a in groups.aut}
    closed = all(a.then(b).perm in perms for a in groups.aut for b in groups.aut)
    has_inverses = all(a.inverted().perm in perms for a in groups.aut)
    rec.add("group-closure", "exhaustive", closed and has_inverses)
    inner_perms = {a.perm for a in groups.inn}
    normal = all(
        a.inverted().then(i).then(a).perm in inner_perms
        for a in groups.aut for i in groups.inn)
    rec.add("inner-normality", "exhaustive", normal)
    units = semiring.unit_elements()
    units_closed = all(
        semiring.mul(u, v) in units for u in units for v in units)
    units_inverses = all(semiring.try_unit_inverse(u) in units for u in units)
    rec.add("units-form-group", "exhaustive", units_closed and units_inverses)


def _run_functor_verify(config, rec):
    semiring = load_semiring(config.semiring)
    if semiring.is_finite:
        groups = automorphism_groups(semiring)
        functor_data = [(f"skew[{idx}]", skew_inner_functor(sigma, config.cap))
                        for idx, sigma in enumerate(groups.aut)]
        rng = random.Random(f"{config.seed}:semi-inner")
        functor_data.append(("semi-inner", random_semi_inner_data(
            semiring, config.cap, rng, groups)))
    else:
        functor_data = [("skew[id]", skew_inner_functor(
            identity_automorphism(semiring), config.cap))]
    for prefix, data in functor_data:
        rec.extend(prefix, verify_functor(
            semi_inner_functor(data), budget=config.budget, seed=config.seed).records)


def _run_out_group(config, rec):
    semiring = load_semiring(config.semiring)
    report = outer_group_experiment(
        semiring, config.cap, budget=config.budget, seed=config.seed)
    rec.add("class-count-matches-out", "exhaustive", report.consistent,
            witness=report)
    rec.add("no-undecided-pairs", "exhaustive", not report.undecided)


def _record_validate(rec, lie, restricted):
    """The ``validate`` record: dimension, ring and, with a p-map, ``restricted``."""
    rec.add("validate", "exhaustive", True, witness=f"dim={lie.dim} ring={lie.ring.name}"
            + (" restricted" if restricted is not None else ""))


def _record_restricted_axioms(rec, lie, restricted, seed, budget):
    """With a p-map, the ``restricted-axioms`` record: a pass when
    ``verify_restricted`` raises nothing, else a fail naming its error.
    Its p-th powers take about 2 log2(p) products each, by repeated squaring;
    the dim * p charged against the budget first bounds the work that grows
    with p, the p - 1 bracket rounds of each ``s_polynomials`` call."""
    if restricted is not None:
        if lie.dim * restricted.p > budget:
            raise SearchCapExceeded(
                f"{lie.dim} x {restricted.p} bracket rounds of s_polynomials "
                f"exceed the budget {budget}")
        rec.run("restricted-axioms", "sampled",
                lambda: verify_restricted(lie, restricted, seed=seed))


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
    _record_validate(rec, lie, restricted)
    envelope = UniversalEnvelope(lie)
    monomials = [envelope.monomial(exp) for exp in exponents]
    products = [(u, v, u * v) for u in monomials for v in monomials]

    mismatch = next(((u, v) for u, v, p in products
                     if p != multiply_by_word_rewriting(u, v)), None)
    rec.add("pbw-word-oracle-agreement", "exhaustive", mismatch is None,
            witness=None if mismatch is None else repr(mismatch))

    def samples(tag, count):
        rng = random.Random(f"{config.seed}:{tag}")
        return (envelope.sample_element(rng, max_degree=2) for _ in range(count))

    draws = samples("lie-assoc", 180)
    triples = zip(draws, draws, draws)  # u, v, w are consecutive draws
    rec.add("associativity", "sampled",
            all((u * v) * w == u * (v * w) for u, v, w in triples))

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
        _record_restricted_axioms(rec, lie, restricted, config.seed, config.budget)
        p = restricted.p
        full_cap = lie.dim * (p - 1)
        count = len(restricted_module_basis(lie, p, ("x1",), full_cap))
        rec.add("restricted-basis-count", "exhaustive", count == p ** lie.dim,
                witness=f"{count} vs {p}^{lie.dim}")


_RUNNERS = {
    "validate": _run_validate,
    "ibn": _run_ibn,
    "aut-groups": _run_aut_groups,
    "functor-verify": _run_functor_verify,
    "out-group": _run_out_group,
    "lie-suite": _run_lie_suite,
}


# ---------------------------------------------------------------------------
# bespoke CLI flows that do not map onto one of the six experiment kinds


def check_recovered_twist(recovered, sigma, inn):
    """Witness text that the twist recovered from a semi-inner functor is sigma.

    The functor determines its twist only modulo Inn(R): a family unit that
    ``normalize_injections`` keeps conjugates it, so sigma^-1 followed by
    recovered has only to be one of the inner automorphisms ``inn``.  Raises
    SemicatError otherwise.
    """
    if recovered.perm == sigma.perm:
        return f"recovered {recovered!r}"
    difference = sigma.inverted().then(recovered).perm
    if not any(inner.perm == difference for inner in inn):
        raise SemicatError(f"recovered {recovered!r} instead of {sigma!r}")
    return f"recovered {recovered!r}, {sigma!r} modulo an inner automorphism"


def run_autmorph_flow(action, config, sigma_index=0, random_family=False):
    """extract / normalize round-trip flows on constructed functors."""
    config.validate()
    semiring = load_semiring(config.semiring)
    groups = automorphism_groups(semiring)
    if not 0 <= sigma_index < len(groups.aut):
        raise ConfigError(
            f"semiring has {len(groups.aut)} automorphisms; index {sigma_index} is out of range")
    sigma = groups.aut[sigma_index]
    rec = VerificationReport(
        {**config.to_json(), "action": action, "sigma": sigma_index,
         "random_family": random_family}, seed=config.seed)
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
            return check_recovered_twist(recovered, sigma, groups.inn)

        rec.run("extract-round-trip", "exhaustive", body)
    elif action == "normalize":
        def body():
            # normalize_injections raises NonInvertibleStack if one still moves
            _, witness = normalize_injections(functor)
            return f"components at ranks {sorted(witness.components)}"

        rec.run("normalize-fixes-injections", "exhaustive", body)
    else:
        raise ConfigError(f"unknown autmorph action {action!r}")
    return rec


def _parse_word(lie, text):
    labels = list(lie.labels)
    tokens = text.split(",")
    if len(tokens) > MAX_DEGREE_CAP:
        raise ConfigError(
            f"a word has at most {MAX_DEGREE_CAP} letters, not {len(tokens)}")
    out = []
    for token in tokens:
        token = token.strip()
        if token not in labels:
            raise ConfigError(f"unknown basis label {token!r}")
        out.append(labels.index(token))
    return tuple(out)


def run_lie_command(action, config, left=None, right=None, gens=1):
    """The `lie` subcommand actions that are not the full suite."""
    config.validate()
    lie, restricted = load_lie(config.lie)
    envelope = UniversalEnvelope(lie, restricted=restricted)
    rec = VerificationReport({**config.to_json(), "action": action}, seed=config.seed)
    if action == "validate":
        _record_validate(rec, lie, restricted)
        _record_restricted_axioms(rec, lie, restricted, config.seed, config.budget)
    elif action == "mul":
        if left is None or right is None:
            raise ConfigError("mul needs --left and --right words")
        u = envelope.element(envelope.normal_form_word(_parse_word(lie, left)))
        v = envelope.element(envelope.normal_form_word(_parse_word(lie, right)))
        product = u * v
        oracle = multiply_by_word_rewriting(u, v)
        rec.add("normal-form", "exhaustive", product == oracle,
                witness=repr(product))
        rec.subject["left"], rec.subject["right"] = left, right
    elif action == "basis":
        if gens < 1:
            raise ConfigError(f"a free module needs at least 1 generator, not {gens}")
        cap = config.degree_cap
        # the free basis is enumerated first; the restricted one filters it
        count = gens * math.comb(lie.dim + cap, lie.dim)
        if count > config.budget:
            raise SearchCapExceeded(
                f"{count} basis vectors exceed the budget {config.budget}")
        generators = tuple(f"x{i+1}" for i in range(gens))
        if restricted is not None:
            basis = restricted_module_basis(lie, restricted.p, generators, cap)
        else:
            basis = free_module_basis(lie, generators, cap)
        rec.add("basis", "exhaustive", True,
                witness={"count": len(basis),
                         "labels": [b.label(lie) for b in basis[:24]]})
        rec.subject["generators"] = gens
    elif action == "lift":
        theta = chevalley_involution(lie)

        def body():
            lifted = lift_semi_automorphism(theta, envelope=UniversalEnvelope(lie),
                                            seed=config.seed)
            return f"lifted {lifted!r}"

        rec.run("lift-spot-checks", "sampled", body)
        rec.subject["map"] = "chevalley"
    elif action == "units":
        scalars = len(lie.ring.elements()) if lie.ring.is_finite else 0
        if scalars > config.budget:
            raise SearchCapExceeded(
                f"{scalars} scalars to scan exceed the budget {config.budget}")
        report = cyclic_aut_check(envelope, config.degree_cap, seed=config.seed)
        rec.extend("units", report.records)
        rec.add("unit-count", "exhaustive", True,
                witness={"count": report.unit_count, "units": report.units})
    else:
        raise ConfigError(f"unknown lie action {action!r}")
    return rec
