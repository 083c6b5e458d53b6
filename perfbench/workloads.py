"""Workload items and the output checks that go with them.

An item is one call a user would make, with its certificate turned into
canonical JSON the way the CLI does it (to_json_dict, then
dumps_canonical).  Inputs are plain integers made from the seed before the
pass starts; fields and elements are built inside the timed items, because
a CLI call pays for field construction every time.

Checks run after the pass and do not trust the code path they check: the
witness certificates are held to the closed forms, every reported minimum
of a form is re-evaluated through field arithmetic, every verdict and
`passed` flag is read back, and the outputs that do not depend on the seed
are compared with digests recorded in expected.json.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import unitred as u
from unitred.numtheory import euler_phi, prime_divisors

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# The degree-20 forms are one fixed draw: a single form costs anywhere from
# 0.3 s to 7 s depending on how much LLL has to do, so a seeded draw of the
# few forms that fit in a run would measure the seed, not the code.  The
# seed draws the cheap degree-8 forms and sets the order of all of them.
FORMS_BASKET_SEED = 2311

SIZES = {
    "full": {
        "witness": [25, 32],
        "real_witness": [49],
        "forms_basket": [33, 33, 44, 44],
        "forms_seeded": [15, 15, 15, 15, 16, 16, 16, 16],
        "sweep": (3, 600),
        "eq4_pairs": [(5, 25), (8, 32), (9, 27), (7, 49), (15, 45), (3, 81)],
        "eq4_trials": 8,
        "round_trips": [49, 49, 49, 64, 64, 64, 64],
        "l75": (7, 2),
    },
    "toy": {
        "witness": [16],
        "real_witness": [32],
        "forms_basket": [15],
        "forms_seeded": [],
        "sweep": (3, 30),
        "eq4_pairs": [(3, 9)],
        "eq4_trials": 2,
        "round_trips": [16],
        "l75": (3, 2),
    },
}

# Closed forms from the paper: Tr(a), mu(a) and Tr(a)/mu(a) for the
# cyclotomic witnesses, and for the real ones Tr(a), the enumerated mu, the
# proof-route bound mu*/Tr(a^-1), the quoted closed form and whether the
# two agree (they do not for odd p).
WITNESS_CLOSED = {
    16: (16, 8, Fraction(2)),
    25: (50, 20, Fraction(5, 2)),
    32: (64, 16, Fraction(4)),
}
REAL_WITNESS_CLOSED = {
    32: (32, 16, Fraction(2), Fraction(2), True),
    49: (98, 42, Fraction(7, 3), Fraction(14, 5), False),
}

# Prime powers whose field is not unit reducible; a prime >= 13 dividing N
# also rules it out.
NOT_UR_DIVISORS = (16, 27, 25, 49, 121)
VERDICTS = {"StronglyUR", "WeaklyUR", "NotUR", "Unknown"}


class Checker:
    """Collects the outcome of every named check run on one item."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def __call__(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), "" if ok else detail))
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.results)


@dataclass
class Item:
    name: str
    run: Callable[[], tuple[object, str]]
    check: Callable[[object, str, Checker], None]
    recorded: bool = False  # output does not depend on the seed

    def verify(self, obj, text: str, chk: Checker) -> None:
        """The item's own checks, then its digest when one is recorded."""
        self.check(obj, text, chk)
        if self.recorded:
            want = json.loads(EXPECTED_PATH.read_text()).get(self.name)
            got = output_digest(text)
            chk("digest", got == want, f"{self.name}: digest {got} != recorded {want}")


def _certificate(obj) -> tuple[object, str]:
    return obj, u.dumps_canonical(obj.to_json_dict())


def _strip_nodes(obj):
    if isinstance(obj, dict):
        return {k: _strip_nodes(v) for k, v in obj.items() if k != "nodes_visited"}
    if isinstance(obj, list):
        return [_strip_nodes(v) for v in obj]
    return obj


def output_digest(text: str) -> str:
    """sha256 of the JSON lines in text with every nodes_visited removed;
    node counts may change with the enumeration kernel, the results not."""
    lines = [
        json.dumps(_strip_nodes(json.loads(line)), sort_keys=True, separators=(",", ":"))
        for line in text.splitlines()
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _canonical_sign(coeffs):
    first = next((c for c in coeffs if c), 0)
    return tuple(-c for c in coeffs) if first < 0 else tuple(coeffs)


def _random_coeffs(rng: random.Random, degree: int, radius: int) -> list[int]:
    coeffs = [rng.randint(-radius, radius) for _ in range(degree)]
    if not any(coeffs):
        coeffs[0] = 1
    return coeffs


# ---------------------------------------------------------------------------
# witness


def _witness_item(n: int) -> Item:
    def check(cert, text, chk):
        trace, mu, ratio = WITNESS_CLOSED[n]
        chk("witness.status", cert.status == "verified", cert.status)
        chk(
            "witness.closed_form",
            (cert.trace_a, cert.mu_a, cert.ratio) == (trace, mu, ratio),
            f"N={n}: trace {cert.trace_a} mu {cert.mu_a} ratio {cert.ratio}",
        )
        a = cert.witness
        z = a.ctx.zeta()
        x = 1 + z if n % 2 == 0 else 1 - z
        chk("witness.element", a * x * x.conj() == 1, f"N={n}: a is not the witness")
        _check_evidence(cert, a, mu, lambda v: v.conj(), chk)

    return Item(f"witness:{n}", lambda: _certificate(u.verify_witness(n)), check, True)


def _real_witness_item(n: int) -> Item:
    def check(cert, text, chk):
        trace, mu, bound, quoted, agrees = REAL_WITNESS_CLOSED[n]
        chk("witness.status", cert.status == "verified", cert.status)
        chk(
            "witness.closed_form",
            (cert.trace_a, cert.mu_exact, cert.bound, cert.quoted_form, cert.closed_form_agrees)
            == (trace, mu, bound, quoted, agrees),
            f"real N={n}: trace {cert.trace_a} mu {cert.mu_exact} bound {cert.bound} "
            f"quoted {cert.quoted_form} agrees {cert.closed_form_agrees}",
        )
        a = cert.witness
        t = a.ctx.theta()
        base = 2 + t if n % 2 == 0 else 2 - t
        chk("witness.element", a * base == 1, f"real N={n}: a is not the witness")
        _check_evidence(cert, a, mu, lambda v: v, chk)

    return Item(
        f"real_witness:{n}",
        lambda: _certificate(u.verify_real_witness(n, force=True)),
        check,
        True,
    )


def _check_evidence(cert, a, mu, conj, chk):
    """Every evidence vector lies below Tr(a); the ones reported at the
    minimum really have form value Tr(a u conj(u)) = mu."""
    below = all(fv.value < cert.trace_a for fv in cert.reduced_evidence)
    chk("witness.evidence_below_trace", below, "evidence vector at or above Tr(a)")
    minima = [fv for fv in cert.reduced_evidence if fv.value == mu]
    values = {(a * v * conj(v)).trace() for v in (a.ctx.element(fv.coeffs) for fv in minima)}
    chk("witness.minimum_reevaluated", minima and values == {mu}, f"values {values} != {mu}")


# ---------------------------------------------------------------------------
# forms


def _form_item(name: str, n: int, coeffs: list[int], recorded: bool) -> Item:
    def run():
        ctx = u.make_field(n)
        x = ctx.element(coeffs)
        return _certificate(u.shortest(u.gram(x * x.conj())))

    def check(rep, text, chk):
        ctx = u.make_field(n)
        x = ctx.element(coeffs)
        a = x * x.conj()
        chk("forms.mu_at_most_trace", 0 < rep.mu <= a.trace(), f"mu {rep.mu}, Tr(a) {a.trace()}")
        vecs = [ctx.element(m.coeffs) for m in rep.minima]
        values = {(a * v * v.conj()).trace() for v in vecs}
        chk("forms.minimum_reevaluated", vecs and values == {rep.mu}, f"values {values} != {rep.mu}")
        # u -> zeta*u preserves Tr(a u conj(u)), so the minima (up to sign)
        # must be closed under it
        have = {tuple(m.coeffs) for m in rep.minima}
        z = ctx.zeta()
        rotated = {_canonical_sign(tuple(int(c) for c in (z * v).coeffs)) for v in vecs}
        chk("forms.orbit_closed", rotated <= have, "zeta * minimum missing from the minima")

    return Item(name, run, check, recorded)


def forms_items(size: dict, seed: int) -> list[Item]:
    basket = random.Random(FORMS_BASKET_SEED)
    rng = random.Random(seed)
    items = [
        _form_item(f"form:{n}:basket{i}", n, _random_coeffs(basket, euler_phi(n), 1), True)
        for i, n in enumerate(size["forms_basket"])
    ]
    items += [
        _form_item(f"form:{n}:seeded{i}", n, _random_coeffs(rng, euler_phi(n), 1), False)
        for i, n in enumerate(size["forms_seeded"])
    ]
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# sweep


def _not_ur_by_divisor(n: int) -> bool:
    return any(n % d == 0 for d in NOT_UR_DIVISORS) or any(
        p >= 13 for p in prime_divisors(n)
    )


def _sweep_item(lo: int, hi: int) -> Item:
    name = f"sweep:{lo}..{hi}"

    def run():
        res = u.cli.run(["sweep", f"{lo}..{hi}"])
        return res, res.text

    def check(res, text, chk):
        chk("sweep.exit_code", res.exit_code == 0, f"exit code {res.exit_code}: {res.error}")
        rows = [json.loads(line) for line in text.splitlines()]
        want = [n for n in range(lo, hi + 1) if n % 4 != 2]
        chk("sweep.conductors", [r["conductor"] for r in rows] == want, "conductor list differs")
        bad = []
        for r in rows:
            n, verdict = r["conductor"], r["verdict"]
            expect_not_ur = _not_ur_by_divisor(n)
            if verdict not in VERDICTS or (verdict == "NotUR") != expect_not_ur:
                bad.append(n)
            elif n in (8, 9) and verdict != "WeaklyUR":
                bad.append(n)
            elif euler_phi(n) <= 2 and not expect_not_ur and verdict != "StronglyUR":
                bad.append(n)
        chk("sweep.verdicts", not bad, f"unexpected verdicts at {bad[:5]}")
        bad = []
        for r in rows:
            if "criterion_relation" not in r:
                continue
            lhs, rhs = Fraction(r["criterion_lhs"]), Fraction(r["criterion_rhs"])
            relation = "Strict" if lhs < rhs else ("Equal" if lhs == rhs else "Fail")
            if relation != r["criterion_relation"]:
                bad.append(r["conductor"])
            elif r["verdict"] == "StronglyUR" and euler_phi(r["conductor"]) > 2 and relation != "Strict":
                bad.append(r["conductor"])
        chk("sweep.criterion", not bad, f"criterion relation wrong at {bad[:5]}")

    return Item(name, run, check, True)


# ---------------------------------------------------------------------------
# identities


def _eq4_item(name: str, n: int, m: int, a_coeffs, y_coeffs) -> Item:
    def run():
        a = u.make_field(n).element(a_coeffs)
        y = u.make_field(m).element(y_coeffs)
        return _certificate(u.eq4_check(a, y))

    def check(rep, text, chk):
        payload = json.loads(text)
        chk(
            "identities.eq4_passed",
            rep.passed and payload["passed"] and Fraction(payload["lhs"]) == Fraction(payload["rhs"]),
            f"{name}: lhs {payload['lhs']} rhs {payload['rhs']}",
        )
        chk("identities.eq4_components", rep.components == m // n, f"{rep.components} components")

    return Item(name, run, check)


def _round_trip_item(name: str, n: int, coeffs) -> Item:
    def run():
        x = u.make_real_field(n).element(coeffs)
        back = u.project(u.embed(x))
        inv = x.inverse()
        payload = {
            "kind": "real_round_trip",
            "x": x.to_json_dict(),
            "inverse": inv.to_json_dict(),
            "embed_project": back == x,
            "inverse_product_is_one": x * inv == 1,
        }
        return payload, u.dumps_canonical(payload)

    def check(payload, text, chk):
        chk("identities.embed_project", payload["embed_project"], f"{name}: project(embed(x)) != x")
        chk("identities.inverse", payload["inverse_product_is_one"], f"{name}: x * x^-1 != 1")

    return Item(name, run, check)


def _l75_item(p: int, box: int) -> Item:
    name = f"l75:{p}:{box}"

    def check(rep, text, chk):
        chk(
            "identities.l75_passed",
            rep.passed and rep.min_margin == 0 and rep.zero_at_m_zero,
            f"{name}: passed {rep.passed} min margin {rep.min_margin}",
        )

    return Item(name, lambda: _certificate(u.l75_scan(p, box)), check, True)


def identities_items(size: dict, seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for n, m in size["eq4_pairs"]:
        for k in range(size["eq4_trials"]):
            a = _random_coeffs(rng, euler_phi(n), 2)
            y = _random_coeffs(rng, euler_phi(m), 2)
            items.append(_eq4_item(f"eq4:{n}:{m}:{k}", n, m, a, y))
    for k, n in enumerate(size["round_trips"]):
        coeffs = _random_coeffs(rng, euler_phi(n) // 2, 1)
        items.append(_round_trip_item(f"round_trip:{n}:{k}", n, coeffs))
    items.append(_l75_item(*size["l75"]))
    return items


# ---------------------------------------------------------------------------


def build(workload: str, size_name: str, seed: int) -> list[Item]:
    """The items of one pass, made from the seed; no field is built here."""
    size = SIZES[size_name]
    if workload == "witness":
        return [_witness_item(n) for n in size["witness"]] + [
            _real_witness_item(n) for n in size["real_witness"]
        ]
    if workload == "forms":
        return forms_items(size, seed)
    if workload == "sweep":
        return [_sweep_item(*size["sweep"])]
    if workload == "identities":
        return identities_items(size, seed)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("witness", "forms", "sweep", "identities")

# Checks each workload must run at least once; the self-test holds every
# pass to this list.
CHECKS = {
    "witness": {
        "witness.status",
        "witness.closed_form",
        "witness.element",
        "witness.evidence_below_trace",
        "witness.minimum_reevaluated",
        "digest",
    },
    "forms": {
        "forms.mu_at_most_trace",
        "forms.minimum_reevaluated",
        "forms.orbit_closed",
        "digest",
    },
    "sweep": {
        "sweep.exit_code",
        "sweep.conductors",
        "sweep.verdicts",
        "sweep.criterion",
        "digest",
    },
    "identities": {
        "identities.eq4_passed",
        "identities.eq4_components",
        "identities.embed_project",
        "identities.inverse",
        "identities.l75_passed",
        "digest",
    },
}
