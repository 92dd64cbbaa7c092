"""The benchmark's workloads: which verbs run, in which order, and the
independent check each verb's report must pass.

A workload's inputs depend only on its seed.  Only ideal-chart has seeded
inputs (its negative controls); the other two run the bundled fixtures,
and their seed only sets the hash seed of each round's process.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import checks


class Verb(NamedTuple):
    argv: tuple
    check: Callable  # (report dict, exit code) -> list of problems


def su2_dga(seed: int, scratch: Path) -> list:
    return [
        Verb(("verify-su2", "--all", "--fixture", "su2_dga"), checks.check_su2),
        Verb(("gauge",), checks.check_gauge),
    ]


def spectral_kdv(seed: int, scratch: Path) -> list:
    return [
        Verb(("theta", "--fixture", "kdv"), checks.check_theta("kdv")),
        Verb(("theta", "--fixture", "akns_generic"), checks.check_theta("akns_generic")),
        Verb(("densities", "--fixture", "akns_generic", "--order", "7"),
             checks.check_densities("akns_generic", 7)),
        Verb(("conserve", "--fixture", "kdv", "--order", "7"), checks.check_conserve("kdv", 7)),
        Verb(("laxcheck", "--fixture", "kdv"), checks.check_laxcheck_spectral("kdv")),
        Verb(("surface", "--fixture", "kdv"), checks.check_surface("kdv")),
    ]


def off_member_betas(rng: random.Random, count: int) -> list:
    """Distinct non-integer rationals in (0, 3]: never the Camassa-Holm
    (2) or Degasperis-Procesi (3) member."""
    out: list = []
    while len(out) < count:
        value = Fraction(rng.randint(1, 27), rng.randint(2, 9))
        if value.denominator > 1 and value <= 3 and value not in out:
            out.append(value)
    return [f"{v.numerator}/{v.denominator}" for v in out]


def write_ch_without(generator: str, fixtures: Path, scratch: Path) -> str:
    """Copy of the ch fixture with one ideal generator left out."""
    lines = (fixtures / "ch.eds").read_text(encoding="utf-8").splitlines()
    kept = [line for line in lines if not line.strip().startswith(f"{generator} =")]
    if len(kept) != len(lines) - 1:
        raise ValueError(f"ch.eds has no single line defining {generator}")
    path = scratch / f"ch-without-{generator}.eds"
    path.write_text("\n".join(kept) + "\n", encoding="utf-8")
    return str(path)


def ideal_chart(seed: int, scratch: Path) -> list:
    rng = random.Random(seed)
    fixtures = Path(__file__).resolve().parents[1] / "src" / "prolong" / "fixtures"
    # Dropping xi1 leaves {xi2, xi3}, which still closes over the
    # rational-function field (multipliers with 1/(beta*(q - u))), so only
    # xi2 or xi3 makes a negative control.
    dropped = rng.choice(("xi2", "xi3"))
    kept = [name for name in ("xi1", "xi2", "xi3") if name != dropped]
    copy = write_ch_without(dropped, fixtures, scratch)
    betas = off_member_betas(rng, 2)
    verbs = [
        Verb(("closure", "--fixture", "ch"), checks.check_closure("ch")),
        Verb(("closure", "--fixture", "kdv_ideal"), checks.check_closure("kdv_ideal")),
        Verb(("closure", copy), checks.check_closure("ch", kept)),
        Verb(("section", "--fixture", "ch"), checks.check_section("ch", None)),
        Verb(("section", "--fixture", "kdv_ideal"), checks.check_section("kdv_ideal", None)),
        Verb(("prolong", "--fixture", "ch"), checks.check_prolong("ch", None)),
        Verb(("prolong", "--fixture", "kdv_ideal"), checks.check_prolong("kdv_ideal", None)),
        Verb(("laxcheck", "--fixture", "kdv_ideal"), checks.check_laxcheck_chart("kdv_ideal")),
    ]
    for beta in ["2", *betas]:
        verbs.append(Verb(("section", "--fixture", "ch", "--beta", beta), checks.check_section("ch", beta)))
        verbs.append(Verb(("prolong", "--fixture", "ch", "--beta", beta), checks.check_prolong("ch", beta)))
    return verbs


WORKLOADS = {
    "su2-dga": su2_dga,
    "spectral-kdv": spectral_kdv,
    "ideal-chart": ideal_chart,
}
