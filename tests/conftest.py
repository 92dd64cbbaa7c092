from __future__ import annotations

import pytest

from importlib import resources

from hypothesis import settings

from prolong import dsl, su2

# The randomised algebra laws draw the same examples on every run, with no
# per-example deadline; each law sets its own max_examples.
settings.register_profile("laws", derandomize=True, deadline=None)
settings.load_profile("laws")


def fixture_text(name: str) -> str:
    return resources.files("prolong").joinpath(f"fixtures/{name}.eds").read_text()


@pytest.fixture(scope="session")
def sc():
    return su2.build_su2_context()


@pytest.fixture(scope="session")
def su2_forms(sc):
    return su2.build_forms(sc)


@pytest.fixture(scope="session")
def kdv_model():
    return dsl.parse(fixture_text("kdv"))


@pytest.fixture(scope="session")
def kdv_spec(kdv_model):
    return kdv_model.akns["kdv"]


@pytest.fixture(scope="session")
def kdv_system(kdv_spec):
    return su2.extract_evolution(kdv_spec).system


@pytest.fixture(scope="session")
def ch_model():
    return dsl.parse(fixture_text("ch"))


@pytest.fixture(scope="session")
def ch_ideal(ch_model):
    return ch_model.ideals["ch"]


@pytest.fixture(scope="session")
def kdv_ideal_model():
    return dsl.parse(fixture_text("kdv_ideal"))


@pytest.fixture(scope="session")
def generic_spec():
    return dsl.parse(fixture_text("akns_generic")).akns["generic"]
