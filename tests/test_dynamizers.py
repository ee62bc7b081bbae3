"""The two dynamization methods behind one interface: adoption and re-posting.

Each test runs on `AdoptingDynamizer` (adopt the variable into the live
alldifferent) and on `GenericDynamizer` (deactivate it and re-post one over
the extended list), unless it is about one of them only.
"""

import re
from pathlib import Path

import pytest

from dynalldiff.alldiff import AdoptingDynamizer, AllDifferent
from dynalldiff.errors import DuplicateVariable, EmptyHistory, UnknownVariable
from dynalldiff.generic import GenericDynamizer
from dynalldiff.store import Store

A, B, C = 0, 1, 2


def generic(store):
    return GenericDynamizer(store, AllDifferent)


@pytest.fixture(params=[AdoptingDynamizer, generic], ids=["adopting", "generic"])
def make(request):
    return request.param


def grown(make, domains):
    store = Store()
    dynamizer = make(store)
    for domain in domains:
        assert dynamizer.add_variable(store.add_variable(domain))
    return store, dynamizer


@pytest.mark.parametrize(
    "error, var", [(UnknownVariable, 7), (DuplicateVariable, 1)]
)
def test_a_rejected_variable_changes_nothing(make, error, var):
    store, dynamizer = grown(make, [{A, B}, {A, B}])
    before = store.checksum()
    with pytest.raises(error):
        dynamizer.add_variable(var)
    assert store.checksum() == before
    # the newest addition is still the one a removal pops
    dynamizer.remove_variable()
    store.retract_last_variable()
    assert dynamizer.variables == [0]
    assert store.domains == [{A, B}]


def test_remove_on_empty_history(make):
    dynamizer = make(Store())
    with pytest.raises(EmptyHistory):
        dynamizer.remove_variable()


def test_a_removal_restores_the_checksum(make):
    store, dynamizer = grown(make, [{A, B}, {A, B}])
    before = store.checksum()
    assert dynamizer.add_variable(store.add_variable({A, B, C}))
    assert store.domains[2] == {C}
    dynamizer.remove_variable()
    store.retract_last_variable()
    assert store.checksum() == before


def test_a_failed_addition_is_false_and_its_removal_clears_the_flag(make):
    store, dynamizer = grown(make, [{A, B}, {A, B}, {A, B, C}])
    before = store.checksum()
    assert dynamizer.add_variable(store.add_variable({C})) is False
    assert store.failed
    dynamizer.remove_variable()
    store.retract_last_variable()
    assert not store.failed
    assert store.checksum() == before


def test_adoption_grows_one_propagator_and_forgets_it_with_the_last_addition():
    store, dynamizer = grown(AdoptingDynamizer, [{A, B}, {A, B}, {A, B, C}])
    prop = dynamizer.propagator
    assert [handle.propagator for handle in store.constraints] == [prop]
    assert list(prop.graph.adj_var) == dynamizer.variables == [0, 1, 2]
    for _ in range(3):
        assert dynamizer.propagator is prop
        dynamizer.remove_variable()
        store.retract_last_variable()
    assert dynamizer.propagator is None
    assert store.constraints == [] and store.trail == []


def test_an_addition_and_its_removal_keep_a_queued_event(make):
    # the removal from x is still queued when the addition pushes its
    # checkpoint; its pop must queue it again for the next fixpoint
    store, dynamizer = grown(make, [{A, B}, {A, B, C}])
    store.remove_value(0, B)
    dynamizer.add_variable(store.add_variable({A, C}))
    dynamizer.remove_variable()
    store.retract_last_variable()
    assert store.propagate_fixpoint() is True
    assert store.domains == [{A}, {B, C}]
    store.validate()


def test_the_readme_library_example_runs():
    # the README's "Library example" block, as printed there; compiled with
    # its asserts kept, which are its checks, also under python -O
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None
    exec(compile(block.group(1), "README.md", "exec", optimize=0), {})
