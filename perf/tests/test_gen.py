import pytest

from harness import gen

GENERATORS = {
    "window": lambda seed: gen.window_stream(seed, 0, 12),
    "window_reduced": lambda seed: gen.window_stream(
        seed, 1, 9, window=3, facts=6, qualify=4),
    "kernel_orders": lambda seed: gen.kernel_orders(seed, 500),
    "kernel_updates": lambda seed: gen.kernel_updates(
        seed, gen.kernel_orders(seed, 2000), 4, 10),
    "act": lambda seed: gen.act_items(seed, 200),
    "dips_emps": lambda seed: gen.dips_emps(seed, 3, 40),
    "dips_updates": lambda seed: gen.dips_updates(seed, 120, 3, 10),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_same_bytes(name):
    make = GENERATORS[name]
    assert gen.fingerprint(make(7)) == gen.fingerprint(make(7))


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_other_seed_other_bytes(name):
    make = GENERATORS[name]
    assert gen.fingerprint(make(7)) != gen.fingerprint(make(8))


def test_seeds_shuffle_one_multiset():
    """A seed may not change how much work an input is."""
    def shape(orders):
        return sorted(sorted(values.items()) for _c, values in orders)

    assert shape(gen.kernel_orders(1, 500)) == shape(
        gen.kernel_orders(2, 500))


def test_every_window_tick_has_the_same_shape():
    for batch in gen.window_stream(3, 0, 10):
        emps = [v for c, v in batch if c == "emp"]
        assert len(emps) == gen.WINDOW_FACTS
        assert sum(v["salary"] > gen.WINDOW_SALARY_FLOOR
                   for v in emps) == gen.WINDOW_QUALIFY
        assert batch[-1][0] == "expire"


def test_window_model_matches_its_size_formula():
    for ticks in (1, 10, 50, 70):
        stream = gen.window_stream(5, 0, ticks)
        assert len(gen.window_expected_wm(stream)) == (
            gen.window_expected_size(ticks))
