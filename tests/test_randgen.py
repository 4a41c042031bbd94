import random

from tcspace.randgen import random_metric_space


def test_random_spaces_are_valid_above_ten_points():
    # Point names P10, P11, ... sort before P2 as strings; edges must still
    # be drawn once each.
    for n in range(11, 65):
        for seed in range(20):
            assert random_metric_space(random.Random(seed), n).n == n
