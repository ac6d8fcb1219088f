"""The generators are functions of the seed alone."""

import itertools

import gen


def take(iterator, n):
    return list(itertools.islice(iterator, n))


def fingerprints(queries):
    return [q.fingerprint for q in queries]


def test_query_stream_repeats_per_seed_and_differs_across_seeds():
    a = take(gen.distinct_queries(7, "catalog-batch"), 300)
    b = take(gen.distinct_queries(7, "catalog-batch"), 300)
    c = take(gen.distinct_queries(8, "catalog-batch"), 300)
    assert fingerprints(a) == fingerprints(b)
    assert fingerprints(a) != fingerprints(c)


def test_query_stream_never_repeats_and_spans_goals_and_top_k():
    queries = take(gen.distinct_queries(3, "catalog-batch"), 5000)
    assert len(set(fingerprints(queries))) == len(queries)
    assert {q.goal for q in queries} == set(gen.GOALS)
    assert {q.top_k for q in queries} == set(gen.TOP_KS)


def test_zipf_stream_is_seeded_and_skewed():
    pool = gen.query_pool(5, 400)
    assert len(set(fingerprints(pool))) == 400
    assert fingerprints(pool) == fingerprints(gen.query_pool(5, 400))
    draws = take(gen.zipf_stream(5, pool, 1.0), 4000)
    assert fingerprints(draws) == fingerprints(take(gen.zipf_stream(5, pool, 1.0), 4000))
    assert fingerprints(draws) != fingerprints(take(gen.zipf_stream(6, pool, 1.0), 4000))
    head = sum(1 for q in draws if q.fingerprint == pool[0].fingerprint)
    tail = sum(1 for q in draws if q.fingerprint == pool[-1].fingerprint)
    assert head > 10 * max(tail, 1)


def test_poisson_arrivals_are_seeded_sorted_and_at_rate():
    a = gen.poisson_arrivals(1, 100.0, 20.0)
    assert a == gen.poisson_arrivals(1, 100.0, 20.0)
    assert a != gen.poisson_arrivals(2, 100.0, 20.0)
    assert len(a) == 2000 and a == sorted(a)
    assert 0.0 <= a[0] and a[-1] < 20.0
    gaps = [later - earlier for earlier, later in zip(a, a[1:])]
    assert abs(sum(gaps) / len(gaps) - 0.01) < 0.001


def test_contribution_points_are_seeded_per_batch():
    a = take(gen.contribution_points(4, 0), 64)
    assert a == take(gen.contribution_points(4, 0), 64)
    assert a != take(gen.contribution_points(4, 1), 64)
    assert a != take(gen.contribution_points(5, 0), 64)
    names = {p.name for p in gen.PARAMETERS}
    assert all(set(point) == names for point in a)


def test_contributions_hold_64_distinct_records_for_every_seed():
    import workloads

    for seed in (108, 1, 2, 3):
        ctx = workloads.Context(None, None, None, seed, 0.0, False)
        database = workloads.contribution(ctx, 2, "ec2-us-east")
        assert len(database) == workloads.CONTRIBUTE_RECORDS
