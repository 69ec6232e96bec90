"""Turn-count ledgers, the per-pair XOR constraint system, and the
2-colouring solver showing universal exchange signs exist only for N = 2,
checked against an enumeration of every assignment and a depth-first
2-colouring of the whole graph."""

import itertools
import random
import re

import pytest

from spinframes import (
    ExchangeConstraintSystem,
    ParityLedger,
    SatResult,
    TwiceSpin,
    build_constraints,
    check_noninterference,
    exchange_sign,
    exhaustive_satisfiable,
    impossibility_report,
    n2_only_pattern,
    order_dependence_phase,
    report_lines,
)
from spinframes import antisym_checker
from oracles import dfs_two_colouring, parity_assignments

HALF = TwiceSpin(1)
ONE = TwiceSpin(2)


def test_ledger_shape_validation():
    ParityLedger.from_rows([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        ParityLedger(n_particles=2, table=((0, 0),))
    with pytest.raises(ValueError):
        ParityLedger(n_particles=2, table=((0, 0), (0, 0, 0)))


def test_particle_totals_sum_over_slots():
    led = ParityLedger.from_rows([[1, 0, 2], [0, 1, 0], [1, 1, 1]])
    assert [led.particle_total(i) for i in range(3)] == [2, 2, 3]


def test_particle_total_rejects_bad_indices():
    led = ParityLedger.from_rows([[1, 0, 2], [0, 1, 0], [1, 1, 1]])
    # -1 read the last particle's total and True particle 1's
    for bad in (-1, 3):
        with pytest.raises(ValueError, match="particle index"):
            led.particle_total(bad)
    for bad in (True, 1.0):
        with pytest.raises(TypeError, match="particle index"):
            led.particle_total(bad)


def test_exchange_sign_examples():
    spins = [HALF, HALF]
    zero = ParityLedger.from_rows([[0, 0], [0, 0]])
    # one full turn on one halfon flips the sign
    one_turn = ParityLedger.from_rows([[1, 0], [0, 0]])
    assert exchange_sign(zero, one_turn, spins) == -1
    # a full turn on each halfon restores it
    both = ParityLedger.from_rows([[1, 0], [0, 1]])
    assert exchange_sign(zero, both, spins) == 1
    # fullons never mind
    assert exchange_sign(zero, one_turn, [ONE, ONE]) == 1
    # two turns on one halfon cancel
    twice = ParityLedger.from_rows([[2, 0], [0, 0]])
    assert exchange_sign(zero, twice, spins) == 1


def test_exchange_sign_is_multiplicative_over_steps():
    rng = random.Random(61)
    spins = [TwiceSpin(rng.randint(1, 4)) for _ in range(3)]
    for _ in range(50):
        a = ParityLedger.from_rows([[rng.randint(0, 3) for _ in range(3)] for _ in range(3)])
        b = ParityLedger.from_rows([[rng.randint(0, 3) for _ in range(3)] for _ in range(3)])
        c = ParityLedger.from_rows([[rng.randint(0, 3) for _ in range(3)] for _ in range(3)])
        assert exchange_sign(a, c, spins) == exchange_sign(a, b, spins) * exchange_sign(
            b, c, spins
        )


def test_exchange_sign_is_the_turn_law_on_total_deltas():
    rng = random.Random(62)
    for _ in range(300):
        n = rng.randint(1, 5)
        spins = [TwiceSpin(rng.randint(0, 6)) for _ in range(n)]
        before = ParityLedger.from_rows(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        )
        after = ParityLedger.from_rows(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        )
        deltas = [after.particle_total(i) - before.particle_total(i) for i in range(n)]
        want = (-1) ** sum(d * s.twice for d, s in zip(deltas, spins))
        assert exchange_sign(before, after, spins) == want
        assert order_dependence_phase(deltas, spins) == want


def test_exchange_sign_validation():
    two = ParityLedger.from_rows([[0, 0], [0, 0]])
    three = ParityLedger.from_rows([[0] * 3] * 3)
    with pytest.raises(ValueError, match="particle counts"):
        exchange_sign(two, three, [HALF, HALF])
    with pytest.raises(ValueError, match="spins"):
        exchange_sign(two, two, [HALF])


def test_noninterference():
    before = ParityLedger.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    # bystander 2 untouched: fine
    after_ok = ParityLedger.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert check_noninterference(before, after_ok, (0, 1))
    # bystander 2 picks up an odd turn count: interference
    after_bad = ParityLedger.from_rows([[0, 0, 0], [0, 1, 1], [0, 0, 0]])
    assert not check_noninterference(before, after_bad, (0, 1))
    # same ledger is fine when those two are the exchanged pair
    assert check_noninterference(before, after_bad, (1, 2))
    with pytest.raises(ValueError, match="invalid"):
        check_noninterference(before, after_ok, (1, 1))
    with pytest.raises(ValueError, match="invalid"):
        check_noninterference(before, after_ok, (0, 3))
    # a malformed pair is named before it is unpacked
    with pytest.raises(ValueError, match=r"invalid exchanged pair \(0, 1, 2\)"):
        check_noninterference(before, after_ok, (0, 1, 2))
    with pytest.raises(TypeError, match="exchanged pair must be a tuple or list pair, got 1"):
        check_noninterference(before, after_ok, 1)


def test_ledger_and_exchange_reject_non_int_labels():
    zero = ParityLedger.from_rows([[0, 0, 0]] * 3)
    # each case passed before, or failed only later inside exchange_sign
    with pytest.raises(TypeError, match="exchanged end"):
        check_noninterference(zero, zero, (0, True))
    with pytest.raises(TypeError, match="exchanged end"):
        check_noninterference(zero, zero, (0.0, 1.0))
    with pytest.raises(TypeError, match="n_particles"):
        ParityLedger(n_particles=True, table=((0,),))
    with pytest.raises(TypeError, match="turn count"):
        ParityLedger(n_particles=2, table=((0, 0.5), (0, 0)))
    with pytest.raises(TypeError, match="turn count"):
        ParityLedger.from_rows([[0, False], [0, 0]])
    # the type is checked before the shape and the range
    with pytest.raises(TypeError, match="n_particles"):
        ParityLedger(n_particles=2.0, table=((0,),))
    with pytest.raises(TypeError, match="turn count"):
        ParityLedger(n_particles=2, table=((0.5,),))
    with pytest.raises(TypeError, match="exchanged end"):
        check_noninterference(zero, zero, (1.0, 1.0))
    with pytest.raises(TypeError, match="exchanged end"):
        check_noninterference(zero, zero, (0, 3.0))


def test_constraint_counts():
    assert len(build_constraints(2).constraints) == 1
    assert len(build_constraints(3).constraints) == 3
    assert len(build_constraints(4).constraints) == 6
    for n in range(2, 13):
        system = build_constraints(n)
        assert system.n_vars == n
        assert len(system.constraints) == n * (n - 1) // 2
        assert len(set(system.constraints)) == len(system.constraints)
    with pytest.raises(ValueError):
        build_constraints(1)


def test_constraint_pair_validation():
    ExchangeConstraintSystem(n_vars=3, constraints=((0, 2),))
    with pytest.raises(ValueError, match="bad constraint"):
        ExchangeConstraintSystem(n_vars=3, constraints=((2, 0),))
    with pytest.raises(ValueError, match="bad constraint"):
        ExchangeConstraintSystem(n_vars=3, constraints=((0, 3),))
    # a malformed item is named before it is unpacked
    for item in ((0,), (0, 1, 2)):
        with pytest.raises(ValueError, match=f"bad constraint pair {re.escape(repr(item))}"):
            ExchangeConstraintSystem(n_vars=3, constraints=[item])
    for constraints, item in (([0, 1], 0), ("ab", "a")):
        with pytest.raises(TypeError) as got:
            ExchangeConstraintSystem(n_vars=3, constraints=constraints)
        assert str(got.value) == f"constraint must be a tuple or list pair, got {item!r}"


def test_two_particles_satisfiable_with_both_witnesses():
    result = exhaustive_satisfiable(build_constraints(2))
    assert result.satisfiable
    assert result.count == 2
    assert result.witness == (1, 0)  # first found in enumeration order


def test_three_and_more_unsatisfiable():
    for n in (3, 4, 5, 7):
        result = exhaustive_satisfiable(build_constraints(n))
        assert not result.satisfiable
        assert result.witness is None
        assert result.count == 0


def test_unsatisfiability_matches_brute_force_oracle():
    # same conclusion via itertools product, as a fully separate enumeration
    for n in (2, 3, 4):
        hits = [
            bits
            for bits in itertools.product((0, 1), repeat=n)
            if all(bits[i] ^ bits[j] == 1 for i in range(n) for j in range(i + 1, n))
        ]
        result = exhaustive_satisfiable(build_constraints(n))
        assert result.count == len(hits)
        assert result.satisfiable == bool(hits)


def test_negative_variable_count_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        ExchangeConstraintSystem(n_vars=-1, constraints=())


def test_solver_has_no_size_bound():
    free = exhaustive_satisfiable(ExchangeConstraintSystem(n_vars=64, constraints=()))
    assert free == (True, (0,) * 64, 2**64)
    k200 = build_constraints(200)
    assert exhaustive_satisfiable(k200) == (False, None, 0)
    assert dfs_two_colouring(200, k200.constraints) == (False, None, 0)


def random_system(rng: random.Random) -> ExchangeConstraintSystem:
    """Random constraint graph on up to 10 variables at a random edge
    density; half of them are bipartite by construction, so that counts
    above 2 and isolated variables come up."""
    n = rng.randint(0, 10)
    density = rng.random()
    side = [rng.randint(0, 1) for _ in range(n)]
    bipartite = rng.random() < 0.5
    pairs = tuple(
        (i, j)
        for i, j in itertools.combinations(range(n), 2)
        if rng.random() < density and (side[i] != side[j] or not bipartite)
    )
    return ExchangeConstraintSystem(n_vars=n, constraints=pairs)


def solve_by_oracles(system: ExchangeConstraintSystem):
    """The solver's result, after checking it equals both oracles'."""
    count, first = parity_assignments(system.n_vars, system.constraints)
    result = exhaustive_satisfiable(system)
    assert result == (count > 0, first, count), system
    assert result == dfs_two_colouring(system.n_vars, system.constraints), system
    return result


def test_solver_matches_enumeration_oracle():
    rng = random.Random(73)
    counts = set()
    for _ in range(400):
        counts.add(solve_by_oracles(random_system(rng)).count)
    assert {0, 1, 2, 4, 8} <= counts


def test_solver_ignores_constraint_order_and_repeats():
    # the solver reads constraints online, so the order it meets them in
    # changes which one closes a cycle, but never the result
    rng = random.Random(74)
    for _ in range(300):
        system = random_system(rng)
        pairs = list(system.constraints)
        pairs += rng.sample(pairs, rng.randint(0, len(pairs)))
        rng.shuffle(pairs)
        shuffled = ExchangeConstraintSystem(
            n_vars=system.n_vars, constraints=tuple(pairs)
        )
        assert solve_by_oracles(shuffled) == exhaustive_satisfiable(system)


def test_solver_matches_dfs_oracle_on_large_paths_and_cycles():
    rng = random.Random(75)
    for n in (2, 3, 17, 256, 1000, 2000):
        path = [(i, i + 1) for i in range(n - 1)]
        cycle = path + [(0, n - 1)]
        shuffled = (rng.sample(path, len(path)), rng.sample(cycle, len(cycle)))
        for pairs in (path, cycle, *shuffled):
            system = ExchangeConstraintSystem(n_vars=n, constraints=tuple(pairs))
            result = exhaustive_satisfiable(system)
            assert result == dfs_two_colouring(n, pairs)
            if len(pairs) == n - 1 or n % 2 == 0:
                # a path or an even cycle alternates down from x_{n-1} = 0
                assert result == (True, tuple((n - 1 - i) % 2 for i in range(n)), 2)
            else:
                assert result == (False, None, 0)


def test_solver_matches_dfs_oracle_on_deepest_union_trees():
    # merging equal-size trees is the order that makes union by size build
    # trees of depth log2 N; x_i is then the parity of i's bit count, and a
    # chord between equal bit-count parities closes an odd cycle
    n = 1024
    pairs = [
        (i, i + step)
        for step in (1 << k for k in range(10))
        for i in range(0, n, 2 * step)
    ]
    system = ExchangeConstraintSystem(n_vars=n, constraints=tuple(pairs))
    assert exhaustive_satisfiable(system) == dfs_two_colouring(n, pairs)
    assert exhaustive_satisfiable(system).count == 2
    chords = {(0, 7): True, (511, 1023): True, (0, 1023): False, (5, 6): False}
    for chord, satisfiable in chords.items():
        extended = tuple(pairs) + (chord,)
        system = ExchangeConstraintSystem(n_vars=n, constraints=extended)
        result = exhaustive_satisfiable(system)
        assert result == dfs_two_colouring(n, extended)
        assert result.satisfiable == satisfiable


def test_solver_on_zero_and_one_variables():
    empty = ExchangeConstraintSystem(n_vars=0, constraints=())
    assert exhaustive_satisfiable(empty) == dfs_two_colouring(0, ()) == (True, (), 1)
    single = ExchangeConstraintSystem(n_vars=1, constraints=())
    assert exhaustive_satisfiable(single) == dfs_two_colouring(1, ()) == (True, (0,), 2)
    assert isinstance(exhaustive_satisfiable(single), SatResult)


class CountingPairs(tuple):
    """A constraint tuple that counts the pairs read through iteration."""

    reads = 0

    def __iter__(self):
        for pair in tuple.__iter__(self):
            self.reads += 1
            yield pair


def test_solver_stops_at_the_first_odd_cycle():
    pairs = CountingPairs(build_constraints(50).constraints)
    system = ExchangeConstraintSystem(n_vars=50, constraints=pairs)
    pairs.reads = 0  # validation read them all
    assert exhaustive_satisfiable(system) == (False, None, 0)
    # (0, 1) .. (0, 49) join one star; (1, 2) closes the triangle
    assert 0 < pairs.reads <= 50
    assert len(pairs) == 50 * 49 // 2


def test_constraints_are_the_pairs_in_lexicographic_order():
    for n in range(2, 41):
        want = tuple((i, j) for i in range(n) for j in range(i + 1, n))
        assert build_constraints(n).constraints == want
        pairs = build_constraints(n).constraints
        assert want == pairs and not pairs != want
        if n > 2:
            assert pairs != want[::-1] and want[::-1] != pairs
        assert tuple(pairs) == want
        assert tuple(pairs) == want  # a second pass makes the same pairs
        assert len(pairs) == len(want)
        assert hash(pairs) == hash(want)
        for k in range(1, len(want) + 1):
            assert pairs[k - 1] == want[k - 1]
            assert pairs[-k] == want[-k]
        for k in (len(want), -len(want) - 1):
            with pytest.raises(IndexError):
                pairs[k]
        assert pairs[1:4] == want[1:4] and pairs[::-2] == want[::-2]


def test_complete_system_equals_and_hashes_like_its_tuple():
    for n in range(2, 13):
        lazy = build_constraints(n)
        want = tuple((i, j) for i in range(n) for j in range(i + 1, n))
        explicit = ExchangeConstraintSystem(n_vars=n, constraints=want)
        assert lazy == explicit and explicit == lazy
        assert hash(lazy) == hash(explicit)
        assert lazy == build_constraints(n)
        assert lazy != build_constraints(n + 1)
        assert lazy != ExchangeConstraintSystem(n_vars=n, constraints=want[:-1])
        assert lazy != ExchangeConstraintSystem(n_vars=n + 1, constraints=want)
        assert exhaustive_satisfiable(lazy) == exhaustive_satisfiable(explicit)


def test_complete_pairs_must_fit_the_variables():
    pairs = build_constraints(5).constraints
    with pytest.raises(ValueError, match="bad constraint"):
        ExchangeConstraintSystem(n_vars=3, constraints=pairs)
    # K_5 on 7 variables leaves two of them free
    wider = ExchangeConstraintSystem(n_vars=7, constraints=pairs)
    assert wider == ExchangeConstraintSystem(n_vars=7, constraints=tuple(pairs))
    assert exhaustive_satisfiable(wider) == (False, None, 0)
    with pytest.raises(TypeError, match="n_vars"):
        ExchangeConstraintSystem(n_vars=5.0, constraints=pairs)


def test_constraints_must_be_a_sequence():
    # validation would use up a generator or an iterator, leaving the solver
    # no pairs to read: K_3 would then read as satisfiable
    for one_pass in (
        (pair for pair in build_constraints(3).constraints),
        iter([(0, 1), (0, 2), (1, 2)]),
    ):
        with pytest.raises(TypeError, match="constraints must be a sequence"):
            ExchangeConstraintSystem(n_vars=3, constraints=one_pass)
    listed = ExchangeConstraintSystem(n_vars=3, constraints=[(0, 1), (0, 2), (1, 2)])
    assert exhaustive_satisfiable(listed) == (False, None, 0)


def test_non_int_labels_rejected():
    with pytest.raises(TypeError, match="n_vars"):
        ExchangeConstraintSystem(n_vars=2.5, constraints=((0, 1),))
    with pytest.raises(TypeError, match="n_vars"):
        ExchangeConstraintSystem(n_vars=True, constraints=())
    with pytest.raises(TypeError, match="constraint end"):
        ExchangeConstraintSystem(n_vars=2, constraints=((0, True),))
    with pytest.raises(TypeError, match="constraint end"):
        ExchangeConstraintSystem(n_vars=2, constraints=((0, 1.0),))
    with pytest.raises(TypeError, match="constraint end"):
        ExchangeConstraintSystem(n_vars=2, constraints=((0.0, 1),))
    with pytest.raises(TypeError):
        build_constraints(2.5)
    # True was a ValueError (need at least two particles)
    with pytest.raises(TypeError, match="n_particles"):
        build_constraints(True)
    # True was a ValueError (N_max=True outside [2, 20]), 3.0 failed in range
    for bad in (True, 3.0):
        with pytest.raises(TypeError, match="N_max"):
            impossibility_report(bad)


def test_solver_matches_enumeration_oracle_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def systems(draw):
        n = draw(st.integers(0, 9))
        pairs = list(itertools.combinations(range(n), 2))
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return ExchangeConstraintSystem(n_vars=n, constraints=tuple(sorted(chosen)))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(systems())
    def check(system):
        solve_by_oracles(system)

    check()


def test_impossibility_report_rows():
    assert impossibility_report(3) == [(2, True, 2), (3, False, 0)]
    assert impossibility_report(2) == [(2, True, 2)]
    rows = impossibility_report(6)
    assert [r[0] for r in rows] == [2, 3, 4, 5, 6]
    assert n2_only_pattern(rows)
    with pytest.raises(ValueError):
        impossibility_report(1)
    with pytest.raises(ValueError):
        impossibility_report(21)


def test_report_rows_are_the_solved_systems():
    solved = {}
    for n in range(2, 21):
        system = build_constraints(n)
        result = exhaustive_satisfiable(system)
        if n <= 10:
            assert result == dfs_two_colouring(n, system.constraints)
        solved[n] = (n, result.satisfiable, result.count)
    for n_max in range(2, 21):
        assert impossibility_report(n_max) == [solved[n] for n in range(2, n_max + 1)]


def test_report_neither_builds_nor_solves_a_system(monkeypatch):
    def refuse(*args):
        raise AssertionError("the report solved a system")

    monkeypatch.setattr(antisym_checker, "build_constraints", refuse)
    monkeypatch.setattr(antisym_checker, "exhaustive_satisfiable", refuse)
    for n_max in (2, 3, 20):
        assert impossibility_report(n_max) == [
            (n, n == 2, 2 if n == 2 else 0) for n in range(2, n_max + 1)
        ]


def test_report_stops_joining_at_the_first_odd_cycle(monkeypatch):
    joined = []
    join = antisym_checker._ParityForest.join

    def counting_join(forest, i, j):
        joined.append((i, j))
        return join(forest, i, j)

    monkeypatch.setattr(antisym_checker._ParityForest, "join", counting_join)
    # particle 1 joins 0; particle 2 joins 0, then closes the triangle at 1
    for n_max in (3, 4, 20):
        joined.clear()
        impossibility_report(n_max)
        assert joined == [(0, 1), (0, 2), (1, 2)]
    joined.clear()
    impossibility_report(2)
    assert joined == [(0, 1)]


def test_parity_forest_grows_a_variable_at_a_time():
    forest = antisym_checker._ParityForest()
    assert forest.trees == 0
    assert [forest.add() for _ in range(4)] == [0, 1, 2, 3]
    assert forest.trees == 4
    assert forest.join(0, 1) and forest.join(2, 3) and forest.trees == 2
    assert forest.join(1, 2) and forest.trees == 1
    # x = (1, 0, 1, 0) up to a flip: 0 and 2 agree, so an odd cycle
    assert not forest.join(0, 2)
    assert forest.trees == 1
    assert forest.join(0, 3)  # an even cycle adds nothing
    assert [forest.find(v)[1] ^ forest.find(0)[1] for v in range(4)] == [0, 1, 0, 1]


def test_n2_only_pattern_rejects_deviations():
    assert n2_only_pattern([(2, True, 2)])
    assert not n2_only_pattern([(2, True, 1)])
    assert not n2_only_pattern([(2, True, 2), (3, True, 1)])
    assert not n2_only_pattern([(2, False, 0), (3, False, 0)])


def test_report_lines_golden():
    assert report_lines(impossibility_report(3)) == [
        "N=2 satisfiable=true witnesses=2",
        "N=3 satisfiable=false witnesses=0",
    ]
