"""Property suites: every structural claim the package stands on, run
exhaustively at small scale and by seeded sampling above it.

Each suite returns a SuiteReport whose violations list is empty on
success.  Reports contain no timing or environment data, so a fixed seed
yields byte-identical output run after run.

Every check passes its witness as a zero-argument callable, which
``SuiteReport.check`` calls only when the check fails, so a passing run
encodes no witness.  A witness draws nothing from an RNG and is called at
once, reading the loop values of its check, so a report is the same bytes
whether or not any witness runs.
"""

from __future__ import annotations

import itertools

from . import jsonio
from .enumeration import all_spaces, all_topologies, count_topologies_bruteforce
from .errors import NonSkeletalBond
from .families import (
    OpenFamily,
    build_quotient,
    families_from_map,
    is_skeletal_family,
    ring_closure,
    seq_family,
    seq_family_bruteforce,
)
from .game import (
    EchoStrategy,
    TableStrategy,
    Transcript,
    build_tclub_member,
    check_condition_S,
    closure_under_strategies,
    count_ii_strategies,
    minimal_open_strategy,
    play,
    solve_open_open,
    verify_winning,
)
from .randgen import (
    random_clopen_seed,
    random_family,
    random_quotient_chain,
    random_space,
    random_union_closed_families,
    rng_for,
)
from .spaces import FiniteSpace, SpaceMap, bits_of, frink_conditions, union_closure
from .systems import (
    check_sigma_completeness,
    check_skeletal_system,
    embedding_map,
    limit_space,
    limit_strategy,
    system_from_families,
)

__all__ = ["SuiteReport", "run_suite", "SUITE_NAMES", "MAX_SUITE_POINTS", "MAX_SUITE_SAMPLES"]

SUITE_NAMES = ("quotient", "game", "systems", "roundtrip")
# The quotient suite walks every topology on up to max_points points and
# the game suite counts them by brute force; both grow doubly
# exponentially (9,535,241 topologies on 7 points).
MAX_SUITE_POINTS = 4
# Every sampled section runs in time linear in the samples; at the cap,
# suite all --max-points 4 took 3.2-3.6 s in-process on a shared 2-CPU host.
MAX_SUITE_SAMPLES = 10_000


class SuiteReport:
    """One suite's running tally; ``check`` adds to it as the suite runs."""

    __slots__ = ("name", "seed", "max_points", "samples", "cases_run", "counts", "violations")

    def __init__(
        self, name: str, seed: int, max_points: int, samples: int, cases_run: int = 0,
        counts: dict | None = None, violations: list | None = None,
    ):
        self.name = name
        self.seed = seed
        self.max_points = max_points
        self.samples = samples
        self.cases_run = cases_run
        self.counts = {} if counts is None else counts
        self.violations = [] if violations is None else violations

    def check(self, ok: bool, prop: str, witness, cases: int = 1) -> None:
        """Count ``cases`` cases of ``prop``; if ``ok`` is false, record a
        violation whose witness is ``witness()``.

        ``witness`` is a zero-argument callable, called only on failure and
        before ``check`` returns, so it sees the caller's current loop
        values.  It must draw nothing from an RNG: whether it runs may not
        change what the suite draws next.
        """
        self.cases_run += cases
        if not ok:
            self.violations.append({"property": prop, "witness": witness()})

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "seed": self.seed,
            "max_points": self.max_points,
            "samples": self.samples,
            "cases_run": self.cases_run,
            "counts": dict(sorted(self.counts.items())),
            "violations": self.violations[:50],
            "violations_total": len(self.violations),
        }


def _space_tag(space: FiniteSpace) -> list:
    return jsonio.encode_space(space)["opens"]


def _families_over(space: FiniteSpace):
    opens = space.opens
    for pick in range(1 << len(opens)):
        yield [opens[k] for k in range(len(opens)) if (pick >> k) & 1]


def _pi_bases(space: FiniteSpace):
    """Every pi-base of nonempty opens, each listed in the order of the
    opens.  The only nonempty open inside a minimal open is that minimal
    open, and every nonempty open contains one, so the pi-bases are the
    minimal opens together with any subset of the other nonempty opens;
    counting those subsets upward lists the pi-bases in the order of the
    subsets of all nonempty opens."""
    pool = space.nonempty_opens()
    minimal = set(space.minimal_open_family())
    others = [o for o in pool if o not in minimal]
    for pick in range(1 << len(others)):
        chosen = minimal | {others[k] for k in range(len(others)) if (pick >> k) & 1}
        yield [o for o in pool if o in chosen]


# ----------------------------------------------------------------------
# quotient suite: topology core laws, quotient identities, sequence closure,
# skeletal map/family duality
# ----------------------------------------------------------------------


def quotient_suite(max_points: int = 3, samples: int = 1000, seed: int = 0) -> SuiteReport:
    rep = SuiteReport("quotient", seed, max_points, samples)
    small = all_spaces(min(3, max_points))
    rep.counts["spaces_small"] = len(small)

    # closure/interior laws and the neighborhood facts, every subset
    for space in all_spaces(max_points):
        full = space.full
        for s in range(full + 1):
            cl = space.closure(s)
            inner = space.interior(s)
            rep.check(space.closure(cl) == cl, "closure_idempotent", lambda: [_space_tag(space), s])
            rep.check(s & ~cl == 0, "closure_extensive", lambda: [_space_tag(space), s])
            rep.check(inner & ~s == 0, "interior_contractive", lambda: [_space_tag(space), s])
            rep.check(
                inner == full ^ space.closure(full ^ s),
                "interior_closure_dual",
                lambda: [_space_tag(space), s],
            )
        minimal = space.minimal_open_family()
        for x in range(space.point_count):
            m = space.minimal_open_neighborhood(x)
            rep.check(
                space.is_open(m) and all(not ((o >> x) & 1) or m & ~o == 0 for o in space.opens),
                "minimal_neighborhood_least",
                lambda: [_space_tag(space), x],
            )
        for o in space.nonempty_opens():
            rep.check(
                any(m & ~o == 0 for m in minimal),
                "pi_base_minimal_opens",
                lambda: [_space_tag(space), o],
            )

        flags = space.separation_flags()
        rep.check(
            (not flags.hausdorff or flags.t1) and (not flags.t1 or flags.t0),
            "separation_implications",
            lambda: _space_tag(space),
        )
        rep.check(
            not (flags.regular and flags.t0) or flags.hausdorff,
            "regular_t0_hausdorff",
            lambda: _space_tag(space),
        )
        if flags.hausdorff:
            fr = frink_conditions(space, space.opens)
            rep.check(fr.cond1 and fr.cond2, "frink_on_hausdorff", lambda: _space_tag(space))
        # two-valued-map oracle for the clopen-base reading of complete regularity
        oracle = _completely_regular_oracle(space)
        rep.check(
            flags.completely_regular == oracle,
            "completely_regular_oracle",
            lambda: _space_tag(space),
        )

    # quotient identity, continuity and base behavior, every family
    for space in small:
        for members in _families_over(space):
            def tag():
                return [_space_tag(space), sorted(members)]
            q = build_quotient(space, members)
            fam = q.family
            rep.check(q.identity_holds, "q_preimage_identity", tag)
            if fam.is_intersection_closed():
                rep.check(q.q_continuous, "meet_closed_continuous", tag)
                if fam.union_mask() == space.full:
                    rep.check(q.image_is_base, "meet_closed_cover_base", tag)

            seq_a = seq_family(fam).members
            seq_b = seq_family_bruteforce(fam).members
            rep.check(seq_a == seq_b, "seq_closed_form_vs_search", tag)
            if seq_a and fam.members:
                rep.check(fam.union_mask() == space.full, "seq_nonempty_forces_cover", tag)

            inside_seq = fam.members <= seq_a
            if inside_seq and fam.is_ring():
                unions = union_closure(fam.members)
                rep.check(
                    all(w in seq_a for w in unions),
                    "ring_unions_stay_in_seq",
                    tag,
                )
            if inside_seq:
                qflags = q.quotient_space.separation_flags()
                rep.check(qflags.hausdorff, "seq_quotient_hausdorff", tag)
                rep.check(
                    len(q.quotient_space.opens) == 1 << q.quotient_space.point_count,
                    "seq_quotient_discrete",
                    tag,
                )
                if fam.members and fam.is_intersection_closed():
                    rep.check(qflags.regular, "seq_meet_quotient_regular", tag)
                if fam.is_ring():
                    rep.check(
                        qflags.completely_regular,
                        "seq_ring_quotient_completely_regular",
                        tag,
                    )
            rc = ring_closure(fam)
            rep.check(
                ring_closure(rc).members == rc.members,
                "ring_closure_idempotent",
                tag,
            )

    # quotient by all opens is the T0 reflection: classes group points with
    # equal minimal neighborhoods, images of opens are exactly the opens
    for space in small:
        q = build_quotient(space, space.opens)
        by_nbhd: dict[int, int] = {}
        for x in range(space.point_count):
            key = space.minimal_open_neighborhood(x)
            by_nbhd[key] = by_nbhd.get(key, 0) | (1 << x)
        rep.check(
            set(by_nbhd.values()) == set(q.classes),
            "t0_reflection_classes",
            lambda: _space_tag(space),
        )
        quotient_kind = {q.map.image_of(o) for o in space.opens}
        rep.check(
            quotient_kind == set(q.quotient_space.opens),
            "t0_reflection_opens_are_images",
            lambda: _space_tag(space),
        )
        rep.check(
            q.quotient_space.separation_flags().t0,
            "t0_reflection_is_t0",
            lambda: _space_tag(space),
        )

    # random families on 4 and 5 points for the sequence-closure agreement
    rng = rng_for(seed, "seqrand")
    for i in range(samples):
        n = 4 + (i % 2)
        space = random_space(rng, n)
        fam = random_family(rng, space)
        a = seq_family(fam).members
        b = seq_family_bruteforce(fam).members
        rep.check(
            a == b,
            "seq_closed_form_vs_search_random",
            lambda: [i, _space_tag(space), sorted(fam.members)],
        )
    rep.counts["seq_random_samples"] = samples

    # skeletal suite: maps vs families, dense preimages, open implies skeletal
    surjection_count = 0
    codomains = [
        (cod, list(_pi_bases(cod)), [v for v in cod.opens if cod.is_dense(v)])
        for cod in small
        if cod.point_count
    ]
    for dom in small:
        if dom.point_count == 0:
            continue
        for cod, pibases, dense_opens in codomains:
            if cod.point_count > dom.point_count:
                continue
            for assign in _continuous_surjections(dom, cod):
                m = SpaceMap._from_built(dom, cod, assign)
                surjection_count += 1
                def tag():
                    return [_space_tag(dom), _space_tag(cod), list(assign)]
                skel = m.is_skeletal()
                for pibase, fam in zip(pibases, families_from_map(m, pibases)):
                    ok, _ = is_skeletal_family(fam)
                    rep.check(
                        ok == skel,
                        "skeletal_family_iff_map",
                        lambda: tag() + [sorted(pibase)],
                    )
                if skel:
                    for v in dense_opens:
                        rep.check(
                            dom.is_dense(m.preimage_of(v)),
                            "skeletal_dense_preimage",
                            lambda: tag() + [v],
                        )
                if m.is_open_map():
                    rep.check(
                        skel,
                        "open_implies_skeletal",
                        tag,
                    )
    rep.counts["continuous_surjections"] = surjection_count
    return rep


def _completely_regular_oracle(space: FiniteSpace) -> bool:
    """Separate each point of an open o from the closed complement of o by
    a two-valued continuous map.  A map into the discrete two-point space
    is continuous exactly when the preimage of 0 is clopen, so such a map
    exists exactly when some clopen set holds the point inside o.  Reads
    the lattice of opens, independent of the symmetric-preorder reading in
    ``separation_flags``."""
    clopens = space.clopens()
    return all(
        any((c >> x) & 1 and c & ~o == 0 for c in clopens)
        for o in space.opens
        for x in bits_of(o)
    )


def _continuous_surjections(dom: FiniteSpace, cod: FiniteSpace):
    """The assignments of the continuous surjections from dom onto cod,
    the first point cycling fastest.

    A depth-first search places the last point first, at each codomain
    point in ascending order.  Point x goes to a only when the rows agree
    with every point y placed before it: y in x's row must land in the row
    of a, and x in y's row needs a in the row of y's image.  A branch ends
    as soon as the points left are fewer than the codomain points not yet
    hit, so every assignment that survives to the end is onto.
    """
    dom_rows, cod_rows = dom.rows, cod.rows
    n, m = dom.point_count, cod.point_count
    assign = [0] * n

    def place(x: int, hit: int):
        if x < 0:
            if hit == cod.full:
                yield tuple(assign)
            return
        need = 0  # images of the placed points in x's row
        allowed = cod.full  # inside the image row of each placed y whose row holds x
        for y in range(x + 1, n):
            if (dom_rows[x] >> y) & 1:
                need |= 1 << assign[y]
            if (dom_rows[y] >> x) & 1:
                allowed &= cod_rows[assign[y]]
        for a in range(m):
            if (allowed >> a) & 1 and need & ~cod_rows[a] == 0:
                now = hit | 1 << a
                if m - now.bit_count() <= x:
                    assign[x] = a
                    yield from place(x - 1, now)

    return place(n - 1, 0)


# ----------------------------------------------------------------------
# game suite: universality of Player I, strategy verification, club
# families, condition (S)
# ----------------------------------------------------------------------


def game_suite(max_points: int = 4, samples: int = 500, seed: int = 0) -> SuiteReport:
    rep = SuiteReport("game", seed, max_points, samples)

    per_n = {}
    for n in range(1, max_points + 1):
        count = 0
        for space in all_topologies(n):
            count += 1
            sol = solve_open_open(space)
            rep.check(sol.winner == "I", "player_I_wins_everywhere", lambda: _space_tag(space))
            vr = verify_winning(space, sol.strategy)
            rep.check(vr.winning, "solver_strategy_verified", lambda: _space_tag(space))
            vm = verify_winning(space, minimal_open_strategy(space))
            rep.check(vm.winning, "minimal_open_strategy_verified", lambda: _space_tag(space))
            t = play(space, sol.strategy, EchoStrategy())
            rep.check(
                t.outcome == "I-wins" and len(t.rounds) <= len(space.minimal_open_family()),
                "solver_beats_echo_quickly",
                lambda: _space_tag(space),
            )
        per_n[n] = count
    rep.counts["topologies_per_n"] = per_n
    rep.counts["topologies_examined"] = sum(per_n.values())
    # a desk-scale observation; the report labels it as derived
    rep.counts["universal_I_win"] = "derived by enumeration up to %d points" % max_points
    top_n = min(max_points, 4)
    brute = count_topologies_bruteforce(top_n)
    rep.check(
        per_n.get(top_n) == brute,
        "enumeration_cross_check",
        lambda: {"n": top_n, "preorder_count": per_n.get(top_n), "bruteforce_count": brute},
    )
    rep.counts["bruteforce_count_n%d" % top_n] = brute

    # club families from seeded (space, seed family) pairs
    rng = rng_for(seed, "tclub")
    for i in range(samples):
        n = 1 + (i % max_points)
        space = random_space(rng, n)
        q0 = random_clopen_seed(rng, space)
        fam = build_tclub_member(q0)
        def tag():
            return [i, _space_tag(space), sorted(q0.members)]
        ok_s, wit = check_condition_S(fam)
        rep.check(ok_s, "tclub_condition_S", lambda: tag() + [wit])
        rep.check(fam.is_ring(), "tclub_is_ring", tag)
        rep.check(
            fam.members <= seq_family(fam).members,
            "tclub_inside_seq",
            tag,
        )
        quot = build_quotient(space, fam.members)
        rep.check(quot.map.is_skeletal(), "tclub_quotient_skeletal", tag)
        rep.check(
            quot.quotient_space.separation_flags().completely_regular,
            "tclub_quotient_completely_regular",
            tag,
        )
    rep.counts["tclub_samples"] = samples

    # closures under the raw solver strategy satisfy condition (S)
    rng2 = rng_for(seed, "solver-closure")
    closure_samples = min(samples, 200)
    for i in range(closure_samples):
        n = 1 + (i % min(3, max_points))
        space = random_space(rng2, n)
        seed_fam = random_family(rng2, space, rng2.randint(0, 3))
        sol = solve_open_open(space)
        fam = closure_under_strategies(seed_fam, [sol.strategy])
        ok_s, wit = check_condition_S(fam)
        rep.check(
            ok_s,
            "winning_closure_condition_S",
            lambda: [i, _space_tag(space), sorted(seed_fam.members), wit],
        )
    rep.counts["solver_closure_samples"] = closure_samples

    # play against every small opponent transducer.  When the solver's
    # line against the echo offers only minimal opens, Player II's
    # replies are forced, so every transducer plays that line and one
    # check stands for all of them; otherwise (only under a fault) each
    # transducer is played and checked, in enumeration order
    vs_count = 0
    for space in all_spaces(min(3, max_points), min_points=1):
        sol = solve_open_open(space)
        echo = play(space, sol.strategy, EchoStrategy())
        minimal = set(space.minimal_open_family())
        certified = all(a in minimal for a, _ in echo.rounds) and _beats_quickly(space, echo)
        for states in (1, 2):
            count = count_ii_strategies(space, states)
            if count > 3000:
                continue
            vs_count += count
            if certified:
                rep.check(
                    True,
                    "solver_beats_small_transducers",
                    lambda: [_space_tag(space), states],
                    cases=count,
                )
                continue
            for opp in _ii_transducers(space, states):
                rep.check(
                    _beats_quickly(space, play(space, sol.strategy, opp)),
                    "solver_beats_small_transducers",
                    lambda: [_space_tag(space), states, jsonio.encode_strategy(opp)["table"][:4]],
                )
    rep.counts["opponents_played"] = vs_count
    return rep


def _beats_quickly(space: FiniteSpace, t: Transcript) -> bool:
    """Player I won, with at most one covered set per point (covered sets
    only grow)."""
    return t.outcome == "I-wins" and len(set(t.covered)) <= space.point_count


def _ii_transducers(space: FiniteSpace, n_states: int):
    """Every Player II transducer with ``n_states`` states, in enumeration
    order: the product of the option lists, first key slowest."""
    keys = [(s, a) for s in range(n_states) for a in space.nonempty_opens()]
    options = [[(b, t) for b in space.opens_inside(a) for t in range(n_states)] for _, a in keys]
    for combo in itertools.product(*options):
        yield TableStrategy("II", 0, dict(zip(keys, combo)))


# ----------------------------------------------------------------------
# systems suite: skeletal projections, embeddings, sigma chains, lifted
# strategies
# ----------------------------------------------------------------------


def systems_suite(max_points: int = 4, samples: int = 500, seed: int = 0) -> SuiteReport:
    rep = SuiteReport("systems", seed, max_points, samples)

    rng = rng_for(seed, "systems")
    skeletal_hypothesis = 0
    strategy_checked = 0
    for i in range(samples):
        n = 2 + (i % max(max_points - 1, 1))
        length = 2 + (i % 2)
        sys = random_quotient_chain(rng, n, length, discrete_top=(i % 5 == 0))
        def tag():
            return [i, jsonio.encode_system(sys)["bonds"]]
        chk = sys.check
        rep.check(chk.ok, "sampled_system_valid", lambda: tag() + [chk.witness])
        if not chk.ok:
            continue
        lim = limit_space(sys)
        for low, high in sys.poset.pairs():
            lhs = lim.projections[low]
            rhs = sys.bond(low, high).compose(lim.projections[high])
            rep.check(lhs == rhs, "projection_functoriality", lambda: tag() + [[low, high]])
        report = check_skeletal_system(lim)
        if report.hypothesis_holds:
            skeletal_hypothesis += 1
            rep.check(
                report.proposition_holds is True,
                "skeletal_bonds_give_skeletal_projections",
                tag,
            )
            try:
                strat = limit_strategy(lim)
            except NonSkeletalBond:
                strat = None
            rep.check(strat is not None, "limit_strategy_available", tag)
            if strat is not None and lim.space.point_count:
                vr = verify_winning(lim.space, strat)
                strategy_checked += 1
                rep.check(vr.winning, "limit_strategy_verified", tag)
        all_open = all(sys.bond(i_, j_).is_open_map() for i_, j_ in sys.poset.pairs())
        if all_open:
            rep.check(
                all(report.bond_skeletal.values()),
                "open_bonds_are_skeletal",
                tag,
            )
    rep.counts["skeletal_hypothesis_systems"] = skeletal_hypothesis
    rep.counts["limit_strategies_verified"] = strategy_checked

    # club collections: one per enumerated space
    embeddings = 0
    homeos = 0
    vacuous = 0
    for space in all_spaces(max_points, min_points=1):
        seeds = [()] + [(c,) for c in space.clopens() if c]
        members = [build_tclub_member(OpenFamily.of(space, s)) for s in seeds]
        famsys = system_from_families(space, members)
        for q in famsys.quotients:
            rep.check(
                q.map.is_skeletal(),
                "club_system_node_skeletal",
                lambda: _space_tag(space),
            )
        for low, high in famsys.system.poset.pairs():
            rep.check(
                famsys.system.bond(low, high).is_skeletal(),
                "club_system_bond_skeletal",
                lambda: [_space_tag(space), [low, high]],
            )
        f, emb = embedding_map(famsys)
        embeddings += 1
        rep.check(emb.continuous, "embedding_continuous", lambda: _space_tag(space))
        rep.check(emb.image_dense, "embedding_image_dense", lambda: _space_tag(space))
        rep.check(emb.image_identity_holds, "embedding_image_identity", lambda: _space_tag(space))
        rep.check(
            emb.injective == emb.separates_points,
            "embedding_injective_iff_separating",
            lambda: _space_tag(space),
        )
        if emb.separates_points and emb.union_is_base:
            rep.check(
                emb.homeomorphism_onto_limit,
                "embedding_homeomorphism_when_separating_base",
                lambda: _space_tag(space),
            )
        if emb.separates_points:
            rep.check(
                emb.homeomorphism_onto_limit,
                "embedding_homeomorphism_when_separating",
                lambda: _space_tag(space),
            )
            homeos += 1
        if emb.vacuous_for_clopen_base:
            vacuous += 1
        # sigma-completeness along every chain in the (small) poset
        for a, b in famsys.system.poset.pairs():
            sig = check_sigma_completeness(famsys.system, [a, b])
            rep.check(sig.ok, "sigma_complete_on_chains", lambda: [_space_tag(space), [a, b]])
    rep.counts["club_embeddings"] = embeddings
    rep.counts["club_embeddings_homeomorphic"] = homeos
    rep.counts["club_embeddings_vacuous_for_clopen_base"] = vacuous

    # richer directed collections of random families
    rng2 = rng_for(seed, "dirfam")
    dir_count = min(samples, 120)
    for i in range(dir_count):
        n = 2 + (i % 2)
        space = random_space(rng2, n)
        fams = random_union_closed_families(rng2, space, rng2.randint(1, 3))
        famsys = system_from_families(space, fams)
        chk = famsys.system.check
        rep.check(chk.ok, "family_system_valid", lambda: [i, _space_tag(space), chk.witness])
        f, emb = embedding_map(famsys)
        rep.check(
            emb.image_dense and emb.image_identity_holds,
            "family_system_embedding_basics",
            lambda: [i, _space_tag(space)],
        )
        if emb.separates_points and emb.union_is_base:
            rep.check(
                emb.homeomorphism_onto_limit,
                "family_system_embedding_homeomorphism",
                lambda: [i, _space_tag(space)],
            )
        for a, b in famsys.system.poset.pairs():
            sig = check_sigma_completeness(famsys.system, [a, b])
            rep.check(sig.ok, "family_system_sigma_chains", lambda: [i, _space_tag(space), [a, b]])
    rep.counts["directed_family_systems"] = dir_count
    return rep


# ----------------------------------------------------------------------
# roundtrip suite: canonical JSON stability
# ----------------------------------------------------------------------


def roundtrip_suite(max_points: int = 4, samples: int = 1000, seed: int = 0) -> SuiteReport:
    rep = SuiteReport("roundtrip", seed, max_points, samples)
    rng = rng_for(seed, "roundtrip")
    for i in range(samples):
        kind = i % 4
        if kind == 0:
            space = random_space(rng, rng.randint(0, max_points))
            blob = jsonio.encode_space(space)
            back = jsonio.decode_space(blob)
            rep.check(back == space, "space_roundtrip", lambda: [i, blob])
            rep.check(
                jsonio.dumps(jsonio.encode_space(back)) == jsonio.dumps(blob),
                "space_roundtrip_bytes",
                lambda: [i, blob],
            )
        elif kind == 1:
            space = random_space(rng, rng.randint(1, max_points))
            fam = random_family(rng, space)
            blob = jsonio.encode_family(fam)
            back = jsonio.decode_family(blob)
            rep.check(
                back.members == fam.members and back.space == fam.space,
                "family_roundtrip",
                lambda: [i, blob],
            )
        elif kind == 2:
            sys = random_quotient_chain(rng, rng.randint(min(2, max_points), max_points), 2)
            blob = jsonio.encode_system(sys)
            back = jsonio.decode_system(blob)
            rep.check(
                jsonio.dumps(jsonio.encode_system(back)) == jsonio.dumps(blob),
                "system_roundtrip_bytes",
                lambda: [i, blob],
            )
        else:
            space = random_space(rng, rng.randint(1, max_points))
            sol = solve_open_open(space)
            blob = jsonio.dumps(jsonio.encode_solution(sol))
            rep.check(
                blob == jsonio.dumps(jsonio.encode_solution(solve_open_open(space))),
                "solution_deterministic",
                lambda: [i, jsonio.encode_space(space)],
            )
    return rep


_RUNNERS = {
    "quotient": quotient_suite,
    "game": game_suite,
    "systems": systems_suite,
    "roundtrip": roundtrip_suite,
}


def run_suite(name: str, max_points: int, samples: int, seed: int):
    """Run one named suite, or all of them; returns a list of reports."""
    if not 1 <= max_points <= MAX_SUITE_POINTS:
        raise ValueError("max_points must be between 1 and %d" % MAX_SUITE_POINTS)
    if not 0 <= samples <= MAX_SUITE_SAMPLES:
        raise ValueError("samples must be between 0 and %d" % MAX_SUITE_SAMPLES)
    if name == "all":
        return [
            _RUNNERS[n](max_points=max_points, samples=samples, seed=seed)
            for n in SUITE_NAMES
        ]
    if name not in _RUNNERS:
        raise ValueError("unknown suite %r" % name)
    return [_RUNNERS[name](max_points=max_points, samples=samples, seed=seed)]
